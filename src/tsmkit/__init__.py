"""tsmkit: temporal-shift video action recognition at desk scale."""

from .model import ModelConfig, build_model
from .shift import ShiftConfig, temporal_shift, temporal_shift_backward
from .ensemble import PredictionSet
from .train import TrainConfig

__all__ = [
    "ModelConfig",
    "PredictionSet",
    "ShiftConfig",
    "TrainConfig",
    "build_model",
    "temporal_shift",
    "temporal_shift_backward",
]

__version__ = "0.1.0"
