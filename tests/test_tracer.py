"""The benchmark's span tracer still sees every layer call: each layer of
the model gets a forward and a backward span in a training step.

The tracer wraps `forward` and `backward` of each parametrised layer class
and `Model.__init__` from outside; a change to how layers are called must
keep those names, or the per-layer figures of a traced run read 0."""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
from tsmkit.data import RESOLUTION  # noqa: E402
from tsmkit.model import ModelConfig, build_model  # noqa: E402
from tsmkit.train import _train_step  # noqa: E402


def test_every_layer_has_forward_and_backward_spans():
    spans = tracer.Tracer()
    spans.install()
    try:  # models built while installed get their layers named
        cfg = ModelConfig(num_classes=3, in_channels=2, num_segments=3,
                          capacity="micro", fold_div=4)
        model = build_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        frames = rng.random((4 * 3, 2, RESOLUTION, RESOLUTION),
                            dtype=np.float32)
        _train_step(model, model.replica(), frames,
                    rng.integers(0, 3, 4), 1)  # halves in turn
    finally:
        spans.uninstall()
    names = {span[0] for span in spans.spans}
    for layer, _ in model._named_layers():
        assert f"model.{layer}.fwd" in names, layer
        assert f"model.{layer}.bwd" in names, layer
    assert not {"model.?.fwd", "model.?.bwd"} & names
