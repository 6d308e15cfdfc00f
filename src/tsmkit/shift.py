"""Temporal shift operator: partial channel shift along time, zero padded.

Pure data movement. A tensor shaped [N*T, C, H, W] is reinterpreted as
[N, T, C, H, W]; the first C//fold_div channels take their values from the
next timestep, the second C//fold_div from the previous one, the rest pass
through untouched. Values shifted past a clip boundary become zero.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShiftConfig:
    num_segments: int = 8
    fold_div: int = 8

    def __post_init__(self):
        if self.num_segments < 1:
            raise ValueError(f"num_segments must be >= 1, got {self.num_segments}")
        if self.fold_div < 2:
            raise ValueError(f"fold_div must be >= 2, got {self.fold_div}")


def _check_shape(x, cfg):
    nt, c = x.shape[0], x.shape[1]
    t = cfg.num_segments
    if nt % t:
        raise ValueError(
            f"leading extent {nt} not divisible by num_segments {t}"
        )
    fold = c // cfg.fold_div
    if 2 * fold > c:
        raise ValueError(
            f"2*(C//fold_div) = {2 * fold} exceeds channel count {c}"
        )
    return nt // t, t, fold


def temporal_shift(x, cfg):
    """Shift channels [0,f) one step toward the past and [f,2f) toward the
    future, zero-padding at clip boundaries."""
    n, t, fold = _check_shape(x, cfg)
    v = x.reshape(n, t, *x.shape[1:])
    out = np.zeros_like(v)
    out[:, :-1, :fold] = v[:, 1:, :fold]
    out[:, 1:, fold:2 * fold] = v[:, :-1, fold:2 * fold]
    out[:, :, 2 * fold:] = v[:, :, 2 * fold:]
    return out.reshape(x.shape)


def temporal_shift_backward(grad, cfg):
    """Adjoint of temporal_shift: each shifted group moves the opposite way."""
    n, t, fold = _check_shape(grad, cfg)
    v = grad.reshape(n, t, *grad.shape[1:])
    out = np.zeros_like(v)
    out[:, 1:, :fold] = v[:, :-1, :fold]
    out[:, :-1, fold:2 * fold] = v[:, 1:, fold:2 * fold]
    out[:, :, 2 * fold:] = v[:, :, 2 * fold:]
    return out.reshape(grad.shape)
