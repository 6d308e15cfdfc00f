"""Central finite-difference gradient checking for every op with a backward."""

import numpy as np

from . import ops
from .shift import ShiftConfig, temporal_shift, temporal_shift_backward


def numerical_gradient(f, x, h=1e-5):
    """Central differences of scalar-valued f at x, elementwise."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def max_rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(analytic))
    return float((np.abs(analytic - numeric) / denom).max())


def _proj(rng, shape):
    """Fixed random projection so vector-valued ops reduce to a scalar."""
    return rng.normal(size=shape)


def _check_conv(rng, x_shape, w_shape, **conv_args):
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    b = rng.normal(size=w_shape[0])
    p = _proj(rng, ops.conv2d(x, w, b, **conv_args).shape)
    gx, gw, gb = ops.conv2d_backward(x, w, p, **conv_args)
    errs = [
        max_rel_error(gx, numerical_gradient(
            lambda v: float((ops.conv2d(v, w, b, **conv_args) * p).sum()), x)),
        max_rel_error(gw, numerical_gradient(
            lambda v: float((ops.conv2d(x, v, b, **conv_args) * p).sum()), w)),
        max_rel_error(gb, numerical_gradient(
            lambda v: float((ops.conv2d(x, w, v, **conv_args) * p).sum()), b)),
    ]
    return max(errs)


def check_conv2d(rng):
    return _check_conv(rng, (2, 3, 6, 6), (4, 3, 3, 3), padding=1)


def check_conv2d_grouped_strided(rng):
    return _check_conv(rng, (2, 4, 7, 7), (4, 2, 3, 3), stride=2, padding=1,
                       groups=2)


def check_conv2d_odd(rng):
    # row phases and kernel columns that reach over unequal extents of a
    # non-square frame
    return _check_conv(rng, (2, 3, 8, 11), (4, 3, 5, 5), stride=3, padding=2)


def check_conv2d_proj(rng):
    # a 1x1 stride-2 projection reads no odd row or column of its input,
    # so their gradient is zero
    return _check_conv(rng, (2, 3, 5, 6), (4, 3, 1, 1), stride=2)


def check_relu(rng):
    x = rng.normal(size=(4, 5)) + 0.1  # stay away from the kink
    p = _proj(rng, x.shape)
    g = ops.relu_backward(x > 0, p)
    return max_rel_error(g, numerical_gradient(
        lambda v: float((ops.relu(v) * p).sum()), x))


def check_linear(rng):
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    p = _proj(rng, (4, 3))
    gx, gw, gb = ops.linear_backward(x, w, p)
    return max(
        max_rel_error(gx, numerical_gradient(
            lambda v: float((ops.linear(v, w, b) * p).sum()), x)),
        max_rel_error(gw, numerical_gradient(
            lambda v: float((ops.linear(x, v, b) * p).sum()), w)),
        max_rel_error(gb, numerical_gradient(
            lambda v: float((ops.linear(x, w, v) * p).sum()), b)),
    )


def check_global_avg_pool(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    p = _proj(rng, (2, 3))
    g = ops.global_avg_pool_backward(x.shape, p)
    return max_rel_error(g, numerical_gradient(
        lambda v: float((ops.global_avg_pool(v) * p).sum()), x))


def check_softmax_cross_entropy(rng):
    logits = rng.normal(size=(4, 7))
    labels = rng.integers(0, 7, size=4)
    probs = ops.softmax(logits)
    g = ops.softmax_cross_entropy_backward(probs, labels)
    return max_rel_error(g, numerical_gradient(
        lambda v: ops.cross_entropy(ops.softmax(v), labels), logits))


def check_dropout(rng):
    x = rng.normal(size=(5, 6))
    p = _proj(rng, x.shape)
    mask = ops.dropout_mask(x.shape, 0.4, 11, x.dtype)
    g = ops.apply_dropout(p, mask, 0.4)
    return max_rel_error(g, numerical_gradient(
        lambda v: float((ops.apply_dropout(v, mask, 0.4) * p).sum()), x))


def _check_affine_norm(rng, x_shape):
    x = rng.normal(size=x_shape)
    scale = rng.normal(size=x_shape[1])
    shift = rng.normal(size=x_shape[1])
    p = _proj(rng, x.shape)
    _, cache = ops.affine_norm(x, scale, shift)
    gx, gs, gb = ops.affine_norm_backward(cache, p)
    return max(
        max_rel_error(gx, numerical_gradient(
            lambda v: float((ops.affine_norm(v, scale, shift)[0] * p).sum()), x)),
        max_rel_error(gs, numerical_gradient(
            lambda v: float((ops.affine_norm(x, v, shift)[0] * p).sum()), scale)),
        max_rel_error(gb, numerical_gradient(
            lambda v: float((ops.affine_norm(x, scale, v)[0] * p).sum()), shift)),
    )


def check_affine_norm(rng):
    return _check_affine_norm(rng, (3, 4, 5, 5))


def check_affine_norm_groups(rng):
    # three groups, so a gradient leaking across groups shows
    return _check_affine_norm(rng, (2, 12, 3, 5))


def check_temporal_shift(rng):
    cfg = ShiftConfig(num_segments=3, fold_div=4)
    x = rng.normal(size=(6, 8, 2, 2))
    p = _proj(rng, x.shape)
    g = temporal_shift_backward(p, cfg)
    return max_rel_error(g, numerical_gradient(
        lambda v: float((temporal_shift(v, cfg) * p).sum()), x))


CHECKS = {
    "conv2d": check_conv2d,
    "relu": check_relu,
    "linear": check_linear,
    "global_avg_pool": check_global_avg_pool,
    "softmax_cross_entropy": check_softmax_cross_entropy,
    "dropout": check_dropout,
    "affine_norm": check_affine_norm,
    "temporal_shift": check_temporal_shift,
    # last, so the checks above keep their seeds
    "conv2d_grouped_strided": check_conv2d_grouped_strided,
    "conv2d_odd": check_conv2d_odd,
    "affine_norm_groups": check_affine_norm_groups,
    "conv2d_proj": check_conv2d_proj,
}


def run_all(seed=0):
    """Returns {op name: max relative error vs central differences}."""
    return {name: fn(np.random.default_rng([seed, i]))
            for i, (name, fn) in enumerate(CHECKS.items())}
