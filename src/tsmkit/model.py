"""Segment-based TSM classifier: residual CNN over sampled frames with
average consensus over segments.

The network runs every sampled frame through a shared 2D CNN whose residual
blocks optionally apply the temporal shift to their branch input. Per-frame
logits are averaged over the clip's segments before softmax.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ops
from .shift import ShiftConfig, temporal_shift, temporal_shift_backward

# capacity -> (stem width, [(width, blocks, conv groups) per stage])
# "micro" exists for gradient-check scale only.
CAPACITY_PRESETS = {
    "micro": (4, [(4, 2, 1)]),
    "small": (16, [(16, 2, 1), (32, 2, 1), (64, 2, 1)]),
    "large": (32, [(32, 3, 4), (64, 3, 4), (128, 3, 4)]),
}

# a ModelConfig field's annotation -> (the types it takes, their name)
_FIELD_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
                bool: (bool, "a bool"), str: (str, "a string")}


@dataclass
class ModelConfig:
    num_classes: int
    in_channels: int = 1
    num_segments: int = 8
    capacity: str = "small"
    dropout_rate: float = 0.5
    shift_enabled: bool = True
    fold_div: int = 8

    def __post_init__(self):
        for f in fields(self):  # of its annotated type; a bool is no number
            value, (kinds, what) = getattr(self, f.name), _FIELD_TYPES[f.type]
            if not isinstance(value, kinds) \
                    or isinstance(value, bool) != (f.type is bool):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        for name, low in (("num_classes", 2), ("in_channels", 1), ("num_segments", 1)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.capacity not in CAPACITY_PRESETS:
            raise ValueError(f"unknown capacity {self.capacity!r}")

    def to_dict(self):
        return asdict(self)


def _he_init(rng, shape, fan_in, dtype):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


class _Layer:
    """A parametrised layer; every call of one passes through forward and
    backward here. A subclass sets its parameters with _set_params and
    gives one op pair: _forward(x) -> (out, what backward reads) and
    _backward(cache, g, **kw) -> (grad_x, one gradient per parameter in
    params() order). Each parameter has a gradient buffer, the attribute
    "g" + its name, which backward adds into. _cache holds what the last
    training forward left for backward, which takes it out: each array is
    freed once its backward has read it."""

    _cache = None

    def _set_params(self, **params):
        self._names = tuple(params)
        for name, p in params.items():
            setattr(self, name, p)
            setattr(self, "g" + name, np.zeros_like(p))

    def params(self):
        return {name: getattr(self, name) for name in self._names}

    def grads(self):
        return {name: getattr(self, "g" + name) for name in self._names}

    def forward(self, x, train=True):
        out, cache = self._forward(x)
        self._cache = cache if train else None
        return out

    def backward(self, g, **kw):
        cache, self._cache = self._cache, None
        gx, *gparams = self._backward(cache, g, **kw)
        for buf, gp in zip(self.grads().values(), gparams):
            buf += gp
        return gx


class Conv2d(_Layer):
    def __init__(self, rng, in_ch, out_ch, k, stride=1, padding=0, groups=1,
                 dtype=np.float32):
        fan_in = (in_ch // groups) * k * k
        self._set_params(
            weight=_he_init(rng, (out_ch, in_ch // groups, k, k), fan_in, dtype),
            bias=np.zeros(out_ch, dtype=dtype))
        self.stride, self.padding, self.groups = stride, padding, groups

    def _forward(self, x):  # the backward rebuilds its planes from x
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.padding,
                          self.groups), x

    def _backward(self, x, g, need_grad_x=True):
        return ops.conv2d_backward(x, self.weight, g, self.stride, self.padding,
                                   self.groups, need_grad_x=need_grad_x)


class AffineNorm(_Layer):
    def __init__(self, channels, dtype=np.float32, zero_scale=False):
        ops.norm_groups(channels)  # whole groups only
        self._set_params(
            scale=np.full(channels, 0.0 if zero_scale else 1.0, dtype=dtype),
            shift=np.zeros(channels, dtype=dtype))

    def _forward(self, x):
        return ops.affine_norm(x, self.scale, self.shift)

    def _backward(self, cache, g):
        return ops.affine_norm_backward(cache, g)


class Linear(_Layer):
    # gain < 1 keeps a freshly built classifier close to uniform output
    def __init__(self, rng, in_dim, out_dim, dtype=np.float32, gain=1.0):
        self._set_params(
            weight=gain * _he_init(rng, (out_dim, in_dim), in_dim, dtype),
            bias=np.zeros(out_dim, dtype=dtype))

    def _forward(self, x):
        return ops.linear(x, self.weight, self.bias), x

    def _backward(self, x, g):
        return ops.linear_backward(x, self.weight, g)


class ResidualBlock:
    """y = identity(x) + F(shift(x)), F = conv3x3 -> norm -> relu -> conv3x3 -> norm.

    The identity path is never shifted. Width or stride changes use a 1x1
    projection convolution on the identity. The branch's final norm scale is
    zero-initialized so a freshly built block is the identity map. The
    block keeps nothing of its own: its ReLU's output is conv2's input,
    which conv2 records, and that is > 0 exactly where the ReLU's input is.
    """

    def __init__(self, rng, in_ch, out_ch, stride, groups, shift_cfg,
                 dtype=np.float32):
        self.shift_cfg = shift_cfg  # None disables the shift
        self.conv1 = Conv2d(rng, in_ch, out_ch, 3, stride, 1, groups, dtype)
        self.norm1 = AffineNorm(out_ch, dtype)
        self.conv2 = Conv2d(rng, out_ch, out_ch, 3, 1, 1, groups, dtype)
        self.norm2 = AffineNorm(out_ch, dtype, zero_scale=True)
        self.proj = None
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv2d(rng, in_ch, out_ch, 1, stride, 0, 1, dtype)

    def forward(self, x, train=True):
        branch = temporal_shift(x, self.shift_cfg) if self.shift_cfg else x
        branch = self.norm1.forward(self.conv1.forward(branch, train), train)
        branch = ops.relu(branch)
        branch = self.norm2.forward(self.conv2.forward(branch, train), train)
        identity = self.proj.forward(x, train) if self.proj else x
        branch += identity  # the norm's fresh output, not kept by any cache
        return branch

    def backward(self, g):
        gb = self.norm2.backward(g)
        relu_mask = self.conv2._cache > 0  # before its backward takes it
        gb = self.conv2.backward(gb)
        gb = ops.relu_backward(relu_mask, gb)
        gb = self.norm1.backward(gb)
        gb = self.conv1.backward(gb)
        if self.shift_cfg:
            gb = temporal_shift_backward(gb, self.shift_cfg)
        gid = self.proj.backward(g) if self.proj else g
        return gid + gb

    def sublayers(self):
        layers = {"conv1": self.conv1, "norm1": self.norm1, "conv2": self.conv2,
                  "norm2": self.norm2, "proj": self.proj}
        return {name: layer for name, layer in layers.items() if layer}


class Model:
    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self._cache = None
        rng = np.random.default_rng(seed)
        stem_w, stages = CAPACITY_PRESETS[cfg.capacity]
        shift_cfg = None
        if cfg.shift_enabled:
            shift_cfg = ShiftConfig(cfg.num_segments, cfg.fold_div)

        # stride-2 stem halves the resolution before the residual stages
        self.stem_conv = Conv2d(rng, cfg.in_channels, stem_w, 3, 2, 1, 1, dtype)
        self.stem_norm = AffineNorm(stem_w, dtype)
        self.blocks = []
        in_ch = stem_w
        for si, (width, nblocks, groups) in enumerate(stages):
            for bi in range(nblocks):
                stride = 2 if (si > 0 and bi == 0) else 1
                self.blocks.append(
                    ResidualBlock(rng, in_ch, width, stride, groups, shift_cfg,
                                  dtype))
                in_ch = width
        self.head = Linear(rng, in_ch, cfg.num_classes, dtype, gain=0.1)

    # ------------------------------------------------------------------

    def forward(self, frames, train=True, dropout_mask=None):
        """Frames [N*T, C, H, W] -> clip logits [N, num_classes]. A training
        forward records what backward reads and drops pooled features by
        dropout_mask (see draw_dropout_mask); None drops nothing. The stem
        conv records frames of the model's dtype as they are, not a copy,
        so a training forward reads its frames again in its backward:
        change them only after that. An eval forward keeps nothing.

        An eval forward runs the network one clip of T frames at a time. The
        norm is per frame and the shift stays inside a clip, so a clip's
        logits depend on that clip alone, and every clip runs with the same
        shapes: its logits are bit-identical at any batch size or order."""
        t = self.cfg.num_segments
        nt = frames.shape[0]
        if nt % t:
            raise ValueError(f"batch leading extent {nt} not divisible by T={t}")
        if frames.shape[1] != self.cfg.in_channels:
            raise ValueError(
                f"batch has {frames.shape[1]} channels, model expects "
                f"{self.cfg.in_channels}"
            )
        if train:
            return self._run(frames, True, dropout_mask)
        clips = [self._run(frames[i:i + t], False, None)
                 for i in range(0, nt, t)]
        if not clips:  # an empty batch has no clip logits
            return np.empty((0, self.cfg.num_classes), self.dtype)
        return np.concatenate(clips)

    def draw_dropout_mask(self, frames, seed):
        """The dropout keep mask of a training forward over `frames` frames,
        one row per frame, drawn from seed; None at rate 0. A part of the
        batch can take its rows of it."""
        return ops.dropout_mask((frames, self.head.weight.shape[1]),
                                self.cfg.dropout_rate, seed, self.dtype)

    def _run(self, frames, record, mask):
        x = frames.astype(self.dtype, copy=False)
        x = self.stem_norm.forward(self.stem_conv.forward(x, record), record)
        relu_mask = x > 0 if record else None
        x = ops.relu(x)
        for block in self.blocks:
            x = block.forward(x, record)
        dropped = ops.apply_dropout(ops.global_avg_pool(x), mask,
                                    self.cfg.dropout_rate)
        self._cache = (relu_mask, x.shape, mask) if record else None
        logits = self.head.forward(dropped, record)
        return logits.reshape(-1, self.cfg.num_segments, logits.shape[1]).mean(axis=1)

    def backward(self, grad_logits, need_grad_x=False):
        """Accumulates parameter gradients from d(loss)/d(clip logits) of
        the last training forward and returns the gradient w.r.t. its input
        frames if need_grad_x, else None. It frees what that forward
        recorded, so a second backward raises."""
        if self._cache is None:
            raise ValueError("backward needs a training forward first")
        (relu_mask, pool_shape, mask), self._cache = self._cache, None
        t = self.cfg.num_segments
        n, k = grad_logits.shape
        g = np.broadcast_to(grad_logits[:, None, :], (n, t, k)).reshape(n * t, k) / t
        g = self.head.backward(np.ascontiguousarray(g))
        g = ops.apply_dropout(g, mask, self.cfg.dropout_rate)
        g = ops.global_avg_pool_backward(pool_shape, g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        g = ops.relu_backward(relu_mask, g)
        g = self.stem_norm.backward(g)
        return self.stem_conv.backward(g, need_grad_x=need_grad_x)

    def replica(self):
        """A model sharing this one's parameter arrays, so it sees every
        update to them, with its own per-call state and gradient buffers:
        the two can run forward and backward on two batches at once. It is
        built like any model, then each of its layers is pointed at this
        model's parameter arrays, with gradient buffers of its own."""
        twin = Model(self.cfg, dtype=self.dtype)
        for (_, layer), (_, twin_layer) in zip(self._named_layers(),
                                               twin._named_layers()):
            twin_layer._set_params(**layer.params())
        return twin

    # ------------------------------------------------------------------

    def _named_layers(self):
        yield "stem.conv", self.stem_conv
        yield "stem.norm", self.stem_norm
        for i, block in enumerate(self.blocks):
            for sub, layer in block.sublayers().items():
                yield f"block{i}.{sub}", layer
        yield "head", self.head

    def named_parameters(self):
        return {f"{ln}.{pn}": p for ln, layer in self._named_layers()
                for pn, p in layer.params().items()}

    def named_grads(self):
        return {f"{ln}.{pn}": g for ln, layer in self._named_layers()
                for pn, g in layer.grads().items()}

    def zero_grads(self):
        for g in self.named_grads().values():
            g[...] = 0.0

    def load_parameters(self, tensors):
        params = self.named_parameters()
        missing = set(params) ^ set(tensors)
        if missing:
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for name, p in params.items():
            src = tensors[name]
            if p.shape != src.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.shape} vs {src.shape}")
            p[...] = src

    def param_count(self):
        return sum(p.size for p in self.named_parameters().values())


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    return Model(cfg, seed=seed, dtype=dtype)
