"""Dense-tensor forward ops and their exact analytic backward passes.

Everything operates on plain numpy arrays. Forward functions return the
output (plus a cache where the backward needs intermediates); backward
functions take the upstream gradient and return gradients matching the
shapes of the differentiated inputs.
"""

import numpy as np


def _as_float(x):
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    return x


# ---------------------------------------------------------------------------
# convolution


def _valid_range(offset, padding, stride, size, count):
    """[lo, hi) of the q in [0, count) whose padded index offset + stride*q
    falls inside the unpadded extent [padding, padding + size)."""
    lo = min(count, max(0, -((offset - padding) // stride)))
    hi = max(lo, min(count, (size - 1 + padding - offset) // stride + 1))
    return lo, hi


def _frame_rows(h, kh, stride, padding):
    """Rows per frame hq of the row-phase planes, H' <= hq <= H' +
    (kh-1)//stride. A frame keeps the rows of phase 0 up to its first
    bottom-padding row, padded row h + padding. Every row a kernel row reads
    past those, for an output row that is kept, is bottom padding, and lands
    on the next frame's top padding rows (or the zero tail): zeros either
    way. So a 3x3 stride-1 conv with padding 1 keeps H' + 1 rows, not
    H' + 2."""
    oh = (h + 2 * padding - kh) // stride + 1
    return min(oh + (kh - 1) // stride, max(oh, -(-(h + padding) // stride)))


def _plane_windows(planes, xt, kh, stride, padding):
    """(plane window, input window) pairs, one per row phase a and kernel
    column j that reaches the unpadded input: rows q0:q1 and columns x0:x1
    of planes[a, :, j] as [C, N, hq, W'], and the same pixels of xt, the
    input as [C, N, H, W]. The one place that maps pixels to planes."""
    c, n, h, w = xt.shape
    s, kw = stride, planes.shape[2]
    ow = (w + 2 * padding - kw) // s + 1
    hq = _frame_rows(h, kh, s, padding)
    for a in range(len(planes)):
        q0, q1 = _valid_range(a, padding, s, h, hq)
        for j in range(kw):
            x0, x1 = _valid_range(j, padding, s, w, ow)
            if q1 > q0 and x1 > x0:
                plane = planes[a, :, j, :n * hq * ow].reshape(c, n, hq, ow)
                r0, c0 = a + s * q0 - padding, j + s * x0 - padding
                yield (plane[:, :, q0:q1, x0:x1],
                       xt[:, :, r0:r0 + s * (q1 - q0 - 1) + 1:s,
                          c0:c0 + s * (x1 - x0 - 1) + 1:s])


def _row_planes(x, kh, kw, stride, padding):
    """Row-phase planes of x: [S, C, kW, N*hq*W' + tail], S = min(stride, kh).

    Kernel row i reads padded rows i + stride*y', which are rows
    i//stride + y' of the plane of row phase a = i % stride, the plane of
    padded rows a + stride*q. For each phase and kernel column j, one
    strided copy from x fills planes[a, :, j], laid out [C, N, hq, W'] with
    hq = _frame_rows(...) rows per frame, of padded columns j + stride*x',
    and zeros where it reaches into the padding or past the padded input.
    Kernel row i is then the [C, kW, N*hq*W'] window at offset
    (i//stride)*W' of its phase (_row_windows): the first H' rows of each of
    its frames are the kernel row's im2col columns. The tail,
    (kh-1)//stride rows of zeros, holds the last frame's window.
    """
    n, c, h, w = x.shape
    ow = (w + 2 * padding - kw) // stride + 1
    size = n * _frame_rows(h, kh, stride, padding) * ow
    planes = np.zeros((min(stride, kh), c, kw, size + (kh - 1) // stride * ow),
                      x.dtype)
    for dst, src in _plane_windows(planes, x.transpose(1, 0, 2, 3), kh, stride,
                                   padding):
        dst[...] = src
    return planes


def _row_planes_adjoint(gplanes, shape, kh, stride, padding):
    """The adjoint of _row_planes: the C-contiguous gradient of an input of
    this shape from its planes' gradient. A pixel copied to no plane gets
    exactly zero; the entries of the padding and the tail are dropped."""
    grad_x = np.zeros(shape, gplanes.dtype)
    for src, dst in _plane_windows(gplanes, grad_x.transpose(1, 0, 2, 3), kh,
                                   stride, padding):
        dst += src
    return grad_x


def _row_windows(planes, kh, stride, ow, groups):
    """Kernel row i's window of the planes for i in range(kh): a view
    [G, C_in/G*kW, N*hq*W'] at offset (i//stride)*W' of phase i % stride."""
    size = planes.shape[3] - (kh - 1) // stride * ow
    for i in range(kh):
        off = i // stride * ow
        yield planes[i % stride, :, :, off:off + size].reshape(
            groups, -1, size)


def _kernel_rows(weight, groups):
    """[kH, G, cog, C_in/G*kW]: the weights of each kernel row, contiguous, in
    the row order of its _row_windows window."""
    cout, cin_g, kh, kw = weight.shape
    return np.ascontiguousarray(
        weight.reshape(groups, cout // groups, cin_g, kh, kw).transpose(
            3, 0, 1, 2, 4)).reshape(kh, groups, cout // groups, cin_g * kw)


def conv2d(x, weight, bias, stride=1, padding=0, groups=1):
    """Cross-correlation of x [N,C_in,H,W] with weight [C_out,C_in/groups,kH,kW].

    Output spatial extents follow floor((H + 2*padding - kH)/stride) + 1.
    The output is kH GEMMs batched over groups, one per kernel row, each
    over its window of x's _row_planes (as in MEC; Cho & Brand, arXiv
    1706.06873), summed in kernel-row order. Each frame's hq - H' extra
    output rows read across into the next frame and are dropped. The planes
    are dropped on return; conv2d_backward builds them again from x.
    """
    x = _as_float(x)
    weight = _as_float(weight)
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if cin_g * groups != cin or cout % groups:
        raise ValueError(
            f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape} "
            f"with groups={groups}"
        )
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ValueError(
            f"kernel {weight.shape} larger than padded input {x.shape} "
            f"(padding={padding})"
        )
    cog = cout // groups
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    hq = _frame_rows(h, kh, stride, padding)
    planes = _row_planes(x, kh, kw, stride, padding)
    res = part = None
    for krow, rows in zip(_kernel_rows(weight, groups),
                          _row_windows(planes, kh, stride, ow, groups)):
        if res is None:
            res = np.matmul(krow, rows)  # [G, cog, N*hq*W']
        else:
            part = np.matmul(krow, rows, out=part)
            res += part
    res = res.reshape(groups, cog, n, hq, ow)[:, :, :, :oh]
    dtype = res.dtype
    if bias is not None:
        bias = np.asarray(bias).reshape(groups, cog, 1, 1, 1)
        dtype = np.result_type(dtype, bias)
    out = np.empty((n, cout, oh, ow), dtype=dtype)
    out_g = out.reshape(n, groups, cog, oh, ow).transpose(1, 2, 0, 3, 4)
    if bias is None:
        out_g[...] = res
    else:  # one transposed pass writes the sum plus the bias
        np.add(res, bias, out=out_g)
    return out


def conv2d_backward(x, weight, grad_out, stride=1, padding=0, groups=1,
                    need_grad_x=True):
    """Gradients of conv2d w.r.t. (input, weight, bias).

    It builds x's _row_planes again, bit for bit the forward's, with one
    strided copy of x per row phase and kernel column: cheaper to redo than
    to keep, since a stride-1 3x3 conv's planes take about 3.2 times x's
    bytes. The upstream gradient is laid out like the forward's output
    rows, [G, cog, N*hq*W'], with zeros in each frame's rows H'..hq-1. The
    weight gradient of kernel row i is one GEMM of it against the plane
    window conv2d's row i read; the zero rows cancel the window's reads
    across frames. The input gradient is the adjoint of the forward: the
    GEMM of kernel row i's weights, transposed, with the upstream gradient
    adds into that window of a plane gradient laid out like the planes, and
    _row_planes_adjoint takes the plane gradient to the input gradient.
    need_grad_x=False skips the input gradient and returns None in its
    place.
    """
    x = _as_float(x)
    weight = _as_float(weight)
    grad_out = _as_float(grad_out)
    n, _, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if grad_out.shape != (n, cout, oh, ow):
        raise ValueError(
            f"upstream gradient shape {grad_out.shape} does not match forward "
            f"output {(n, cout, oh, ow)}"
        )
    grad_bias = grad_out.sum(axis=(0, 2, 3))

    cog = cout // groups
    planes = _row_planes(x, kh, kw, stride, padding)
    hq = _frame_rows(h, kh, stride, padding)
    gq = np.empty((groups, cog, n, hq, ow), dtype=grad_out.dtype)
    gq[:, :, :, :oh] = grad_out.reshape(n, groups, cog, oh, ow).transpose(
        1, 2, 0, 3, 4)
    gq[:, :, :, oh:] = 0
    gq = gq.reshape(groups, cog, n * hq * ow)
    grad_w = np.empty_like(weight)
    gw_rows = grad_w.reshape(groups, cog, cin_g, kh, kw)
    for i, rows in enumerate(_row_windows(planes, kh, stride, ow, groups)):
        # rows @ gq.T, written transposed: the GEMM's M is the wider
        # C_in/G*kW instead of cog
        gw_rows[:, :, :, i] = np.matmul(
            rows, gq.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(
                groups, cog, cin_g, kw)
    if not need_grad_x:
        return None, grad_w, grad_bias
    # gq's zero rows add exact zeros; what lands on the padding, the tail
    # or the next frame's top rows is padding, which the adjoint drops
    gplanes = np.zeros_like(planes)
    part = None
    for krow, window in zip(_kernel_rows(weight, groups),
                            _row_windows(gplanes, kh, stride, ow, groups)):
        part = np.matmul(krow.transpose(0, 2, 1), gq, out=part)
        window += part
    grad_x = _row_planes_adjoint(gplanes, x.shape, kh, stride, padding)
    return grad_x, grad_w, grad_bias


# ---------------------------------------------------------------------------
# elementwise / dense


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(mask, grad_out):
    """mask is relu's input > 0, all the backward reads of it."""
    return grad_out * mask


def linear(x, weight, bias):
    """x [N, in] @ weight [out, in].T + bias [out]."""
    if x.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"linear shape mismatch: input {x.shape} vs weight {weight.shape}"
        )
    return x @ weight.T + bias


def linear_backward(x, weight, grad_out):
    grad_x = grad_out @ weight
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def global_avg_pool(x):
    """[N,C,H,W] -> [N,C] mean over the spatial extents."""
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(x_shape, grad_out):
    n, c, h, w = x_shape
    g = np.broadcast_to(grad_out[:, :, None, None], (n, c, h, w))
    return g / (h * w)


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs, labels):
    """Mean negative log-likelihood of integer labels under probs [N,K]."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    n, k = probs.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k}): {labels}")
    picked = probs[np.arange(n), labels]
    return float(-np.log(np.clip(picked, 1e-300, None)).mean())


def softmax_cross_entropy_backward(probs, labels, count=None):
    """Gradient of mean cross_entropy(softmax(logits)) w.r.t. logits. With
    count, the mean is over a batch of count rows, of which these are some."""
    n, k = probs.shape
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    return g / (n if count is None else count)


def dropout_mask(shape, rate, seed, dtype):
    """The keep mask inverted dropout draws from seed; None at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return None
    rng = np.random.default_rng(seed)
    return (rng.random(shape) >= rate).astype(dtype)


def apply_dropout(x, mask, rate):
    """Inverted dropout by a given keep mask: x * mask / (1 - rate), or x
    where mask is None. It is its own backward."""
    if mask is None:
        return x
    return x * mask / (1.0 - rate)


NORM_GROUP_SIZE = 4  # channels per GroupNorm group


def norm_groups(channels):
    """Number of GroupNorm groups of `channels`; a count that does not split
    into whole groups raises ValueError."""
    if channels % NORM_GROUP_SIZE:
        raise ValueError(f"GroupNorm needs a channel count divisible by "
                         f"{NORM_GROUP_SIZE}, got {channels}")
    return channels // NORM_GROUP_SIZE


def affine_norm(x, scale, shift, eps=1e-5):
    """Per-frame GroupNorm (Wu & He, arXiv 1803.08494) plus a per-channel
    affine: each frame is standardized by its own mean and variance over
    every group of NORM_GROUP_SIZE channels and H x W.

    No statistic crosses frames, so a frame's output does not depend on the
    rest of the batch. Returns (out, cache).
    """
    n, c = x.shape[:2]
    xg = x.reshape(n, norm_groups(c), -1)
    mu = xg.mean(axis=2, keepdims=True)
    d = xg - mu
    out = d * d
    var = out.mean(axis=2, keepdims=True)  # np.var, bit for bit
    inv_std = 1.0 / np.sqrt(var + eps)
    # in place: d is not kept alive
    xhat = np.multiply(d, inv_std, out=d).reshape(x.shape)
    # scale * xhat + shift, written into the d * d buffer
    out = np.multiply(scale[None, :, None, None], xhat, out=out.reshape(x.shape))
    out += shift[None, :, None, None]
    return out, (xhat, inv_std, scale)


def affine_norm_backward(cache, grad_out):
    xhat, inv_std, scale = cache
    n, groups = inv_std.shape[:2]
    tmp = grad_out * xhat
    grad_scale = tmp.sum(axis=(0, 2, 3))
    grad_shift = grad_out.sum(axis=(0, 2, 3))
    # gxhat, until scaled below
    gx = (grad_out * scale[None, :, None, None]).reshape(n, groups, -1)
    xg = xhat.reshape(n, groups, -1)
    tmp = tmp.reshape(n, groups, -1)
    m = gx.shape[2]
    # standard normalization backward over each (frame, group), whose mean
    # and var depend on x:
    # (inv_std / m) * (m * gxhat - sum(gxhat) - xhat * sum(gxhat * xhat)),
    # each step in place on one of two buffers
    s1 = gx.sum(axis=2, keepdims=True)
    s2 = np.multiply(gx, xg, out=tmp).sum(axis=2, keepdims=True)
    np.multiply(xg, s2, out=tmp)
    np.multiply(m, gx, out=gx)
    gx -= s1
    gx -= tmp
    gx *= inv_std / m
    return gx.reshape(xhat.shape), grad_scale, grad_shift


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(params, grads, velocities, lr, momentum=0.9, weight_decay=5e-4):
    """In-place SGD with momentum and decoupled-from-nothing weight decay.

    v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v.
    params/grads/velocities are dicts keyed by parameter name.
    """
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ValueError(
                f"sgd_step shape mismatch for {name}: param {p.shape} vs "
                f"grad {g.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
        v = velocities[name]
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v
    return params
