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


def _row_planes(x, kh, kw, stride, padding):
    """Row-phase planes of x: [S, C, kW, N*hq*W' + tail], S = min(stride, kh).

    Kernel row i reads padded rows i + stride*y', which are rows
    i//stride + y' of the plane of row phase a = i % stride, the plane of
    padded rows a + stride*q. For each phase and kernel column j, one
    strided copy from x fills planes[a, :, j], laid out [C, N, hq, W'] with
    hq = _frame_rows(...) rows per frame, of padded columns j + stride*x',
    and zeros where it reaches into the padding or past the padded input.
    Kernel row i is then the [C, kW, N*hq*W'] window at offset
    (i//stride)*W' of its phase: the first H' rows of each of its frames
    are the kernel row's im2col columns. The tail, (kh-1)//stride rows of
    zeros, holds the last frame's window.
    """
    n, c, h, w = x.shape
    s = stride
    oh = (h + 2 * padding - kh) // s + 1
    ow = (w + 2 * padding - kw) // s + 1
    hq = _frame_rows(h, kh, s, padding)
    size = n * hq * ow
    planes = np.zeros((min(s, kh), c, kw, size + (kh - 1) // s * ow), x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for a in range(len(planes)):
        q0, q1 = _valid_range(a, padding, s, h, hq)
        for j in range(kw):
            x0, x1 = _valid_range(j, padding, s, w, ow)
            if q1 > q0 and x1 > x0:
                plane = planes[a, :, j, :size].reshape(c, n, hq, ow)
                r0, c0 = a + s * q0 - padding, j + s * x0 - padding
                plane[:, :, q0:q1, x0:x1] = xt[
                    :, :, r0:r0 + s * (q1 - q0 - 1) + 1:s,
                    c0:c0 + s * (x1 - x0 - 1) + 1:s]
    return planes


def fill_columns(planes, out_shape, kh, stride, groups):
    """The im2col columns [G, C/G*kh*kw, N*H'*W'] of a conv of output shape
    out_shape [N, C_out, H', W'] from its _row_planes: rows run over
    (channel, ky, kx) and columns over (n, y', x'). Each kernel row is one
    copy of H'*W' contiguous floats per (channel, kernel column, frame).
    The columns are bit for bit those of a gather from a sliding-window
    view of the zero-padded input."""
    n, _, oh, ow = out_shape
    _, c, kw, width = planes.shape
    hq = (width // ow - (kh - 1) // stride) // n  # width: N*hq*W' + tail
    cols = np.empty((c, kh, kw, n, oh * ow), planes.dtype)
    for i in range(kh):
        off = i // stride * ow
        rows = planes[i % stride, :, :, off:off + n * hq * ow]
        cols[:, i] = rows.reshape(c, kw, n, hq * ow)[..., :oh * ow]
    return cols.reshape(groups, -1, n * oh * ow)


def _im2col(x, kh, kw, stride, padding, groups):
    """Patches of x as one [G, C/G*kh*kw, N*H'*W'] array (fill_columns)."""
    n, _, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return fill_columns(_row_planes(x, kh, kw, stride, padding),
                        (n, None, oh, ow), kh, stride, groups)


def conv2d(x, weight, bias, stride=1, padding=0, groups=1):
    """Cross-correlation of x [N,C_in,H,W] with weight [C_out,C_in/groups,kH,kW].

    Output spatial extents follow floor((H + 2*padding - kH)/stride) + 1.
    Returns (out, planes): planes are x's _row_planes, from which
    fill_columns builds the im2col columns that conv2d_backward takes as
    cols_cache. The output is kH GEMMs batched over groups, one per kernel
    row, each over its window of the planes (as in MEC; Cho & Brand, arXiv
    1706.06873), summed in kernel-row order. Each frame's hq - H' extra
    output rows read across into the next frame and are dropped.
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
    size = n * hq * ow
    planes = _row_planes(x, kh, kw, stride, padding)
    # [kH, G, cog, C_in/G*kW]: the weights of each kernel row
    krows = np.ascontiguousarray(
        weight.reshape(groups, cog, cin_g, kh, kw).transpose(3, 0, 1, 2, 4)
    ).reshape(kh, groups, cog, cin_g * kw)
    res = part = None
    for i in range(kh):
        off = i // stride * ow
        rows = planes[i % stride, :, :, off:off + size].reshape(
            groups, cin_g * kw, size)
        if res is None:
            res = np.matmul(krows[i], rows)  # [G, cog, N*hq*W']
        else:
            part = np.matmul(krows[i], rows, out=part)
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
    return out, planes


def conv2d_backward(x, weight, grad_out, stride=1, padding=0, groups=1,
                    cols_cache=None, need_grad_x=True):
    """Gradients of conv2d w.r.t. (input, weight, bias).

    cols_cache lets a caller reuse the im2col buffer from the forward pass;
    results are identical either way, and with it x is read only for its
    shape and dtype. need_grad_x=False skips the input gradient and returns
    None in its place.
    """
    x = _as_float(x)
    weight = _as_float(weight)
    grad_out = _as_float(grad_out)
    n, cin, h, w = x.shape
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
    if cols_cache is None:
        cols_cache = _im2col(x, kh, kw, stride, padding, groups)
    gmat = np.ascontiguousarray(
        grad_out.reshape(n, groups, cog, oh, ow).transpose(1, 2, 0, 3, 4)
    ).reshape(groups, cog, n * oh * ow)
    # cols @ gmat.T, written transposed: each element is the same dot
    # product over N*H'*W' as in gmat @ cols.T, bit for bit on OpenBLAS,
    # but the GEMM's M is the wider C_in/G*kH*kW instead of cog
    grad_w = np.empty_like(weight)
    grad_w.reshape(groups, cog, -1)[...] = np.matmul(
        cols_cache, gmat.transpose(0, 2, 1)).transpose(0, 2, 1)
    if not need_grad_x:
        return None, grad_w, grad_bias
    # col2im, the adjoint of _im2col, through stride-phase planes. Padded
    # row y = i + stride*oy belongs to phase i % stride, at plane row
    # i//stride + oy, and likewise for columns. Laying the upstream gradient
    # out with hq x wq pixels per frame, zeros outside [:oh, :ow], makes each
    # kernel position one contiguous add of C_in rows into its phase plane
    # at offset (i//stride)*wq + j//stride; the padded columns add exact
    # zeros, so every element sums the same terms in the same order. One
    # GEMM per kernel row makes the columns of its kW positions, which are
    # added before the next row's GEMM, so only kW of the kH*kW column
    # blocks exist at a time.
    hq = oh + (kh - 1) // stride
    wq = ow + (kw - 1) // stride
    size = n * hq * wq
    gpad = gmat
    if (hq, wq) != (oh, ow):
        gpad = np.empty((cout, n, hq, wq), dtype=gmat.dtype)
        gpad[:, :, :oh, :ow] = gmat.reshape(cout, n, oh, ow)
        gpad[:, :, :oh, ow:] = 0
        gpad[:, :, oh:] = 0
    gpad = gpad.reshape(groups, cog, size)
    krows = weight.reshape(groups, cog, cin_g, kh, kw)
    tail = (kh - 1) // stride * wq + (kw - 1) // stride
    planes = {}
    for i in range(kh):
        kmat = np.ascontiguousarray(krows[:, :, :, i]).reshape(groups, cog, -1)
        gcols = np.matmul(kmat.transpose(0, 2, 1), gpad).reshape(cin, kw, size)
        for j in range(kw):
            phase = (i % stride, j % stride)
            if phase not in planes:
                planes[phase] = np.zeros((cin, size + tail), dtype=x.dtype)
            off = i // stride * wq + j // stride
            planes[phase][:, off:off + size] += gcols[:, j]
    # the planes cover every padded pixel once all stride x stride phases
    # exist and each reaches past the padded extent; otherwise the pixels no
    # window reads get zero gradient
    full = (kh >= stride and kw >= stride and hq * stride >= h + 2 * padding
            and wq * stride >= w + 2 * padding)
    gx_pad = (np.empty if full else np.zeros)(
        (n, cin, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    # a plane row or column past the padded input holds only padding zeros
    for (pi, pj), plane in planes.items():
        dst = gx_pad[:, :, pi::stride, pj::stride]
        rows, cols = min(hq, dst.shape[2]), min(wq, dst.shape[3])
        src = plane[:, :size].reshape(cin, n, hq, wq)[:, :, :rows, :cols]
        dst[:, :, :rows, :cols] = src.transpose(1, 0, 2, 3)
    grad_x = gx_pad[:, :, padding:padding + h, padding:padding + w]
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


def softmax_cross_entropy_backward(probs, labels):
    """Gradient of mean cross_entropy(softmax(logits)) w.r.t. logits."""
    n, k = probs.shape
    g = probs.copy()
    g[np.arange(n), labels] -= 1.0
    return g / n


def dropout(x, rate, seed):
    """Inverted dropout; identity at rate 0. Returns (out, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x, None
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    return x * mask / (1.0 - rate), mask


def dropout_backward(mask, rate, grad_out):
    if mask is None:
        return grad_out
    return grad_out * mask / (1.0 - rate)


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
