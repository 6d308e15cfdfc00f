"""Tensor-op forward semantics, analytic gradients vs central differences,
and the SGD update rule."""

import itertools

import numpy as np
import pytest

from tsmkit import ops
from tsmkit.gradcheck import max_rel_error, numerical_gradient, run_all
from tsmkit.model import AffineNorm, Conv2d, ModelConfig, build_model


def naive_conv2d(x, weight, bias, stride=1, padding=0):
    """Direct 7-nested-loop cross-correlation, the independent oracle."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow))
    for ni in range(n):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[ni, ci, oy * stride + ky,
                                           ox * stride + kx]
                                        * weight[co, ci, ky, kx])
                    out[ni, co, oy, ox] = acc + bias[co]
    return out


def window_im2col(x, kh, kw, stride, padding, groups):
    """im2col as one gather from a 6-D sliding-window view of the np.pad-ed
    input: the column-matrix oracle."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [N, C, H', W', kh, kw]
    n, _, oh, ow = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(groups, -1, n * oh * ow)


def single_gemm_conv2d(x, weight, stride, padding, groups):
    """conv2d as one GEMM of the weights over the whole column matrix: the
    oracle for the per-kernel-row GEMMs of conv2d."""
    n = x.shape[0]
    cout = weight.shape[0]
    cols = window_im2col(x, *weight.shape[2:], stride, padding, groups)
    res = np.matmul(weight.reshape(groups, cout // groups, -1), cols)
    oh = (x.shape[2] + 2 * padding - weight.shape[2]) // stride + 1
    return res.reshape(cout, n, oh, -1).transpose(1, 0, 2, 3)


def formula_affine_norm(x, scale, shift, eps=1e-5):
    """affine_norm as plain expressions, one new array per step: the oracle
    for its in-place forward. Statistics per (frame, 4-channel group)."""
    n, c = x.shape[:2]
    xg = x.reshape(n, c // 4, -1)
    mu = xg.mean(axis=2, keepdims=True)
    d = xg - mu
    var = (d * d).mean(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (d * inv_std).reshape(x.shape)
    out = scale[None, :, None, None] * xhat + shift[None, :, None, None]
    return out, (xhat, inv_std, scale)


def formula_affine_norm_backward(cache, grad_out):
    xhat, inv_std, scale = cache
    n, groups = inv_std.shape[:2]
    grad_scale = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_shift = grad_out.sum(axis=(0, 2, 3))
    gxhat = (grad_out * scale[None, :, None, None]).reshape(n, groups, -1)
    xg = xhat.reshape(n, groups, -1)
    m = xg.shape[2]
    grad_x = (inv_std / m) * (
        m * gxhat
        - gxhat.sum(axis=2, keepdims=True)
        - xg * (gxhat * xg).sum(axis=2, keepdims=True)
    )
    return grad_x.reshape(xhat.shape), grad_scale, grad_shift


def scatter_grad_x(x, weight, grad_out, stride, padding, groups):
    """Input gradient of conv2d through one strided scatter per kernel
    position into the padded input: the col2im oracle."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    _, _, oh, ow = grad_out.shape
    cog = cout // groups
    gmat = np.ascontiguousarray(
        grad_out.reshape(n, groups, cog, oh, ow).transpose(1, 2, 0, 3, 4)
    ).reshape(groups, cog, n * oh * ow)
    kmat = weight.reshape(groups, cog, -1)
    gcols = np.matmul(kmat.transpose(0, 2, 1), gmat).reshape(
        cin, kh, kw, n, oh, ow)
    gx_pad = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), x.dtype)
    for i in range(kh):
        for j in range(kw):
            window = gx_pad[:, :, i:i + stride * oh:stride,
                            j:j + stride * ow:stride]
            window += gcols[:, i, j].transpose(1, 0, 2, 3)
    return gx_pad[:, :, padding:padding + h, padding:padding + w]


def single_gemm_grad_x(x, weight, grad_out, stride, padding, groups):
    """Input gradient of conv2d through stride-phase planes, with the
    columns of every kernel position from one GEMM: the oracle for the
    per-kernel-row GEMMs of conv2d_backward, which must match it bit for
    bit."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    _, _, oh, ow = grad_out.shape
    cog = cout // groups
    gmat = np.ascontiguousarray(
        grad_out.reshape(n, groups, cog, oh, ow).transpose(1, 2, 0, 3, 4)
    ).reshape(groups, cog, n * oh * ow)
    hq = oh + (kh - 1) // stride
    wq = ow + (kw - 1) // stride
    size = n * hq * wq
    gpad = gmat
    if (hq, wq) != (oh, ow):
        gpad = np.zeros((cout, n, hq, wq), dtype=gmat.dtype)
        gpad[:, :, :oh, :ow] = gmat.reshape(cout, n, oh, ow)
    kmat = weight.reshape(groups, cog, -1)
    gcols = np.matmul(kmat.transpose(0, 2, 1), gpad.reshape(groups, cog, size))
    gcols = gcols.reshape(cin, kh, kw, size)
    tail = (kh - 1) // stride * wq + (kw - 1) // stride
    planes = {}
    for i in range(kh):
        for j in range(kw):
            phase = (i % stride, j % stride)
            if phase not in planes:
                planes[phase] = np.zeros((cin, size + tail), dtype=x.dtype)
            off = i // stride * wq + j // stride
            planes[phase][:, off:off + size] += gcols[:, i, j]
    gx_pad = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), x.dtype)
    for (pi, pj), plane in planes.items():
        dst = gx_pad[:, :, pi::stride, pj::stride]
        rows, cols = min(hq, dst.shape[2]), min(wq, dst.shape[3])
        src = plane[:, :size].reshape(cin, n, hq, wq)[:, :, :rows, :cols]
        dst[:, :, :rows, :cols] = src.transpose(1, 0, 2, 3)
    return gx_pad[:, :, padding:padding + h, padding:padding + w]


class TestConv2d:
    def test_all_ones_sums_kernel(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out, _ = ops.conv2d(x, w, np.zeros(1))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_one_by_one_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        out, _ = ops.conv2d(x, w, np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got, _ = ops.conv2d(x, w, b, stride=1, padding=1)
        want = naive_conv2d(x, w, b, stride=1, padding=1)
        assert np.abs(got - want).max() < 1e-12 * max(1, np.abs(want).max())

    @pytest.mark.parametrize("shape,kshape,stride,padding", [
        ((1, 2, 7, 7), (3, 2, 3, 3), 2, 1),
        ((4, 8, 16, 16), (4, 8, 3, 3), 1, 1),
        ((2, 4, 9, 9), (2, 4, 5, 5), 2, 0),
    ])
    def test_oracle_more_shapes(self, shape, kshape, stride, padding):
        rng = np.random.default_rng(hash((shape, stride)) % 2**32)
        x = rng.normal(size=shape)
        w = rng.normal(size=kshape)
        b = rng.normal(size=kshape[0])
        got, _ = ops.conv2d(x, w, b, stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride=stride, padding=padding)
        assert np.abs(got - want).max() < 1e-12 * max(1, np.abs(want).max())

    def test_grouped_equals_per_group(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8, 6, 6))
        w = rng.normal(size=(8, 2, 3, 3))
        b = rng.normal(size=8)
        for stride in (1, 2):
            got, _ = ops.conv2d(x, w, b, stride=stride, padding=1, groups=4)
            parts = [
                ops.conv2d(x[:, 2 * g:2 * g + 2], w[2 * g:2 * g + 2],
                           b[2 * g:2 * g + 2], stride=stride, padding=1)[0]
                for g in range(4)
            ]
            np.testing.assert_allclose(got, np.concatenate(parts, axis=1),
                                       atol=1e-12)
            # the GEMMs batched over groups are each group's own GEMMs
            gout = rng.normal(size=got.shape)
            grads = ops.conv2d_backward(x, w, gout, stride=stride, padding=1,
                                        groups=4)
            per_group = [
                ops.conv2d_backward(x[:, 2 * g:2 * g + 2], w[2 * g:2 * g + 2],
                                    gout[:, 2 * g:2 * g + 2], stride=stride,
                                    padding=1)
                for g in range(4)
            ]
            # (grad_x, grad_w, grad_bias) split along channels, C_out, C_out
            for axis, grad, parts in zip((1, 0, 0), grads, zip(*per_group)):
                np.testing.assert_array_equal(
                    grad, np.concatenate(parts, axis=axis))

    def test_shape_mismatch_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 2, 4, 4\).*\(1, 3, 3, 3\)"):
            ops.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)),
                       np.zeros(1))

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="larger than"):
            ops.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)),
                       np.zeros(1))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        a, _ = ops.conv2d(x, w, b, padding=1)
        np.testing.assert_array_equal(a, ops.conv2d(x, w, b, padding=1)[0])


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_equals_window_gather(self, batch, groups, dtype):
        rng = np.random.default_rng(13)
        kernels = [(k, k) for k in range(1, 6)] + [(1, 3), (3, 1), (2, 5),
                                                   (5, 2), (4, 3)]
        for h, w in [(5, 9), (7, 7), (9, 5), (1, 3)]:
            x = rng.normal(size=(batch, 4, h, w)).astype(dtype)
            for (kh, kw), stride, padding in itertools.product(
                    kernels, (1, 2, 3), (0, 1, 2)):
                if kh > h + 2 * padding or kw > w + 2 * padding:
                    continue
                args = (kh, kw, stride, padding, groups)
                got = ops._im2col(x, *args)
                want = window_im2col(x, *args)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want, err_msg=str(args))
                # the padding zeros are +0.0, as np.pad writes them
                np.testing.assert_array_equal(np.signbit(got),
                                              np.signbit(want))


class TestRowGemms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_equals_single_gemm(self, groups, dtype):
        rng = np.random.default_rng(15)
        kernels = [(k, k) for k in range(1, 6)] + [(1, 3), (3, 1), (2, 5),
                                                   (5, 2), (4, 3)]
        eps = np.finfo(dtype).eps
        for h, w in [(1, 3), (5, 9), (7, 7), (9, 5), (9, 11)]:
            x = rng.normal(size=(3, 4, h, w)).astype(dtype)
            for (kh, kw), stride, padding in itertools.product(
                    kernels, (1, 2, 3), (0, 1, 2)):
                if kh > h + 2 * padding or kw > w + 2 * padding:
                    continue
                wt = rng.normal(size=(8, 4 // groups, kh, kw)).astype(dtype)
                args = (stride, padding, groups)
                got, _ = ops.conv2d(x, wt, None, *args)
                want = single_gemm_conv2d(x, wt, *args)
                msg = str((h, w, kh, kw) + args)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=16 * eps * np.abs(want).max(),
                    err_msg=msg)
                # windows wholly in the padding are exact zeros on both
                np.testing.assert_array_equal(got == 0, want == 0,
                                              err_msg=msg)

    @pytest.mark.parametrize("capacity,in_ch", [("small", 1), ("large", 3)])
    def test_recording_forward_caches_columns(self, capacity, in_ch,
                                              monkeypatch):
        model = build_model(ModelConfig(num_classes=5, in_channels=in_ch,
                                        capacity=capacity))
        inputs = {}

        def traced(layer, x, train=True, _forward=Conv2d.forward):
            inputs[id(layer)] = x
            return _forward(layer, x, train)
        monkeypatch.setattr(Conv2d, "forward", traced)
        rng = np.random.default_rng(16)
        model.forward(rng.random((16, in_ch, 32, 32), dtype=np.float32),
                      train=True)
        convs = [layer for _, layer in model._named_layers()
                 if isinstance(layer, Conv2d)]
        for c in convs:
            k = c.weight.shape[2]
            want = window_im2col(inputs[id(c)], k, k, c.stride, c.padding,
                                 c.groups)
            np.testing.assert_array_equal(c._cache[1], want)


class TestConv2dBackward:
    def test_all_ones_weight_grad_is_one(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        g = np.ones((1, 1, 1, 1))
        _, gw, _ = ops.conv2d_backward(x, w, g)
        np.testing.assert_array_equal(gw, np.ones_like(w))

    def test_bias_grad_is_upstream_sum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(2, 4, 4, 4))
        _, _, gb = ops.conv2d_backward(x, w, g)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        p = rng.normal(size=(2, 4, 5, 5))
        gx, gw, gb = ops.conv2d_backward(x, w, p, padding=1)
        for analytic, arg, f in [
            (gx, x,
             lambda v: float((ops.conv2d(v, w, b, padding=1)[0] * p).sum())),
            (gw, w,
             lambda v: float((ops.conv2d(x, v, b, padding=1)[0] * p).sum())),
            (gb, b,
             lambda v: float((ops.conv2d(x, w, v, padding=1)[0] * p).sum())),
        ]:
            assert max_rel_error(analytic, numerical_gradient(f, arg)) < 1e-5

    def test_upstream_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            ops.conv2d_backward(np.zeros((1, 1, 4, 4)),
                                np.zeros((1, 1, 3, 3)),
                                np.zeros((1, 1, 9, 9)))

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_cols_cache_identical(self, groups, stride):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 4 // groups, 3, 3))
        out, planes = ops.conv2d(x, w, np.zeros(4), stride=stride, padding=1,
                                 groups=groups)
        cols = ops.fill_columns(planes, out.shape, 3, stride, groups)
        g = rng.normal(size=out.shape)
        plain = ops.conv2d_backward(x, w, g, stride=stride, padding=1,
                                    groups=groups)
        cached = ops.conv2d_backward(x, w, g, stride=stride, padding=1,
                                     groups=groups, cols_cache=cols)
        for a, b in zip(plain, cached):
            np.testing.assert_array_equal(a, b)


class TestCol2im:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("capacity,in_ch", [("small", 1), ("large", 3)])
    def test_preset_layers_equal_scatter(self, capacity, in_ch, dtype):
        model = build_model(ModelConfig(num_classes=5, in_channels=in_ch,
                                        capacity=capacity), dtype=dtype)
        rng = np.random.default_rng(11)
        # a training forward keeps each conv's input shape; grad_x does not
        # depend on the input's values
        model.forward(rng.normal(size=(64, in_ch, 32, 32)).astype(dtype),
                      train=True)
        convs = [layer for _, layer in model._named_layers()
                 if isinstance(layer, Conv2d)]
        assert {(c.weight.shape[2], c.stride) for c in convs} == {
            (3, 1), (3, 2), (1, 2)}
        for c in convs:
            x = c._cache[0]
            args = (c.stride, c.padding, c.groups)
            out, _ = ops.conv2d(x, c.weight, c.bias, *args)
            g = rng.normal(size=out.shape).astype(dtype)
            gx, _, _ = ops.conv2d_backward(x, c.weight, g, *args)
            want = scatter_grad_x(x, c.weight, g, *args)
            assert gx.dtype == want.dtype and gx.strides == want.strides
            np.testing.assert_array_equal(gx, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("k,stride,padding", [
        (5, 3, 0), (5, 3, 2), (1, 2, 0), (2, 3, 1), (3, 2, 0), (4, 2, 1),
    ])
    def test_unequal_phase_planes(self, k, stride, padding, groups, dtype):
        # 8x11 frames: the phase planes differ in extent along both axes
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 8, 8, 11)).astype(dtype)
        w = rng.normal(size=(8, 8 // groups, k, k)).astype(dtype)
        out, _ = ops.conv2d(x, w, None, stride, padding, groups)
        g = rng.normal(size=out.shape).astype(dtype)
        gx, _, _ = ops.conv2d_backward(x, w, g, stride, padding, groups)
        want = scatter_grad_x(x, w, g, stride, padding, groups)
        assert gx.shape == x.shape and gx.dtype == want.dtype
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(gx, want, rtol=16 * eps,
                                   atol=16 * eps * np.abs(want).max())
        np.testing.assert_array_equal(gx == 0, want == 0)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("k,stride,padding", [
        (5, 3, 0), (5, 3, 2), (1, 2, 0), (2, 3, 1), (3, 2, 0), (4, 2, 1),
    ])
    def test_row_gemms_equal_single_gemm(self, k, stride, padding, groups,
                                         dtype):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 8, 8, 11)).astype(dtype)
        w = rng.normal(size=(8, 8 // groups, k, k)).astype(dtype)
        out, planes = ops.conv2d(x, w, None, stride, padding, groups)
        cols = ops.fill_columns(planes, out.shape, k, stride, groups)
        g = rng.normal(size=out.shape).astype(dtype)
        gx, _, _ = ops.conv2d_backward(x, w, g, stride, padding, groups,
                                       cols_cache=cols)
        want = single_gemm_grad_x(x, w, g, stride, padding, groups)
        assert gx.dtype == want.dtype
        np.testing.assert_array_equal(gx, want)

    def test_skipped_input_gradient(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 2, 3, 3))
        out, planes = ops.conv2d(x, w, None, 2, 1, 2)
        cols = ops.fill_columns(planes, out.shape, 3, 2, 2)
        g = rng.normal(size=out.shape)
        gx, gw, gb = ops.conv2d_backward(x, w, g, 2, 1, 2, cols_cache=cols,
                                         need_grad_x=False)
        _, want_w, want_b = ops.conv2d_backward(x, w, g, 2, 1, 2)
        assert gx is None
        np.testing.assert_array_equal(gw, want_w)
        np.testing.assert_array_equal(gb, want_b)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        np.testing.assert_allclose(ops.softmax(np.zeros((1, 3)))[0],
                                   [1 / 3] * 3, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        probs = ops.softmax(rng.normal(scale=10, size=(50, 7)))
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_confident_correct_loss_near_zero(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        loss = ops.cross_entropy(ops.softmax(logits), np.array([0]))
        assert loss < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ops.cross_entropy(np.full((1, 3), 1 / 3), np.array([3]))

    def test_fused_backward_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 6))
        labels = rng.integers(0, 6, size=5)
        probs = ops.softmax(logits)
        g = ops.softmax_cross_entropy_backward(probs, labels)
        num = numerical_gradient(
            lambda v: ops.cross_entropy(ops.softmax(v), labels), logits)
        assert max_rel_error(g, num) < 1e-5


class TestDropout:
    def test_eval_mode_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out, mask = ops.dropout(x, 0.0, seed=0)
        assert mask is None
        np.testing.assert_array_equal(out, x)

    def test_rate_validation(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="rate"):
                ops.dropout(np.zeros((2, 2)), rate, seed=0)

    def test_seed_determinism(self):
        x = np.ones((100, 10))
        a, _ = ops.dropout(x, 0.3, seed=42)
        b, _ = ops.dropout(x, 0.3, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((2000, 10))
        out, _ = ops.dropout(x, 0.4, seed=1)
        assert abs(out.mean() - 1.0) < 0.05


class TestAffineNorm:
    def test_standardizes_per_frame_group(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 12, 5, 5))
        # groups of unequal scale, so per-channel statistics would not do
        x *= np.repeat([1.0, 5.0, 0.2], 4)[None, :, None, None]
        out, _ = ops.affine_norm(x, np.ones(12), np.zeros(12))
        groups = out.reshape(8, 3, -1)  # (frame, group, 4 channels x H x W)
        np.testing.assert_allclose(groups.mean(axis=2), 0.0, atol=1e-10)
        np.testing.assert_allclose(groups.std(axis=2), 1.0, atol=1e-3)

    def test_frame_independent_of_batch(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 8, 4, 4)).astype(np.float32)
        scale = rng.normal(size=8).astype(np.float32)
        shift = rng.normal(size=8).astype(np.float32)
        out, _ = ops.affine_norm(x, scale, shift)
        for i in range(6):
            alone, _ = ops.affine_norm(x[i:i + 1], scale, shift)
            np.testing.assert_array_equal(alone[0], out[i])

    def test_scale_shift_applied(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 4, 3, 3))
        scale, shift = np.array([2.0, 0.0, 1.0, 1.0]), np.array([1.0, -1.0, 0, 0])
        out, _ = ops.affine_norm(x, scale, shift)
        base, _ = ops.affine_norm(x, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out[:, 0], 2 * base[:, 0] + 1, atol=1e-12)
        np.testing.assert_allclose(out[:, 1], -1.0, atol=1e-12)
        np.testing.assert_array_equal(out[:, 2:], base[:, 2:])

    def test_partial_group_rejected(self):
        with pytest.raises(ValueError, match="divisible by 4, got 6"):
            ops.affine_norm(np.zeros((2, 6, 3, 3)), np.ones(6), np.zeros(6))
        with pytest.raises(ValueError, match="divisible by 4, got 6"):
            AffineNorm(6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_steps_equal_formulas(self, dtype):
        rng = np.random.default_rng(14)
        x = rng.normal(loc=1.0, scale=3.0, size=(6, 12, 7, 9)).astype(dtype)
        scale = rng.normal(size=12).astype(dtype)
        shift = rng.normal(size=12).astype(dtype)
        out, cache = ops.affine_norm(x, scale, shift)
        want, want_cache = formula_affine_norm(x, scale, shift)
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out, want)
        for a, b in zip(cache, want_cache):
            np.testing.assert_array_equal(a, b)
        # a contiguous upstream gradient and a strided view of a larger one
        g = rng.normal(size=(6, 12, 9, 11)).astype(dtype)
        for grad_out in (np.ascontiguousarray(g[:, :, 1:8, 1:10]),
                         g[:, :, 1:8, 1:10]):
            got = ops.affine_norm_backward(cache, grad_out)
            want = formula_affine_norm_backward(want_cache, grad_out)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = {"w": np.array([1.0, 2.0])}
        g = {"w": np.array([0.5, -1.0])}
        v = {"w": np.zeros(2)}
        ops.sgd_step(p, g, v, lr=0.01, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p["w"], [1.0 - 0.005, 2.0 + 0.01])

    def test_zero_grad_zero_velocity_no_change(self):
        p = {"w": np.array([3.0])}
        ops.sgd_step(p, {"w": np.zeros(1)}, {"w": np.zeros(1)},
                     lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p["w"], [3.0])

    def test_two_momentum_steps(self):
        # v1 = g, v2 = 0.9 g + g; total delta = -lr (g + 1.9 g)
        g = np.array([2.0])
        p = {"w": np.array([0.0])}
        grads = {"w": g}
        v = {"w": np.zeros(1)}
        ops.sgd_step(p, grads, v, lr=0.01, momentum=0.9, weight_decay=0.0)
        ops.sgd_step(p, grads, v, lr=0.01, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(p["w"], [-0.01 * (2.0 + 1.9 * 2.0)])

    def test_weight_decay(self):
        p = {"w": np.array([10.0])}
        ops.sgd_step(p, {"w": np.zeros(1)}, {"w": np.zeros(1)},
                     lr=0.1, momentum=0.0, weight_decay=0.01)
        np.testing.assert_allclose(p["w"], [10.0 - 0.1 * 0.1])

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(FloatingPointError, match="non-finite"):
            ops.sgd_step({"w": np.zeros(1)}, {"w": np.array([np.nan])},
                         {"w": np.zeros(1)}, lr=0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ops.sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)},
                         {"w": np.zeros(2)}, lr=0.01)


class TestOtherBackwards:
    def test_all_ops_pass_finite_differences(self):
        for name, err in run_all(seed=123).items():
            assert err < 1e-5, f"{name}: {err}"

    def test_global_avg_pool(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(ops.global_avg_pool(x), [[7.5]])

    def test_linear_shape_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            ops.linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))
