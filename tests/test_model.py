"""Model construction, consensus semantics, the end-to-end gradient, and
what an eval forward keeps."""

import tracemalloc
import zlib

import numpy as np
import pytest

from tsmkit import ops
from tsmkit.data import RESOLUTION
from tsmkit.gradcheck import max_rel_error
from tsmkit.model import (CAPACITY_PRESETS, AffineNorm, Conv2d, Linear,
                          ModelConfig, ResidualBlock, _Layer, build_model)
from tsmkit.shift import ShiftConfig, temporal_shift, temporal_shift_backward


def micro_config(**overrides):
    # fold_div=4 so the 4-channel micro model actually shifts one channel
    # in each direction
    base = dict(num_classes=3, in_channels=2, num_segments=3,
                capacity="micro", dropout_rate=0.25, fold_div=4)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuild:
    def test_same_seed_bit_identical(self):
        cfg = micro_config()
        a = build_model(cfg, seed=7).named_parameters()
        b = build_model(cfg, seed=7).named_parameters()
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_different_seed_differs(self):
        cfg = micro_config()
        a = build_model(cfg, seed=1).named_parameters()
        b = build_model(cfg, seed=2).named_parameters()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_no_shift_has_zero_call_sites(self):
        m = build_model(micro_config(shift_enabled=False), seed=0)
        assert all(b.shift_cfg is None for b in m.blocks)
        m2 = build_model(micro_config(shift_enabled=True), seed=0)
        assert all(b.shift_cfg is not None for b in m2.blocks)

    def test_small_param_count_closed_form(self):
        # layer-by-layer arithmetic for capacity=small, in=1, classes=5:
        # stem: 3x3 conv 1->16 (+bias) and norm
        stem = (16 * 1 * 9 + 16) + (16 + 16)
        # stage widths (16, 32, 64), 2 blocks each; block = two 3x3 convs
        # with norms; first block of stages 1,2 adds a 1x1 projection
        def block(cin, cout, proj):
            p = (cout * cin * 9 + cout) + 2 * cout
            p += (cout * cout * 9 + cout) + 2 * cout
            if proj:
                p += cout * cin * 1 + cout
            return p
        stages = (block(16, 16, False) + block(16, 16, False)
                  + block(16, 32, True) + block(32, 32, False)
                  + block(32, 64, True) + block(64, 64, False))
        head = 64 * 5 + 5
        expected = stem + stages + head
        cfg = ModelConfig(num_classes=5, in_channels=1, capacity="small")
        assert build_model(cfg, seed=0).param_count() == expected

    def test_capacity_ordering(self):
        small = build_model(
            ModelConfig(num_classes=5, in_channels=1, capacity="small"), 0)
        large = build_model(
            ModelConfig(num_classes=5, in_channels=1, capacity="large"), 0)
        assert large.param_count() > small.param_count()
        assert len(large.blocks) > len(small.blocks)

    def test_large_uses_grouped_convs(self):
        large = build_model(
            ModelConfig(num_classes=5, in_channels=1, capacity="large"), 0)
        assert all(b.conv1.groups == 4 for b in large.blocks)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(num_classes=1)
        with pytest.raises(ValueError):
            micro_config(dropout_rate=1.0)
        with pytest.raises(ValueError):
            micro_config(capacity="huge")


class TestForward:
    def test_identical_frames_equal_single_frame_logits(self):
        t = 4
        cfg = micro_config(num_segments=t, shift_enabled=False,
                           dropout_rate=0.0)
        m = build_model(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(0)
        frame = rng.normal(size=(1, 2, 8, 8))
        clip = np.repeat(frame, t, axis=0)
        clip_logits = m.forward(clip, train=False)

        single_cfg = micro_config(num_segments=1, shift_enabled=False,
                                  dropout_rate=0.0)
        m1 = build_model(single_cfg, seed=0, dtype=np.float64)
        m1.load_parameters(m.named_parameters())
        single_logits = m1.forward(frame, train=False)
        np.testing.assert_allclose(clip_logits, single_logits, atol=1e-10)

    def test_no_shift_segment_permutation_invariance(self):
        t = 4
        cfg = micro_config(num_segments=t, shift_enabled=False,
                           dropout_rate=0.0)
        m = build_model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(2 * t, 2, 8, 8))
        base = m.forward(frames, train=False)
        perm = rng.permutation(t)
        shuffled = frames.reshape(2, t, 2, 8, 8)[:, perm].reshape(2 * t, 2, 8, 8)
        np.testing.assert_allclose(m.forward(shuffled, train=False), base,
                                   atol=1e-10)

    def test_shift_sensitive_to_segment_order(self):
        # Batch of two clips: reversing the first clip's segments changes
        # which frame the shift hands each shifted channel, so the reversal
        # must show up in that clip's logits.
        t = 4
        cfg = micro_config(num_segments=t, shift_enabled=True,
                           dropout_rate=0.0)
        m = build_model(cfg, seed=2, dtype=np.float64)
        # non-trivial residual branches so the shift reaches the output
        for blk in m.blocks:
            blk.norm2.scale[:] = 1.0
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(2 * t, 2, 8, 8))
        fwd = m.forward(frames, train=False)
        rev = frames.reshape(2, t, 2, 8, 8).copy()
        rev[0] = rev[0][::-1]
        out = m.forward(rev.reshape(2 * t, 2, 8, 8), train=False)
        assert np.abs(out[0] - fwd[0]).max() > 1e-6

    def test_eval_deterministic(self):
        cfg = micro_config()
        m = build_model(cfg, seed=3)
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(6, 2, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(m.forward(frames, train=False),
                                      m.forward(frames, train=False))

    def test_train_deterministic_given_dropout_seed(self):
        cfg = micro_config()
        m = build_model(cfg, seed=3)
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(6, 2, 8, 8)).astype(np.float32)
        a = m.forward(frames, train=True,
                      dropout_mask=m.draw_dropout_mask(len(frames), 9))
        b = m.forward(frames, train=True,
                      dropout_mask=m.draw_dropout_mask(len(frames), 9))
        np.testing.assert_array_equal(a, b)

    def test_default_forward_records_without_dropout(self):
        m = build_model(micro_config(dropout_rate=0.5), seed=3)
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(6, 2, 8, 8)).astype(np.float32)
        logits = m.forward(frames)
        assert m._cache is not None and m._cache[2] is None
        np.testing.assert_array_equal(
            logits, m.forward(frames, train=True, dropout_mask=None))

    def test_channel_mismatch_error(self):
        m = build_model(micro_config(), seed=0)
        with pytest.raises(ValueError, match="channels"):
            m.forward(np.zeros((3, 5, 8, 8)))

    def test_empty_batch_gives_no_logits(self):
        m = build_model(micro_config(), seed=0)
        logits = m.forward(np.zeros((0, 2, 8, 8), np.float32), train=False)
        assert logits.shape == (0, 3) and logits.dtype == np.float32

    def test_leading_extent_error(self):
        m = build_model(micro_config(num_segments=4), seed=0)
        with pytest.raises(ValueError, match="divisible"):
            m.forward(np.zeros((6, 2, 8, 8)))


class TestEndToEndGradient:
    def test_micro_model_matches_finite_differences(self):
        cfg = micro_config()
        m = build_model(cfg, seed=5, dtype=np.float64)
        # non-trivial branches so every parameter influences the loss
        for blk in m.blocks:
            blk.norm2.scale[:] = 0.5
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(2 * 3, 2, 8, 8))
        labels = np.array([0, 2])

        mask = m.draw_dropout_mask(len(frames), 17)

        def loss():
            logits = m.forward(frames, dropout_mask=mask)
            return ops.cross_entropy(ops.softmax(logits), labels)

        m.zero_grads()
        logits = m.forward(frames, dropout_mask=mask)
        probs = ops.softmax(logits)
        m.backward(ops.softmax_cross_entropy_backward(probs, labels))
        grads = m.named_grads()

        h = 1e-5
        for name, p in m.named_parameters().items():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            pick = np.random.default_rng(zlib.crc32(name.encode()))
            for i in pick.choice(flat.size, size=min(3, flat.size),
                                 replace=False):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss()
                flat[i] = orig - h
                fm = loss()
                flat[i] = orig
                num = (fp - fm) / (2 * h)
                err = abs(num - gflat[i]) / max(1.0, abs(gflat[i]))
                assert err < 1e-4, f"{name}[{i}]: {err}"

    def test_input_gradient_matches(self):
        cfg = micro_config(dropout_rate=0.0)
        m = build_model(cfg, seed=6, dtype=np.float64)
        for blk in m.blocks:
            blk.norm2.scale[:] = 0.5
        rng = np.random.default_rng(6)
        frames = rng.normal(size=(3, 2, 8, 8))
        labels = np.array([1])
        m.zero_grads()
        probs = ops.softmax(m.forward(frames))
        gframes = m.backward(ops.softmax_cross_entropy_backward(probs, labels),
                             need_grad_x=True)
        from tsmkit.gradcheck import numerical_gradient
        num = numerical_gradient(
            lambda v: ops.cross_entropy(
                ops.softmax(m.forward(v, train=False)), labels), frames)
        assert max_rel_error(gframes, num) < 1e-4


class TestEvalForwardCaches:
    """An eval forward keeps nothing and gives a recording forward's
    logits; a backward after it raises."""

    @staticmethod
    def small(dropout_rate=0.5):
        cfg = ModelConfig(num_classes=5, capacity="small",
                          dropout_rate=dropout_rate)
        return build_model(cfg, seed=3)

    @staticmethod
    def frames(n):
        rng = np.random.default_rng(n)
        return rng.random((n, 1, RESOLUTION, RESOLUTION), dtype=np.float32)

    def test_eval_forward_drops_buffers(self):
        m = self.small()
        frames = self.frames(16)
        layers = [layer for _, layer in m._named_layers()]
        convs = [layer for layer in layers if isinstance(layer, Conv2d)]
        m.forward(frames, train=True,
                  dropout_mask=m.draw_dropout_mask(len(frames), 1))
        assert all(c._cache is not None for c in convs)  # their inputs
        m.forward(frames, train=False)
        for obj in (m, *m.blocks, *layers):  # a block has no cache at all
            assert getattr(obj, "_cache", None) is None, obj

    def test_second_backward_raises(self):
        # the first backward frees what the training forward recorded
        m = self.small()
        m.forward(self.frames(16))
        m.backward(np.zeros((2, 5), np.float32))
        with pytest.raises(ValueError, match="training forward"):
            m.backward(np.zeros((2, 5), np.float32))

    def test_backward_after_eval_raises(self):
        m = self.small()
        frames = self.frames(16)
        m.forward(frames)
        m.forward(frames, train=False)
        with pytest.raises(ValueError, match="training forward"):
            m.backward(np.zeros((2, 5), np.float32))

    @pytest.mark.parametrize("t", [8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("capacity,in_ch", [("small", 1), ("large", 3)])
    def test_eval_logits_equal_recording(self, capacity, in_ch, dtype, t):
        cfg = ModelConfig(num_classes=5, in_channels=in_ch, num_segments=t,
                          capacity=capacity, dropout_rate=0.0)
        m = build_model(cfg, seed=4, dtype=dtype)
        # non-zero branches, so every conv reaches the logits
        for blk in m.blocks:
            blk.norm2.scale[:] = 0.5
        rng = np.random.default_rng(t)
        clip = rng.random((t, in_ch, RESOLUTION, RESOLUTION)).astype(dtype)
        np.testing.assert_array_equal(m.forward(clip, train=False),
                                      m.forward(clip, train=True))

    def test_eval_forward_peak_memory(self):
        frames = self.frames(64)
        peaks = {}
        for train in (False, True):
            m = self.small()
            tracemalloc.start()
            try:
                m.forward(frames, train=train,
                          dropout_mask=m.draw_dropout_mask(len(frames), 1))
                peaks[train] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] < peaks[True] / 3, peaks


class TestEvalBuildsNoColumns:
    """Each conv runs its kernel-row GEMMs over its row-phase planes. An
    eval forward keeps nothing; a recording forward keeps each conv's
    input, the array it gave conv2d, not planes or columns built from it."""

    @pytest.mark.parametrize("capacity,in_ch", [("small", 1), ("large", 3)])
    def test_eval_forward_never_fills_columns(self, capacity, in_ch,
                                              monkeypatch):
        cfg = ModelConfig(num_classes=5, in_channels=in_ch, capacity=capacity)
        m = build_model(cfg, seed=5)
        rng = np.random.default_rng(5)
        frames = rng.random((16, in_ch, RESOLUTION, RESOLUTION),
                            dtype=np.float32)
        given = []

        def conv2d(x, *args, _conv2d=ops.conv2d):
            given.append(x)
            return _conv2d(x, *args)
        monkeypatch.setattr(ops, "conv2d", conv2d)
        convs = [layer for _, layer in m._named_layers()
                 if isinstance(layer, Conv2d)]
        m.forward(frames, train=True)
        assert len(given) == len(convs)
        assert all(c._cache is x for c, x in zip(convs, given))
        logits = m.forward(frames, train=False)
        assert logits.shape == (2, 5) and np.isfinite(logits).all()
        assert all(c._cache is None for c in convs)


def _flat_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _flat_arrays(item)


class TestTrainingForwardCaches:
    """A training forward keeps only what its backward reads: each conv's
    input, the norm caches, the stem's ReLU mask, the dropout mask and the
    head's input."""

    @staticmethod
    def record(capacity, in_ch, n=16, dtype=np.float32):
        cfg = ModelConfig(num_classes=5, in_channels=in_ch, capacity=capacity)
        m = build_model(cfg, seed=3, dtype=dtype)
        rng = np.random.default_rng(n)
        frames = rng.random((n, in_ch, RESOLUTION, RESOLUTION)).astype(dtype)
        return m, frames

    @pytest.mark.parametrize("capacity,in_ch", [("small", 1), ("large", 3)])
    def test_conv_caches_hold_only_their_input(self, capacity, in_ch,
                                               monkeypatch):
        m, frames = self.record(capacity, in_ch)
        given = []

        def conv2d(x, *args, _conv2d=ops.conv2d):
            given.append(x)
            return _conv2d(x, *args)
        monkeypatch.setattr(ops, "conv2d", conv2d)
        m.forward(frames, train=True,
                  dropout_mask=m.draw_dropout_mask(len(frames), 1))
        # the convs run in the order _named_layers gives them
        convs = [layer for _, layer in m._named_layers()
                 if isinstance(layer, Conv2d)]
        assert len(given) == len(convs)
        for conv, x in zip(convs, given):
            assert type(conv._cache) is np.ndarray and conv._cache is x
        # the stem records the caller's frames, not a copy
        assert convs[0]._cache is frames

    def test_masks_are_bool(self):
        m, frames = self.record("small", 1)
        m.forward(frames, train=True,
                  dropout_mask=m.draw_dropout_mask(len(frames), 1))
        # the stem's ReLU mask is the only one: a block's is its conv2's
        # recorded input > 0, taken in its backward
        assert m._cache[0].dtype == np.bool_
        assert m._cache[0].shape == (16, 16, 16, 16)
        assert not any(hasattr(blk, "_cache") for blk in m.blocks)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("capacity,in_ch", [("small", 1), ("large", 3)])
    def test_cached_bytes_from_shapes(self, capacity, in_ch, dtype):
        n = 16
        m, frames = self.record(capacity, in_ch, n, dtype)
        m.forward(frames, train=True,
                  dropout_mask=m.draw_dropout_mask(len(frames), 1))
        item = np.dtype(dtype).itemsize

        def conv(layer, c, h, w):  # (input bytes, output c, h, w)
            cout, _, k, _ = layer.weight.shape
            s, p = layer.stride, layer.padding
            oh = (h + 2 * p - k) // s + 1
            ow = (w + 2 * p - k) // s + 1
            return n * c * h * w * item, cout, oh, ow

        def norm(c, h, w):  # xhat and 1/std per (frame, group)
            return n * c * h * w * item + n * (c // 4) * item

        want, c, h, w = conv(m.stem_conv, in_ch, RESOLUTION, RESOLUTION)
        want += norm(c, h, w) + n * c * h * w  # and a bool ReLU mask
        for blk in m.blocks:
            # conv1 reads the shifted copy of the block's input, which the
            # projection reads unshifted
            shifted, c1, h1, w1 = conv(blk.conv1, c, h, w)
            want += shifted + norm(c1, h1, w1)  # and no ReLU mask
            want += conv(blk.conv2, c1, h1, w1)[0] + norm(c1, h1, w1)
            if blk.proj:
                want += conv(blk.proj, c, h, w)[0]
            c, h, w = c1, h1, w1
        want += 2 * n * c * item  # dropout mask and the head's input

        params = [id(p) for p in m.named_parameters().values()]
        held = {}
        for obj in (m, *m.blocks, *(layer for _, layer in m._named_layers())):
            for a in _flat_arrays(getattr(obj, "_cache", None)):
                if id(a) not in params:  # a norm's scale
                    held[id(a)] = a.nbytes
        assert sum(held.values()) == want


class TestLayerProtocol:
    """Every parametrised layer runs _Layer's forward and backward around
    its own op pair; a block keeps no state of its own."""

    @pytest.mark.parametrize("cls", [Conv2d, AffineNorm, Linear])
    def test_layers_run_the_shared_protocol(self, cls):
        # identity, not absence from the class dict: a tracer that wrapped
        # and restored a method leaves the original set on the class
        for name in ("forward", "backward", "params", "grads"):
            assert getattr(cls, name) is getattr(_Layer, name), name

    def test_buffers_follow_params(self):
        m = build_model(micro_config(), seed=0)
        for _, layer in m._named_layers():
            params, grads = layer.params(), layer.grads()
            assert list(params) == list(grads)
            for name, p in params.items():
                g = grads[name]
                assert g is getattr(layer, "g" + name)
                assert g.shape == p.shape and g.dtype == p.dtype
                assert not g.any()

    @staticmethod
    def block(seed, zero_signs):
        rng = np.random.default_rng(seed)
        blk = ResidualBlock(rng, 4, 8, 2, 1, ShiftConfig(3, 4))
        blk.norm2.scale[:] = 0.5
        if zero_signs:
            # zero scale on two channels: a norm output of +0.0 or -0.0
            # there, by the sign of its shift and normalised input
            blk.norm1.scale[:2] = 0.0
            blk.norm1.shift[:2] = [0.0, -0.0]
        return blk

    @pytest.mark.parametrize("zero_signs", [False, True])
    def test_block_backward_equals_explicit_relu_mask(self, zero_signs):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4, 8, 8)).astype(np.float32)
        g = rng.normal(size=(6, 8, 4, 4)).astype(np.float32)
        blk = self.block(1, zero_signs)
        out = blk.forward(x)
        gx = blk.backward(g)

        ref = self.block(1, zero_signs)  # the same parameters, by hand
        cfg = ref.shift_cfg
        branch = ref.norm1.forward(ref.conv1.forward(temporal_shift(x, cfg)))
        if zero_signs:  # both signs of zero reach the ReLU
            zeros = branch[branch == 0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        mask = branch > 0
        branch = ref.norm2.forward(ref.conv2.forward(ops.relu(branch)))
        np.testing.assert_array_equal(out, branch + ref.proj.forward(x))
        gb = ops.relu_backward(mask, ref.conv2.backward(ref.norm2.backward(g)))
        gb = ref.conv1.backward(ref.norm1.backward(gb))
        want = ref.proj.backward(g) + temporal_shift_backward(gb, cfg)
        np.testing.assert_array_equal(gx, want)
        for (name, layer), ref_layer in zip(blk.sublayers().items(),
                                            ref.sublayers().values()):
            for k, grad in layer.grads().items():
                np.testing.assert_array_equal(grad, ref_layer.grads()[k],
                                              err_msg=f"{name}.{k}")
            assert layer._cache is None, name


def test_presets_sane():
    for name, (stem, stages) in CAPACITY_PRESETS.items():
        assert stem == stages[0][0]
        for width, blocks, groups in stages:
            assert width % groups == 0
