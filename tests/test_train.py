"""Training loop determinism, the two-half training step, BLAS thread
control, the two-phase protocol, checkpoint IO, and eval-mode prediction
with its forked worker."""

import contextlib
import json
import os
import signal
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tsmkit import blas, data, ops, train
from tsmkit.model import Model, ModelConfig, build_model
from tsmkit.train import (PredictionSet, TrainConfig, _train_step,
                          load_checkpoint, predict_model, save_checkpoint,
                          train_phase1, train_phase2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    spec = data.DatasetSpec(num_classes=5, clips_per_class=20,
                            min_frames=6, max_frames=12, seed=0)
    records = data.generate(spec, root)
    return root, records


def micro_model_cfg(**overrides):
    base = dict(num_classes=5, in_channels=1, num_segments=4,
                capacity="micro", dropout_rate=0.25, fold_div=4)
    base.update(overrides)
    return ModelConfig(**base)


def micro_train_cfg(**overrides):
    base = dict(lr=0.05, batch_size=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def use_cpus(monkeypatch, count):
    """Makes the affinity mask hold count CPUs: predict_model forks its
    worker at 2 and runs every clip in this process at 1."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def strip_seconds(log):
    return [{k: v for k, v in r.items() if k != "seconds"}
            for r in log.records]


class TestTrainConfig:
    def test_zero_lr_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train_phase1(micro_model_cfg(), micro_train_cfg(), train, val,
                         root, epochs=0)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train_phase2(micro_model_cfg(), micro_train_cfg(), records, root,
                         epochs=0)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got "
                                             f"{batch_size}"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("field, value, message", [
        ("lr", float("nan"), "lr must be finite and >= 0, got nan"),
        ("lr", float("inf"), "lr must be finite and >= 0, got inf"),
        ("momentum", float("nan"), "momentum must be in [0, 1), got nan"),
        ("momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
        ("momentum", -0.1, "momentum must be in [0, 1), got -0.1"),
        ("weight_decay", -1.0, "weight_decay must be finite and >= 0, got "
                               "-1.0"),
        ("weight_decay", float("nan"), "weight_decay must be finite and >= 0, "
                                       "got nan"),
        ("weight_decay", float("inf"), "weight_decay must be finite and >= 0, "
                                       "got inf"),
    ])
    def test_bad_optimizer_setting(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == message

    def test_edge_settings_allowed(self):
        cfg = TrainConfig(lr=0.0, momentum=0.0, weight_decay=0.0)
        assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (0.0, 0.0, 0.0)

    def test_digest_depends_on_epochs_and_seed(self):
        cfg = TrainConfig()
        assert cfg.digest(100) != cfg.digest(200)
        assert cfg.digest(100) != TrainConfig(seed=1).digest(100)
        assert cfg.digest(100) == TrainConfig().digest(100)


class TestTrainingLoop:
    def test_zero_lr_leaves_parameters_unchanged(self, dataset):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        cfg = micro_model_cfg()
        tcfg = micro_train_cfg(lr=0.0)
        before = build_model(cfg, seed=tcfg.seed).named_parameters()
        model, _, log = train_phase1(cfg, tcfg, train, val, root, epochs=2)
        after = model.named_parameters()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
        # loss stays near constant (up to sampling noise) since nothing moves
        losses = [r["train_loss"] for r in log.records]
        assert abs(losses[0] - losses[1]) < 0.05

    def test_repeat_run_identical_log(self, dataset):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        _, _, log_a = train_phase1(cfg, tcfg, train, val, root, epochs=2)
        _, _, log_b = train_phase1(cfg, tcfg, train, val, root, epochs=2)
        assert strip_seconds(log_a) == strip_seconds(log_b)

    def test_loss_descends(self, dataset):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        cfg, tcfg = micro_model_cfg(dropout_rate=0.0), micro_train_cfg()
        _, _, log = train_phase1(cfg, tcfg, train, val, root, epochs=6)
        losses = [r["train_loss"] for r in log.records]
        assert losses[-1] < losses[0]
        assert all(r["val_top1"] is not None for r in log.records)

    def test_early_stop(self, dataset):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        _, _, log = train_phase1(cfg, tcfg, train, val, root, epochs=5,
                                 stop_at_top1=0.0)
        assert len(log.records) == 1

    def test_overlap_rejected(self, dataset):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        with pytest.raises(ValueError, match="overlap"):
            train_phase1(micro_model_cfg(), micro_train_cfg(), train,
                         train[:4], root, epochs=1)

    def test_phase2_no_validation(self, dataset):
        root, records = dataset
        _, _, log = train_phase2(micro_model_cfg(), micro_train_cfg(),
                                 records[:20], root, epochs=1)
        assert log.records[0]["val_top1"] is None


def step_batch(capacity, clips, in_ch=1, t=8, seed=0):
    """A freshly built model, its replica, and a batch of `clips` clips."""
    cfg = ModelConfig(num_classes=5, in_channels=in_ch, num_segments=t,
                      capacity=capacity)
    model = build_model(cfg, seed=seed)
    for blk in model.blocks:  # residual branches that reach the logits
        blk.norm2.scale[:] = 1.0
    rng = np.random.default_rng(seed)
    frames = rng.random((clips * t, in_ch, data.RESOLUTION, data.RESOLUTION),
                        dtype=np.float32)
    return model, model.replica(), frames, rng.integers(0, 5, clips)


def one_pass_step(model, frames, labels, drop_seed):
    """The batch's logits and gradients from one forward and backward."""
    model.zero_grads()
    mask = model.draw_dropout_mask(len(frames), drop_seed)
    logits = model.forward(frames, dropout_mask=mask)
    model.backward(ops.softmax_cross_entropy_backward(ops.softmax(logits),
                                                      labels))
    return logits, {k: g.copy() for k, g in model.named_grads().items()}


class TestTwoHalfStep:
    @pytest.mark.parametrize("capacity, in_ch", [("small", 1), ("large", 3)])
    def test_concurrent_equals_halves_in_turn(self, capacity, in_ch):
        # thread timing cannot change a bit
        model, replica, frames, labels = step_batch(capacity, 8, in_ch)
        with blas.threads(1), ThreadPoolExecutor(max_workers=1) as pool:
            got = _train_step(model, replica, frames, labels, 5, pool)
            grads = {k: g.copy() for k, g in model.named_grads().items()}
            want = _train_step(model, replica, frames, labels, 5, None)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        for k, g in model.named_grads().items():
            np.testing.assert_array_equal(grads[k], g, err_msg=k)

    @pytest.mark.parametrize("capacity, in_ch, clips",
                             [("small", 1, 8), ("large", 3, 8),
                              ("small", 1, 3), ("small", 1, 1)])
    def test_matches_one_pass(self, capacity, in_ch, clips):
        model, replica, frames, labels = step_batch(capacity, clips, in_ch)
        logits, loss = _train_step(model, replica, frames, labels, 5)
        want_logits, want = one_pass_step(model.replica(), frames, labels, 5)
        np.testing.assert_array_equal(logits, want_logits)
        assert loss == ops.cross_entropy(ops.softmax(want_logits), labels)
        for k, g in model.named_grads().items():
            scale = np.abs(want[k]).max()
            assert np.abs(g - want[k]).max() <= 1e-5 * scale, k
            if clips == 1:  # one half: the one pass itself
                np.testing.assert_array_equal(g, want[k], err_msg=k)

    def test_one_clip_leaves_replica_idle(self):
        model, replica, frames, labels = step_batch("small", 1)
        logits, _ = _train_step(model, replica, frames, labels, 5)
        assert logits.shape == (1, 5)
        assert replica._cache is None
        assert all(not g.any() for g in replica.named_grads().values())

    @pytest.mark.parametrize("clips", [8, 3])
    def test_dropout_mask_rows_of_one_pass(self, clips, monkeypatch):
        model, replica, frames, labels = step_batch("small", clips)
        masks = []

        def forward(net, frames, train=True, dropout_mask=None,
                    _forward=Model.forward):
            masks.append((net, dropout_mask))
            return _forward(net, frames, train, dropout_mask)
        monkeypatch.setattr(Model, "forward", forward)
        _train_step(model, replica, frames, labels, 11)
        single = model.replica()
        single.forward(frames, train=True,
                       dropout_mask=single.draw_dropout_mask(len(frames), 11))
        assert [net for net, _ in masks] == [model, replica, single]
        halves = np.concatenate([masks[0][1], masks[1][1]])
        assert 0 < halves.mean() < 1
        np.testing.assert_array_equal(halves, masks[2][1])

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("clips", [8, 1])
    def test_step_leaves_no_cache(self, clips, threaded):
        # every backward frees what its forward recorded
        model, replica, frames, labels = step_batch("small", clips)
        with blas.threads(1), ThreadPoolExecutor(max_workers=1) as pool:
            _train_step(model, replica, frames, labels, 5,
                        pool if threaded else None)
        for net in (model, replica):
            for obj in (net, *net.blocks,
                        *(layer for _, layer in net._named_layers())):
                assert getattr(obj, "_cache", None) is None, obj

    def test_step_memory(self):
        """A warmed-up 8-clip `large` RGB step, halves in turn, frees all
        it allocates. Its traced peak stays far below what it took when
        every conv kept its row-phase planes until the next step: 109 MiB,
        against 30 MiB now."""
        model, replica, frames, labels = step_batch("large", 8, in_ch=3)
        with blas.threads(1):
            _train_step(model, replica, frames, labels, 5)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _train_step(model, replica, frames, labels, 5)
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - before < 50 << 20, peak - before
        assert after - before < 64 << 10, after - before

    @pytest.mark.parametrize("clips, submits", [(8, 1), (3, 1), (1, 0)])
    def test_one_submit_per_step(self, clips, submits):
        # each half runs its forward, loss gradient and backward in one call
        model, replica, frames, labels = step_batch("small", clips)
        want = _train_step(model, replica, frames, labels, 5)
        calls = []

        class SpyPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                calls.append(fn)
                return super().submit(fn, *args, **kwargs)

        with blas.threads(1), SpyPool(max_workers=1) as pool:
            got = _train_step(model, replica, frames, labels, 5, pool)
        assert len(calls) == submits
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]

    def test_fresh_replica_holds_no_call_state(self):
        model, replica, frames, _ = step_batch("small", 1)
        model.forward(frames, train=True)
        twin = model.replica()
        assert twin._cache is None
        assert twin.cfg == model.cfg and twin.dtype == model.dtype

    def test_replica_shares_parameters_not_gradients(self):
        model, replica, _, _ = step_batch("small", 1)
        params, twin = model.named_parameters(), replica.named_parameters()
        assert params.keys() == twin.keys()
        for k in params:
            assert twin[k] is params[k]
        grads = model.named_grads()
        for k, g in replica.named_grads().items():
            assert not np.shares_memory(g, grads[k]) and not g.any()
        for layer, twin_layer in zip(model._named_layers(),
                                     replica._named_layers()):
            assert layer[1] is not twin_layer[1]


def blas_count():
    return blas.CONTROL[1]()


class TestBlasThreads:
    def test_setter_resolves(self):
        # without it training runs its halves in turn, on one core
        assert blas.CONTROL is not None

    def test_threads_restores_on_exception(self):
        with blas.threads(2):
            with pytest.raises(RuntimeError):
                with blas.threads(1) as pinned:
                    assert pinned and blas_count() == 1
                    raise RuntimeError
            assert blas_count() == 2

    def test_training_restores_count(self, dataset, monkeypatch):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        seen = []
        with blas.threads(2):
            train_phase1(micro_model_cfg(), micro_train_cfg(), train, val,
                         root, epochs=1,
                         log_fn=lambda rec: seen.append(blas_count()))
            assert seen == [1] and blas_count() == 2
            monkeypatch.setattr(ops, "cross_entropy",
                                lambda probs, labels: float("nan"))
            with pytest.raises(FloatingPointError, match="non-finite loss"):
                train_phase1(micro_model_cfg(), micro_train_cfg(), train,
                             val, root, epochs=1)
            assert blas_count() == 2

    def test_predict_restores_count(self, dataset):
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"][:4]
        with blas.threads(2):
            predict_model(model, recs, root)
            assert blas_count() == 2
            with pytest.raises(ValueError, match="channels"):
                predict_model(model, [dict(recs[0], modality="rgb")], root)
            assert blas_count() == 2

    def test_checkpoint_bytes_without_setter(self, dataset, tmp_path,
                                             monkeypatch):
        # the halves run in turn when the count cannot be set, in the same
        # bits
        root, records = dataset
        cfg = ModelConfig(num_classes=5, num_segments=4, capacity="small")
        tcfg = micro_train_cfg(batch_size=5)
        blobs = []
        for control in (blas.CONTROL, None):
            monkeypatch.setattr(blas, "CONTROL", control)
            model, vel, _ = train_phase2(cfg, tcfg, records[:40], root,
                                         epochs=1)
            path = tmp_path / f"{len(blobs)}.ckpt"
            save_checkpoint(path, model, vel, 0, tcfg, 1)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("capacity, modality",
                             [("small", "ir"), ("large", "rgb")])
    def test_predict_bits_at_one_and_two_threads(self, dataset, monkeypatch,
                                                 capacity, modality):
        root, records = dataset
        cfg = ModelConfig(num_classes=5, capacity=capacity,
                          in_channels=data.MODALITIES[modality][0])
        model = build_model(cfg, seed=0)
        for blk in model.blocks:
            blk.norm2.scale[:] = 1.0
        recs = [r for r in records if r["modality"] == modality][:6]
        one = predict_model(model, recs, root).probs
        pin = blas.threads
        with pin(2):
            monkeypatch.setattr(blas, "threads",
                                lambda n: contextlib.nullcontext(False))
            two = predict_model(model, recs, root).probs
            assert blas_count() == 2
        np.testing.assert_array_equal(one, two)


class TestTwoPhaseEquivalence:
    def test_same_data_same_epochs_byte_identical_checkpoints(self, dataset,
                                                              tmp_path):
        # phase 1 validation must not perturb training randomness, so a
        # phase-2 run over the same records reproduces the phase-1 model
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        m1, v1, _ = train_phase1(cfg, tcfg, train, val, root, epochs=2)
        train_ir = [r for r in train if r["modality"] == "ir"]
        m2, v2, _ = train_phase2(cfg, tcfg, train_ir, root, epochs=2)
        p1, p2 = tmp_path / "p1.ckpt", tmp_path / "p2.ckpt"
        save_checkpoint(p1, m1, v1, epoch=2, train_cfg=tcfg, epochs_run=2)
        save_checkpoint(p2, m2, v2, epoch=2, train_cfg=tcfg, epochs_run=2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_phase2_uses_fresh_initialization(self, dataset):
        root, records = dataset
        train, val = data.split(records, 0.8, seed=0)
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        m1, _, _ = train_phase1(cfg, tcfg, train, val, root, epochs=2)
        m2, _, _ = train_phase2(cfg, tcfg, records, root, epochs=2)
        a, b = m1.named_parameters(), m2.named_parameters()
        assert any(not np.array_equal(a[k], b[k]) for k in a)


class TestCheckpoint:
    def test_round_trip_bit_identical_predictions(self, dataset, tmp_path):
        root, records = dataset
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        model, vel, _ = train_phase2(cfg, tcfg, records[:20], root, epochs=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vel, epoch=1, train_cfg=tcfg,
                        epochs_run=1)
        restored, rvel, header = load_checkpoint(path)
        assert header["model_config"] == cfg.to_dict()
        assert header["epoch"] == 1
        for k, v in model.named_parameters().items():
            np.testing.assert_array_equal(
                restored.named_parameters()[k],
                v.astype(np.float32))
        assert rvel.keys() == vel.keys()
        recs = [r for r in records if r["modality"] == "ir"][:10]
        a = predict_model(model, recs, root)
        b = predict_model(restored, recs, root)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_is_a_value_error(self, tmp_path):
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        model = build_model(cfg, seed=0)
        vel = {k: np.zeros_like(v)
               for k, v in model.named_parameters().items()}
        full = tmp_path / "full.ckpt"
        save_checkpoint(full, model, vel, 0, tcfg, 1)
        blob = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(cut)

    @pytest.mark.parametrize("header, message", [
        (b"{not json", "checkpoint header is not JSON"),
        (b"[1, 2]", "checkpoint header is not a JSON object"),
        (b'{"epoch": 0}', "checkpoint header has no model_config object"),
        (b'{"model_config": 3}', "has no model_config object"),
        (None, "unexpected keyword argument 'colour'"),
        (None, "num_classes must be >= 2"),
    ])
    def test_bad_header(self, tmp_path, header, message):
        cfg = micro_model_cfg()
        if header is None:
            config = cfg.to_dict()
            config.update({"colour": 1} if "colour" in message
                          else {"num_classes": 1})
            header = json.dumps({"model_config": config}).encode()
        path = self.with_header(tmp_path / "m.ckpt", cfg, header)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value) and "\n" not in str(err.value)

    @staticmethod
    def with_header(path, cfg, header):
        """A checkpoint of a cfg model whose header bytes are header."""
        save_checkpoint(path, build_model(cfg), {}, 0, micro_train_cfg(), 1)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 12)
        path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header
                         + blob[16 + hlen:])
        return path

    @pytest.mark.parametrize("change, message", [
        ({"fold_div": 8.5}, "fold_div must be an integer, got 8.5"),
        ({"num_segments": 2.5}, "num_segments must be an integer, got 2.5"),
        ({"num_classes": True}, "num_classes must be an integer, got True"),
        ({"in_channels": "1"}, "in_channels must be an integer, got '1'"),
        ({"shift_enabled": "no"}, "shift_enabled must be a bool, got 'no'"),
        ({"shift_enabled": 1}, "shift_enabled must be a bool, got 1"),
        ({"capacity": ["micro"]}, "capacity must be a string, got ['micro']"),
        ({"dropout_rate": "0.5"}, "dropout_rate must be a number, got '0.5'"),
        ({"dropout_rate": None}, "dropout_rate must be a number, got None"),
        ({"in_channels": 0}, "in_channels must be >= 1, got 0"),
    ])
    def test_model_config_values(self, tmp_path, change, message):
        # a bad field fails on load, not later in predict, the shift or the
        # stem's initialisation
        cfg = micro_model_cfg()
        header = json.dumps({"model_config": {**cfg.to_dict(), **change}})
        path = self.with_header(tmp_path / "m.ckpt", cfg, header.encode())
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    def test_bytes_past_last_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_model(micro_model_cfg()), {}, 0,
                        micro_train_cfg(), 1)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(ValueError,
                           match="3 extra bytes past the last tensor"):
            load_checkpoint(path)

    def test_huge_tensor_extent_is_truncation(self, tmp_path):
        # a corrupted extent is caught before anything is read or allocated
        cfg = micro_model_cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_model(cfg), {}, 0, micro_train_cfg(), 1)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack_from("<I", blob, 12)
        at = 16 + hlen + 4  # the first tensor's name length
        (nlen,) = struct.unpack_from("<I", blob, at)
        extents = at + 4 + nlen + 4  # past its name and rank
        blob[extents:extents + 4] = struct.pack("<I", 2 ** 32 - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(path)

    def test_save_is_deterministic(self, dataset, tmp_path):
        cfg, tcfg = micro_model_cfg(), micro_train_cfg()
        model = build_model(cfg, seed=3)
        vel = {k: np.zeros_like(v)
               for k, v in model.named_parameters().items()}
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(pa, model, vel, 0, tcfg, 1)
        save_checkpoint(pb, model, vel, 0, tcfg, 1)
        assert pa.read_bytes() == pb.read_bytes()


class TestPredict:
    def test_rows_are_probabilities(self, dataset):
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"]
        preds = predict_model(model, recs, root)
        assert preds.probs.shape == (len(recs), 5)
        np.testing.assert_allclose(preds.probs.sum(axis=1), 1.0, atol=1e-6)
        assert (preds.probs >= 0).all()

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, dataset, batch_size):
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        with pytest.raises(ValueError,
                           match=f"^batch_size must be >= 1, got {batch_size}$"):
            predict_model(model, records[:2], root, batch_size=batch_size)

    def test_deterministic(self, dataset):
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"][:16]
        a = predict_model(model, recs, root)
        b = predict_model(model, recs, root)
        np.testing.assert_array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("capacity, modality",
                             [("small", "ir"), ("large", "rgb")])
    def test_clip_probs_independent_of_batch(self, dataset, capacity,
                                             modality):
        # a clip's probabilities depend on that clip alone, bit for bit
        root, records = dataset
        cfg = ModelConfig(num_classes=5, capacity=capacity,
                          in_channels=data.MODALITIES[modality][0])
        model = build_model(cfg, seed=0)
        for blk in model.blocks:  # residual branches that reach the logits
            blk.norm2.scale[:] = 1.0
        recs = [r for r in records if r["modality"] == modality][:12]
        want = predict_model(model, recs, root, batch_size=1).probs
        for batch_size in (8, len(recs)):
            got = predict_model(model, recs, root, batch_size=batch_size)
            np.testing.assert_array_equal(got.probs, want)
        rev = predict_model(model, recs[::-1], root, batch_size=8)
        assert rev.ids == [r["id"] for r in recs[::-1]]
        np.testing.assert_array_equal(rev.probs, want[::-1])

    @pytest.mark.parametrize("capacity, modality",
                             [("small", "ir"), ("large", "rgb")])
    def test_forked_rows_equal_one_process(self, dataset, monkeypatch,
                                           capacity, modality):
        # the forked child's rows are the rows one process computes, bit for
        # bit, at any batch size, and the ids keep the records' order
        root, records = dataset
        cfg = ModelConfig(num_classes=5, capacity=capacity,
                          in_channels=data.MODALITIES[modality][0])
        model = build_model(cfg, seed=0)
        for blk in model.blocks:  # residual branches that reach the logits
            blk.norm2.scale[:] = 1.0
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for count in (7, 1):
            recs = [r for r in records if r["modality"] == modality][:count]
            for batch_size in (1, 8, count):
                use_cpus(monkeypatch, 1)
                want = predict_model(model, recs, root, batch_size=batch_size)
                use_cpus(monkeypatch, 2)
                forks.clear()
                got = predict_model(model, recs, root, batch_size=batch_size)
                assert len(forks) == (count > 1)
                assert got.ids == want.ids == [r["id"] for r in recs]
                np.testing.assert_array_equal(got.probs, want.probs)

    def test_without_fork_runs_in_one_process(self, dataset, monkeypatch):
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"][:5]
        use_cpus(monkeypatch, 2)
        want = predict_model(model, recs, root)
        monkeypatch.delattr(os, "fork")
        got = predict_model(model, recs, root)
        np.testing.assert_array_equal(got.probs, want.probs)

    def test_unpinned_blas_runs_in_one_process(self, dataset, monkeypatch):
        # a child whose BLAS may run several threads would share a core
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"][:5]
        use_cpus(monkeypatch, 2)
        want = predict_model(model, recs, root)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(blas, "CONTROL", None)
        got = predict_model(model, recs, root)
        assert forks == []
        np.testing.assert_array_equal(got.probs, want.probs)

    def test_keeps_no_activations(self, dataset, monkeypatch):
        # after predicting, the model holds its parameters and their
        # gradients, and neither an activation nor an input batch. With 2
        # CPUs this process runs the first 8 of the 16 records, one batch,
        # and the spy does not see the forked child's; with 1 CPU it runs
        # both batches
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"][:16]
        objs = [model, *model.blocks, *(l for _, l in model._named_layers())]

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)

        def held():
            return {id(a) for o in objs for v in vars(o).values()
                    for a in arrays(v)}

        inputs = []
        forward = model.forward

        def spy(frames, *args, **kwargs):
            inputs.append(frames)
            return forward(frames, *args, **kwargs)

        model.forward = spy
        kept = {id(a) for a in (*model.named_parameters().values(),
                                *model.named_grads().values())}
        assert held() == kept
        model.forward(np.zeros((8, 1, 32, 32), np.float32), train=True)
        assert len(held() - kept) > 1
        for cpus, calls in ((2, 1), (1, 2)):
            use_cpus(monkeypatch, cpus)
            before = len(inputs)
            predict_model(model, recs, root)
            assert len(inputs) == before + calls
            assert held() == kept

    def test_untrained_model_near_uniform(self, dataset):
        # a freshly initialized 5-class model should put its top probability
        # near 1/K on every video: mean max prob within 0.2 +/- 0.1
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"]
        assert len(recs) >= 100
        preds = predict_model(model, recs, root)
        mean_max = preds.probs.max(axis=1).mean()
        assert abs(mean_max - 0.2) <= 0.1

    def test_modality_mismatch_error(self, dataset):
        root, records = dataset
        model = build_model(micro_model_cfg(in_channels=1), seed=0)
        rgb = [r for r in records if r["modality"] == "rgb"][:4]
        with pytest.raises(ValueError, match="channels"):
            predict_model(model, rgb, root)

    def test_prediction_set_round_trip(self, dataset, tmp_path):
        root, records = dataset
        model = build_model(micro_model_cfg(), seed=0)
        recs = [r for r in records if r["modality"] == "ir"][:8]
        preds = predict_model(model, recs, root)
        path = tmp_path / "preds.jsonl"
        preds.save(path)
        loaded = PredictionSet.load(path)
        assert loaded.ids == preds.ids
        np.testing.assert_allclose(loaded.probs, preds.probs, atol=1e-15)
        # saving the loaded set reproduces the file byte for byte
        path2 = tmp_path / "again.jsonl"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()


class TestPredictWorker:
    """Failures in predict_model's forked half give the error a one-process
    run gives, or one line naming how the child ended; the autouse fixture
    in conftest.py checks that no child is left behind."""

    @pytest.fixture
    def clips(self, tmp_path, monkeypatch):
        spec = data.DatasetSpec(num_classes=2, clips_per_class=2,
                                min_frames=6, max_frames=8, seed=0)
        recs = [r for r in data.generate(spec, tmp_path)
                if r["modality"] == "ir"]
        assert len(recs) == 4  # this process runs 2, the child 2
        use_cpus(monkeypatch, 2)
        return build_model(micro_model_cfg(num_classes=2), seed=0), recs, \
            tmp_path

    @pytest.mark.parametrize("bad", [[3], [0], [0, 3]])
    def test_bad_clip_error_is_the_one_process_error(self, clips,
                                                     monkeypatch, bad):
        # a cut clip in the child's half, in this process's half, or in both:
        # the error of the lowest bad record, as in one process
        model, recs, root = clips
        for i in bad:
            path = root / recs[i]["path"]
            path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError) as forked:
            predict_model(model, recs, root)
        use_cpus(monkeypatch, 1)
        with pytest.raises(ValueError) as one:
            predict_model(model, recs, root)
        assert str(forked.value) == str(one.value)
        assert str(forked.value).startswith(
            f"{root / recs[bad[0]]['path']}: truncated clip file")

    def in_child(self, monkeypatch, action):
        """Makes the child run action() in place of its half."""
        parent = os.getpid()
        rows = train._predict_rows

        def patched(*args):
            if os.getpid() != parent:
                action()
            return rows(*args)

        monkeypatch.setattr(train, "_predict_rows", patched)

    def test_killed_child(self, clips, monkeypatch):
        model, recs, root = clips
        self.in_child(monkeypatch,
                      lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(ChildProcessError,
                           match="killed by signal SIGKILL before it sent"):
            predict_model(model, recs, root)

    def test_child_exit_status(self, clips, monkeypatch):
        model, recs, root = clips
        self.in_child(monkeypatch, lambda: os._exit(3))
        with pytest.raises(ChildProcessError,
                           match="exited with status 3 before it sent"):
            predict_model(model, recs, root)

    def test_unpicklable_child_error(self, clips, monkeypatch):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fail():
            raise LocalError("no rows")

        model, recs, root = clips
        self.in_child(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="^LocalError: no rows$"):
            predict_model(model, recs, root)


def test_train_log_csv_format(tmp_path):
    from tsmkit.train import TrainLog
    log = TrainLog()
    log.append(0, 1.609438, 0.25, 0.8, 1.234)
    log.append(1, 1.2, None, None, 2.5)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_top1,val_top5,seconds"
    assert lines[1] == "0,1.609438,0.2500,0.8000,1.234"
    assert lines[2] == "1,1.200000,,,2.500"
