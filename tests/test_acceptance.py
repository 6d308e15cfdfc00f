"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s to see them).

The experimental criteria (3-5) train real models on the 250-clip synthetic
set and take several minutes on one CPU core.
"""

import time
import zlib

import numpy as np
import pytest

from tsmkit import cli, data, gradcheck, ops
from tsmkit.ensemble import ensemble, search_weights, topk_accuracy
from tsmkit.model import ModelConfig, build_model
from tsmkit.shift import ShiftConfig, temporal_shift, temporal_shift_backward
from tsmkit.train import TrainConfig, predict_model, train_phase1

pytestmark = pytest.mark.slow


def _criterion(num, desc, passed):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {desc}")
    assert passed, f"criterion {num}: {desc}"


# ---------------------------------------------------------------------------
# shared experimental setup: the 5-class, 250-clip synthetic dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_ds")
    spec = data.DatasetSpec(num_classes=5, clips_per_class=50, seed=0)
    records = data.generate(spec, root)
    train, val = data.split(records, 0.8, seed=0)
    labels = {r["id"]: r["label"] for r in records}
    return root, train, val, labels


@pytest.fixture(scope="module")
def modality_runs(dataset):
    """IR and RGB models with matched configs over seeds 0..2, 10 epochs."""
    root, train, val, labels = dataset
    runs = []
    for seed in (0, 1, 2):
        per_seed = {}
        for modality, channels in (("ir", 1), ("rgb", 3)):
            cfg = ModelConfig(num_classes=5, in_channels=channels)
            model, _, log = train_phase1(cfg, TrainConfig(seed=seed),
                                         train, val, root, epochs=10)
            recs = [r for r in val if r["modality"] == modality]
            preds = predict_model(model, recs, root)
            per_seed[modality] = (log.records[-1]["val_top1"], preds)
        runs.append(per_seed)
    return runs


# ---------------------------------------------------------------------------


def test_criterion_1_operator_oracle():
    def naive(x, t, fold_div):
        n, c = x.shape[0] // t, x.shape[1]
        fold = c // fold_div
        v = x.reshape(n, t, *x.shape[1:])
        out = np.zeros_like(v)
        for ni in range(n):
            for ti in range(t):
                for ci in range(c):
                    src = ti + 1 if ci < fold else (
                        ti - 1 if ci < 2 * fold else ti)
                    if 0 <= src < t:
                        out[ni, ti, ci] = v[ni, src, ci]
        return out.reshape(x.shape)

    rng = np.random.default_rng(0)
    start = time.monotonic()
    ok = True
    for _ in range(200):
        t = int(rng.integers(1, 9))
        c = int(rng.integers(2, 33))
        fold_div = int(rng.choice([2, 4, 8]))
        n = int(rng.integers(1, 4))
        h = int(rng.integers(1, 5))
        x = rng.normal(size=(n * t, c, h, h))
        cfg = ShiftConfig(num_segments=t, fold_div=fold_div)
        if not np.array_equal(temporal_shift(x, cfg), naive(x, t, fold_div)):
            ok = False
            break
    elapsed = time.monotonic() - start
    _criterion(1, f"200 random shapes match the naive oracle exactly "
               f"({elapsed:.1f}s < 10s)", ok and elapsed < 10)


def test_criterion_2_gradient_suite():
    start = time.monotonic()
    errs = gradcheck.run_all(seed=0)
    ops_ok = all(e < 1e-5 for e in errs.values())

    cfg = ShiftConfig(num_segments=4, fold_div=4)
    rng = np.random.default_rng(1)
    adjoint_ok = True
    for _ in range(100):
        x = rng.normal(size=(8, 8, 3, 3))
        y = rng.normal(size=(8, 8, 3, 3))
        lhs = float((temporal_shift(x, cfg) * y).sum())
        rhs = float((x * temporal_shift_backward(y, cfg)).sum())
        if abs(lhs - rhs) > 1e-10 * max(1.0, abs(lhs)):
            adjoint_ok = False
            break

    # end-to-end micro-model gradient against central differences
    mcfg = ModelConfig(num_classes=3, in_channels=2, num_segments=3,
                       capacity="micro", dropout_rate=0.25, fold_div=4)
    model = build_model(mcfg, seed=5, dtype=np.float64)
    for blk in model.blocks:
        blk.norm2.scale[:] = 0.5
    frames = rng.normal(size=(6, 2, 8, 8))
    labels = np.array([0, 2])

    def loss():
        logits = model.forward(frames, train=True, dropout_seed=17)
        return ops.cross_entropy(ops.softmax(logits), labels)

    model.zero_grads()
    probs = ops.softmax(model.forward(frames, train=True, dropout_seed=17))
    model.backward(ops.softmax_cross_entropy_backward(probs, labels))
    grads = model.named_grads()
    h = 1e-5
    worst = 0.0
    for name, p in model.named_parameters().items():
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        pick = np.random.default_rng(zlib.crc32(name.encode()))
        for i in pick.choice(flat.size, size=min(2, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            num = (fp - fm) / (2 * h)
            worst = max(worst, abs(num - gflat[i]) / max(1.0, abs(gflat[i])))
    e2e_ok = worst < 1e-4
    elapsed = time.monotonic() - start
    _criterion(2, f"backward ops < 1e-5, adjoint exact on 100 pairs, "
               f"end-to-end {worst:.2e} < 1e-4 ({elapsed:.0f}s < 120s)",
               ops_ok and adjoint_ok and e2e_ok and elapsed < 120)


def test_criterion_3_temporal_discrimination(dataset):
    root, train, val, labels = dataset
    start = time.monotonic()
    # shift-enabled small model must reach 0.90 val top-1 within 30 epochs
    cfg = ModelConfig(num_classes=5, in_channels=1)
    _, _, log = train_phase1(cfg, TrainConfig(seed=0), train, val, root,
                             epochs=30, stop_at_top1=0.90)
    best = max(r["val_top1"] for r in log.records)
    shift_ok = best >= 0.90

    # the same model without the shift stays near chance on the direction
    # pair (classes 0/1 share every frame, only the order differs)
    pair_accs = []
    for seed in (0, 1, 2):
        nocfg = ModelConfig(num_classes=5, in_channels=1, shift_enabled=False)
        model, _, _ = train_phase1(nocfg, TrainConfig(seed=seed), train, val,
                                   root, epochs=30)
        recs = [r for r in val if r["modality"] == "ir"]
        preds = predict_model(model, recs, root)
        pair = [(vid, row) for vid, row in zip(preds.ids, preds.probs)
                if labels[vid] in (0, 1)]
        hits = sum(int(np.argsort(-row, kind="stable")[0]) == labels[vid]
                   for vid, row in pair)
        pair_accs.append(hits / len(pair))
    majority = sum(a <= 0.60 for a in pair_accs) >= 2
    elapsed = time.monotonic() - start
    _criterion(3, f"shift model val top-1 {best:.2f} >= 0.90; no-shift "
               f"up/down accuracy {pair_accs} <= 0.60 (majority of 3 seeds); "
               f"{elapsed:.0f}s < 600s",
               shift_ok and majority and elapsed < 600)


def test_criterion_4_modality_ordering(modality_runs):
    ir = [run["ir"][0] for run in modality_runs]
    rgb = [run["rgb"][0] for run in modality_runs]
    wins = sum(a > b for a, b in zip(ir, rgb))
    _criterion(4, f"IR val top-1 {ir} beats RGB {rgb} in {wins}/3 seeds "
               f"(need >= 2)", wins >= 2)


def test_criterion_5_ensemble_correctness(dataset, modality_runs):
    from tsmkit.train import PredictionSet
    root, train, val, labels = dataset

    # one-hot identity: unanimous one-hot members come back exactly
    eye = PredictionSet(["a", "b", "c"], np.eye(3)[[2, 0, 1]].astype(float))
    onehot_ok = np.array_equal(
        ensemble([(eye, 0.25), (eye, 0.75)]).probs, eye.probs)

    # weighted-sum oracle agreement
    rng = np.random.default_rng(0)
    ids = [f"v{i}" for i in range(12)]
    members = []
    for w in (0.5, 0.2, 0.3):
        rows = rng.random(size=(12, 5))
        rows /= rows.sum(axis=1, keepdims=True)
        members.append((PredictionSet(ids, rows), w))
    expected = sum(w * m.probs for m, w in members)
    expected /= expected.sum(axis=1, keepdims=True)
    oracle_err = np.abs(ensemble(members).probs - expected).max()

    # structural guarantee: searched weights never lose to a member
    structural_ok = True
    for trial in range(5):
        trial_labels = {i: int(rng.integers(0, 5)) for i in ids}
        ms = []
        for _ in range(3):
            rows = rng.random(size=(12, 5))
            rows /= rows.sum(axis=1, keepdims=True)
            ms.append(PredictionSet(ids, rows))
        _, top1, _ = search_weights(ms, trial_labels, step=0.25)
        if top1 < max(topk_accuracy(m, trial_labels, 1) for m in ms):
            structural_ok = False

    # IR + RGB ensemble vs the best single model (grid step 0.05)
    ir_preds = modality_runs[0]["ir"][1]
    rgb_preds = modality_runs[0]["rgb"][1]
    singles = max(topk_accuracy(ir_preds, labels, 1),
                  topk_accuracy(rgb_preds, labels, 1))
    _, ens_top1, _ = search_weights([ir_preds, rgb_preds], labels, step=0.05)

    _criterion(5, f"one-hot exact; oracle err {oracle_err:.1e} < 1e-12; "
               f"search >= members; IR+RGB ensemble {ens_top1:.2f} >= best "
               f"single {singles:.2f}",
               onehot_ok and oracle_err < 1e-12 and structural_ok
               and ens_top1 >= singles)


def test_criterion_6_metrics():
    from tsmkit.ensemble import report
    from tsmkit.train import PredictionSet

    # hand-enumerated 5-video, 6-class case: top1 = 0.4, top5 = 0.8
    probs = np.array([
        [0.5, 0.1, 0.1, 0.1, 0.1, 0.1],
        [0.1, 0.5, 0.1, 0.1, 0.1, 0.1],
        [0.3, 0.25, 0.2, 0.15, 0.08, 0.02],
        [0.02, 0.08, 0.15, 0.2, 0.25, 0.3],
        [0.4, 0.3, 0.15, 0.1, 0.04, 0.01],
    ])
    labels = {"v0": 0, "v1": 1, "v2": 4, "v3": 1, "v4": 5}
    preds = PredictionSet([f"v{i}" for i in range(5)], probs)
    hand_ok = (topk_accuracy(preds, labels, 1) == pytest.approx(0.4)
               and topk_accuracy(preds, labels, 5) == pytest.approx(0.8))

    # top1 <= top5 over 100 random prediction sets
    rng = np.random.default_rng(3)
    mono_ok = True
    for _ in range(100):
        n, k = int(rng.integers(2, 30)), int(rng.integers(6, 12))
        rows = rng.random(size=(n, k))
        rows /= rows.sum(axis=1, keepdims=True)
        ps = PredictionSet([f"v{i}" for i in range(n)], rows)
        lb = {f"v{i}": int(rng.integers(0, k)) for i in range(n)}
        if topk_accuracy(ps, lb, 1) > topk_accuracy(ps, lb, 5):
            mono_ok = False

    _, text = report([("hand", preds)], labels)
    fmt_ok = "0.4000" in text and "0.8000" in text
    _criterion(6, "hand-enumerated top1=0.4/top5=0.8; top1 <= top5 over 100 "
               "random sets; report uses 4 decimals",
               hand_ok and mono_ok and fmt_ok)


def test_criterion_7_reproducibility(tmp_path):
    def pipeline(root):
        root.mkdir()
        cli.main(["gen-data", "--out", str(root), "--classes", "2",
                  "--clips-per-class", "6", "--seed", "0"])
        manifest = root / "manifest.jsonl"
        ckpt = root / "ir.ckpt"
        assert cli.main(["train", "--data", str(manifest), "--out", str(ckpt),
                         "--classes", "2", "--segments", "4",
                         "--epochs", "2"]) == 0
        preds = root / "val.jsonl"
        assert cli.main(["predict", "--ckpt", str(ckpt), "--data",
                         str(manifest), "--split", "val",
                         "--out", str(preds)]) == 0
        ens = root / "ens.jsonl"
        assert cli.main(["ensemble", "--preds", str(preds), str(preds),
                         "--weights", "0.5,0.5", "--out", str(ens)]) == 0
        csv = root / "report.csv"
        assert cli.main(["report", "--row", f"ir={preds}", f"ens={ens}",
                         "--data", str(manifest), "--csv", str(csv)]) == 0
        return [manifest, ckpt, preds, ens, csv]

    a = pipeline(tmp_path / "run_a")
    b = pipeline(tmp_path / "run_b")
    same = [pa.read_bytes() == pb.read_bytes() for pa, pb in zip(a, b)]
    _criterion(7, "two pipeline runs give byte-identical manifests, "
               "checkpoints, predictions, and reports", all(same))
