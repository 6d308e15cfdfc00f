"""Each output check of the benchmark accepts a right output and rejects a
deliberately wrong one, so that no check passes vacuously.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from tsmkit import ensemble, ops  # noqa: E402
from tsmkit.model import ModelConfig, build_model  # noqa: E402
from tsmkit.train import PredictionSet, TrainConfig, load_checkpoint, \
    save_checkpoint  # noqa: E402


@pytest.fixture(scope="module")
def members():
    """Three near-uniform members over 40 videos and 6 classes, as seeded
    untrained models give, so many grid points tie on top-1."""
    rng = np.random.default_rng(3)
    ids = [f"v{i}" for i in range(40)]
    labels = rng.integers(0, 6, size=40)
    sets = []
    for _ in range(3):
        logits = 0.3 * rng.normal(size=(40, 6))
        sets.append(PredictionSet(ids, ops.softmax(logits)))
    return sets, labels, dict(zip(ids, labels.tolist()))


def test_prob_rows(members):
    sets, _, _ = members
    assert checks.prob_rows("ok", sets[0].probs) == []
    bad = sets[0].probs.copy()
    bad[3] *= 2
    assert checks.prob_rows("scaled", bad)
    bad = sets[0].probs.copy()
    bad[0, 0] = np.nan
    assert checks.prob_rows("nan", bad)
    bad = sets[0].probs.copy()
    bad[0, :2] += [-0.01, 0.01]
    bad[0, 0] = -bad[0, 0]
    assert checks.prob_rows("negative", bad)


def test_fused_output_rejects_a_row_scaled_by_two(members):
    sets, _, _ = members
    weights = (0.2, 0.5, 0.3)
    fused = ensemble.ensemble(list(zip(sets, weights))).probs
    probs = [s.probs for s in sets]
    assert checks.fused_output(probs, weights, fused) == []
    wrong = fused.copy()
    wrong[7] *= 2
    assert checks.fused_output(probs, weights, wrong)


def test_search_result_rejects_a_non_maximiser(members):
    sets, labels, labels_by_id = members
    probs = [s.probs for s in sets]
    found = ensemble.search_weights(sets, labels_by_id, step=0.1)
    assert checks.search_result(probs, labels, 0.1, found) == []
    grid, units = checks.simplex_grid(3, 0.1)
    for combo in grid:
        other = tuple(float(c) / units for c in combo)
        if other != found[0]:
            assert checks.search_result(probs, labels, 0.1,
                                        (other,) + found[1:])
    assert checks.search_result(probs, labels, 0.1,
                                (found[0], found[1] + 0.025, found[2]))


def test_grid_size_matches_enumeration():
    assert checks.grid_size(4, 0.05) == len(checks.simplex_grid(4, 0.05)[0])
    assert checks.grid_size(4, 0.05) == 1771


def test_hits_break_probability_ties_by_lower_class():
    probs = np.array([[0.25, 0.25, 0.25, 0.25]])
    assert checks.hits(probs, np.array([0]), 1).tolist() == [True]
    assert checks.hits(probs, np.array([1]), 1).tolist() == [False]
    assert checks.hits(probs, np.array([2]), 3).tolist() == [True]
    assert checks.hits(probs, np.array([3]), 3).tolist() == [False]


def test_fused_beats_members(members):
    sets, labels, _ = members
    probs = [s.probs for s in sets]
    best = max(probs, key=lambda p: checks.hits(p, labels, 1).mean())
    assert checks.fused_beats_members(probs, best, labels) == []
    worst = ops.softmax(-np.eye(6)[labels] * 10)  # never the label
    assert checks.fused_beats_members(probs, worst, labels)


def test_batch_mismatches():
    rows = np.full((4, 5), 0.2)
    moved = rows.copy()
    moved[2, 0] += 1e-4
    moved[2, 1] -= 1e-4
    moved[3, 0] += 1e-8
    assert checks.batch_mismatches(rows, moved).tolist() == [2]


def test_exact_params_rejects_a_parameter_altered_after_reload(tmp_path):
    mdl = build_model(ModelConfig(num_classes=3, capacity="micro"), seed=1)
    vel = {k: np.zeros_like(v) for k, v in mdl.named_parameters().items()}
    save_checkpoint(tmp_path / "m.ckpt", mdl, vel, 0, TrainConfig(), 1)
    loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
    before, after = mdl.named_parameters(), loaded.named_parameters()
    assert checks.exact_params(before, after) == []
    w = after["block0.conv1.weight"]
    w.reshape(-1)[5] = np.nextafter(w.reshape(-1)[5], np.float32(np.inf))
    assert checks.exact_params(before, after)


def test_loss_below_chance():
    assert checks.loss_below_chance(1.5, 5) == []
    assert checks.loss_below_chance(np.log(5), 5)
    assert checks.loss_below_chance(float("nan"), 5)


def test_central_differences_reject_a_perturbed_gradient():
    cfg = ModelConfig(num_classes=3, in_channels=1, num_segments=4,
                      capacity="micro", dropout_rate=0.0)
    mdl = build_model(cfg, seed=2, dtype=np.float64)
    # give every norm a non-zero scale so each branch carries gradient
    for name, p in mdl.named_parameters().items():
        if name.endswith(".scale"):
            p[...] = 0.7
    rng = np.random.default_rng(0)
    frames = rng.random((8, 1, 12, 12))
    labels = np.array([0, 2])

    def loss():
        return ops.cross_entropy(ops.softmax(mdl.forward(frames)), labels)

    mdl.zero_grads()
    probs = ops.softmax(mdl.forward(frames))
    mdl.backward(ops.softmax_cross_entropy_backward(probs, labels))
    analytic = {k: g.copy() for k, g in mdl.named_grads().items()}
    params = mdl.named_parameters()
    picks = [(name, 0) for name in sorted(params)]
    assert checks.central_differences(loss, params, analytic, picks) == []
    for name in ("block0.conv1.weight", "stem.norm.scale", "head.bias"):
        wrong = {k: g.copy() for k, g in analytic.items()}
        wrong[name].reshape(-1)[0] *= 1.01
        assert checks.central_differences(loss, params, wrong, [(name, 0)])
