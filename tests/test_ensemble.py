"""Weighted ensembling, exhaustive weight search, top-k accuracy, and
reporting."""

import numpy as np
import pytest

from tsmkit import ensemble as ensmod
from tsmkit.ensemble import (_simplex_grid, ensemble, report, report_csv,
                             search_weights, topk_accuracy)
from tsmkit.train import PredictionSet


def pset(rows, ids=None):
    rows = np.asarray(rows, dtype=np.float64)
    ids = ids or [f"v{i}" for i in range(len(rows))]
    return PredictionSet(list(ids), rows)


def random_pset(rng, n, k, ids=None):
    rows = rng.random(size=(n, k))
    rows /= rows.sum(axis=1, keepdims=True)
    return pset(rows, ids)


def naive_weighted(members):
    """Independent oracle: per-video, per-class python loop."""
    n, k = members[0][0].probs.shape
    out = np.zeros((n, k))
    for vi in range(n):
        for ci in range(k):
            out[vi, ci] = sum(w * m.probs[vi, ci] for m, w in members)
        out[vi] /= out[vi].sum()
    return out


def loop_search_weights(members, labels_by_id, step):
    """The weight search as one ensemble() and two topk_accuracy() calls per
    grid point: the oracle for the vectorized search."""
    k5 = min(5, members[0].probs.shape[1])
    best = None
    for weights in _simplex_grid(len(members), step):
        combined = ensemble(list(zip(members, weights)))
        top1 = topk_accuracy(combined, labels_by_id, 1)
        top5 = topk_accuracy(combined, labels_by_id, k5)
        key = (-top1, -top5, weights)
        if best is None or key < best[0]:
            best = (key, weights, top1, top5)
    return best[1:]


class TestEnsemble:
    def test_one_hot_agreement_recovered_exactly(self):
        eye = pset(np.eye(4)[[0, 2, 1, 3]])
        out = ensemble([(eye, 0.3), (eye, 0.7)])
        np.testing.assert_array_equal(out.probs, eye.probs)

    def test_single_member_identity(self):
        rng = np.random.default_rng(0)
        a = random_pset(rng, 6, 3)
        out = ensemble([(a, 2.5)])  # renormalization removes the scale
        np.testing.assert_allclose(out.probs, a.probs, atol=1e-12)
        assert out.ids == a.ids

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        members = [(random_pset(rng, 10, 5, ids=[f"v{i}" for i in range(10)]),
                    w) for w in (0.2, 0.5, 0.3)]
        out = ensemble(members)
        np.testing.assert_allclose(out.probs, naive_weighted(members),
                                   atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equals_member_loop(self, dtype):
        rng = np.random.default_rng(6)
        members = [(random_pset(rng, 24, 7), w)
                   for w in (0.3, 0.1, 0.45, 0.15)]
        for preds, _ in members:
            preds.probs = preds.probs.astype(dtype)
        want = np.zeros_like(members[0][0].probs)
        for preds, w in members:
            want += np.float64(w) * preds.probs
        want /= want.sum(axis=1, keepdims=True)
        got = ensemble(members).probs
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_rows_stay_probabilities(self):
        rng = np.random.default_rng(2)
        out = ensemble([(random_pset(rng, 8, 4, ids=list("abcdefgh")), 1.0),
                        (random_pset(rng, 8, 4, ids=list("abcdefgh")), 3.0)])
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)
        assert (out.probs >= 0).all()

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(3)
        a = random_pset(rng, 6, 4, ids=list("abcdef"))
        b = random_pset(rng, 6, 4, ids=list("abcdef"))
        small = ensemble([(a, 0.2), (b, 0.3)])
        big = ensemble([(a, 4.0), (b, 6.0)])
        np.testing.assert_allclose(small.probs, big.probs, atol=1e-12)

    def test_validation_errors(self):
        rng = np.random.default_rng(4)
        a = random_pset(rng, 4, 3, ids=list("abcd"))
        b = random_pset(rng, 4, 3, ids=list("abce"))
        with pytest.raises(ValueError):
            ensemble([])
        with pytest.raises(ValueError, match="different video ids"):
            ensemble([(a, 0.5), (b, 0.5)])
        with pytest.raises(ValueError, match="nonnegative"):
            ensemble([(a, -0.1), (a, 1.1)])
        with pytest.raises(ValueError, match="positive"):
            ensemble([(a, 0.0), (a, 0.0)])

    def test_zero_weighted_row_rejected(self):
        # 0/0 would renormalize the row to NaN, which save() writes and
        # load() rejects
        rng = np.random.default_rng(15)
        a, b = random_pset(rng, 4, 3), random_pset(rng, 4, 3)
        a.probs[1] = 0.0
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match=r"'v1' is NaN at weights \(1.0, 0.0\)"):
            ensemble([(a, 1.0), (b, 0.0)])
        out = ensemble([(a, 1.0), (b, 0.5)])
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)


class TestTopkAccuracy:
    def test_hand_built_example(self):
        # 5 videos, 6 classes; exactly 2 correct at k=1, 4 within top-5
        probs = np.array([
            [0.5, 0.1, 0.1, 0.1, 0.1, 0.1],   # label 0: top-1 hit
            [0.1, 0.5, 0.1, 0.1, 0.1, 0.1],   # label 1: top-1 hit
            [0.3, 0.25, 0.2, 0.15, 0.08, 0.02],  # label 4: top-5 only
            [0.02, 0.08, 0.15, 0.2, 0.25, 0.3],  # label 1: top-5 only
            [0.4, 0.3, 0.15, 0.1, 0.04, 0.01],   # label 5: complete miss
        ])
        labels = {"v0": 0, "v1": 1, "v2": 4, "v3": 1, "v4": 5}
        preds = pset(probs)
        assert topk_accuracy(preds, labels, 1) == pytest.approx(0.4)
        assert topk_accuracy(preds, labels, 5) == pytest.approx(0.8)

    def test_k_equals_num_classes_is_one(self):
        rng = np.random.default_rng(5)
        preds = random_pset(rng, 10, 4)
        labels = {f"v{i}": int(rng.integers(0, 4)) for i in range(10)}
        assert topk_accuracy(preds, labels, 4) == 1.0

    def test_tie_breaks_to_lower_class_index(self):
        preds = pset([[0.25, 0.25, 0.25, 0.25]])
        assert topk_accuracy(preds, {"v0": 0}, 1) == 1.0
        assert topk_accuracy(preds, {"v0": 3}, 1) == 0.0
        assert topk_accuracy(preds, {"v0": 1}, 2) == 1.0

        # every row has multi-way ties; the reference sorts each row by
        # (-prob, class), checked at every k and for every label
        def reference_topk(row, k):
            return sorted(range(len(row)), key=lambda c: (-row[c], c))[:k]

        rng = np.random.default_rng(11)
        probs = rng.choice([0.1, 0.2, 0.3], size=(30, 6))
        preds = pset(probs)
        for k in range(1, 7):
            for label in range(6):
                hits = sum(label in reference_topk(row, k) for row in probs)
                labels = {vid: label for vid in preds.ids}
                assert topk_accuracy(preds, labels, k) == hits / len(probs)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(6)
        preds = random_pset(rng, 100, 8)
        labels = {f"v{i}": int(rng.integers(0, 8)) for i in range(100)}
        accs = [topk_accuracy(preds, labels, k) for k in range(1, 9)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0

    def test_validation_errors(self):
        preds = pset([[0.5, 0.5]])
        with pytest.raises(ValueError):
            topk_accuracy(preds, {"v0": 0}, 0)
        with pytest.raises(ValueError, match="missing labels"):
            topk_accuracy(preds, {"other": 0}, 1)


class TestSearchWeights:
    def _labeled(self, rng, n=20, k=5):
        labels = {f"v{i}": int(rng.integers(0, k)) for i in range(n)}
        return labels

    def test_never_worse_than_any_member(self):
        rng = np.random.default_rng(7)
        labels = self._labeled(rng)
        members = [random_pset(rng, 20, 5) for _ in range(3)]
        weights, top1, _ = search_weights(members, labels, step=0.25)
        singles = [topk_accuracy(m, labels, 1) for m in members]
        assert top1 >= max(singles)

    def test_strictly_better_member_takes_all_weight(self):
        rng = np.random.default_rng(8)
        labels = self._labeled(rng, n=10, k=4)
        perfect = pset(np.eye(4)[[labels[f"v{i}"] for i in range(10)]])
        noise = random_pset(rng, 10, 4)
        weights, top1, _ = search_weights([noise, perfect], labels, step=0.5)
        assert top1 == 1.0

    def test_duplicate_members_pick_lexicographically_smallest(self):
        rng = np.random.default_rng(9)
        labels = self._labeled(rng, n=10, k=4)
        m = random_pset(rng, 10, 4)
        weights, _, _ = search_weights([m, m], labels, step=0.5)
        assert weights == (0.0, 1.0)  # all grid points tie; smallest wins

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        labels = self._labeled(rng, n=15, k=4)
        members = [random_pset(rng, 15, 4) for _ in range(2)]
        best = None
        for a in range(5):
            w = (a / 4, (4 - a) / 4)
            if sum(w) == 0:
                continue
            combined = ensemble(list(zip(members, w)))
            t1 = topk_accuracy(combined, labels, 1)
            t5 = topk_accuracy(combined, labels, 4)
            key = (-t1, -t5, w)
            if best is None or key < best:
                best = key
        weights, top1, top5 = search_weights(members, labels, step=0.25)
        assert (-top1, -top5, weights) == best

    @pytest.mark.parametrize("chunk_bytes", [None, 1, 3000])
    @pytest.mark.parametrize("num_members,k", [(2, 3), (3, 6), (4, 7)])
    def test_equals_per_point_loop(self, num_members, k, chunk_bytes,
                                   monkeypatch):
        if chunk_bytes is not None:  # one grid point, or a few, per chunk
            monkeypatch.setattr(ensmod, "_SEARCH_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(13 + num_members)
        n = 24
        labels = self._labeled(rng, n=n, k=k)
        members = []
        for _ in range(num_members):
            # coarse probabilities tie classes within rows and tie grid
            # points on top-1 and top-5; a repeated row ties members
            rows = rng.integers(0, 3, size=(n, k)).astype(np.float64) + 0.5
            rows[::4] = 1.0
            rows /= rows.sum(axis=1, keepdims=True)
            members.append(pset(rows))
        members[-1].probs[1] = members[0].probs[1]
        for step in (0.5, 0.25, 0.1):
            got = search_weights(members, labels, step=step)
            want = loop_search_weights(members, labels, step)
            assert got == want
            assert all(type(v) is float for v in (*got[0], *got[1:]))

    def test_nan_at_label_rejected(self):
        # counting would rank a NaN label first, the stable sort last
        rng = np.random.default_rng(14)
        labels = self._labeled(rng, n=6, k=3)
        a, b = random_pset(rng, 6, 3), random_pset(rng, 6, 3)
        b.probs[2] = np.nan
        with pytest.raises(ValueError, match="video 'v2' is NaN at weights "
                                             r"\(0.0, 1.0\)"):
            search_weights([a, b], labels, step=0.5)
        # a zero row is NaN once fused alone
        b.probs[2] = 0.0
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"video 'v2' is NaN at weights \(0.0, 1.0\)"):
            search_weights([a, b], labels, step=0.5)
        b.probs[2] = a.probs[2]
        search_weights([a, b], labels, step=0.5)

    def test_grid_covers_weights_summing_to_one(self):
        rng = np.random.default_rng(11)
        labels = self._labeled(rng, n=8, k=3)
        members = [random_pset(rng, 8, 3) for _ in range(3)]
        weights, _, _ = search_weights(members, labels, step=0.2)
        assert sum(weights) == pytest.approx(1.0)
        assert all(w >= 0 for w in weights)

    def test_member_count_and_step_validation(self):
        rng = np.random.default_rng(12)
        labels = self._labeled(rng, n=4, k=3)
        m = random_pset(rng, 4, 3)
        with pytest.raises(ValueError):
            search_weights([m], labels)
        with pytest.raises(ValueError, match="must be 1/k"):
            search_weights([m, m], labels, step=0.3)


class TestReport:
    def test_formatting(self):
        preds = pset(np.eye(3), ids=["a", "b", "c"])
        labels = {"a": 0, "b": 1, "c": 2}
        rows, text = report([("perfect", preds)], labels)
        assert rows == [("perfect", 1.0, 1.0)]
        lines = text.splitlines()
        assert "Method" in lines[0] and "Top-1" in lines[0]
        assert "1.0000" in lines[-1]

    def test_top1_never_exceeds_top5(self):
        rng = np.random.default_rng(13)
        preds = random_pset(rng, 100, 8)
        labels = {f"v{i}": int(rng.integers(0, 8)) for i in range(100)}
        rows, _ = report([("random", preds)], labels)
        _, t1, t5 = rows[0]
        assert t1 <= t5

    def test_csv(self):
        rows = [("a", 0.5, 0.75), ("b", 1.0, 1.0)]
        assert report_csv(rows) == ("method,top1,top5\n"
                                    "a,0.5000,0.7500\n"
                                    "b,1.0000,1.0000\n")

    def test_empty_error(self):
        with pytest.raises(ValueError):
            report([], {})


class TestPredictionSetLoad:
    def test_row_sums_within_tolerance_load(self, tmp_path):
        # rows a writer rounded stay loadable; one off 1 by more than 1e-6
        # fails (tests/test_cli.py)
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "probs": [0.5, 0.4999995]}\n'
                        '{"id": "b", "probs": [0.7500005, 0.25]}\n')
        loaded = PredictionSet.load(path)
        assert loaded.ids == ["a", "b"]
        np.testing.assert_array_equal(loaded.probs,
                                      [[0.5, 0.4999995], [0.7500005, 0.25]])

    def test_duplicate_id_rejected(self, tmp_path):
        # loaded, a video saved twice would count twice in topk_accuracy
        preds = PredictionSet(["a", "a"], np.array([[1.0, 0.0], [1.0, 0.0]]))
        path = tmp_path / "p.jsonl"
        preds.save(path)
        with pytest.raises(ValueError, match=r":2: duplicate id 'a', first "
                                             r"on line 1$"):
            PredictionSet.load(path)
