"""Weighted softmax ensemble (P = sum_i w_i * Pred_i), exhaustive weight
search on the simplex, top-k accuracy, and leaderboard-style reporting."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import read_json_rows


@dataclass
class PredictionSet:
    ids: list
    probs: np.ndarray  # [num_videos, num_classes]

    def save(self, path):
        with open(path, "w") as fh:
            for vid, row in zip(self.ids, self.probs):
                fh.write(json.dumps(
                    {"id": vid, "probs": [float(p) for p in row]}) + "\n")

    @classmethod
    def load(cls, path):
        """Reads a file written by save (data.read_json_rows). A row that
        is not a probability row of a new video id raises a one-line
        `path:line` ValueError."""
        ids, rows = [], []
        first_line = {}  # id -> the line it first appeared on
        for lineno, rec in read_json_rows(path, "prediction"):
            if not {"id", "probs"} <= rec.keys():
                raise ValueError(
                    f'{path}:{lineno}: a prediction row needs "id" and '
                    f'"probs"')
            row = rec["probs"]
            if not isinstance(row, list):
                raise ValueError(f'{path}:{lineno}: "probs" must be a list')
            if not all(type(p) in (int, float) for p in row):
                raise ValueError(
                    f'{path}:{lineno}: "probs" must hold only numbers')
            if not all(0 <= p <= 1 for p in row):  # False for NaN too
                raise ValueError(
                    f"{path}:{lineno}: a probability outside [0, 1]")
            if not any(row):
                raise ValueError(
                    f"{path}:{lineno}: a row with no probability mass")
            total = math.fsum(row)
            if abs(total - 1) > 1e-6:
                raise ValueError(f"{path}:{lineno}: probabilities sum to "
                                 f"{total:.9g}, not 1")
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: {len(row)} probabilities, but the "
                    f"first row has {len(rows[0])}")
            vid = rec["id"]
            if not isinstance(vid, str):
                raise ValueError(f'{path}:{lineno}: "id" must be a string')
            if vid in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate id {vid!r}, first on "
                    f"line {first_line[vid]}")
            first_line[vid] = lineno
            ids.append(vid)
            rows.append(row)
        return cls(ids, np.asarray(rows, dtype=np.float64))


def _check_members(members):
    if not members:
        raise ValueError("ensemble needs at least one member")
    ref = members[0][0]
    for preds, _ in members[1:]:
        if preds.ids != ref.ids:
            raise ValueError("member prediction sets cover different video ids")
        if preds.probs.shape != ref.probs.shape:
            raise ValueError(
                f"member class counts differ: {preds.probs.shape} vs "
                f"{ref.probs.shape}")


def ensemble(members):
    """members: list of (PredictionSet, weight >= 0). Weighted sum of member
    probability rows, renormalized to sum 1 per video."""
    _check_members(members)
    weights = np.array([w for _, w in members], dtype=np.float64)
    if (weights < 0).any():
        raise ValueError(f"weights must be nonnegative, got {weights}")
    if weights.sum() == 0:
        raise ValueError("at least one ensemble weight must be positive")
    ids = list(members[0][0].ids)
    total = _fuse([preds.probs for preds, _ in members], weights[None], ids)
    return PredictionSet(ids, total[0])


def _fuse(probs, weights, ids):
    """Fused rows [G, N, K] of the member rows probs (M arrays [N, K]) under
    each of the weight vectors weights [G, M]: the members scaled and added
    in order, then every row renormalized to sum 1.

    A weighted row whose sum is not a positive number (all zeros, or a NaN
    in a member row) would renormalize to NaN; it is rejected, naming the
    video of ids and the weights."""
    total = np.zeros((len(weights),) + probs[0].shape, dtype=probs[0].dtype)
    for i, p in enumerate(probs):
        total += weights[:, i, None, None] * p
    sums = total.sum(axis=2, keepdims=True)
    bad = np.argwhere(~(np.isfinite(sums[:, :, 0]) & (sums[:, :, 0] > 0)))
    if len(bad):
        g, v = bad[0]
        raise ValueError(
            f"fused probability of video {ids[v]!r} is NaN at weights "
            f"{tuple(weights[g].tolist())}")
    total /= sums
    return total


def _label_array(ids, labels_by_id, num_classes):
    """The labels of ids, in order. A missing label, or one that is not a
    class of the num_classes the predictions have, raises ValueError."""
    missing = [v for v in ids if v not in labels_by_id]
    if missing:
        raise ValueError(f"missing labels for ids: {missing[:5]}")
    for v in ids:
        if not 0 <= labels_by_id[v] < num_classes:
            raise ValueError(
                f"video {v!r} has label {labels_by_id[v]}, but the "
                f"predictions have {num_classes} classes")
    return np.array([labels_by_id[v] for v in ids])


def topk_accuracy(preds, labels_by_id, k):
    """Fraction of videos whose label is among the k most probable classes.

    Probability ties rank the lower class index first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    labels = _label_array(preds.ids, labels_by_id, preds.probs.shape[1])
    topk = np.argsort(-preds.probs, axis=1, kind="stable")[:, :k]
    hits = int((topk == labels[:, None]).any(axis=1).sum())
    return hits / len(preds.ids)


# the most grid points search_weights takes. Step 0.01 with 4 members (176,851
# points) took 11 s and 40 MB over 100 videos on the 2-core reference machine.
_MAX_GRID_POINTS = 200_000


def _simplex_grid(n, step):
    """All nonnegative weight vectors on the n-simplex at resolution step,
    in lexicographic order. step must be 1/k for an integer k from 1 to
    10**6, giving at most _MAX_GRID_POINTS vectors, which is checked before
    anything is yielded."""
    # the range check first, so that a tiny step cannot overflow 1 / step
    units = round(1 / step) if 1e-6 <= step <= 1 else 0
    if not 1 <= units <= 10 ** 6 or abs(units * step - 1) > 1e-9:
        raise ValueError(
            f"step {step} must be 1/k for an integer k from 1 to 10**6")
    points = math.comb(units + n - 1, n - 1)
    if points > _MAX_GRID_POINTS:
        raise ValueError(
            f"step {step} with {n} members makes {points} grid points, "
            f"over the cap of {_MAX_GRID_POINTS}")

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for i in range(remaining + 1):
            for rest in rec(remaining - i, slots - 1):
                yield (i,) + rest

    for combo in rec(units, n):
        yield tuple(c / units for c in combo)


# search_weights fuses this many bytes of float64 rows at a time and counts
# the label ranks over them in one-byte boolean passes: 65 grid points of
# 100 videos x 20 classes, of the 1771 at step 0.05. On the 2-core reference
# machine that search took 0.11-0.13 s with chunks of 256 KiB and 1 MiB, and
# 0.15 s with 4 MiB ones.
_SEARCH_CHUNK_BYTES = 1 << 20


def search_weights(members, labels_by_id, step=0.05):
    """Exhaustive grid search over the weight simplex, maximizing val top-1.

    Ties break toward higher top-5, then lexicographically smallest weights.
    Returns (weights tuple, top1, top5).

    The fused rows of a chunk of grid points are made at once, as
    ensemble() makes them. The label's rank in a row is the count of
    classes above it plus the equal ones of lower index: its place in the
    stable sort of topk_accuracy, which puts NaN last. A NaN at the label
    (a NaN member row, or weighted member rows summing to 0) would rank
    first by that count and last by the sort; _fuse rejects such rows.
    """
    if not 2 <= len(members) <= 4:
        raise ValueError(f"search supports 2..4 members, got {len(members)}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive number, got {step}")
    _check_members([(m, 1.0) for m in members])
    n, k = members[0].probs.shape
    labels = _label_array(members[0].ids, labels_by_id, k)
    k5 = min(5, k)
    grid = list(_simplex_grid(len(members), step))  # lexicographic order
    weights = np.array(grid)
    below = np.arange(k) < labels[:, None]  # [N, K]: classes before the label
    chunk = max(1, _SEARCH_CHUNK_BYTES // (n * k * 8))
    best = None  # (score, grid index, top-1 hits, top-5 hits)
    for g0 in range(0, len(grid), chunk):
        total = _fuse([m.probs for m in members], weights[g0:g0 + chunk],
                      members[0].ids)
        at_label = total[:, np.arange(n), labels, None]  # [G, N, 1]
        rank = (total > at_label).sum(axis=2)
        rank += ((total == at_label) & below).sum(axis=2)
        top1 = (rank == 0).sum(axis=1)
        top5 = (rank < k5).sum(axis=1)
        score = top1 * (n + 1) + top5  # orders by top-1, then top-5
        g = int(np.argmax(score))  # the first maximum: the smallest weights
        if best is None or score[g] > best[0]:
            best = (score[g], g0 + g, int(top1[g]), int(top5[g]))
    _, g, top1, top5 = best
    return grid[g], top1 / n, top5 / n


def report(rows, labels_by_id):
    """rows: list of (name, PredictionSet). Returns ([(name, top1, top5)],
    text)."""
    if not rows:
        raise ValueError("report needs at least one (name, predictions) row")
    out = []
    for name, preds in rows:
        k5 = min(5, preds.probs.shape[1])
        out.append((name, topk_accuracy(preds, labels_by_id, 1),
                    topk_accuracy(preds, labels_by_id, k5)))
    width = max(len("Method"), max(len(n) for n, _, _ in out))
    lines = [f"{'Method':<{width}}  {'Top-1':>6}  {'Top-5':>6}"]
    lines.append("-" * (width + 16))
    for name, t1, t5 in out:
        lines.append(f"{name:<{width}}  {t1:.4f}  {t5:.4f}")
    return out, "\n".join(lines)


def report_csv(rows):
    """rows: [(name, top1, top5)], as report returns them."""
    lines = ["method,top1,top5"]
    for name, t1, t5 in rows:
        lines.append(f"{name},{t1:.4f},{t5:.4f}")
    return "\n".join(lines) + "\n"
