"""Weighted softmax ensemble (P = sum_i w_i * Pred_i), exhaustive weight
search on the simplex, top-k accuracy, and leaderboard-style reporting."""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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
        ids, rows = [], []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: not a JSON row") from None
                if not (isinstance(rec, dict) and {"id", "probs"} <= rec.keys()):
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
                if rows and len(row) != len(rows[0]):
                    raise ValueError(
                        f"{path}:{lineno}: {len(row)} probabilities, but the "
                        f"first row has {len(rows[0])}")
                ids.append(rec["id"])
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: no prediction rows")
        return cls(ids, np.asarray(rows, dtype=np.float64))


@dataclass
class MetricReport:
    rows: list  # (name, top1, top5)


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
    total = np.zeros_like(members[0][0].probs)
    for (preds, _), w in zip(members, weights):
        total += w * preds.probs
    total /= total.sum(axis=1, keepdims=True)
    return PredictionSet(list(members[0][0].ids), total)


def topk_accuracy(preds, labels_by_id, k):
    """Fraction of videos whose label is among the k most probable classes.

    Probability ties rank the lower class index first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    missing = [v for v in preds.ids if v not in labels_by_id]
    if missing:
        raise ValueError(f"missing labels for ids: {missing[:5]}")
    labels = np.array([labels_by_id[v] for v in preds.ids])
    topk = np.argsort(-preds.probs, axis=1, kind="stable")[:, :k]
    hits = int((topk == labels[:, None]).any(axis=1).sum())
    return hits / len(preds.ids)


def _simplex_grid(n, step):
    """All nonnegative weight vectors on the n-simplex at resolution step,
    in lexicographic order."""
    units = Fraction(1) / Fraction(step).limit_denominator(10 ** 6)
    if units.denominator != 1:
        raise ValueError(f"step {step} must divide 1 evenly")
    units = int(units)

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for i in range(remaining + 1):
            for rest in rec(remaining - i, slots - 1):
                yield (i,) + rest

    for combo in rec(units, n):
        yield tuple(c / units for c in combo)


def search_weights(members, labels_by_id, step=0.05):
    """Exhaustive grid search over the weight simplex, maximizing val top-1.

    Ties break toward higher top-5, then lexicographically smallest weights.
    Returns (weights tuple, top1, top5).
    """
    if not 2 <= len(members) <= 4:
        raise ValueError(f"search supports 2..4 members, got {len(members)}")
    _check_members([(m, 1.0) for m in members])
    k5 = min(5, members[0].probs.shape[1])
    best = None
    for weights in _simplex_grid(len(members), step):
        if sum(weights) == 0:
            continue
        combined = ensemble(list(zip(members, weights)))
        top1 = topk_accuracy(combined, labels_by_id, 1)
        top5 = topk_accuracy(combined, labels_by_id, k5)
        key = (-top1, -top5, weights)
        if best is None or key < best[0]:
            best = (key, weights, top1, top5)
    return best[1], best[2], best[3]


def report(rows, labels_by_id):
    """rows: list of (name, PredictionSet). Returns (MetricReport, text)."""
    if not rows:
        raise ValueError("report needs at least one (name, predictions) row")
    out = []
    for name, preds in rows:
        k5 = min(5, preds.probs.shape[1])
        out.append((name, topk_accuracy(preds, labels_by_id, 1),
                    topk_accuracy(preds, labels_by_id, k5)))
    rep = MetricReport(out)
    width = max(len("Method"), max(len(n) for n, _, _ in out))
    lines = [f"{'Method':<{width}}  {'Top-1':>6}  {'Top-5':>6}"]
    lines.append("-" * (width + 16))
    for name, t1, t5 in out:
        lines.append(f"{name:<{width}}  {t1:.4f}  {t5:.4f}")
    return rep, "\n".join(lines)


def report_csv(rep):
    lines = ["method,top1,top5"]
    for name, t1, t5 in rep.rows:
        lines.append(f"{name},{t1:.4f},{t5:.4f}")
    return "\n".join(lines) + "\n"


# EnsembleSpec file: {"members": [{"path": ..., "weight": ...}, ...]}


def save_spec(path, member_paths, weights):
    with open(path, "w") as fh:
        json.dump({"members": [
            {"path": str(p), "weight": float(w)}
            for p, w in zip(member_paths, weights)
        ]}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path):
    with open(path) as fh:
        spec = json.load(fh)
    return [(m["path"], m["weight"]) for m in spec["members"]]
