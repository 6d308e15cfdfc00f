"""Output checks of the benchmark, computed apart from the code they check.

Each check returns a list of failure messages; an empty list means the
output passed. The checks take plain arrays and callables, so
`test_checks.py` can feed them deliberately wrong outputs.
"""

import itertools
import math

import numpy as np

ROW_SUM_TOL = 1e-9
FUSED_TOL = 1e-12
# Two probability rows of one clip agree when no entry moves by more than
# this: 16 float32 ulps at 1.0, far above the rounding of a float32 forward
# pass and far below the smallest move batch statistics cause (~1e-4).
BATCH_TOL = 16 * float(np.finfo(np.float32).eps)


def prob_rows(name, probs):
    """Every row is finite and non-negative and sums to 1 within 1e-9."""
    probs = np.asarray(probs, dtype=np.float64)
    errors = []
    if not np.all(np.isfinite(probs)):
        errors.append(f"{name}: non-finite probabilities")
    elif (probs < 0).any():
        errors.append(f"{name}: negative probabilities")
    else:
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        if worst > ROW_SUM_TOL:
            errors.append(f"{name}: a row sums to 1{worst:+.3e}")
    return errors


def weighted_sum(member_probs, weights):
    """P = sum_i w_i P_i renormalised per row, summed in member order.

    A weight may be an array that broadcasts against the rows, to fuse
    with many weight vectors at once."""
    total = np.zeros_like(member_probs[0], dtype=np.float64)
    for probs, w in zip(member_probs, weights):
        total = total + w * probs
    return total / total.sum(axis=-1, keepdims=True)


def fused_output(member_probs, weights, fused):
    """The program's fused rows equal the benchmark's weighted sum."""
    expect = weighted_sum(member_probs, weights)
    worst = float(np.abs(np.asarray(fused) - expect).max())
    if not worst <= FUSED_TOL:
        return [f"fused output differs from the weighted sum by {worst:.3e}"]
    return []


def simplex_grid(members, step):
    """[G, members] weights, lexicographic in their integer numerators."""
    units = round(1 / step)
    if abs(units * step - 1) > 1e-9:
        raise ValueError(f"step {step} does not divide 1")
    combos = [c for c in itertools.product(range(units + 1), repeat=members)
              if sum(c) == units]
    return np.asarray(combos, dtype=np.int64), units


def grid_size(members, step):
    units = round(1 / step)
    return math.comb(units + members - 1, members - 1)


def hits(probs, labels, k):
    """Per-row top-k hit, ranking probability ties by lower class index.

    probs [..., N, K], labels [N]. Independent of argsort: a label's rank is
    the number of classes above it plus equal classes with a lower index.
    """
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    kk = probs.shape[-1]
    p_label = np.take_along_axis(
        probs, np.broadcast_to(labels[:, None], probs.shape[:-1] + (1,)),
        axis=-1)
    lower = np.arange(kk)[None, :] < labels[:, None]
    rank = (probs > p_label).sum(axis=-1) + (
        (probs == p_label) & lower).sum(axis=-1)
    return rank < k


def best_weights(member_probs, labels, step):
    """The maximiser over the whole grid of (top-1, top-5), then the
    lexicographically smallest weights. Returns (weights, top1, top5)."""
    combos, units = simplex_grid(len(member_probs), step)
    weights = combos / units
    fused = weighted_sum(member_probs, weights.T[:, :, None, None])  # [G,N,K]
    k5 = min(5, fused.shape[-1])
    top1 = hits(fused, labels, 1).sum(axis=-1)
    top5 = hits(fused, labels, k5).sum(axis=-1)
    # lexicographic grid order: the first maximum is the smallest weights
    n = len(labels)
    best = int(np.argmax(top1 * (n + 1) + top5))
    return (tuple(float(w) for w in weights[best]), top1[best] / n,
            top5[best] / n)


def search_result(member_probs, labels, step, found):
    """search_weights' (weights, top1, top5) equals the grid maximiser."""
    expect = best_weights(member_probs, labels, step)
    if tuple(found[0]) != expect[0]:
        return [f"search chose weights {tuple(found[0])}, the grid maximiser "
                f"is {expect[0]}"]
    if (found[1], found[2]) != expect[1:]:
        return [f"search reports top1/top5 {found[1:]}, expected {expect[1:]}"]
    return []


def fused_beats_members(member_probs, fused, labels):
    """The fused top-1 is at least every member's top-1."""
    fused_top1 = hits(fused, labels, 1).mean()
    errors = []
    for i, probs in enumerate(member_probs):
        top1 = hits(probs, labels, 1).mean()
        if fused_top1 < top1:
            errors.append(
                f"fused top-1 {fused_top1:.4f} below member {i}'s {top1:.4f}")
    return errors


def batch_mismatches(rows_a, rows_b):
    """Indices of rows that differ by more than BATCH_TOL."""
    diff = np.abs(np.asarray(rows_a) - np.asarray(rows_b)).max(axis=1)
    return np.flatnonzero(~(diff <= BATCH_TOL))


def exact_params(before, after):
    """Every parameter comes back with the same name, shape and bits."""
    errors = []
    if set(before) != set(after):
        errors.append(f"parameter names differ: "
                      f"{sorted(set(before) ^ set(after))[:5]}")
    for name in sorted(set(before) & set(after)):
        a, b = np.asarray(before[name]), np.asarray(after[name])
        if a.shape != b.shape or a.dtype != b.dtype or \
                a.tobytes() != b.tobytes():
            errors.append(f"parameter {name} changed in the round trip")
    return errors


def loss_below_chance(final_loss, num_classes):
    if not final_loss < math.log(num_classes):
        return [f"final-epoch loss {final_loss:.4f} is not below "
                f"ln({num_classes}) = {math.log(num_classes):.4f}"]
    return []


def central_differences(loss_fn, params, analytic, picks,
                        steps=(1e-6, 1e-7, 1e-8),
                        rtol=1e-4, atol=1e-9):
    """Compare analytic gradients with (L(p+h) - L(p-h)) / 2h.

    params: name -> float64 array, perturbed in place and restored.
    analytic: name -> gradient array. picks: (name, flat index) pairs.
    An entry passes if the difference at any of `steps` agrees: a ReLU kink
    that one step happens to cross moves the estimate at that step only,
    while a wrong gradient disagrees at every step.
    """
    errors = []
    for name, idx in picks:
        flat = params[name].reshape(-1)
        orig = flat[idx]
        got = float(analytic[name].reshape(-1)[idx])
        numerics = []
        for h in steps:
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            numerics.append((up - down) / (2 * h))
            if abs(got - numerics[-1]) <= atol + rtol * max(
                    abs(got), abs(numerics[-1])):
                break
        else:
            errors.append(f"gradient of {name}[{idx}]: backward {got:.6e}, "
                          f"central differences "
                          f"{', '.join(f'{n:.6e}' for n in numerics)}")
    return errors
