"""The benchmark's workloads. Each drives tsmkit through the calls its CLI
makes (data.generate, train_phase1, save_checkpoint, load_checkpoint,
predict_model, search_weights, ensemble), always looked up on the module at
call time so that a tracer can wrap them.

A workload sets up five times (setup_s is their median), then repeats whole
rounds of the same operations while the next round still fits in `seconds`,
then checks its outputs apart from the timed work.
"""

import contextlib
import hashlib
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from tsmkit import data, ensemble, model, ops, train

SETUPS = 5
TRAIN_CLASSES = 5
TRAIN_CLIPS_PER_CLASS = 50  # 200 train + 50 val clips after the 80/20 split
# Epochs per train_phase1 call. Its step decay runs epoch 0 at the base lr
# and epoch 1 at a tenth; with 2 epochs the large RGB model's final-epoch
# loss stayed above ln(5) on one seed in ten.
TRAIN_EPOCHS = 3
SERVE_CLASSES = 20
SERVE_CLIPS_PER_CLASS = 5  # 100 test clips: two full batches of 50
SERVE_MEMBERS = (("small", "ir"), ("small", "rgb"),
                 ("large", "ir"), ("large", "rgb"))
SEARCH_STEP = 0.05
GRAD_CHECK_CLIPS = 1


class Result:
    """What one run measured and found; `run.py` prints and records it."""

    def __init__(self):
        self.metrics = {}   # end-to-end name -> value
        self.detail = {}    # finer untraced timings, for the run record
        self.counts = {}    # exact counts, identical in every run
        self.sha256 = {}    # checkpoint file -> set of digests
        self.errors = []    # failed output checks
        self.round_times = []
        self.attempted = 0
        self.failed = 0


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _nullspan(name, attrs=None):
    return contextlib.nullcontext()


class Context:
    def __init__(self, seed, seconds, workdir, tracer=None):
        self.seed, self.seconds, self.workdir = seed, seconds, Path(workdir)
        self.tracer = tracer
        self.span = tracer.span if tracer else _nullspan

    def setup(self, result, make):
        """Run make(dir) SETUPS times, each into a fresh dir; keep the last."""
        times, out = [], None
        for i in range(SETUPS):
            if i:
                shutil.rmtree(self.workdir / f"setup{i - 1}")
            path = self.workdir / f"setup{i}"
            path.mkdir(parents=True)
            with self.span("bench.setup"):
                start = time.perf_counter()
                out = make(path)
                times.append(time.perf_counter() - start)
        result.metrics["setup_s"] = statistics.median(times)
        return out

    def rounds(self, result, round_fn):
        """Repeat round_fn while the next round is expected to end within
        `seconds`; at least once. Stops the tracer afterwards, so the
        output checks that follow are not traced."""
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            with self.span("bench.round"):
                round_fn()
            now = time.perf_counter()
            result.round_times.append(now - began)
            if now - start + result.round_times[-1] > self.seconds:
                break
        if self.tracer:
            self.tracer.uninstall()
        result.metrics["round_s"] = statistics.median(result.round_times)
        result.metrics["peak_rss_mb"] = _peak_rss_mb()


def _predict_timed(mdl, records, root, batch_size, times):
    start = time.perf_counter()
    preds = train.predict_model(mdl, records, root, batch_size=batch_size)
    times.append(time.perf_counter() - start)
    return preds


def _rate(clips, times):
    return clips * len(times) / sum(times)


# --------------------------------------------------------------------- train


def _gradient_check(trained, records, root, seed):
    """Central differences on a float64 copy, one entry per tensor."""
    m64 = model.build_model(trained.cfg, seed=0, dtype=np.float64)
    m64.load_parameters(trained.named_parameters())
    recs = records[:GRAD_CHECK_CLIPS]
    t = trained.cfg.num_segments
    frames = np.concatenate([
        data.read_clip(Path(root) / r["path"])[
            data.sample_segments(r["frames"], t, "eval")] for r in recs]
    ).astype(np.float64)
    labels = np.array([r["label"] for r in recs])

    def loss():
        return ops.cross_entropy(ops.softmax(m64.forward(frames)), labels)

    m64.zero_grads()
    probs = ops.softmax(m64.forward(frames))
    m64.backward(ops.softmax_cross_entropy_backward(probs, labels))
    analytic = {k: g.copy() for k, g in m64.named_grads().items()}
    params = m64.named_parameters()
    rng = np.random.default_rng([seed, 17])
    picks = [(name, int(rng.integers(p.size)))
             for name, p in sorted(params.items())]
    return checks.central_differences(loss, params, analytic, picks)


def train_workload(ctx, capacity, modality):
    """Phase-1 training, then a checkpoint round trip and predictions of the
    validation clips at batch 1 and 50 with the reloaded model."""
    result = Result()
    channels = data.MODALITIES[modality][0]
    cfg = model.ModelConfig(num_classes=TRAIN_CLASSES, in_channels=channels,
                            capacity=capacity)
    tcfg = train.TrainConfig(seed=ctx.seed)

    def make(root):
        spec = data.DatasetSpec(num_classes=TRAIN_CLASSES,
                                clips_per_class=TRAIN_CLIPS_PER_CLASS,
                                seed=ctx.seed)
        records = data.generate(spec, root)
        return (root,) + data.split(records, 0.8, seed=ctx.seed)

    root, train_recs, val_recs = ctx.setup(result, make)
    val_mod = [r for r in val_recs if r["modality"] == modality]
    n_train = sum(r["modality"] == modality for r in train_recs)
    ckpt = ctx.workdir / "model.ckpt"
    fits, epochs, b1, b50, state = [], [], [], [], {}

    def one_round():
        marks = [time.perf_counter()]
        trained, vel, log = train.train_phase1(
            cfg, tcfg, train_recs, val_recs, root, epochs=TRAIN_EPOCHS,
            log_fn=lambda rec: marks.append(time.perf_counter()))
        fits.append(time.perf_counter() - marks[0])
        epochs.extend(b - a for a, b in zip(marks, marks[1:]))
        train.save_checkpoint(ckpt, trained, vel, len(log.records) - 1, tcfg,
                              TRAIN_EPOCHS)
        loaded, _, _ = train.load_checkpoint(ckpt)
        p1 = _predict_timed(loaded, val_mod, root, 1, b1)
        p50 = _predict_timed(loaded, val_mod, root, 50, b50)
        state.update(trained=trained, loaded=loaded, p1=p1, p50=p50,
                     final_loss=log.records[-1]["train_loss"])
        result.sha256.setdefault(ckpt.name, set()).add(_sha256(ckpt))

    ctx.rounds(result, one_round)
    # training clips per second of train_phase1, its validation included;
    # the median over rounds, like round_s
    result.metrics["clips_per_s"] = statistics.median(
        TRAIN_EPOCHS * n_train / t for t in fits)
    result.metrics["checkpoint_bytes"] = float(os.path.getsize(ckpt))
    result.detail.update(
        epoch_s=statistics.median(epochs),
        predict_b1_clips_per_s=_rate(len(val_mod), b1),
        predict_b50_clips_per_s=_rate(len(val_mod), b50))

    # per round: each training and validation clip of each epoch, each
    # prediction at batch 1 and 50, and the checkpoint round trip
    per_round = TRAIN_EPOCHS * (n_train + len(val_mod)) + 2 * len(val_mod) + 1
    result.attempted = len(result.round_times) * per_round
    result.counts.update(
        train_clips=n_train, val_clips=len(val_mod),
        epochs_per_round=TRAIN_EPOCHS,
        steps_per_epoch=math.ceil(n_train / tcfg.batch_size),
        params=state["trained"].param_count(),
        checkpoint_bytes=os.path.getsize(ckpt), ops_per_round=per_round)

    digests = result.sha256[ckpt.name]
    if len(digests) != 1:
        result.errors.append(f"rounds wrote {len(digests)} different "
                             f"checkpoints")
    result.errors += checks.loss_below_chance(state["final_loss"],
                                              TRAIN_CLASSES)
    result.errors += checks.exact_params(state["trained"].named_parameters(),
                                         state["loaded"].named_parameters())
    result.errors += checks.prob_rows("predict b1", state["p1"].probs)
    result.errors += checks.prob_rows("predict b50", state["p50"].probs)
    result.errors += _gradient_check(state["trained"], val_mod, root,
                                     ctx.seed)
    return result


# --------------------------------------------------------------------- serve


def _member_file(capacity, modality):
    return f"{capacity}-{modality}.ckpt"


def serve_workload(ctx):
    """Four seeded 20-class members predicted at batch 1 and 50, then a
    weight search over their batch-50 predictions and the fusion it picks.
    Predict cost does not depend on the weight values, so set-up writes the
    checkpoints from untrained models."""
    result = Result()
    tcfg = train.TrainConfig(seed=ctx.seed)

    def make(root):
        spec = data.DatasetSpec(num_classes=SERVE_CLASSES,
                                clips_per_class=SERVE_CLIPS_PER_CLASS,
                                seed=ctx.seed)
        records = data.generate(spec, root)
        built = []
        for i, (capacity, modality) in enumerate(SERVE_MEMBERS):
            cfg = model.ModelConfig(
                num_classes=SERVE_CLASSES,
                in_channels=data.MODALITIES[modality][0], capacity=capacity)
            mdl = model.build_model(cfg,
                                    seed=ctx.seed * len(SERVE_MEMBERS) + i)
            vel = {k: np.zeros_like(v)
                   for k, v in mdl.named_parameters().items()}
            train.save_checkpoint(root / _member_file(capacity, modality),
                                  mdl, vel, 0, tcfg, 1)
            built.append(mdl.named_parameters())
        loaded = [train.load_checkpoint(root / _member_file(*member))[0]
                  .named_parameters() for member in SERVE_MEMBERS]
        return root, records, built, loaded

    root, records, built, loaded = ctx.setup(result, make)
    by_mod = {m: [r for r in records if r["modality"] == m]
              for _, m in SERVE_MEMBERS}
    ids = [r["id"] for r in by_mod["ir"]]
    labels_by_id = {r["id"]: r["label"] for r in records}
    labels = np.array([labels_by_id[i] for i in ids])
    b1, b50, searches, state = [], [], [], {}

    def one_round():
        p1s, p50s = [], []
        # one member at a time: an eval forward leaves its caches on the
        # model, so four live members would hold four sets of them
        for member in SERVE_MEMBERS:
            mdl, _, _ = train.load_checkpoint(root / _member_file(*member))
            recs = by_mod[member[1]]
            p1s.append(_predict_timed(mdl, recs, root, 1, b1))
            p50s.append(_predict_timed(mdl, recs, root, 50, b50))
        start = time.perf_counter()
        found = ensemble.search_weights(p50s, labels_by_id, step=SEARCH_STEP)
        fused = ensemble.ensemble(list(zip(p50s, found[0])))
        searches.append(time.perf_counter() - start)
        result.failed += sum(len(checks.batch_mismatches(a.probs, b.probs))
                             for a, b in zip(p1s, p50s))
        state.update(p1s=p1s, p50s=p50s, found=found, fused=fused)

    ctx.rounds(result, one_round)
    result.metrics["clips_per_s"] = _rate(len(ids), b1 + b50)
    sizes = {_member_file(*m): os.path.getsize(root / _member_file(*m))
             for m in SERVE_MEMBERS}
    result.metrics["checkpoint_bytes"] = float(sum(sizes.values()))
    for name in sizes:
        result.sha256[name] = {_sha256(root / name)}
    result.detail.update(
        predict_b1_clips_per_s=_rate(len(ids), b1),
        predict_b50_clips_per_s=_rate(len(ids), b50),
        search_and_fuse_s=statistics.median(searches))

    # per round: one operation per (member, clip) prediction at both batch
    # sizes, plus the search and the fusion
    rounds = len(result.round_times)
    per_round = len(SERVE_MEMBERS) * len(ids) + 2
    result.attempted = rounds * per_round
    result.counts.update(
        test_clips=len(ids), members=len(SERVE_MEMBERS),
        grid_points=checks.grid_size(len(SERVE_MEMBERS), SEARCH_STEP),
        batch_mismatches_per_round=result.failed // rounds,
        ops_per_round=per_round, checkpoint_bytes=sizes,
        params=[sum(p.size for p in m.values()) for m in built])

    for before, after in zip(built, loaded):
        result.errors += checks.exact_params(before, after)
    member_probs = [p.probs for p in state["p50s"]]
    for i, (p1, p50) in enumerate(zip(state["p1s"], state["p50s"])):
        result.errors += checks.prob_rows(f"member {i} b1", p1.probs)
        result.errors += checks.prob_rows(f"member {i} b50", p50.probs)
        if p1.ids != ids or p50.ids != ids:
            result.errors.append(f"member {i} predicted ids out of order")
    fused, found = state["fused"], state["found"]
    result.errors += checks.prob_rows("fused", fused.probs)
    result.errors += checks.fused_output(member_probs, found[0], fused.probs)
    result.errors += checks.search_result(member_probs, labels, SEARCH_STEP,
                                          found)
    result.errors += checks.fused_beats_members(member_probs, fused.probs,
                                                labels)
    return result


WORKLOADS = {
    "train-small-ir": lambda ctx: train_workload(ctx, "small", "ir"),
    "train-large-rgb": lambda ctx: train_workload(ctx, "large", "rgb"),
    "serve-ensemble-20c": serve_workload,
}
