"""Two-phase training: hyperparameter phase on an 80/20 split with per-epoch
validation logging, then a from-scratch retrain on the full dataset.

All randomness (shuffling, segment sampling, augmentation, dropout) derives
from (seed, epoch, batch) so a run is a pure function of its config and data.
"""

import contextlib
import ctypes
import hashlib
import json
import math
import os
import pickle
import platform
import signal
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import blas
from . import data as datamod
from . import ops
from .ensemble import PredictionSet, topk_accuracy
from .model import ModelConfig, build_model

CKPT_MAGIC = b"TSMCKPT1"
# Version 2: the norm is per-frame GroupNorm. A version-1 file holds the same
# tensors for a batch-statistics norm, a different function.
CKPT_VERSION = 2


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def digest(self, epochs):
        blob = json.dumps(asdict(self) | {"epochs": epochs},
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class TrainLog:
    records: list = field(default_factory=list)  # dicts per epoch

    def append(self, epoch, train_loss, val_top1, val_top5, seconds):
        self.records.append({
            "epoch": epoch, "train_loss": train_loss,
            "val_top1": val_top1, "val_top5": val_top5, "seconds": seconds,
        })

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_top1,val_top5,seconds\n")
            for r in self.records:
                t1 = "" if r["val_top1"] is None else f"{r['val_top1']:.4f}"
                t5 = "" if r["val_top5"] is None else f"{r['val_top5']:.4f}"
                fh.write(f"{r['epoch']},{r['train_loss']:.6f},{t1},{t5},"
                         f"{r['seconds']:.3f}\n")


# ---------------------------------------------------------------------------
# checkpoint file: magic, u32 version, u32 header length, JSON header,
# u32 tensor count, then per tensor: u32 name len, name, u32 rank,
# u32 extents..., float32 LE data.


def save_checkpoint(path, model, velocities, epoch, train_cfg, epochs_run):
    header = json.dumps({
        "model_config": model.cfg.to_dict(),
        "train_digest": train_cfg.digest(epochs_run),
        "epoch": epoch,
        "seed": train_cfg.seed,
    }, sort_keys=True).encode()
    tensors = dict(model.named_parameters())
    tensors.update({f"velocity/{k}": v for k, v in velocities.items()})
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<2I", CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Returns (model, velocities, header dict). A file that is not a whole
    checkpoint of a known model raises a one-line ValueError naming it."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def read(size):
            """Exactly size bytes; a size past the end means a cut file."""
            if fh.tell() + size > end:
                raise ValueError(f"{path}: truncated checkpoint")
            return fh.read(size)

        def unpack(fmt):
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        magic = read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        version, hlen = unpack("<2I")
        if version != CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob = read(hlen)
        try:
            header = json.loads(blob)
        except ValueError:
            raise ValueError(f"{path}: checkpoint header is not JSON") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        if not isinstance(header.get("model_config"), dict):
            raise ValueError(
                f"{path}: checkpoint header has no model_config object")
        (count,) = unpack("<I")
        tensors = {}
        for _ in range(count):
            (nlen,) = unpack("<I")
            # a name that is not UTF-8 fails as a parameter name mismatch
            name = read(nlen).decode(errors="replace")
            (rank,) = unpack("<I")
            shape = unpack(f"<{rank}I")
            tensors[name] = np.frombuffer(
                read(4 * math.prod(shape)), dtype="<f4").reshape(shape).copy()
        if fh.tell() < end:
            raise ValueError(f"{path}: {end - fh.tell()} extra bytes past the "
                             f"last tensor")
    params = {k: v for k, v in tensors.items() if not k.startswith("velocity/")}
    try:
        model = build_model(ModelConfig(**header["model_config"]), seed=0)
        model.load_parameters(params)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    velocities = {k[len("velocity/"):]: v for k, v in tensors.items()
                  if k.startswith("velocity/")}
    return model, velocities, header


# ---------------------------------------------------------------------------
# batching


def _select_modality(records, modality):
    recs = [r for r in records if r["modality"] == modality]
    if not recs:
        raise ValueError(f"no records with modality {modality!r} in manifest")
    return recs


def _load_frames(rec, root, num_segments, mode, rng=None):
    clip = datamod.read_clip(Path(root) / rec["path"])
    idx = datamod.sample_segments(clip.shape[0], num_segments, mode, rng)
    return clip[idx]  # [T, C, H, W]


def _augment(frames, label, rng):
    if datamod.hflip_safe(label) and rng.random() < 0.5:
        frames = frames[:, :, :, ::-1]
    scale = rng.uniform(0.9, 1.1)
    return np.clip(frames * scale, 0.0, 1.0)


def _lr_at(base_lr, epoch, total_epochs):
    """Step decay: x0.1 at 50% and again at 75% of the run."""
    lr = base_lr
    if epoch >= total_epochs // 2:
        lr *= 0.1
    if epoch >= (3 * total_epochs) // 4:
        lr *= 0.1
    return lr


def _train_step(model, replica, frames, labels, drop_seed, pool=None):
    """Forward and backward of one batch as two halves split at its middle
    clip: half 0 on model, on this thread, and half 1 on replica, on pool's
    worker at the same time, or after half 0 when pool is None. Each half
    runs its forward, its rows of the gradient of one softmax cross-entropy
    over the whole batch and its backward in one call, with its rows of one
    batch-wide dropout mask. Half 1's gradients are then added into model's,
    so model holds the batch's gradient in bits that do not depend on thread
    timing. Returns (logits, loss)."""
    t = model.cfg.num_segments
    n = len(labels)
    half = (n + 1) // 2
    mask = model.draw_dropout_mask(n * t, drop_seed)

    def run(net, clips):
        rows = slice(clips.start * t, clips.stop * t)
        net.zero_grads()
        logits = net.forward(frames[rows], train=True,
                             dropout_mask=None if mask is None else mask[rows])
        net.backward(ops.softmax_cross_entropy_backward(
            ops.softmax(logits), labels[clips], n))
        return logits

    if half == n:  # one clip: no second half
        logits = run(model, slice(0, n))
    else:
        later = None if pool is None else \
            pool.submit(run, replica, slice(half, n))
        first = run(model, slice(0, half))
        second = run(replica, slice(half, n)) if later is None \
            else later.result()
        logits = np.concatenate([first, second])
        for g, g1 in zip(model.named_grads().values(),
                         replica.named_grads().values()):
            g += g1
    return logits, ops.cross_entropy(ops.softmax(logits), labels)


def _share_malloc_arena():
    """Caps glibc at one malloc arena, so that a thread started after this
    allocates from the main thread's arena. In an arena of its own, the
    memory the step worker frees stays apart from the main thread's:
    training the `large` preset on RGB clips peaked at 298-332 MB RSS
    against 294 MB in one pass, and at 293-296 MB with the cap, at the same
    speed. The cap holds for the rest of the process. Does nothing off
    glibc."""
    if platform.libc_ver()[0] == "glibc":
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX


def _second_core(pinned):
    """Whether a second worker, thread or process, gets a core of its own:
    the BLAS is held at one thread (pinned, from blas.threads) and two or
    more CPUs are available."""
    return pinned and len(os.sched_getaffinity(0)) >= 2


@contextlib.contextmanager
def _step_worker():
    """Holds the BLAS at one thread and yields a one-worker pool for half 1
    of each step, or None (halves in turn) without a second core."""
    with blas.threads(1) as pinned:
        if not _second_core(pinned):
            yield None
            return
        _share_malloc_arena()
        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool


def _run_training(model_cfg, train_cfg, train_records, root, epochs,
                  val_records=None, init_from=None, log_fn=None,
                  stop_at_top1=None):
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if init_from is not None:
        model, _, header = load_checkpoint(init_from)
        if header["model_config"] != model_cfg.to_dict():
            raise ValueError(
                "init-from checkpoint model config does not match: "
                f"{header['model_config']} vs {model_cfg.to_dict()}")
    else:
        model = build_model(model_cfg, seed=train_cfg.seed)
    velocities = {k: np.zeros_like(v) for k, v in model.named_parameters().items()}
    replica = model.replica()
    t = model_cfg.num_segments
    log = TrainLog()
    start = time.monotonic()
    with _step_worker() as pool:
        for epoch in range(epochs):
            rng = np.random.default_rng([train_cfg.seed, 7919, epoch])
            order = rng.permutation(len(train_records))
            lr = _lr_at(train_cfg.lr, epoch, epochs)
            losses = []
            for b0 in range(0, len(order), train_cfg.batch_size):
                batch = [train_records[i]
                         for i in order[b0:b0 + train_cfg.batch_size]]
                stacks, labels = [], []
                for rec in batch:
                    fr = _load_frames(rec, root, t, "train", rng)
                    # float32 already
                    stacks.append(_augment(fr, rec["label"], rng))
                    labels.append(rec["label"])
                frames = np.concatenate(stacks, axis=0)
                labels = np.asarray(labels)
                drop_seed = int(rng.integers(0, 2 ** 31))
                _, loss = _train_step(model, replica, frames, labels,
                                      drop_seed, pool)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, "
                        f"batch {b0 // train_cfg.batch_size}")
                ops.sgd_step(model.named_parameters(), model.named_grads(),
                             velocities, lr, train_cfg.momentum,
                             train_cfg.weight_decay)
                losses.append(loss)
            val_top1 = val_top5 = None
            if val_records is not None:
                preds = predict_model(model, val_records, root)
                labels_by_id = {r["id"]: r["label"] for r in val_records}
                val_top1 = topk_accuracy(preds, labels_by_id, 1)
                val_top5 = topk_accuracy(preds, labels_by_id,
                                         min(5, model_cfg.num_classes))
            log.append(epoch, float(np.mean(losses)), val_top1, val_top5,
                       time.monotonic() - start)
            if log_fn:
                log_fn(log.records[-1])
            if stop_at_top1 is not None and val_top1 is not None \
                    and val_top1 >= stop_at_top1:
                break
    return model, velocities, log


def train_phase1(model_cfg, train_cfg, train_records, val_records, root,
                 epochs=100, init_from=None, log_fn=None, stop_at_top1=None):
    """Phase 1: train on the training split, validate every epoch."""
    modality = datamod.modality_for(model_cfg.in_channels)
    train_recs = _select_modality(train_records, modality)
    val_recs = _select_modality(val_records, modality)
    overlap = {r["id"] for r in train_recs} & {r["id"] for r in val_recs}
    if overlap:
        raise ValueError(f"train/val manifests overlap: {sorted(overlap)[:5]}")
    model, vel, log = _run_training(
        model_cfg, train_cfg, train_recs, root, epochs,
        val_records=val_recs, init_from=init_from, log_fn=log_fn,
        stop_at_top1=stop_at_top1)
    return model, vel, log


def train_phase2(model_cfg, train_cfg, full_records, root, epochs=200,
                 init_from=None, log_fn=None):
    """Phase 2: fresh initialization, train on everything, no validation."""
    recs = _select_modality(full_records,
                            datamod.modality_for(model_cfg.in_channels))
    model, vel, log = _run_training(
        model_cfg, train_cfg, recs, root, epochs, init_from=init_from,
        log_fn=log_fn)
    return model, vel, log


def _predict_rows(model, recs, root, batch_size):
    """Eval-mode probability rows of recs, batch_size clips per forward."""
    t = model.cfg.num_segments
    probs = np.empty((len(recs), model.cfg.num_classes))
    for b0 in range(0, len(recs), batch_size):
        frames = np.concatenate(
            [_load_frames(rec, root, t, "eval")
             for rec in recs[b0:b0 + batch_size]], axis=0)
        logits = model.forward(frames, train=False)
        probs[b0:b0 + batch_size] = ops.softmax(logits.astype(np.float64))
    return probs


def _child(fn, arg, read_fd, write_fd):
    """The whole life of _in_two_processes' child: fn(arg), or the exception
    it raised, pickled into write_fd, then os._exit, so that none of the
    parent's exit handlers or buffered output runs twice."""
    code = 1
    try:
        os.close(read_fd)
        try:
            result = (True, fn(arg))
        except BaseException as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that does not survive a pickle
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            result = (False, exc)
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump(result, out, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _in_two_processes(fn, first, second):
    """(fn(first), fn(second)), the second in a forked child process while
    this one runs the first. The child inherits every object copy-on-write
    and sends its result back through a pipe, which is read to the end
    before the child is reaped, so a large result cannot block it. The
    child is reaped on every path: when fn(first) raises, the child is
    killed and fn(first)'s exception raised, the error one process would
    meet first. fn(second)'s exception is raised with its type and message,
    and a child that ends without a result raises ChildProcessError."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(fn, second, read_fd, write_fd)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = fn(first)
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise ChildProcessError(
            f"prediction worker {pid} was killed by signal "
            f"{signal.Signals(-code).name} before it sent its rows")
    if code > 0:
        raise ChildProcessError(
            f"prediction worker {pid} exited with status {code} before it "
            f"sent its rows")
    ok, theirs = pickle.loads(payload)
    if not ok:
        raise theirs
    return mine, theirs


def predict_model(model, records, root, batch_size=8):
    """Eval-mode predictions: one probability row per video id. Every clip
    runs alone through an eval forward at one BLAS thread, so its row does
    not depend on batch_size or on which process ran it. With two or more
    records and a second core (_second_core), a forked child predicts the
    second half of the records while this process predicts the first (the
    odd record goes to the first; see _in_two_processes). A second thread in
    this process gained far less than the child (README), since a clip's
    arrays are small and two threads hand the GIL back and forth at every
    NumPy call."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    cfg = model.cfg
    recs = list(records)
    for rec in recs:
        channels = datamod.MODALITIES[rec["modality"]][0]
        if channels != cfg.in_channels:
            raise ValueError(
                f"modality {rec['modality']!r} has {channels} channels but the "
                f"checkpointed model expects {cfg.in_channels}")

    def rows(part):
        return _predict_rows(model, part, root, batch_size)

    half = (len(recs) + 1) // 2
    with blas.threads(1) as pinned:
        if len(recs) < 2 or not hasattr(os, "fork") \
                or not _second_core(pinned):
            probs = rows(recs)
        else:
            probs = np.concatenate(
                _in_two_processes(rows, recs[:half], recs[half:]))
    return PredictionSet([r["id"] for r in recs], probs)
