"""Two-phase training: hyperparameter phase on an 80/20 split with per-epoch
validation logging, then a from-scratch retrain on the full dataset.

All randomness (shuffling, segment sampling, augmentation, dropout) derives
from (seed, epoch, batch) so a run is a pure function of its config and data.
"""

import hashlib
import json
import struct
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as datamod
from . import ops
from .ensemble import PredictionSet, topk_accuracy
from .model import Model, ModelConfig, build_model

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


def _read(fh, size, path):
    """Exactly size bytes of fh; fewer means the file was cut short."""
    buf = fh.read(size)
    if len(buf) < size:
        raise ValueError(f"{path}: truncated checkpoint")
    return buf


def load_checkpoint(path):
    """Returns (model, velocities, header dict)."""
    with open(path, "rb") as fh:
        magic = _read(fh, len(CKPT_MAGIC), path)
        if magic != CKPT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        version, hlen = struct.unpack("<2I", _read(fh, 8, path))
        if version != CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header = json.loads(_read(fh, hlen, path))
        (count,) = struct.unpack("<I", _read(fh, 4, path))
        tensors = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(fh, 4, path))
            name = _read(fh, nlen, path).decode()
            (rank,) = struct.unpack("<I", _read(fh, 4, path))
            shape = struct.unpack(f"<{rank}I", _read(fh, 4 * rank, path))
            n = int(np.prod(shape)) if rank else 1
            tensors[name] = np.frombuffer(
                _read(fh, 4 * n, path), dtype="<f4").reshape(shape).copy()
    cfg = ModelConfig(**header["model_config"])
    model = build_model(cfg, seed=0)
    params = {k: v for k, v in tensors.items() if not k.startswith("velocity/")}
    model.load_parameters(params)
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
    t = model_cfg.num_segments
    log = TrainLog()
    start = time.monotonic()
    for epoch in range(epochs):
        rng = np.random.default_rng([train_cfg.seed, 7919, epoch])
        order = rng.permutation(len(train_records))
        lr = _lr_at(train_cfg.lr, epoch, epochs)
        losses = []
        for b0 in range(0, len(order), train_cfg.batch_size):
            batch = [train_records[i] for i in order[b0:b0 + train_cfg.batch_size]]
            stacks, labels = [], []
            for rec in batch:
                fr = _load_frames(rec, root, t, "train", rng)
                stacks.append(_augment(fr, rec["label"], rng))  # float32 already
                labels.append(rec["label"])
            frames = np.concatenate(stacks, axis=0)
            labels = np.asarray(labels)
            drop_seed = int(rng.integers(0, 2 ** 31))
            model.zero_grads()
            logits = model.forward(frames, train=True, dropout_seed=drop_seed)
            probs = ops.softmax(logits)
            loss = ops.cross_entropy(probs, labels)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // train_cfg.batch_size}")
            model.backward(ops.softmax_cross_entropy_backward(probs, labels))
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


def predict_model(model, records, root, batch_size=8):
    """Eval-mode predictions: one probability row per video id."""
    cfg = model.cfg
    recs = list(records)
    for rec in recs:
        channels = datamod.MODALITIES[rec["modality"]][0]
        if channels != cfg.in_channels:
            raise ValueError(
                f"modality {rec['modality']!r} has {channels} channels but the "
                f"checkpointed model expects {cfg.in_channels}")
    t = cfg.num_segments
    probs = np.empty((len(recs), cfg.num_classes))
    for b0 in range(0, len(recs), batch_size):
        frames = np.concatenate(
            [_load_frames(rec, root, t, "eval")
             for rec in recs[b0:b0 + batch_size]], axis=0)
        logits = model.forward(frames, train=False)
        probs[b0:b0 + batch_size] = ops.softmax(logits.astype(np.float64))
    return PredictionSet([r["id"] for r in recs], probs)
