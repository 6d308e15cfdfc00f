"""Synthetic multi-modal video dataset: motion-defined classes rendered to
an IR-like (clean, single-channel) and an RGB-like (dark, noisy,
three-channel) stream, plus segment sampling and stratified splitting.

Class semantics are carried entirely by motion: the two translation classes
("blob_up" / "blob_down") visit the same positions in opposite order, so no
single frame separates them.
"""

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLIP_MAGIC = b"TSMV1"
RESOLUTION = 32

# modality -> (channels, signal gain, noise sigma). The IR-like stream is
# brighter and cleaner, the RGB-like one dark and noisy.
MODALITIES = {
    "ir": (1, 0.9, 0.02),
    "rgb": (3, 0.35, 0.08),
}
_RGB_TINT = np.array([1.0, 0.85, 0.6])


def modality_for(channels):
    """The modality whose clips have this many channels."""
    for name, (c, _, _) in MODALITIES.items():
        if c == channels:
            return name
    raise ValueError(f"no modality has {channels} channels")


def _blob(h, w, cy, cx, sigma=2.5):
    ys, xs = np.mgrid[0:h, 0:w]
    return np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma ** 2))


def _bar(h, w, angle, half_len=10.0, sigma=1.5):
    ys, xs = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2, (w - 1) / 2
    dy, dx = ys - cy, xs - cx
    along = dy * np.sin(angle) + dx * np.cos(angle)
    across = dy * np.cos(angle) - dx * np.sin(angle)
    return np.exp(-(across ** 2) / (2 * sigma ** 2)) * (np.abs(along) < half_len)


def _motion_programs():
    """20 (name, kind, params, hflip_safe) entries; class id indexes them."""
    base = [
        ("blob_up", "translate", {"axis": "y", "reverse": True}, True),
        ("blob_down", "translate", {"axis": "y", "reverse": False}, True),
        ("blob_oscillate", "oscillate", {"periods": 2.0}, True),
        ("bar_rotate", "rotate", {"turns": 0.75}, False),
        ("blob_flicker", "flicker", {}, True),
    ]
    extra = [
        ("blob_left", "translate", {"axis": "x", "reverse": True}, False),
        ("blob_right", "translate", {"axis": "x", "reverse": False}, False),
        ("blob_oscillate_fast", "oscillate", {"periods": 4.0}, True),
        ("bar_rotate_fast", "rotate", {"turns": 1.5}, False),
        ("blob_grow", "grow", {"reverse": False}, True),
        ("blob_shrink", "grow", {"reverse": True}, True),
        ("blob_diag_up", "translate", {"axis": "d", "reverse": True}, False),
        ("blob_diag_down", "translate", {"axis": "d", "reverse": False}, False),
        ("blob_oscillate_y", "oscillate", {"periods": 2.0, "axis": "y"}, True),
        ("bar_swing", "swing", {"amplitude": 0.8}, False),
        ("blob_up_fast", "translate", {"axis": "y", "reverse": True,
                                       "span": 26}, True),
        ("blob_down_fast", "translate", {"axis": "y", "reverse": False,
                                         "span": 26}, True),
        ("blob_flicker_fast", "flicker", {"rate": 2.0}, True),
        ("two_blob_swap", "swap", {}, True),
        ("blob_circle", "circle", {}, False),
    ]
    return base + extra


MOTION_PROGRAMS = _motion_programs()
MAX_CLASSES = len(MOTION_PROGRAMS)


def hflip_safe(label):
    return MOTION_PROGRAMS[label][3]


def render_clean(label, frame_count, rng):
    """Noise-free motion signal [F, H, W] in [0, 1]."""
    _, kind, params, _ = MOTION_PROGRAMS[label]
    h = w = RESOLUTION
    f = frame_count
    out = np.zeros((f, h, w))
    if kind == "translate":
        span = params.get("span", 20)
        lo = (h - span) / 2 + rng.uniform(-2, 2)
        path = np.linspace(lo, lo + span, f)
        if params["reverse"]:
            path = path[::-1]
        fixed = (h - 1) / 2 + rng.uniform(-4, 4)
        for i in range(f):
            if params["axis"] == "y":
                out[i] = _blob(h, w, path[i], fixed)
            elif params["axis"] == "x":
                out[i] = _blob(h, w, fixed, path[i])
            else:  # diagonal
                out[i] = _blob(h, w, path[i], path[i])
    elif kind == "oscillate":
        amp = 9.0
        center = (h - 1) / 2
        fixed = center + rng.uniform(-4, 4)
        phase = rng.uniform(0, 2 * np.pi)
        for i in range(f):
            p = center + amp * np.sin(phase + 2 * np.pi * params["periods"] * i / f)
            if params.get("axis") == "y":
                out[i] = _blob(h, w, p, fixed)
            else:
                out[i] = _blob(h, w, fixed, p)
    elif kind == "rotate":
        theta0 = rng.uniform(0, np.pi)
        for i in range(f):
            out[i] = _bar(h, w, theta0 + 2 * np.pi * params["turns"] * i / f)
    elif kind == "swing":
        theta0 = rng.uniform(0, np.pi)
        amp = params["amplitude"]
        for i in range(f):
            out[i] = _bar(h, w, theta0 + amp * np.sin(2 * np.pi * i / f))
    elif kind == "flicker":
        cy = (h - 1) / 2 + rng.uniform(-3, 3)
        cx = (w - 1) / 2 + rng.uniform(-3, 3)
        rate = params.get("rate", 1.0)
        base = _blob(h, w, cy, cx, sigma=3.5)
        phase = rng.uniform(0, 2 * np.pi)
        for i in range(f):
            b = 0.6 + 0.4 * np.sin(phase + 2 * np.pi * rate * i / f)
            out[i] = b * base
    elif kind == "grow":
        cy = (h - 1) / 2 + rng.uniform(-3, 3)
        cx = (w - 1) / 2 + rng.uniform(-3, 3)
        sigmas = np.linspace(1.5, 6.0, f)
        if params["reverse"]:
            sigmas = sigmas[::-1]
        for i in range(f):
            out[i] = _blob(h, w, cy, cx, sigma=sigmas[i])
    elif kind == "swap":
        ya = 6 + rng.uniform(-2, 2)
        yb = h - 7 + rng.uniform(-2, 2)
        cx = (w - 1) / 2 + rng.uniform(-4, 4)
        for i in range(f):
            a = ya + (yb - ya) * i / max(f - 1, 1)
            b = yb + (ya - yb) * i / max(f - 1, 1)
            out[i] = np.maximum(_blob(h, w, a, cx), _blob(h, w, b, cx))
    elif kind == "circle":
        r = 9.0
        cy, cx = (h - 1) / 2, (w - 1) / 2
        phase = rng.uniform(0, 2 * np.pi)
        for i in range(f):
            ang = phase + 2 * np.pi * i / f
            out[i] = _blob(h, w, cy + r * np.sin(ang), cx + r * np.cos(ang))
    else:
        raise ValueError(f"unknown motion kind {kind}")
    return np.clip(out, 0.0, 1.0)


def render_modality(clean, modality, rng):
    """Clean signal [F,H,W] -> noisy frames [F,C,H,W] float32 in [0,1]."""
    channels, gain, sigma = MODALITIES[modality]
    f, h, w = clean.shape
    if modality == "rgb":
        signal = gain * clean[:, None, :, :] * _RGB_TINT[None, :, None, None]
    else:
        signal = gain * clean[:, None, :, :]
    noise = rng.normal(0.0, sigma, size=(f, channels, h, w))
    return np.clip(signal + noise, 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# clip file format: magic "TSMV1", u32 T,C,H,W (LE), float32 LE data [T,C,H,W]


def write_clip(path, frames):
    frames = np.ascontiguousarray(frames, dtype="<f4")
    t, c, h, w = frames.shape
    with open(path, "wb") as fh:
        fh.write(CLIP_MAGIC)
        fh.write(struct.pack("<4I", t, c, h, w))
        fh.write(frames.tobytes())


def read_clip(path):
    """Frames [T, C, H, W] of a clip file; a bad one raises ValueError."""
    head = len(CLIP_MAGIC) + 16
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < head:
            raise ValueError(f"{path}: truncated clip header")
        magic = fh.read(len(CLIP_MAGIC))
        if magic != CLIP_MAGIC:
            raise ValueError(f"{path}: bad clip magic {magic!r}")
        t, c, h, w = struct.unpack("<4I", fh.read(16))
        end = head + 4 * t * c * h * w
        if size < end:
            raise ValueError(f"{path}: truncated clip file: {size} bytes for "
                             f"a {t}x{c}x{h}x{w} clip")
        if size > end:
            raise ValueError(f"{path}: {size - end} extra bytes past the end "
                             f"of a {t}x{c}x{h}x{w} clip")
        data = np.frombuffer(fh.read(4 * t * c * h * w), dtype="<f4")
    return data.reshape(t, c, h, w)


# ---------------------------------------------------------------------------
# generation


@dataclass
class DatasetSpec:
    num_classes: int = 5
    clips_per_class: int = 50
    min_frames: int = 8
    max_frames: int = 24
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise ValueError(
                f"num_classes must be in [2, {MAX_CLASSES}], got {self.num_classes}")
        if self.clips_per_class < 1:
            raise ValueError("clips_per_class must be >= 1")


def generate(spec, out_dir):
    """Writes clip files for every (class, index, modality) and returns the
    manifest records (split tag left as "train"; see split())."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for label in range(spec.num_classes):
        for idx in range(spec.clips_per_class):
            rng = np.random.default_rng([spec.seed, label, idx])
            frame_count = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            clean = render_clean(label, frame_count, rng)
            clip_id = f"c{label:02d}_{idx:04d}"
            for mi, modality in enumerate(sorted(MODALITIES)):
                mod_rng = np.random.default_rng([spec.seed, label, idx, 100 + mi])
                frames = render_modality(clean, modality, mod_rng)
                fname = f"{clip_id}_{modality}.tsmv"
                write_clip(out_dir / fname, frames)
                records.append({
                    "id": clip_id,
                    "label": label,
                    "modality": modality,
                    "frames": frame_count,
                    "path": fname,
                    "split": "train",
                })
    return records


def split(records, ratio, seed):
    """Stratified-by-class split of clip ids into (train, val) record lists.

    Both modalities of a clip land on the same side. Per-class train counts
    are round(ratio * class size).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    by_class = {}
    for rec in records:
        by_class.setdefault(rec["label"], {})[rec["id"]] = None
    rng = np.random.default_rng(seed)
    train_ids = set()
    for label in sorted(by_class):
        ids = sorted(by_class[label])
        rng.shuffle(ids)
        n_train = int(round(ratio * len(ids)))
        train_ids.update(ids[:n_train])
    train, val = [], []
    for rec in records:
        if rec["id"] in train_ids:
            train.append({**rec, "split": "train"})
        else:
            val.append({**rec, "split": "val"})
    return train, val


# ---------------------------------------------------------------------------
# segment sampling


def sample_segments(frame_count, num_segments, mode, rng=None):
    """TSN-style sampling: T equal segments over [0, F); eval takes each
    segment's center, train draws uniformly inside each segment."""
    f, t = frame_count, num_segments
    if f < 1 or t < 1:
        raise ValueError(f"need frame_count >= 1 and num_segments >= 1, "
                         f"got {f}, {t}")
    centers = [int((i + 0.5) * f // t) for i in range(t)]
    if mode == "eval":
        return centers
    if mode != "train":
        raise ValueError(f"unknown sampling mode {mode!r}")
    if rng is None:
        raise ValueError("train-mode sampling needs an rng")
    indices = []
    for i in range(t):
        lo, hi = i * f // t, (i + 1) * f // t
        indices.append(int(rng.integers(lo, hi)) if hi > lo else centers[i])
    return indices


# ---------------------------------------------------------------------------
# manifest IO (JSON lines)


def save_manifest(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


MANIFEST_KEYS = ("frames", "id", "label", "modality", "path", "split")


def _value_error(rec):
    """What is wrong with the values of a manifest row, or None."""
    for key in ("id", "path", "split", "modality"):
        if not isinstance(rec[key], str):
            return f'"{key}" must be a string'
    if rec["modality"] not in MODALITIES:
        return f'"modality" must be one of {", ".join(sorted(MODALITIES))}'
    for key, low in (("frames", 1), ("label", 0)):
        value = rec[key]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < low:
            return f'"{key}" must be an integer >= {low}'
    return None


def read_json_rows(path, kind):
    """(line number, object) for each non-blank line of the JSON-lines file
    at path. A line that is not UTF-8 text of a JSON object, or a file
    without rows, raises a one-line ValueError naming the file and line;
    kind names the rows in its message."""
    rows = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a JSON row") from None
            if not isinstance(rec, dict):
                raise ValueError(
                    f"{path}:{lineno}: a {kind} row must be a JSON object")
            rows.append((lineno, rec))
    if not rows:
        raise ValueError(f"{path}: no {kind} rows")
    return rows


def load_manifest(path):
    """The records of a JSON-lines manifest (read_json_rows). A row without
    every key of MANIFEST_KEYS with a value of the right type, a second row
    of one id and modality, or a row whose label differs from its id's
    first row raises a one-line ValueError naming the file and line."""
    records = []
    first_line = {}  # (id, modality) -> the line it first appeared on
    first_label = {}  # id -> (its label, the line that gave it)
    for lineno, rec in read_json_rows(path, "manifest"):
        missing = [k for k in MANIFEST_KEYS if k not in rec]
        if missing:
            raise ValueError(
                f"{path}:{lineno}: a manifest row needs "
                + ", ".join(f'"{k}"' for k in missing))
        problem = _value_error(rec)
        if problem:
            raise ValueError(f"{path}:{lineno}: {problem}")
        vid, modality = rec["id"], rec["modality"]
        if (vid, modality) in first_line:
            raise ValueError(
                f"{path}:{lineno}: duplicate {modality} row of id {vid!r}, "
                f"first on line {first_line[vid, modality]}")
        first_line[vid, modality] = lineno
        label, line = first_label.setdefault(vid, (rec["label"], lineno))
        if rec["label"] != label:
            raise ValueError(
                f"{path}:{lineno}: id {vid!r} has label {rec['label']}, but "
                f"label {label} on line {line}")
        records.append(rec)
    return records
