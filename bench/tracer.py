"""In-memory span tracer that wraps tsmkit's public calls from outside.

`Tracer.install` replaces the module functions and layer methods listed in
`_targets` with wrappers that record a span (name, start, end, parent,
attributes) and restores the originals on `uninstall`. Nothing in `src/`
knows about it. `per_layer_metrics` turns the spans into the per-layer
figures listed in BENCHMARK.json.
"""

import contextlib
import functools
import json
import statistics
import time
import weakref

import numpy as np

import checks
from tsmkit import data, ensemble, model, ops, train

LAYER_CLASSES = (model.Conv2d, model.AffineNorm, model.Linear)


def _conv_attrs(args, kwargs, backward):
    """FLOPs and im2col bytes of one conv call, from its shapes."""
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
    n, _, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    macs = n * cout * oh * ow * cin_g * kh * kw
    # backward runs two GEMMs of the forward's size: weight and input grads
    flops = 2 * macs * (2 if backward else 1)
    cols_bytes = cin_g * groups * kh * kw * n * oh * ow * x.dtype.itemsize
    return {"flops": flops, "grouped": groups > 1, "cols_bytes": cols_bytes}


def _search_attrs(args, kwargs):
    step = kwargs.get("step", args[2] if len(args) > 2 else 0.05)
    return {"grid_points": checks.grid_size(len(args[0]), step)}


def _predict_attrs(args, kwargs):
    batch = kwargs.get("batch_size", args[3] if len(args) > 3 else 8)
    return {"batch_size": batch, "clips": len(args[1])}


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, attrs]
        self.spans = []
        self._stack = []
        self._saved = []
        self._layer_names = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        index = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs_fn=None, method=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if method:
                label = name.format(tracer._layer_names.get(args[0], "?"))
                attrs = attrs_fn(args[1:], kwargs) if attrs_fn else None
            else:
                label = name
                attrs = attrs_fn(args, kwargs) if attrs_fn else None
            index = tracer._open(label, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
        return wrapper

    # ---------------------------------------------------------------- install

    def _targets(self):
        conv = functools.partial(_conv_attrs, backward=False)
        conv_bwd = functools.partial(_conv_attrs, backward=True)
        funcs = [
            (data, "generate", "data.generate", None),
            (data, "read_clip", "data.read_clip", None),
            (train, "train_phase1", "train.train_phase1", None),
            (train, "save_checkpoint", "train.save_checkpoint", None),
            (train, "load_checkpoint", "train.load_checkpoint", None),
            (train, "predict_model", "train.predict_model", _predict_attrs),
            (ops, "conv2d", "ops.conv2d", conv),
            (ops, "conv2d_backward", "ops.conv2d_backward", conv_bwd),
            (ops, "affine_norm", "ops.affine_norm", None),
            (ops, "affine_norm_backward", "ops.affine_norm_backward", None),
            (ops, "sgd_step", "ops.sgd_step", None),
            # model.py binds the shift functions by name at import
            (model, "temporal_shift", "shift.temporal_shift", None),
            (model, "temporal_shift_backward", "shift.temporal_shift_backward",
             None),
            (ensemble, "search_weights", "ensemble.search_weights",
             _search_attrs),
            (ensemble, "ensemble", "ensemble.ensemble", None),
            (ensemble, "topk_accuracy", "ensemble.topk_accuracy", None),
        ]
        methods = [(model.Model, "forward", "model.forward", None),
                   (model.Model, "backward", "model.backward", None)]
        for cls in LAYER_CLASSES:
            methods.append((cls, "forward", "model.{}.fwd", None))
            methods.append((cls, "backward", "model.{}.bwd", None))
        return funcs, methods

    def install(self):
        funcs, methods = self._targets()
        for owner, attr, name, attrs_fn in funcs:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name,
                                            attrs_fn))
        for owner, attr, name, attrs_fn in methods:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name,
                                            attrs_fn, method=True))
        names = self._layer_names
        init = model.Model.__init__

        @functools.wraps(init)
        def named_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for layer_name, layer in obj._named_layers():
                names[layer] = layer_name
        self._saved.append((model.Model, "__init__", init))
        model.Model.__init__ = named_init

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


# --------------------------------------------------------------------- metrics


def _mean(values, scale=1.0):
    return statistics.fmean(values) * scale if values else 0.0


def per_layer_metrics(spans, names):
    """Per-layer figures from a finished trace; 0 where a layer never ran.

    `names` are the metric names wanted; each `model.<layer>.fwd_ms` or
    `.bwd_ms` among them is reported even if this workload's preset lacks
    the layer.
    """
    dur = [s[2] - s[1] for s in spans]
    by_name = {}
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            children[s[3]].append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, [])]

    def ancestor(i, name):
        p = spans[i][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p

    m = {}
    rounds = len(by_name.get("bench.round", [])) or 1

    # data
    m["data.generate_s"] = _mean(durations("data.generate"))
    m["data.read_clip_ms"] = _mean(durations("data.read_clip"), 1e3)
    m["data.read_clip_calls"] = sum(
        1 for i in by_name.get("data.read_clip", [])
        if ancestor(i, "bench.round") >= 0) / rounds

    # train: split each phase-1 training step, which ends at its sgd_step
    steps, fwd, bwd, upd, validate = [], [], [], [], []
    for run in by_name.get("train.train_phase1", []):
        start, f, b = spans[run][1], 0.0, 0.0
        for c in children[run]:
            name = spans[c][0]
            if name == "train.predict_model":  # the per-epoch validation
                validate.append(dur[c])
                start = spans[c][2]
            elif name == "model.forward":
                f += dur[c]
            elif name == "model.backward":
                b += dur[c]
            elif name == "ops.sgd_step":
                steps.append(spans[c][2] - start)
                fwd.append(f)
                bwd.append(b)
                upd.append(dur[c])
                start, f, b = spans[c][2], 0.0, 0.0
    waits = [s - f - b - u for s, f, b, u in zip(steps, fwd, bwd, upd)]
    m["train.data_wait_ms"] = _mean(waits, 1e3)
    m["train.forward_ms"] = _mean(fwd, 1e3)
    m["train.backward_ms"] = _mean(bwd, 1e3)
    m["train.update_ms"] = _mean(upd, 1e3)
    m["train.step_ms.p50"] = float(np.percentile(steps, 50)) * 1e3 \
        if steps else 0.0
    m["train.step_ms.p90"] = float(np.percentile(steps, 90)) * 1e3 \
        if steps else 0.0
    m["train.validate_s"] = _mean(validate)
    for batch in (1, 50):
        calls = [i for i in by_name.get("train.predict_model", [])
                 if spans[i][4]["batch_size"] == batch]
        clips = sum(spans[i][4]["clips"] for i in calls)
        m[f"train.predict_b{batch}_ms_per_clip"] = sum(
            dur[i] for i in calls) / clips * 1e3 if clips else 0.0
    m["train.save_checkpoint_s"] = _mean(durations("train.save_checkpoint"))
    m["train.load_checkpoint_s"] = _mean(durations("train.load_checkpoint"))

    # model: a named layer's whole call, ops inside it included
    for name in names:
        if name.startswith("model."):
            span_name = name[:-len("_ms")]  # model.<layer>.fwd or .bwd
            m[name] = _mean(durations(span_name), 1e3)

    # ops
    for op in ("conv2d", "conv2d_backward"):
        for kind, grouped in (("dense", False), ("grouped", True)):
            calls = [i for i in by_name.get(f"ops.{op}", [])
                     if spans[i][4]["grouped"] == grouped]
            secs = sum(dur[i] for i in calls)
            flops = sum(spans[i][4]["flops"] for i in calls)
            m[f"ops.{op}.{kind}.gflop_per_s"] = flops / secs / 1e9 \
                if secs else 0.0
    cols = {}
    for i in by_name.get("ops.conv2d", []):
        owner = ancestor(i, "model.forward")
        cols[owner] = cols.get(owner, 0) + spans[i][4]["cols_bytes"]
    m["ops.conv2d.im2col_mb"] = max(cols.values(), default=0) / 2 ** 20
    m["ops.affine_norm_ms"] = _mean(durations("ops.affine_norm"), 1e3)
    m["ops.affine_norm_backward_ms"] = _mean(
        durations("ops.affine_norm_backward"), 1e3)
    m["ops.sgd_step_ms"] = _mean(durations("ops.sgd_step"), 1e3)

    # shift: its share of the time spent inside Model.forward/backward
    shift_fwd = durations("shift.temporal_shift")
    shift_bwd = durations("shift.temporal_shift_backward")
    model_time = sum(durations("model.forward")) + sum(
        durations("model.backward"))
    m["shift.temporal_shift_ms"] = _mean(shift_fwd, 1e3)
    m["shift.temporal_shift_backward_ms"] = _mean(shift_bwd, 1e3)
    m["shift.step_share"] = (sum(shift_fwd) + sum(shift_bwd)) / model_time \
        if model_time else 0.0

    # ensemble: counts per search_weights call
    searches = by_name.get("ensemble.search_weights", [])

    def per_search(name):
        inside = sum(1 for i in by_name.get(name, [])
                     if ancestor(i, "ensemble.search_weights") >= 0)
        return inside / len(searches) if searches else 0.0

    points = _mean([spans[i][4]["grid_points"] for i in searches])
    m["ensemble.grid_points"] = points
    m["ensemble.topk_accuracy_calls"] = per_search("ensemble.topk_accuracy")
    m["ensemble.ensemble_calls"] = per_search("ensemble.ensemble")
    m["ensemble.search_us_per_point"] = _mean(
        [dur[i] for i in searches], 1e6) / points if points else 0.0
    return m
