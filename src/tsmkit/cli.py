"""Command-line entry point: the full pipeline as subcommands.

Every subcommand writes its resolved configuration as JSON next to its main
output so a run can be re-executed exactly.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import ensemble as ensmod
from . import gradcheck
from .ensemble import PredictionSet
from .model import ModelConfig
from .shift import ShiftConfig, temporal_shift
from .train import (TrainConfig, load_checkpoint, predict_model,
                    save_checkpoint, train_phase1, train_phase2)


def _write_config(path, args, command):
    cfg = {"command": command}
    cfg.update({k: v for k, v in sorted(vars(args).items()) if k != "func"})
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _labels_by_id(records):
    return {r["id"]: r["label"] for r in records}


def _records_for_split(manifest_path, split):
    records = datamod.load_manifest(manifest_path)
    if split != "all":
        records = [r for r in records if r["split"] == split]
    if not records:
        raise ValueError(f"no records with split {split!r} in {manifest_path}")
    return records


# ---------------------------------------------------------------------------


def cmd_gen_data(args):
    # datamod.split takes 1 - ratio; checked before any clip is written
    if not 0 < 1.0 - args.val_ratio < 1:
        raise ValueError(
            f"--val-ratio must be in (0, 1), got {args.val_ratio}")
    if args.test_ratio != 0 and not 0 < 1.0 - args.test_ratio < 1:
        raise ValueError(
            f"--test-ratio must be in [0, 1), got {args.test_ratio}")
    spec = datamod.DatasetSpec(
        num_classes=args.classes, clips_per_class=args.clips_per_class,
        seed=args.seed)
    out = Path(args.out)
    records = datamod.generate(spec, out)
    if args.test_ratio > 0:
        records, test = datamod.split(records, 1.0 - args.test_ratio,
                                      args.seed + 1)
        test = [{**r, "split": "test"} for r in test]
    else:
        test = []
    train, val = datamod.split(records, 1.0 - args.val_ratio, args.seed)
    manifest = train + val + test
    datamod.save_manifest(manifest, out / "manifest.jsonl")
    _write_config(out / "run_config.json", args, "gen-data")
    print(f"wrote {len(manifest)} records to {out / 'manifest.jsonl'}")
    return 0


def cmd_train(args):
    manifest = Path(args.data)
    root = manifest.parent
    model_cfg = ModelConfig(
        num_classes=args.classes,
        in_channels=datamod.MODALITIES[args.modality][0],
        num_segments=args.segments,
        capacity=args.capacity,
        dropout_rate=args.dropout,
        shift_enabled=not args.no_shift,
        fold_div=args.fold_div,
    )
    train_cfg = TrainConfig(
        lr=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
        batch_size=args.batch_size, seed=args.seed)

    def log_fn(rec):
        parts = [f"epoch {rec['epoch']:3d}", f"loss {rec['train_loss']:.4f}"]
        if rec["val_top1"] is not None:
            parts.append(f"val top1 {rec['val_top1']:.4f} "
                         f"top5 {rec['val_top5']:.4f}")
        print("  ".join(parts))

    # without --epochs each phase runs its default epoch count
    run_args = dict(init_from=args.init_from, log_fn=log_fn)
    if args.epochs is not None:
        run_args["epochs"] = args.epochs
    if args.phase == 1:
        train_recs = _records_for_split(manifest, "train")
        val_recs = _records_for_split(manifest, "val")
        model, vel, log = train_phase1(
            model_cfg, train_cfg, train_recs, val_recs, root, **run_args)
    else:
        records = datamod.load_manifest(manifest)
        full = [r for r in records if r["split"] in ("train", "val")]
        model, vel, log = train_phase2(model_cfg, train_cfg, full, root,
                                       **run_args)
    # nothing here stops a run early, so the log has one record per epoch
    epochs = len(log.records)
    save_checkpoint(args.out, model, vel, epochs - 1, train_cfg, epochs)
    if args.log:
        log.to_csv(args.log)
    _write_config(str(args.out) + ".config.json", args, "train")
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_predict(args):
    manifest = Path(args.data)
    records = _records_for_split(manifest, args.split)
    model, _, _ = load_checkpoint(args.ckpt)
    modality = datamod.modality_for(model.cfg.in_channels)
    records = [r for r in records if r["modality"] == modality]
    if not records:
        raise ValueError(f"no {modality!r} records in split {args.split!r}")
    preds = predict_model(model, records, manifest.parent)
    preds.save(args.out)
    _write_config(str(args.out) + ".config.json", args, "predict")
    print(f"wrote {len(preds.ids)} predictions to {args.out}")
    return 0


def cmd_ensemble(args):
    members = [PredictionSet.load(p) for p in args.preds]
    if args.weights:
        weights = [float(w) for w in args.weights.split(",")]
        if len(weights) != len(members):
            raise ValueError(
                f"--weights has {len(weights)} entries for {len(members)} "
                f"prediction files")
    elif args.search:
        if not args.data:
            raise ValueError("--search requires --data for validation labels")
        labels = _labels_by_id(_records_for_split(Path(args.data), args.split))
        weights, top1, top5 = ensmod.search_weights(
            members, labels, step=args.step)
        print(f"best weights {list(weights)}  top1 {top1:.4f}  top5 {top5:.4f}")
    else:
        raise ValueError("ensemble needs either --weights or --search")
    combined = ensmod.ensemble(list(zip(members, weights)))
    combined.save(args.out)
    _write_config(str(args.out) + ".config.json", args, "ensemble")
    print(f"wrote ensemble predictions to {args.out}")
    return 0


def cmd_eval(args):
    preds = PredictionSet.load(args.preds)
    labels = _labels_by_id(_records_for_split(Path(args.data), args.split))
    k5 = min(5, preds.probs.shape[1])
    top1 = ensmod.topk_accuracy(preds, labels, 1)
    top5 = ensmod.topk_accuracy(preds, labels, k5)
    print(f"top1 {top1:.4f}  top5 {top5:.4f}")
    return 0


def cmd_report(args):
    rows = []
    for item in args.row:
        if "=" not in item:
            raise ValueError(f"--row must be name=preds.jsonl, got {item!r}")
        name, path = item.split("=", 1)
        rows.append((name, PredictionSet.load(path)))
    labels = _labels_by_id(_records_for_split(Path(args.data), args.split))
    scores, text = ensmod.report(rows, labels)
    print(text)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(ensmod.report_csv(scores))
    return 0


def cmd_grad_check(args):
    errs = gradcheck.run_all(seed=args.seed)
    worst = 0.0
    for name, err in errs.items():
        print(f"{name:<24} max rel err {err:.3e}")
        worst = max(worst, err)
    return 0 if worst < 1e-4 else 1


def cmd_shift_demo(args):
    cfg = ShiftConfig(num_segments=args.segments, fold_div=args.fold_div)
    rng = np.random.default_rng(args.seed)
    x = np.round(rng.uniform(1, 10, size=(args.segments, args.channels, 1, 1)))
    y = temporal_shift(x, cfg)
    fold = args.channels // args.fold_div
    print(f"T={args.segments} C={args.channels} fold_div={args.fold_div} "
          f"(f={fold}: ch<{fold} from future, ch<{2 * fold} from past)")
    for c in range(args.channels):
        before = " ".join(f"{v:4.0f}" for v in x[:, c, 0, 0])
        after = " ".join(f"{v:4.0f}" for v in y[:, c, 0, 0])
        print(f"ch{c}:  in [{before}]  out [{after}]")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="tsmkit",
        description="Temporal-shift video classification pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=5)
    g.add_argument("--clips-per-class", type=int, default=50)
    g.add_argument("--val-ratio", type=float, default=0.2)
    g.add_argument("--test-ratio", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--data", required=True, help="manifest.jsonl path")
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.add_argument("--phase", type=int, choices=(1, 2), default=1)
    t.add_argument("--modality", choices=sorted(datamod.MODALITIES),
                   default="ir")
    t.add_argument("--capacity", choices=("small", "large"), default="small")
    t.add_argument("--classes", type=int, default=5)
    t.add_argument("--segments", type=int, default=8)
    t.add_argument("--fold-div", type=int, default=8)
    t.add_argument("--dropout", type=float, default=0.5)
    t.add_argument("--no-shift", action="store_true")
    t.add_argument("--lr", type=float, default=0.01)
    t.add_argument("--momentum", type=float, default=0.9)
    t.add_argument("--weight-decay", type=float, default=5e-4)
    t.add_argument("--batch-size", type=int, default=8)
    t.add_argument("--epochs", type=int, default=None,
                   help="override the per-phase default (100/200)")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--init-from", default=None, help="warm-start checkpoint")
    t.add_argument("--log", default=None, help="write TrainLog CSV here")
    t.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="run a checkpoint over a manifest")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--split", default="val",
                    choices=("train", "val", "test", "all"))
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    e = sub.add_parser("ensemble", help="combine prediction files")
    e.add_argument("--preds", nargs="+", required=True)
    e.add_argument("--weights", default=None, help="comma-separated weights")
    e.add_argument("--search", action="store_true")
    e.add_argument("--step", type=float, default=0.05)
    e.add_argument("--data", default=None, help="manifest for --search labels")
    e.add_argument("--split", default="val")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_ensemble)

    ev = sub.add_parser("eval", help="top-1/top-5 of one prediction file")
    ev.add_argument("--preds", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", default="val")
    ev.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="leaderboard-style accuracy table")
    r.add_argument("--row", nargs="+", required=True,
                   help="name=predictions.jsonl")
    r.add_argument("--data", required=True)
    r.add_argument("--split", default="val")
    r.add_argument("--csv", default=None)
    r.set_defaults(func=cmd_report)

    gc = sub.add_parser("grad-check", help="finite-difference check every op")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_grad_check)

    sd = sub.add_parser("shift-demo", help="print a small shift example")
    sd.add_argument("--segments", type=int, default=3)
    sd.add_argument("--channels", type=int, default=4)
    sd.add_argument("--fold-div", type=int, default=4)
    sd.add_argument("--seed", type=int, default=0)
    sd.set_defaults(func=cmd_shift_demo)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
