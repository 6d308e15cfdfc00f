"""End-to-end CLI pipeline on a tiny dataset plus error-path behavior."""

import json
import os
import signal
import struct

import numpy as np
import pytest

from tsmkit import cli, train
from tsmkit.model import ModelConfig, build_model
from tsmkit.train import PredictionSet, TrainConfig, save_checkpoint


def strip_seconds(csv_text):
    lines = csv_text.strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    rc = cli.main(["gen-data", "--out", str(root), "--classes", "2",
                   "--clips-per-class", "6", "--seed", "0"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def trained(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    ckpt = out / "ir.ckpt"
    rc = cli.main(["train", "--data", str(tiny_dataset / "manifest.jsonl"),
                   "--out", str(ckpt), "--classes", "2", "--segments", "4",
                   "--epochs", "2", "--log", str(out / "log.csv")])
    assert rc == 0
    return tiny_dataset, out, ckpt


class TestGenData:
    def test_outputs(self, tiny_dataset):
        manifest = tiny_dataset / "manifest.jsonl"
        assert manifest.exists()
        records = [json.loads(l) for l in manifest.read_text().splitlines()]
        assert len(records) == 2 * 6 * 2
        assert {r["split"] for r in records} == {"train", "val"}
        assert (tiny_dataset / "run_config.json").exists()

    def test_deterministic(self, tiny_dataset, tmp_path):
        cli.main(["gen-data", "--out", str(tmp_path), "--classes", "2",
                  "--clips-per-class", "6", "--seed", "0"])
        a = (tiny_dataset / "manifest.jsonl").read_bytes()
        b = (tmp_path / "manifest.jsonl").read_bytes()
        assert a == b


class TestTrainPredict:
    def test_checkpoint_and_log_written(self, trained):
        _, out, ckpt = trained
        assert ckpt.exists()
        assert (out / "log.csv").exists()
        assert (str(ckpt) + ".config.json") in [
            str(p) for p in out.iterdir() if p.suffix == ".json"]
        lines = (out / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_top1,val_top5,seconds"
        assert len(lines) == 3

    def test_repeat_run_reproduces_artifacts(self, trained, tmp_path):
        ds, out, ckpt = trained
        ckpt2 = tmp_path / "again.ckpt"
        rc = cli.main(["train", "--data", str(ds / "manifest.jsonl"),
                       "--out", str(ckpt2), "--classes", "2",
                       "--segments", "4", "--epochs", "2",
                       "--log", str(tmp_path / "log.csv")])
        assert rc == 0
        assert ckpt.read_bytes() == ckpt2.read_bytes()
        # the log matches except for the wall-clock seconds column
        a = strip_seconds((out / "log.csv").read_text())
        b = strip_seconds((tmp_path / "log.csv").read_text())
        assert a == b

    def test_predict_and_eval(self, trained, tmp_path, capsys):
        ds, _, ckpt = trained
        preds = tmp_path / "val.jsonl"
        rc = cli.main(["predict", "--ckpt", str(ckpt), "--data",
                       str(ds / "manifest.jsonl"), "--split", "val",
                       "--out", str(preds)])
        assert rc == 0
        loaded = PredictionSet.load(preds)
        assert loaded.probs.shape[1] == 2
        np.testing.assert_allclose(loaded.probs.sum(axis=1), 1.0, atol=1e-6)
        rc = cli.main(["eval", "--preds", str(preds), "--data",
                       str(ds / "manifest.jsonl"), "--split", "val"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top1" in out and "top5" in out


class TestEnsembleCli:
    def test_degenerate_weights_select_first_member(self, trained, tmp_path):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        other = tmp_path / "uniform.jsonl"
        base = PredictionSet.load(preds)
        PredictionSet(base.ids, np.full_like(base.probs, 0.5)).save(other)
        combined = tmp_path / "ens.jsonl"
        rc = cli.main(["ensemble", "--preds", str(preds), str(other),
                       "--weights", "1,0", "--out", str(combined)])
        assert rc == 0
        out = PredictionSet.load(combined)
        np.testing.assert_allclose(out.probs, base.probs, atol=1e-9)

    def test_search_prints_best_weights(self, trained, tmp_path, capsys):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        capsys.readouterr()
        combined = tmp_path / "ens.jsonl"
        rc = cli.main(["ensemble", "--preds", str(preds), str(preds),
                       "--search", "--step", "0.5",
                       "--data", str(ds / "manifest.jsonl"),
                       "--out", str(combined)])
        assert rc == 0
        best = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("best weights [")]
        assert len(best) == 1
        line = best[0]
        weights = json.loads(line[line.index("["):line.index("]") + 1])
        assert len(weights) == 2
        assert sum(weights) == pytest.approx(1.0)
        out = PredictionSet.load(combined)
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weighted_row_is_one_error_line(self, trained, tmp_path,
                                                 capsys):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        base = PredictionSet.load(preds)
        # uniform rows at the smallest subnormal weight: each weighted
        # probability, half of that weight, rounds to 0
        other = tmp_path / "uniform.jsonl"
        PredictionSet(base.ids, np.full_like(base.probs, 0.5)).save(other)
        capsys.readouterr()
        rc = cli.main(["ensemble", "--preds", str(other), str(preds),
                       "--weights", "5e-324,0", "--out",
                       str(tmp_path / "e.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: fused probability of video {base.ids[0]!r} "
                       f"is NaN at weights (5e-324, 0.0)"]
        assert not (tmp_path / "e.jsonl").exists()

    def test_requires_weights_or_search(self, trained, tmp_path, capsys):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        rc = cli.main(["ensemble", "--preds", str(preds),
                       "--out", str(tmp_path / "ens.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestReportCli:
    def test_table_and_csv(self, trained, tmp_path, capsys):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        csv = tmp_path / "report.csv"
        rc = cli.main(["report", "--row", f"ir={preds}", "--data",
                       str(ds / "manifest.jsonl"), "--csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Method" in out and "ir" in out
        assert csv.read_text().startswith("method,top1,top5\n")


class TestUtilityCommands:
    def test_grad_check_passes(self, capsys):
        assert cli.main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "max rel err" in out

    def test_shift_demo(self, capsys):
        assert cli.main(["shift-demo", "--segments", "3", "--channels", "4",
                         "--fold-div", "4"]) == 0
        out = capsys.readouterr().out
        assert "ch0" in out and "ch3" in out


class TestErrorPaths:
    def test_missing_manifest(self, capsys, tmp_path):
        rc = cli.main(["predict", "--ckpt", str(tmp_path / "no.ckpt"),
                       "--data", str(tmp_path / "no.jsonl"),
                       "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_checkpoint(self, trained, tmp_path, capsys):
        ds, _, ckpt = trained
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:10])  # inside the version field
        rc = cli.main(["predict", "--ckpt", str(cut), "--data",
                       str(ds / "manifest.jsonl"),
                       "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "truncated checkpoint" in err[0]

    def test_killed_prediction_worker(self, trained, tmp_path, capsys,
                                      monkeypatch):
        # a forked worker that dies before sending its rows is one error line
        ds, _, ckpt = trained
        parent = os.getpid()
        rows = train._predict_rows

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rows(*args)

        monkeypatch.setattr(train, "_predict_rows", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rc = cli.main(["predict", "--ckpt", str(ckpt), "--data",
                       str(ds / "manifest.jsonl"), "--split", "all",
                       "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: prediction worker ")
        assert err[0].endswith(" was killed by signal SIGKILL before it sent "
                               "its rows")

    def test_checkpoint_without_model_config(self, tiny_dataset, tmp_path,
                                             capsys):
        ckpt = tmp_path / "bare.ckpt"
        header = b'{"epoch": 0}'
        ckpt.write_bytes(b"TSMCKPT1" + struct.pack("<2I", 2, len(header))
                         + header + struct.pack("<I", 0))
        rc = cli.main(["predict", "--ckpt", str(ckpt), "--data",
                       str(tiny_dataset / "manifest.jsonl"),
                       "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {ckpt}: checkpoint header has no "
                       f"model_config object"]

    def test_old_checkpoint_version(self, tiny_dataset, tmp_path, capsys):
        # version 1 meant a batch-statistics norm over the same tensors
        cfg = ModelConfig(num_classes=2, capacity="micro")
        ckpt = tmp_path / "v1.ckpt"
        save_checkpoint(ckpt, build_model(cfg), {}, 0, TrainConfig(), 1)
        blob = bytearray(ckpt.read_bytes())
        blob[8:12] = struct.pack("<I", 1)  # the version field, after the magic
        ckpt.write_bytes(bytes(blob))
        rc = cli.main(["predict", "--ckpt", str(ckpt), "--data",
                       str(tiny_dataset / "manifest.jsonl"),
                       "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {ckpt}: unsupported checkpoint version 1"]

    @pytest.mark.parametrize("blob, message", [
        (b"TSMV1" + b"\x02\x00", "truncated clip header"),
        (b"TSMV1" + b"\xff\xff\xff\x7f" * 4 + b"\x00" * 64,
         "truncated clip file"),
        (b"TSMV1" + b"\x01\x00\x00\x00" * 4 + b"\x00" * 8,
         "4 extra bytes past the end of a 1x1x1x1 clip"),
    ])
    def test_bad_clip(self, trained, tmp_path, capsys, blob, message):
        # a manifest whose only val clip is cut inside its header, claims
        # extents near 2**31 or runs past its frames
        _, _, ckpt = trained
        (tmp_path / "a_ir.tsmv").write_bytes(blob)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(
            {"id": "a", "label": 0, "modality": "ir", "frames": 8,
             "path": "a_ir.tsmv", "split": "val"}) + "\n")
        rc = cli.main(["predict", "--ckpt", str(ckpt), "--data", str(manifest),
                       "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {tmp_path / 'a_ir.tsmv'}: {message}")

    @pytest.mark.parametrize("lines, message", [
        (['{"id": "a", "probs": [0.5, 0.5]}', '{"id": "b"}'],
         ':2: a prediction row needs "id" and "probs"'),
        (['{"id": "a", "probs": [0.5, 0.5]}', '{"id": "b", "probs": [1.0]}'],
         ":2: 1 probabilities, but the first row has 2"),
        ([], ": no prediction rows"),
        (['{"id": "a", "probs": [NaN, 0.5]}'],
         ":1: a probability outside [0, 1]"),
        (['{"id": "a", "probs": [0.5, 0.5]}',
          '{"id": "b", "probs": [Infinity, 0]}'],
         ":2: a probability outside [0, 1]"),
        (['{"id": "a", "probs": [-0.5, 1.5]}'],
         ":1: a probability outside [0, 1]"),
        (['{"id": "a", "probs": ["x", 0.5]}'],
         ':1: "probs" must hold only numbers'),
        (['{"id": "a", "probs": [0.5, 0.5]'], ":1: not a JSON row"),
        (['{"id": "a", "probs": [0.5, 0.5]}',
          '{"id": "b", "probs": [0, 0.0]}'],
         ":2: a row with no probability mass"),
        (['{"id": "a", "probs": [0.5, 0.5]}', '{"id": "b", "probs": [1, 0]}',
          '{"id": "a", "probs": [0.25, 0.75]}'],
         ":3: duplicate id 'a', first on line 1"),
        (['{"id": "a", "probs": [0.5, 0.25]}'],
         ":1: probabilities sum to 0.75, not 1"),
        (['{"id": "a", "probs": [0.5, 0.500002]}'],
         ":1: probabilities sum to 1.000002, not 1"),
        (['{"id": 7, "probs": [0.5, 0.5]}'], ':1: "id" must be a string'),
        (["[0.5, 0.5]"], ":1: a prediction row must be a JSON object"),
        (['{"id": "a", "probs": [0.5, 0.5]}', '{"id": "\xff", "probs": [1]}'],
         ":2: not UTF-8 text"),
    ])
    def test_bad_prediction_file(self, tiny_dataset, tmp_path, capsys, lines,
                                 message):
        preds = tmp_path / "bad.jsonl"
        # Latin-1, so that a non-ASCII character is not UTF-8
        preds.write_text("".join(line + "\n" for line in lines),
                         encoding="latin-1")
        rc = cli.main(["eval", "--preds", str(preds), "--data",
                       str(tiny_dataset / "manifest.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {preds}{message}"]

    @pytest.mark.parametrize("lines, message", [
        ([], ": no manifest rows"),
        (['{"id": "a", "label": 0'], ":1: not a JSON row"),
        (["[1, 2]"], ":1: a manifest row must be a JSON object"),
        (['{"id": "a", "label": 0, "modality": "ir", "frames": 8, '
          '"path": "a_ir.tsmv", "split": "train"}',
          '{"id": "b", "modality": "ir", "frames": 8, "path": "b_ir.tsmv"}'],
         ':2: a manifest row needs "label", "split"'),
        (['{"id": "a", "label": "0", "modality": "ir", "frames": 8, '
          '"path": "a_ir.tsmv", "split": "train"}'],
         ':1: "label" must be an integer >= 0'),
        (["", '{"id": "\xe9"}'], ":2: not UTF-8 text"),
    ])
    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_bad_manifest(self, trained, tmp_path, capsys, command, lines,
                          message):
        _, _, ckpt = trained
        manifest = tmp_path / "manifest.jsonl"
        # Latin-1, so that a non-ASCII character is not UTF-8
        manifest.write_text("".join(line + "\n" for line in lines),
                            encoding="latin-1")
        args = {"train": ["--classes", "2", "--epochs", "1"],
                "predict": ["--ckpt", str(ckpt)]}[command]
        rc = cli.main([command, "--data", str(manifest),
                       "--out", str(tmp_path / "out"), *args])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {manifest}{message}"]

    @pytest.mark.parametrize("command", [
        ["eval", "--preds", "{dir}", "--data", "{manifest}"],
        ["ensemble", "--preds", "{dir}", "{dir}", "--weights", "0.5,0.5",
         "--out", "{dir}/e.jsonl"],
        ["predict", "--ckpt", "{ckpt}", "--data", "{dir}",
         "--out", "{dir}/o.jsonl"],
    ], ids=["eval", "ensemble", "predict"])
    def test_directory_as_input_file(self, trained, tmp_path, capsys,
                                     command):
        ds, _, ckpt = trained
        rc = cli.main([arg.format(dir=tmp_path, ckpt=ckpt,
                                  manifest=ds / "manifest.jsonl")
                       for arg in command])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: [Errno 21] Is a directory: '{tmp_path}'"]

    @pytest.mark.parametrize("step, message", [
        pytest.param(step, f"step must be a positive number, got "
                     f"{float(step)}", id=step)
        for step in ("0", "-0.05", "nan", "inf")] + [
        pytest.param(step, f"step {float(step)} must be 1/k for an integer k "
                     f"from 1 to 10**6", id=step)
        for step in ("1e-7", "1e-320", "0.3", "2")])
    def test_bad_search_step(self, trained, tmp_path, capsys, step, message):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        capsys.readouterr()
        rc = cli.main(["ensemble", "--preds", str(preds), str(preds),
                       "--search", "--step", step,
                       "--data", str(ds / "manifest.jsonl"),
                       "--out", str(tmp_path / "e.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("batch_size", ["0", "-1"])
    def test_bad_batch_size(self, tiny_dataset, tmp_path, capsys, batch_size):
        ckpt = tmp_path / "ir.ckpt"
        rc = cli.main(["train", "--data", str(tiny_dataset / "manifest.jsonl"),
                       "--out", str(ckpt), "--classes", "2", "--epochs", "1",
                       "--batch-size", batch_size])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: batch_size must be >= 1, got {batch_size}"]
        assert not ckpt.exists()

    def test_weight_count_mismatch(self, trained, tmp_path, capsys):
        ds, _, ckpt = trained
        preds = tmp_path / "p.jsonl"
        cli.main(["predict", "--ckpt", str(ckpt), "--data",
                  str(ds / "manifest.jsonl"), "--out", str(preds)])
        rc = cli.main(["ensemble", "--preds", str(preds), "--weights",
                       "0.5,0.5", "--out", str(tmp_path / "e.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
