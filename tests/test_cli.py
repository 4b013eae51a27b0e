import gzip
import json
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from clwb import cli
from clwb import composer as cp
from clwb import data as dt
from clwb import experiment as ex
from clwb import numkit as nk
from clwb import verify
from clwb.checkpoint import load_checkpoint, save_checkpoint
from clwb.config import parse_config
from conftest import digits_config_text, with_meta


def run_cli(*argv):
    return cli.main(list(argv))


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "theorem1", "--trials", "500",
                       "--seed", "5") == 0
        out = capsys.readouterr().out
        assert "suite theorem1: pass" in out

    def test_all_suites(self, capsys):
        assert run_cli("verify", "--suite", "all", "--trials", "50") == 0
        out = capsys.readouterr().out
        assert out.count("suite ") == 7

    def test_injected_fault_fails_with_replay(self, capsys, negate_suite):
        # harness self-test: a negated verdict must surface as exit 1
        negate_suite("theorem1")
        assert run_cli("verify", "--suite", "theorem1", "--trials", "20",
                       "--seed", "5") == 1
        out = capsys.readouterr().out
        assert "counterexample" in out
        assert "--seed 5" in out  # replayable seed echoed

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--suite", "theorem9")

    @pytest.mark.parametrize("flag, value, low", [
        ("--trials", "0", 1), ("--trials", "-3", 1), ("--seed", "-1", 0)])
    def test_bad_trials_or_seed_is_usage_error(self, capsys, monkeypatch,
                                               flag, value, low):
        # exit 1 means a counterexample, so a bad flag exits 2, runs nothing
        monkeypatch.setattr(verify, "run_suite", None)
        with pytest.raises(SystemExit) as e:
            run_cli("verify", flag, value)
        assert e.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"clwb verify: error: argument {flag}: must be an int >= {low}, "
            f"got '{value}'\n")


class TestTrainEvalPipeline:
    def test_synthetic_end_to_end(self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(tasks=3))
        out_dir = tmp_path / "run"

        assert run_cli("train", "--config", str(cfg_path)) == 0
        files = {p.name for p in out_dir.iterdir()}
        assert {"task1.clwb", "task2.clwb", "task3.clwb", "final.clwb",
                "trace.json"} <= files

        assert run_cli("eval", "--config", str(cfg_path),
                       "--checkpoint", str(out_dir / "final.clwb")) == 0
        report = json.loads(
            (out_dir / "report_msp_concat-argmax.json").read_text())
        assert report["til_avg"] == 100.0
        assert len(report["auc_per_task"]) == 3

    def test_train_determinism(self, synth_config_text, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_path.write_text(synth_config_text())
        run_cli("train", "--config", str(cfg_path), "--out", str(out_a))
        run_cli("train", "--config", str(cfg_path), "--out", str(out_b))
        assert (out_a / "final.clwb").read_bytes() == \
            (out_b / "final.clwb").read_bytes()

    def test_eval_purity_and_checkpoint_untouched(self, synth_config_text,
                                                  tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg_path))
        ckpt = out / "final.clwb"
        before = ckpt.read_bytes()
        run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "e1"))
        first = (tmp_path / "e1" / "report_msp_concat-argmax.json").read_bytes()
        run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "e2"))
        second = (tmp_path / "e2" / "report_msp_concat-argmax.json").read_bytes()
        assert first == second
        assert ckpt.read_bytes() == before

    def test_eval_scorer_isolation(self, synth_config_text, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg_path))
        for scorer in ("msp", "odin"):
            run_cli("eval", "--config", str(cfg_path),
                    "--checkpoint", str(out / "final.clwb"),
                    "--scorer", scorer, "--out", str(tmp_path / scorer))
        a = json.loads((tmp_path / "msp" /
                        "report_msp_concat-argmax.json").read_text())
        b = json.loads((tmp_path / "odin" /
                        "report_odin_concat-argmax.json").read_text())
        # post-processing swap: predictions identical, only scorer fields move
        assert a["cil"] == b["cil"]
        assert a["til_per_task"] == b["til_per_task"]
        assert a["scorer"] == "msp" and b["scorer"] == "odin"

    def test_rotation_ensemble_on_plain_heads_is_usage_error(
            self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(tasks=2, epochs=2))
        run_cli("train", "--config", str(cfg_path))
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "final.clwb"),
                       "--scorer", "rotation-ensemble") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no rotation slots" in err
        assert not list((tmp_path / "run").glob("report_*"))

    def test_eval_grid_writes_each_cell_as_its_one_cell_eval(
            self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        ckpt = str(tmp_path / "run" / "final.clwb")
        capsys.readouterr()
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                       "--scorer", "msp,odin",
                       "--route", "concat-argmax,compose",
                       "--out", str(tmp_path / "grid")) == 0
        cells = ["msp_concat-argmax", "msp_compose", "odin_concat-argmax",
                 "odin_compose"]
        printed = [line.split(": ")[1] for line in
                   capsys.readouterr().out.splitlines()
                   if line.startswith("report: ")]
        assert printed == [str(tmp_path / "grid" / f"report_{c}.json")
                           for c in cells]
        for cell in cells:
            scorer, route = cell.split("_")
            run_cli("eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                    "--scorer", scorer, "--route", route)
            for ext in ("json", "csv"):
                name = f"report_{cell}.{ext}"
                assert (tmp_path / "grid" / name).read_bytes() == \
                    (tmp_path / "run" / name).read_bytes()
        assert len(list((tmp_path / "grid").iterdir())) == 2 * len(cells)

    @pytest.mark.parametrize("flag, names", [
        ("--scorer", "msp,msp"), ("--scorer", "msp,bogus"), ("--scorer", ""),
        ("--route", "compose,concat-argmax,compose")])
    def test_bad_grid_names_are_usage_errors(self, synth_config_text,
                                             tmp_path, capsys, flag, names):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        with pytest.raises(SystemExit) as stop:
            run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                    str(tmp_path / "final.clwb"), flag, names)
        assert stop.value.code == 2
        assert f"error: argument {flag}: {names!r} is not a list of " \
            "distinct names" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_a_grid_with_a_refused_cell_writes_nothing(
            self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(tasks=2, epochs=2))
        run_cli("train", "--config", str(cfg_path))
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "final.clwb"),
                       "--scorer", "msp,rotation-ensemble",
                       "--route", "concat-argmax,compose") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no rotation slots" in err
        assert not list((tmp_path / "run").glob("report_*"))

    def test_negative_lambda_is_usage_error(self, synth_config_text, tmp_path,
                                            capsys):
        # a negative lambda would turn HAT's sparsity penalty into a reward
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(extra="lambdas = 1.0, -5.0"))
        assert run_cli("train", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err == (
            "error: backbone.lambdas must be >= 0, got '1.0, -5.0'\n")
        assert not (tmp_path / "run" / "task1.clwb").exists()
        cfg_path.write_text(synth_config_text(epochs=1, extra="lambdas = 0"))
        assert run_cli("train", "--config", str(cfg_path)) == 0
        assert (tmp_path / "run" / "final.clwb").exists()

    @staticmethod
    def idx_config(root, name, train_shape, test_shape, test_labels,
                   classes=(4, 4)):
        """A 2-task IDX config whose training set is train_shape images of
        classes[0] classes and whose test set is test_shape images with
        test_labels labels of classes[1] classes."""
        rng = np.random.default_rng(0)
        paths = {}
        for part, shape, n_labels, n_classes in (
                ("train", train_shape, train_shape[0], classes[0]),
                ("test", test_shape, test_labels, classes[1])):
            blobs = {"images": rng.uniform(size=shape),
                     "labels": np.arange(n_labels) % n_classes}
            for kind, blob in blobs.items():
                paths[f"{part}_{kind}"] = root / f"{name}-{part}-{kind}.idx"
                paths[f"{part}_{kind}"].write_bytes(dt.serialize_idx(blob))
        cfg_path = root / f"{name}.ini"
        cfg_path.write_text(digits_config_text(
            paths, out=root / "run", tasks=2, hidden="8", epochs=1, batch=4))
        return cfg_path

    @pytest.mark.parametrize("test_shape, test_labels, message", [
        ((12, 5, 5), 12, "data.test_images of shape (12, 5, 5) does not "
                         "pair with data.train_images of shape (12, 4, 4)"),
        ((12, 4, 4), 8, "data.test_images of shape (12, 4, 4) does not "
                        "pair with data.test_labels of shape (8,)"),
    ], ids=["image-size", "label-count"])
    def test_idx_files_that_do_not_pair_are_usage_errors(
            self, tmp_path, capsys, test_shape, test_labels, message):
        # refused when the tasks are built, before any training or scoring
        bad = self.idx_config(tmp_path, "bad", (12, 4, 4), test_shape,
                              test_labels)
        assert run_cli("train", "--config", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list((tmp_path / "run").glob("*.clwb"))
        good = self.idx_config(tmp_path, "good", (12, 4, 4), (12, 4, 4), 12)
        assert run_cli("train", "--config", str(good)) == 0
        capsys.readouterr()
        for command in ("eval", "calibrate"):
            assert run_cli(command, "--config", str(bad), "--checkpoint",
                           str(tmp_path / "run" / "final.clwb")) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not list((tmp_path / "run").glob("report_*"))

    @pytest.mark.parametrize("loss", ["rotation-ce", "contrastive"])
    def test_non_square_images_under_a_rotation_loss_are_usage_error(
            self, tmp_path, capsys, loss):
        # the rotation losses turn each image by quarter turns: refused when
        # the tasks are built, before train makes its output directory
        cfg_path = self.idx_config(tmp_path, "wide", (12, 4, 6), (12, 4, 6),
                                   12)
        text = cfg_path.read_text()
        cfg_path.write_text(f"{text}\n[loss]\nkind = {loss}\n")
        assert run_cli("train", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err == (
            f"error: data.train_images holds (4, 6) images: loss.kind = "
            f"{loss} needs square images\n")
        assert not (tmp_path / "run").exists()
        cfg_path.write_text(text)  # the plain loss never turns an image
        assert run_cli("train", "--config", str(cfg_path)) == 0

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_idx_label_outside_the_classes_is_usage_error(self, tmp_path,
                                                          capsys, part):
        # labels 0-5 under 2 x 2 classes, refused before any training or
        # scoring; dropping classes 4 and 5 makes room for them
        classes = (6, 4) if part == "train" else (4, 6)
        bad = self.idx_config(tmp_path, "bad", (12, 4, 4), (12, 4, 4), 12,
                              classes)
        message = (f"error: data.{part}_labels has label 5 outside the 4 "
                   f"classes of tasks.count x tasks.classes_per_task + "
                   f"len(tasks.drop_classes)\n")
        assert run_cli("train", "--config", str(bad)) == 2
        assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("*.clwb"))
        good = tmp_path / "good.ini"
        good.write_text(bad.read_text().replace(
            "classes_per_task = 2", "classes_per_task = 2\ndrop_classes = 4, 5"))
        assert run_cli("train", "--config", str(good)) == 0
        capsys.readouterr()
        for command in ("eval", "calibrate"):
            assert run_cli(command, "--config", str(bad), "--checkpoint",
                           str(tmp_path / "run" / "final.clwb")) == 2
            assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("report_*"))

    @pytest.mark.parametrize("labels, per_task, drop", [
        (3, 1, "7"), (5, 2, "4, 4"), (5, 2, "-1"), (5, 2, "9")])
    def test_drop_classes_not_distinct_in_range_is_usage_error(
            self, tmp_path, capsys, labels, per_task, drop):
        # refused at parse time: a class outside the labels would leave 3
        # tasks for 2, and a repeated or negative one a class count the
        # tasks do not divide; dropping the top class keeps exactly 2 tasks
        good = self.idx_config(tmp_path, "good", (12, 4, 4), (12, 4, 4), 12,
                               (labels, labels))
        good.write_text(good.read_text().replace(
            "classes_per_task = 2", f"classes_per_task = {per_task}\n"
                                    f"drop_classes = {labels - 1}"))
        bad = tmp_path / "bad.ini"
        bad.write_text(good.read_text().replace(
            f"drop_classes = {labels - 1}", f"drop_classes = {drop}"))
        drops = [int(c) for c in drop.split(",")]
        message = (f"error: tasks.drop_classes must be distinct classes in "
                   f"[0, {2 * per_task + len(drops)}) of tasks.count x "
                   f"tasks.classes_per_task + len(tasks.drop_classes), "
                   f"got {drops}\n")
        assert run_cli("train", "--config", str(bad)) == 2
        assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("*.clwb"))
        assert run_cli("train", "--config", str(good)) == 0
        assert "trained 2 tasks" in capsys.readouterr().out
        for command in ("eval", "calibrate"):
            assert run_cli(command, "--config", str(bad), "--checkpoint",
                           str(tmp_path / "run" / "final.clwb")) == 2
            assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("report_*"))

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_idx_task_without_rows_is_usage_error(self, tmp_path, capsys,
                                                  part):
        # labels 0-1 in one file of a 2 x 2 config: task 1 has no rows
        # there, refused before any training or scoring
        classes = (2, 4) if part == "train" else (4, 2)
        bad = self.idx_config(tmp_path, "bad", (12, 4, 4), (12, 4, 4), 12,
                              classes)
        message = f"error: data.{part}_labels has no rows of task 1\n"
        assert run_cli("train", "--config", str(bad)) == 2
        assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("*.clwb"))
        good = self.idx_config(tmp_path, "good", (12, 4, 4), (12, 4, 4), 12)
        assert run_cli("train", "--config", str(good)) == 0
        capsys.readouterr()
        for command in ("eval", "calibrate"):
            assert run_cli(command, "--config", str(bad), "--checkpoint",
                           str(tmp_path / "run" / "final.clwb")) == 2
            assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("report_*"))

    def test_idx_class_without_training_rows_is_usage_error(self, tmp_path,
                                                            capsys):
        # train labels 0-2 in a 2 x 2 config: task 1 has rows, but none of
        # class 3, refused before any training or scoring
        bad = self.idx_config(tmp_path, "bad", (12, 4, 4), (12, 4, 4), 12,
                              (3, 4))
        message = "error: data.train_labels has no rows of class 3 of task 1\n"
        assert run_cli("train", "--config", str(bad)) == 2
        assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("*.clwb"))
        good = self.idx_config(tmp_path, "good", (12, 4, 4), (12, 4, 4), 12)
        assert run_cli("train", "--config", str(good)) == 0
        capsys.readouterr()
        for command in ("eval", "calibrate"):
            assert run_cli(command, "--config", str(bad), "--checkpoint",
                           str(tmp_path / "run" / "final.clwb")) == 2
            assert capsys.readouterr().err == message
        assert not list((tmp_path / "run").glob("report_*"))
        assert not (tmp_path / "run" / "calibration.json").exists()

    def test_idx_class_without_training_rows_names_its_label_before_drops(
            self, tmp_path, capsys):
        # labels 0-4 with class 2 dropped and class 4 absent from training:
        # the error names label 4, not its renumbered id 3
        cfg = self.idx_config(tmp_path, "drop", (12, 4, 4), (12, 4, 4), 12,
                              (4, 5))
        cfg.write_text(cfg.read_text().replace(
            "classes_per_task = 2", "classes_per_task = 2\ndrop_classes = 2"))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == \
            "error: data.train_labels has no rows of class 4 of task 1\n"
        assert not list((tmp_path / "run").glob("*.clwb"))

    @staticmethod
    def malformed(path, kind, other):
        """path, a good IDX file, made the kind of file clwb cannot read as
        its key's array; other holds good bytes of the other rank."""
        blob = path.read_bytes()
        path.unlink()
        if kind == "truncated":
            path.write_bytes(blob[:-3])
        elif kind == "bad-magic":
            path.write_bytes(b"\x00\x00\x08\x02" + blob[4:])
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "corrupt-gzip":
            path.write_bytes(gzip.compress(blob)[:-9])
        elif kind == "directory":
            path.mkdir()
        elif kind == "other-rank":
            path.write_bytes(other)

    @pytest.mark.parametrize("key, kind, message", [
        ("train_labels", "missing", ": FileNotFoundError: [Errno 2] No such "
                                    "file or directory: '{path}'"),
        ("train_labels", "truncated", ": FormatError: expected 12 data "
                                      "bytes, found 9"),
        ("train_labels", "bad-magic", ": FormatError: bad magic 0x00000802"),
        ("train_labels", "empty", ": FormatError: stream shorter than the "
                                  "magic word"),
        ("test_labels", "corrupt-gzip", ": EOFError: Compressed file ended "
                                        "before the end-of-stream marker was "
                                        "reached"),
        ("train_labels", "directory", ": IsADirectoryError: [Errno 21] Is a "
                                      "directory: '{path}'"),
        ("train_labels", "other-rank", " holds an array of shape (12, 4, 4), "
                                       "not (n,)"),
        ("train_images", "other-rank", " holds an array of shape (12,), not "
                                       "(n, h, w)"),
    ], ids=["missing", "truncated", "bad-magic", "empty", "corrupt-gzip",
            "directory", "images-as-labels", "labels-as-images"])
    def test_malformed_idx_file_is_usage_error_that_writes_nothing(
            self, tmp_path, capsys, key, kind, message):
        # refused when the tasks are built: no traceback, and train makes
        # no output directory
        good = self.idx_config(tmp_path, "good", (12, 4, 4), (12, 4, 4), 12)
        assert run_cli("train", "--config", str(good), "--out",
                       str(tmp_path / "good_run")) == 0
        capsys.readouterr()
        bad = self.idx_config(tmp_path, "bad", (12, 4, 4), (12, 4, 4), 12)
        part, rank = key.split("_")
        path = tmp_path / f"bad-{part}-{rank}.idx"
        other = {"images": "labels", "labels": "images"}[rank]
        self.malformed(path, kind,
                       (tmp_path / f"bad-{part}-{other}.idx").read_bytes())
        message = f"error: data.{key} file {path}" \
            f"{message.format(path=path)}\n"
        before = sorted(tmp_path.rglob("*"))
        checkpoint = ["--checkpoint", str(tmp_path / "good_run/final.clwb")]
        for args in (["train"], ["eval", *checkpoint],
                     ["calibrate", *checkpoint]):
            assert run_cli(*args, "--config", str(bad)) == 2
            assert capsys.readouterr().err == message
            assert sorted(tmp_path.rglob("*")) == before
        assert not (tmp_path / "run").exists()

    def test_odin_grid_fraction_that_empties_a_class_is_usage_error(
            self, synth_config_text, tmp_path, capsys, monkeypatch):
        # 40 rows a class keep no validation row at 0.01: refused before any
        # forward, and only where the grid runs, so train and msp go ahead
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=1, extra=(
            "[ood]\nscorer = odin\nodin_grid = true\n"
            "validation_fraction = 0.01\n")))
        assert run_cli("train", "--config", str(cfg_path)) == 0
        capsys.readouterr()
        final = str(tmp_path / "run" / "final.clwb")
        forwards = []
        monkeypatch.setattr(nk, "forward", lambda *args: forwards.append(1))
        for command in ("eval", "calibrate"):
            assert run_cli(command, "--config", str(cfg_path),
                           "--checkpoint", final) == 2
            assert capsys.readouterr().err == (
                "error: ood.validation_fraction: task 0: fraction 0.01 "
                "empties class 0 stratum\n")
        assert forwards == []
        assert not list((tmp_path / "run").glob("report_*"))
        monkeypatch.undo()
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       final, "--scorer", "msp") == 0

    @pytest.mark.parametrize("command", ["train", "eval", "calibrate"])
    def test_negative_seed_is_usage_error(self, synth_config_text, tmp_path,
                                          capsys, command):
        # numpy's generators take no negative seed: refused at parse time
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(seed=-4))
        checkpoint = [] if command == "train" else \
            ["--checkpoint", str(tmp_path / "final.clwb")]
        assert run_cli(command, "--config", str(cfg_path), *checkpoint) == 2
        assert capsys.readouterr().err == (
            "error: experiment.seed must be >= 0, got '-4'\n")
        cfg_path.write_text(synth_config_text())
        with pytest.raises(SystemExit) as e:
            run_cli(command, "--config", str(cfg_path), *checkpoint,
                    "--seed", "-1")
        assert e.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"clwb {command}: error: argument --seed: must be an int >= 0, "
            f"got '-1'\n")
        assert not (tmp_path / "run" / "task1.clwb").exists()

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[experiment]\nseed = 1\n[backbone]\ntypo = 1\n")
        assert run_cli("train", "--config", str(cfg_path)) == 2
        assert "backbone.typo" in capsys.readouterr().err

    @pytest.mark.parametrize("key, line", [("hidden", "hidden = 16"),
                                           ("lambdas", "lambdas = 1.0")])
    def test_empty_list_key_is_usage_error(self, synth_config_text, tmp_path,
                                           capsys, key, line):
        # refused when the config is parsed, before training starts
        cfg_path = tmp_path / "cfg.ini"
        text = synth_config_text(extra="lambdas = 1.0")
        cfg_path.write_text(text.replace(line, f"{key} ="))
        assert run_cli("train", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err == (
            f"error: backbone.{key} must be nonempty, got ''\n")
        assert not (tmp_path / "run" / "task1.clwb").exists()

    @staticmethod
    def unreadable(path, kind):
        """path left missing, made a directory, or filled with bytes that
        are not UTF-8."""
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(b"\xff\xfe\x00[experiment]\n")
        return path

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    @pytest.mark.parametrize("command", ["train", "eval", "calibrate"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys,
                                              command, kind):
        path = self.unreadable(tmp_path / "nope.ini", kind)
        checkpoint = [] if command == "train" else \
            ["--checkpoint", str(tmp_path / "final.clwb")]
        assert run_cli(command, "--config", str(path), *checkpoint) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path}: ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_unreadable_checkpoint_is_usage_error(
            self, synth_config_text, tmp_path, capsys, command, kind):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        path = self.unreadable(tmp_path / "nope.clwb", kind)
        assert run_cli(command, "--config", str(cfg_path),
                       "--checkpoint", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint file {path}: ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_malformed_checkpoint_manifest_is_usage_error(
            self, synth_config_text, tmp_path, capsys):
        # the CRC holds, so only the manifest's checks can refuse it
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        capsys.readouterr()
        bad = tmp_path / "bad.clwb"
        bad.write_bytes(with_meta(
            (tmp_path / "run" / "final.clwb").read_bytes(),
            lambda m: {**m, "head_kinds": list(m["head_kinds"].values())}))
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed checkpoint")
        assert len(err.strip().splitlines()) == 1
        assert not list((tmp_path / "run").glob("report_*"))

    def test_format_1_checkpoint_is_usage_error(self, synth_config_text,
                                                tmp_path, capsys):
        # a format-1 header with an honest CRC: refused by its version,
        # before any array is read
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        capsys.readouterr()
        old = bytearray((tmp_path / "run" / "final.clwb").read_bytes())
        old[4:6] = struct.pack("<H", 1)
        old[-4:] = struct.pack("<I", zlib.crc32(bytes(old[:-4])))
        bad = tmp_path / "format1.clwb"
        bad.write_bytes(bytes(old))
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(bad)) == 2
        assert capsys.readouterr().err == (
            "error: format version 1 unsupported (loader handles 2)\n")
        assert not list((tmp_path / "run").glob("report_*"))

    def test_finished_task_without_isolation_arrays_is_usage_error(
            self, synth_config_text, tmp_path, capsys):
        # the CRC holds and task 2's head is there, but its embeddings'
        # array is renamed in the manifest
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        capsys.readouterr()

        def rename(meta):
            for entry in meta["arrays"]:
                if entry["name"] == "hat_emb2":
                    entry["name"] = "hat_emb9"
            return meta

        bad = tmp_path / "bad.clwb"
        bad.write_bytes(with_meta(
            (tmp_path / "run" / "final.clwb").read_bytes(), rename))
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed checkpoint")
        assert "missing array hat_emb2" in err
        assert len(err.strip().splitlines()) == 1
        assert not list((tmp_path / "run").glob("report_*"))

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_per_task_checkpoint_is_usage_error(
            self, synth_config_text, tmp_path, capsys, command):
        # train writes one checkpoint per finished task; only final.clwb
        # holds every task the config names
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        capsys.readouterr()
        assert run_cli(command, "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "task2.clwb")) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint has 2 finished tasks for 3 tasks in the "
            "config\n")
        assert not list((tmp_path / "run").glob("report_*"))

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_checkpoint_of_other_task_ids_is_usage_error(
            self, synth_config_text, tmp_path, capsys, command):
        # three finished tasks for the config's three, but task 2 renamed
        # to task 5 in every meta field and array name, the CRC re-signed
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        capsys.readouterr()

        def rename(meta):
            text = json.dumps(meta)
            for old, new in (('"2"', '"5"'), ("head_w2", "head_w5"),
                             ("head_b2", "head_b5"),
                             ("hat_emb2", "hat_emb5")):
                text = text.replace(old, new)
            meta = json.loads(text)
            meta["finished"] = [5 if k == 2 else k for k in meta["finished"]]
            return meta

        bad = tmp_path / "renamed.clwb"
        bad.write_bytes(with_meta(
            (tmp_path / "run" / "final.clwb").read_bytes(), rename))
        net, _ = load_checkpoint(bad)
        assert sorted(net.finished) == [0, 1, 5] and sorted(net.heads) == \
            [0, 1, 5] and sorted(net.isolation.embeddings) == [0, 1, 5]
        assert run_cli(command, "--config", str(cfg_path), "--checkpoint",
                       str(bad)) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint finished task 5 is not one of the config's "
            "tasks 0-2\n")
        assert not list((tmp_path / "run").glob("report_*"))

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_checkpoint_of_another_input_width_is_usage_error(
            self, synth_config_text, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(dim=4, epochs=2))
        run_cli("train", "--config", str(cfg_path))
        capsys.readouterr()
        cfg_path.write_text(synth_config_text(dim=5, epochs=2))
        assert run_cli(command, "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "final.clwb")) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint trunk has input width 4 for 5 in the config\n")
        assert not list((tmp_path / "run").glob("report_*"))


class TestCalibrateCommand:
    def test_calibrate_emits_params_and_reports(self, synth_config_text,
                                                tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg_path))
        assert run_cli("calibrate", "--config", str(cfg_path),
                       "--checkpoint", str(out / "final.clwb")) == 0
        blob = json.loads((out / "calibration.json").read_text())
        assert blob["init"] == {"alpha": 1.0, "beta": 0.0}
        assert len(blob["alpha"]) == 3
        assert blob["final_loss"] <= blob["initial_loss"] + 1e-12
        assert (out / "report_before_calibration.json").exists()
        assert (out / "report_after_calibration.json").exists()

    @pytest.mark.parametrize("buffer, counts", [
        (200, [34, 34, 33, 33, 33, 33]),
        (300, [40] * 6),
    ], ids=["remainder-to-low-classes", "short-pools"])
    def test_calibration_file_records_the_buffer_class_counts(
            self, synth_config_text, tmp_path, capsys, buffer, counts):
        # 40 training rows per class: a quota of 50 takes a class's 40
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(
            epochs=2, extra=f"[calibrate]\nbuffer = {buffer}\n"))
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg_path))
        assert run_cli("calibrate", "--config", str(cfg_path),
                       "--checkpoint", str(out / "final.clwb")) == 0
        blob = json.loads((out / "calibration.json").read_text())
        assert blob["buffer_class_counts"] == counts

    def test_calibrated_eval_reproduces_the_calibrate_report(
            self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg_path))
        run_cli("calibrate", "--config", str(cfg_path),
                "--checkpoint", str(out / "final.clwb"))
        assert run_cli("eval", "--config", str(cfg_path),
                       "--checkpoint", str(out / "final.clwb"),
                       "--route", "calibrated",
                       "--calibration", str(out / "calibration.json")) == 0
        assert (out / "report_msp_calibrated.json").read_bytes() == \
            (out / "report_after_calibration.json").read_bytes()

    @staticmethod
    def trained_eval(synth_config_text, tmp_path, blob, *route):
        """Exit code of a calibrated eval of a fresh 3-task run with the
        calibration file text ``blob``."""
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        calib = tmp_path / "calib.json"
        if blob is not None:
            calib.write_text(blob)
        return run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "final.clwb"), *route,
                       "--calibration", str(calib))

    @pytest.mark.parametrize("blob", ['{"alpha": [1.0]}', "alpha 1 beta 0",
                                      '[1, 2]', '{"alpha": [1.0, "x"], '
                                      '"beta": [0.0, 0.0]}', None])
    def test_bad_calibration_file_is_usage_error(self, synth_config_text,
                                                 tmp_path, capsys, blob):
        assert self.trained_eval(synth_config_text, tmp_path, blob,
                                 "--route", "calibrated") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: calibration file ")
        assert str(tmp_path / "calib.json") in err

    def test_calibration_of_another_task_count_is_usage_error(
            self, synth_config_text, tmp_path, capsys, monkeypatch):
        scored = []
        monkeypatch.setattr(ex, "_scorer_params",
                            lambda *args: scored.append(args))
        blob = json.dumps({"alpha": [1.0, 1.0], "beta": [0.0, 0.0]})
        assert self.trained_eval(synth_config_text, tmp_path, blob,
                                 "--route", "calibrated") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2 task" in err \
            and "3 tasks" in err
        assert scored == []
        assert not (tmp_path / "run" / "report_msp_calibrated.json").exists()

    @pytest.mark.parametrize("route", [(), ("--route", "compose")],
                             ids=["config-route", "compose"])
    def test_calibration_with_another_route_is_usage_error(
            self, synth_config_text, tmp_path, capsys, route):
        blob = json.dumps({"alpha": [1.0] * 3, "beta": [0.0] * 3})
        assert self.trained_eval(synth_config_text, tmp_path, blob,
                                 *route) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'calibrated'" in err
        assert not list((tmp_path / "run").glob("report_*.json"))

    def test_buffer_below_the_class_count_stops_train(self, synth_config_text,
                                                      tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(extra="[calibrate]\nbuffer = 1\n"))
        assert run_cli("train", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err == (
            "error: calibrate.buffer must be >= tasks.count x "
            "tasks.classes_per_task = 6, got 1\n")
        assert not (tmp_path / "run").exists()

    def test_buffer_below_the_class_count_stops_calibrate(
            self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        written = sorted((tmp_path / "run").iterdir())
        capsys.readouterr()
        cfg_path.write_text(synth_config_text(
            epochs=2, extra="[calibrate]\nbuffer = 5\n"))
        assert run_cli("calibrate", "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "final.clwb")) == 2
        assert capsys.readouterr().err == (
            "error: calibrate.buffer must be >= tasks.count x "
            "tasks.classes_per_task = 6, got 5\n")
        assert sorted((tmp_path / "run").iterdir()) == written

    def test_calibrated_route_without_parameters_is_usage_error(
            self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(epochs=2))
        run_cli("train", "--config", str(cfg_path))
        written = sorted((tmp_path / "run").iterdir())
        capsys.readouterr()
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(tmp_path / "run" / "final.clwb"),
                       "--route", "calibrated") == 2
        assert capsys.readouterr().err == (
            "error: route 'calibrated' needs calibration parameters: "
            "pass --calibration\n")
        assert sorted((tmp_path / "run").iterdir()) == written


class TestReportCommand:
    def test_merge_reports(self, synth_config_text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text())
        out = tmp_path / "run"
        run_cli("train", "--config", str(cfg_path))
        run_cli("eval", "--config", str(cfg_path),
                "--checkpoint", str(out / "final.clwb"))
        json_path = out / "report_msp_concat-argmax.json"
        merged = tmp_path / "merged.csv"
        assert run_cli("report", str(json_path), str(json_path),
                       "--out", str(merged)) == 0
        lines = merged.read_text().strip().splitlines()
        assert lines[0].startswith("backbone,loss,scorer")
        assert len(lines) == 3


    @pytest.mark.parametrize("blob", [None, '{"seed": 1', '{"seed": 1}'],
                             ids=["missing", "bad-json", "missing-fields"])
    def test_unreadable_report_is_usage_error(self, tmp_path, capsys, blob):
        path = tmp_path / "report.json"
        if blob is not None:
            path.write_text(blob)
        merged = tmp_path / "merged.csv"
        assert run_cli("report", str(path), "--out", str(merged)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report file {path}: ")
        assert len(err.strip().splitlines()) == 1
        assert not merged.exists()


class TestReportInvariants:
    def test_entropy_identity_in_report(self, synth_config_text, tmp_path):
        cfg = parse_config(synth_config_text())
        art = ex.train_run(cfg, tmp_path / "run")
        identity = cp.CalibrationParams(np.ones(3), np.zeros(3))
        for route in ("concat-argmax", "compose", "calibrated"):
            rep = ex.eval_run(cfg, art["final"], route=route,
                              calibration=identity
                              if route == "calibrated" else None)
            assert abs(rep.h_cil_mean -
                       (rep.h_wp_mean + rep.h_tp_mean)) < 1e-6


class TestRobustness:
    def test_mid_run_failure_keeps_finished_checkpoints(self, synth_config_text,
                                                        tmp_path, monkeypatch):
        from clwb import backbones as bb
        from clwb import numkit as nk
        original = bb.train_task

        def explode_on_task2(net, task, data, **kw):
            if task == 2:
                raise nk.NumericError("injected blow-up", layer=0)
            return original(net, task, data, **kw)

        monkeypatch.setattr(ex, "build_tasks", ex.build_tasks)
        monkeypatch.setattr("clwb.experiment.bb.train_task", explode_on_task2)
        cfg = parse_config(synth_config_text(tasks=3))
        out = tmp_path / "partial"
        with pytest.raises(nk.NumericError):
            ex.train_run(cfg, out)
        # checkpoints of the tasks that finished before the failure survive
        assert (out / "task1.clwb").exists()
        assert (out / "task2.clwb").exists()
        assert not (out / "final.clwb").exists()

    def test_drop_classes_ablation(self, digits_idx):
        extra = "\n"
        text = digits_config_text(digits_idx, seed=3, tasks=4,
                                  classes_per_task=2, epochs=1, extra=extra)
        text = text.replace("classes_per_task = 2",
                            "classes_per_task = 2\ndrop_classes = 0, 8")
        cfg = parse_config(text)
        seq = ex.build_tasks(cfg)
        assert seq.n_tasks == 4
        # dropped digits gone, survivors renumbered densely
        assert [c for g in seq.class_map for c in g] == list(range(8))


class TestRouteMatrix:
    @pytest.mark.parametrize("route,tp", [
        ("concat-argmax", "sigmoid-maxlogit"),
        ("compose", "sigmoid-maxlogit"),
        ("compose", "maxsoftmax-temp"),
        ("compose", "scorer"),
        ("calibrated", "sigmoid-maxlogit"),
    ])
    def test_every_route_produces_a_sane_report(self, synth_config_text,
                                                tmp_path, route, tp):
        cfg = parse_config(synth_config_text(
            extra=f"[predict]\nroute = {route}\ntp = {tp}\n"))
        art = ex.train_run(cfg, tmp_path / "run")
        rep = ex.eval_run(cfg, art["final"], calibration=cp.CalibrationParams(
            np.ones(3), np.zeros(3)) if route == "calibrated" else None)
        assert rep.route == route
        assert 0.0 <= rep.cil <= 100.0
        assert all(0.0 <= a <= 1.0 for a in rep.auc_per_task)
        assert rep.h_wp_mean >= 0 and rep.h_tp_mean >= 0
        assert abs(rep.h_cil_mean - (rep.h_wp_mean + rep.h_tp_mean)) < 1e-6


class TestAllZeroDetectorProfile:
    # every head bias lowered by 1e4: each max logit is below -709, so
    # every sigmoid(max logit) detector reads 0 on every test row
    @pytest.mark.parametrize("tp,scorer", [("sigmoid-maxlogit", "msp"),
                                           ("scorer", "maxlogit")])
    def test_every_tp_construction_falls_back_to_uniform(
            self, synth_config_text, tmp_path, capsys, tp, scorer):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(synth_config_text(
            extra=f"[ood]\nscorer = {scorer}\n[predict]\ntp = {tp}\n"))
        assert run_cli("train", "--config", str(cfg_path)) == 0
        net, meta = load_checkpoint(tmp_path / "run" / "final.clwb")
        for head in net.heads.values():
            head.bias -= 1e4
        save_checkpoint(tmp_path / "neg.clwb", net, meta["extra"])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                             str(tmp_path / "neg.clwb"), "--route", "compose",
                             "--out", str(tmp_path / "neg"))
        assert status == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "neg" / f"report_{scorer}_compose.json"
                             ).read_text())
        assert report["notes"] == {"tp_uniform_fallbacks": report["n_test"]}


class TestOdinGrid:
    def test_grid_search_selects_per_task_params(self, synth_config_text,
                                                 tmp_path):
        cfg = parse_config(synth_config_text(
            tasks=2, extra="[ood]\nscorer = odin\nodin_grid = true\n"))
        art = ex.train_run(cfg, tmp_path / "run")
        rep = ex.eval_run(cfg, art["final"])
        assert set(rep.odin_params) == {"0", "1"}
        from clwb import oodlab as ol
        for blob in rep.odin_params.values():
            assert blob["tau"] in ol.ODIN_TAU_GRID
            assert blob["eps"] in ol.ODIN_EPS_GRID
        # grid choice is deterministic: rerun and compare
        again = ex.eval_run(cfg, art["final"])
        assert again.odin_params == rep.odin_params
