import csv
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trajsel._threads import BLAS_THREAD_VARS
from trajsel.cli import _emit_table, cli
from trajsel.config import config_hash, config_text, desk_config, load_config
from trajsel.diffcore import CheckpointError, load_checkpoint, save_checkpoint
from trajsel.evaluator import LabelSet, load_labels, save_labels
from trajsel.harness import table_csv, table_text
from trajsel.planner import PlannerModel
from trajsel.scenario import load_dataset
from trajsel.vocab import VocabSpec, build_vocabulary

ROOT = Path(__file__).resolve().parents[1]

TINY_INI = """\
[generator]
vocab_n_curvature = 4
vocab_n_speed = 3
vocab_n_accel = 2

[planner]
hidden_dim = 16
coarse_layers = 1
refine_layers = 1
attn_heads = 2
ff_dim = 32
top_k = 8
batch_size = 2
epochs = 1
lr = 2e-3
ema_mode = scratch
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> labels -> train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    out = root / "run"
    base = ["--config", str(ini), "--out", str(out), "--seed", "3"]
    data = out / "data.jsonl"
    assert cli(base + ["gen", "--count", "4", "--name", "data.jsonl"]) == 0
    assert cli(base + ["labels", "--dataset", str(data)]) == 0
    assert cli(
        base + ["train", "--dataset", str(data), "--split", "train",
                "--name", "model.ckpt"]
    ) == 0
    return {
        "ini": ini,
        "out": out,
        "base": base,
        "data": data,
        "ckpt": out / "model.ckpt",
    }


def eval_args(p, extra=()):
    return p["base"] + [
        "eval", "--dataset", str(p["data"]), "--split", "train",
        "--checkpoint", str(p["ckpt"]), *extra,
    ]


class TestGen:
    def test_dataset_contents(self, pipeline):
        ds = load_dataset(pipeline["data"])
        assert len(ds.records) == 4
        assert all(r.split == "train" for r in ds.records)

    def test_reported_line_and_determinism(self, pipeline, tmp_path, capsys):
        args = ["--config", str(pipeline["ini"]), "--seed", "3",
                "gen", "--count", "4", "--name", "again.jsonl"]
        assert cli(["--out", str(tmp_path / "a"), *args]) == 0
        assert cli(["--out", str(tmp_path / "b"), *args]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all("records=4" in line for line in lines)
        assert lines[0].split("sha256=")[1] == lines[1].split("sha256=")[1]

    def test_progress_on_stderr(self, pipeline, tmp_path, capsys):
        args = ["--config", str(pipeline["ini"]), "--out", str(tmp_path), "--seed", "3"]
        assert cli(args + ["gen", "--count", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "gen 1/3  seed=3\ngen 2/3  seed=4\ngen 3/3  seed=5\n"
        data = tmp_path / "dataset.jsonl"
        assert captured.out == "%s  records=3  sha256=%s\n" % (
            data, hashlib.sha256(data.read_bytes()).hexdigest()[:16])
        assert cli(args + ["labels", "--dataset", str(data)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "label 1/3\nlabel 2/3\nlabel 3/3\n"
        sidecar = str(data) + ".labels.npz"
        with open(sidecar, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        assert captured.out == "%s  scenarios=3  sha256=%s\n" % (sidecar, sha[:16])

    def test_seed_changes_dataset(self, pipeline, tmp_path, capsys):
        args = ["--config", str(pipeline["ini"]), "--out", str(tmp_path),
                "gen", "--count", "2", "--name", "s.jsonl"]
        assert cli(["--seed", "3", *args]) == 0
        assert cli(["--seed", "4", *args]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("sha256=")[1] != lines[1].split("sha256=")[1]

    def test_experts_picked_under_config_evaluator(self, tmp_path, capsys):
        from trajsel import evaluator
        from trajsel.config import load_config

        # Progress below 100 m no longer counts, which moves most experts.
        ini = tmp_path / "other.ini"
        ini.write_text(TINY_INI + "\n[evaluator]\nep_min_ref_progress = 100.0\n")
        assert cli(["--config", str(ini), "--out", str(tmp_path), "--seed", "3",
                    "gen", "--count", "4", "--name", "other.jsonl"]) == 0
        capsys.readouterr()
        cfg = load_config(str(ini))
        vocab = build_vocabulary(cfg.generator.vocab)
        moved = 0
        for r in load_dataset(tmp_path / "other.jsonl").records:
            idx, _ = evaluator.expert_trajectory(r.scenario, vocab, cfg.evaluator)
            assert (r.scenario.expert.xy == vocab.entry(idx).xy).all()
            moved += evaluator.expert_trajectory(r.scenario, vocab)[0] != idx
        assert moved


class TestLabels:
    def test_sidecar_written(self, pipeline):
        assert os.path.exists(str(pipeline["data"]) + ".labels.npz")

    def test_relabel_is_deterministic(self, pipeline, capsys):
        assert cli(
            pipeline["base"] + ["labels", "--dataset", str(pipeline["data"])]
        ) == 0
        first = capsys.readouterr().out
        assert cli(
            pipeline["base"] + ["labels", "--dataset", str(pipeline["data"])]
        ) == 0
        assert capsys.readouterr().out == first
        assert "scenarios=4" in first


class TestTrain:
    def test_artifacts(self, pipeline):
        assert pipeline["ckpt"].exists()
        assert (pipeline["out"] / "model.ckpt.log.jsonl").exists()
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        model = PlannerModel.load(pipeline["ckpt"], vocab)
        assert model.cfg.hidden_dim == 16

    def test_log_holds_one_line_per_step(self, pipeline):
        # 4 scenes in batches of 2, one epoch
        lines = (pipeline["out"] / "model.ckpt.log.jsonl").read_text().splitlines()
        recs = [json.loads(line) for line in lines]
        assert [r["step"] for r in recs] == [1, 2]
        for r in recs:
            assert set(r) == {"step", "L_ori", "L_aug", "L_soft", "ema_m", "wall_ms"}

    def test_status_line(self, pipeline, capsys):
        assert cli(
            pipeline["base"] + ["train", "--dataset", str(pipeline["data"]),
                                "--split", "train", "--name", "again.ckpt"]
        ) == 0
        out = capsys.readouterr().out
        assert "steps=2" in out and "ok" in out and "sha256=" in out

    def test_progress_line_per_step_on_stderr(self, pipeline, capsys):
        assert cli(
            pipeline["base"] + ["train", "--dataset", str(pipeline["data"]),
                                "--split", "train", "--name", "progress.ckpt"]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        log = (pipeline["out"] / "progress.ckpt.log.jsonl").read_text().splitlines()
        assert len(lines) == len(log) == 2
        for line, rec in zip(lines, map(json.loads, log)):
            assert line == "step %d  L_ori=%.4f  wall_ms=%.1f" % (
                rec["step"], rec["L_ori"], rec["wall_ms"])
        assert "L_ori" not in captured.out


class TestReportFiles:
    HEADERS = ["k", "score", "note"]
    ROWS = [[1, 22.5, "sel"], [16, 85.0, ""], [256, 88.1, "cap"]]

    def test_emit_writes_what_it_prints(self, tmp_path, capsys):
        base = str(tmp_path / "oracle")
        text = table_text(self.HEADERS, self.ROWS)
        _emit_table(base, self.HEADERS, self.ROWS)
        assert capsys.readouterr().out == "%s\nwrote %s.txt %s.csv\n" % (text, base, base)
        assert (tmp_path / "oracle.txt").read_text() == text + "\n"
        # read_text folds the \r\n the csv module writes
        assert (tmp_path / "oracle.csv").read_text() == table_csv(
            self.HEADERS, self.ROWS).replace("\r\n", "\n")
        assert not (tmp_path / "oracle.svg").exists()


class TestEval:
    def test_report_files(self, pipeline, capsys):
        assert cli(eval_args(pipeline)) == 0
        out = capsys.readouterr().out
        assert "scenarios: 4" in out and "aggregate" in out
        assert (pipeline["out"] / "eval.txt").exists()
        rows = list(csv.reader((pipeline["out"] / "eval.csv").open()))
        assert rows[0][0] == "row" and rows[1][0] == "mean"
        assert len(rows) == 2 + 4

    def test_plots_flag(self, pipeline, capsys):
        assert cli(eval_args(pipeline, ["--plots"])) == 0
        capsys.readouterr()
        svg = (pipeline["out"] / "eval.svg").read_text()
        assert svg.startswith("<svg")

    def test_scores_on_the_checkpoint_score_version(self, pipeline, tmp_path, capsys):
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        model = PlannerModel.load(pipeline["ckpt"], vocab)
        ckpt = tmp_path / "v1.ckpt"
        replace(model, cfg=replace(model.cfg, score_version=1)).save(ckpt)
        assert cli(eval_args({**pipeline, "ckpt": ckpt})) == 0
        assert capsys.readouterr().out.startswith("scenarios: 4   scoring: v1\n")

    def test_reports_the_checkpoint_config_hash(self, tmp_path, capsys):
        # A desk checkpoint evaluated under a config that differs only in
        # the evaluator's max_jerk: the report carries the training hash.
        desk = desk_config()
        other = replace(desk, evaluator=replace(desk.evaluator, max_jerk=9.0))
        for name, cfg in (("desk.ini", desk), ("other.ini", other)):
            (tmp_path / name).write_text(config_text(cfg))
        base = ["--config", str(tmp_path / "desk.ini"), "--out", str(tmp_path),
                "--seed", "3"]
        data, ckpt = tmp_path / "dataset.jsonl", tmp_path / "model.ckpt"
        assert cli(base + ["gen", "--count", "2"]) == 0
        assert cli(base + ["train", "--dataset", str(data)]) == 0
        capsys.readouterr()
        rc = cli(["--config", str(tmp_path / "other.ini"), "--out", str(tmp_path),
                  "eval", "--dataset", str(data), "--split", "train",
                  "--checkpoint", str(ckpt)])
        assert rc == 0
        trained, run = config_hash(desk)[:12], config_hash(other)[:12]
        report = (tmp_path / "eval.txt").read_text()
        assert "config " + trained in report and run not in report
        err = capsys.readouterr().err
        assert str(ckpt) in err and trained in err and run in err


class TestConfigNote:
    @pytest.mark.parametrize("command, extra", [
        ("oracle", ["--ks", "1,2"]), ("split-eval", []), ("fov-sweep", []), ("infer", []),
    ])
    def test_checkpoint_from_another_config_is_noted(self, pipeline, tmp_path, capsys,
                                                     command, extra):
        # Like `eval` (TestEval), every command that reads a checkpoint notes
        # a config it was not trained under, on stderr, and says nothing
        # under its own config.
        ini = tmp_path / "lr.ini"
        ini.write_text(TINY_INI.replace("lr = 2e-3", "lr = 0.003"))
        args = [command, "--dataset", str(pipeline["data"]), "--split", "train",
                "--checkpoint", str(pipeline["ckpt"]), *extra]
        assert cli(["--config", str(pipeline["ini"]), "--out", str(tmp_path)] + args) == 0
        assert "note:" not in capsys.readouterr().err
        assert cli(["--config", str(ini), "--out", str(tmp_path)] + args) == 0
        trained, run = (config_hash(load_config(p))[:12] for p in (pipeline["ini"], ini))
        assert ("note: %s was trained under config %s, evaluated under config %s\n"
                % (pipeline["ckpt"], trained, run)) in capsys.readouterr().err


class TestOracle:
    def test_table(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "oracle", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(pipeline["ckpt"]), "--ks", "1,2,8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best-in-top-K" in out
        body = (pipeline["out"] / "oracle.csv").read_text()
        assert body.splitlines()[0] == "K,best-in-top-K"
        assert len(body.strip().splitlines()) == 4

    def test_bad_ks_is_usage_error(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "oracle", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(pipeline["ckpt"]), "--ks", "1,x"])
        assert rc == 1
        assert "comma list" in capsys.readouterr().err


class TestSplitEval:
    def test_bucket_rows(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "split-eval", "--dataset", str(pipeline["data"]),
            "--split", "train", "--checkpoint", str(pipeline["ckpt"])])
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.reader((pipeline["out"] / "splits.csv").open()))
        assert [r[0] for r in rows] == ["bucket", "left", "forward", "right"]
        assert sum(int(r[1]) for r in rows[1:]) == 4


class TestDistHist:
    def test_original_and_augmented_rows(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "dist-hist", "--dataset", str(pipeline["data"]),
            "--split", "train", "--bins", "6", "--plots"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "original" in out and "augmented" in out
        rows = list(csv.reader((pipeline["out"] / "dist-hist.csv").open()))
        assert rows[0][1] == "KL-to-uniform"
        assert len(rows) == 3
        assert (pipeline["out"] / "dist-hist.svg").exists()


class TestFovSweep:
    def test_with_checkpoint(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "fov-sweep", "--dataset", str(pipeline["data"]),
            "--split", "train", "--checkpoint", str(pipeline["ckpt"])])
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.reader((pipeline["out"] / "fov-sweep.csv").open()))
        assert [r[0] for r in rows[1:]] == ["1", "3", "5"]
        assert all(r[3] != "-" for r in rows[1:])

    def test_without_checkpoint(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "fov-sweep", "--dataset", str(pipeline["data"]), "--split", "train"])
        assert rc == 0
        capsys.readouterr()
        rows = list(csv.reader((pipeline["out"] / "fov-sweep.csv").open()))
        assert all(r[3] == "-" for r in rows[1:])


class TestInfer:
    def test_selects_one_entry(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "infer", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(pipeline["ckpt"]), "--index", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario 1: entry" in out and "kappa=" in out
        assert "predicted subscores:" in out

    def test_index_out_of_range(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "infer", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(pipeline["ckpt"]), "--index", "99"])
        assert rc == 1
        assert "outside the split" in capsys.readouterr().err


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert cli([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, pipeline, capsys):
        assert cli(pipeline["base"] + ["labels"]) == 1
        assert "--dataset" in capsys.readouterr().err

    def test_missing_checkpoint_is_runtime_error(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "eval", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(pipeline["out"] / "nope.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not found" in err

    def test_missing_dataset_is_runtime_error(self, pipeline, capsys):
        rc = cli(pipeline["base"] + ["labels", "--dataset", "absent.jsonl"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("gen", "--count", "0"),
        ("dist-hist", "--bins", "0"),
        ("dist-hist", "--copies", "-2"),
        ("oracle", "--ks", "4,0"),
        ("oracle", "--ks", "25"),  # the tiny grid has 24 entries
    ])
    def test_out_of_bounds_flag_is_usage_error(self, pipeline, command, flag, value, capsys):
        inputs = {
            "gen": [],
            "dist-hist": ["--dataset", str(pipeline["data"]), "--split", "train"],
            "oracle": ["--dataset", str(pipeline["data"]), "--split", "train",
                       "--checkpoint", str(pipeline["ckpt"])],
        }
        assert cli(pipeline["base"] + [command, *inputs[command], flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not (pipeline["out"] / "dataset.jsonl").exists()

    @pytest.mark.parametrize("text, why", [
        ("junk", "File contains no section headers"),
        ("[planner]\nhidden_dim = abc\n", "bad value for hidden_dim"),
        ("[planer]\n", "unknown section [planer]"),
        ("[inference]\nversion = 1\n", "unknown section [inference]"),
        ("[evaluator]\naverage_v2 = ep:5, tttc:5\n", "unknown metrics ['tttc']"),
        ("[evaluator]\naverage_v2 =\n", "v2 average weights must sum to a positive"),
        ("[planner]\nfov = 4.0\n", "fov must lie in (0, pi]"),
    ])
    def test_bad_config_names_file(self, tmp_path, capsys, text, why):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        rc = cli(["--config", str(ini), "--out", str(tmp_path), "gen", "--count", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % ini) and why in err
        assert "<string>" not in err
        assert not (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize("old, new, why", [
        ("coarse_layers = 1", "coarse_layers = 0", "coarse_layers must be >= 1"),
        ("epochs = 1", "epochs = 0", "epochs must be >= 1"),
        ("hidden_dim = 16", "hidden_dim = 0", "hidden_dim must be >= 1"),
        ("batch_size = 2", "batch_size = 0", "batch_size must be >= 1"),
        ("lr = 2e-3", "lr = 0", "lr must be positive and finite"),
        ("ema_mode = scratch", "ema_mode = scratch\ntheta = 4", "theta must lie in [0, pi]"),
    ])
    def test_train_refuses_settings_that_cannot_train(self, pipeline, tmp_path, capsys,
                                                     old, new, why):
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace(old, new))
        rc = cli(["--config", str(ini), "--out", str(tmp_path), "train",
                  "--dataset", str(pipeline["data"]), "--name", "model.ckpt"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: invalid [planner] settings: " % ini) and why in err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("line", [
        "single_stage = true", "coarse_self_attn = false", "refine_self_attn = true"])
    def test_train_refuses_removed_architecture_keys(self, pipeline, tmp_path, capsys, line):
        # A single stage is refine_layers = 0; self-attention is not a setting.
        ini = tmp_path / "old.ini"
        ini.write_text(TINY_INI + line + "\n")
        rc = cli(["--config", str(ini), "--out", str(tmp_path), "train",
                  "--dataset", str(pipeline["data"]), "--name", "model.ckpt"])
        assert rc == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == "error: %s: unknown key %s in [planner]\n" % (ini, key)
        assert not (tmp_path / "model.ckpt").exists()

    def test_labels_on_a_dataset_without_records_names_it(self, pipeline, tmp_path, capsys):
        data = tmp_path / "header-only.jsonl"
        data.write_text(pipeline["data"].read_text().splitlines()[0] + "\n")
        assert cli(pipeline["base"] + ["labels", "--dataset", str(data)]) == 2
        assert capsys.readouterr().err == "error: %s holds no records to label\n" % data
        assert not (tmp_path / "header-only.jsonl.labels.npz").exists()

    def test_checkpoint_with_fov_out_of_range_names_file(self, pipeline, tmp_path, capsys):
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        model = PlannerModel.load(pipeline["ckpt"], vocab)
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(ckpt, model.student, model.teacher, step=0, config_hash="", extra={
            "planner_config": {**dataclasses.asdict(model.cfg), "fov": 4.0},
            "vocab_spec": dataclasses.asdict(vocab.spec), "vocab_digest": vocab.digest})
        with pytest.raises(CheckpointError, match=r"wide\.ckpt: invalid planner_config: fov"):
            PlannerModel.load(ckpt, vocab)
        assert cli(eval_args({**pipeline, "ckpt": ckpt})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: invalid planner_config: fov" % ckpt)

    def test_ks_bounded_by_the_entries_not_the_cells(self, tmp_path, capsys):
        # configs/desk.ini's grid has 512 cells and 384 entries
        rc = cli(["--config", str(ROOT / "configs" / "desk.ini"), "--out", str(tmp_path),
                  "oracle", "--dataset", str(tmp_path / "absent.jsonl"),
                  "--checkpoint", str(tmp_path / "absent.ckpt"), "--ks", "4,400"])
        assert rc == 1
        assert "--ks: K=400 outside [1, 384]" in capsys.readouterr().err

    def test_empty_split_is_usage_error(self, pipeline, capsys):
        rc = cli(pipeline["base"] + [
            "eval", "--dataset", str(pipeline["data"]), "--split", "val",
            "--checkpoint", str(pipeline["ckpt"])])
        assert rc == 1
        assert "no records" in capsys.readouterr().err

    def test_checkpoint_for_another_vocabulary(self, pipeline, tmp_path, capsys):
        # the default config's 8192-cell grid, not the tiny one trained on
        rc = cli(["--out", str(tmp_path), "infer", "--dataset", str(pipeline["data"]),
                  "--split", "train", "--checkpoint", str(pipeline["ckpt"])])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(pipeline["ckpt"]) in captured.err
        assert "'n_curvature': 4" in captured.err
        assert "'n_curvature': 64" in captured.err

    @pytest.mark.parametrize("command", [["labels"], ["fov-sweep", "--split", "train"]])
    def test_dataset_for_another_vocabulary(self, pipeline, tmp_path, capsys, command):
        # generated on the tiny grid, read under the default config's 8192-cell one
        data = tmp_path / "data.jsonl"
        shutil.copy(pipeline["data"], data)
        rc = cli(["--out", str(tmp_path), command[0], "--dataset", str(data),
                  *command[1:]])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s was generated for vocabulary" % data)
        assert "'n_curvature': 4" in captured.err
        assert "'n_curvature': 64" in captured.err
        assert not (tmp_path / "data.jsonl.labels.npz").exists()

    def test_bad_planner_config_names_file(self, pipeline, tmp_path, capsys):
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        model = PlannerModel.load(pipeline["ckpt"], vocab)
        ckpt = tmp_path / "bogus.ckpt"
        save_checkpoint(ckpt, model.student, model.teacher, step=0, config_hash="", extra={
            "planner_config": {**dataclasses.asdict(model.cfg), "bogus": 1},
            "vocab_spec": dataclasses.asdict(vocab.spec), "vocab_digest": vocab.digest})
        rc = cli(pipeline["base"] + [
            "infer", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and str(ckpt) in captured.err
        assert "bogus" in captured.err

    def test_checkpoint_for_another_digest_names_file(self, pipeline, tmp_path, capsys):
        # same grid spec, but entries built another way than this vocabulary's
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        model = PlannerModel.load(pipeline["ckpt"], vocab)
        ckpt = tmp_path / "stale.ckpt"
        save_checkpoint(ckpt, model.student, model.teacher, step=0, config_hash="", extra={
            "planner_config": dataclasses.asdict(model.cfg),
            "vocab_spec": dataclasses.asdict(vocab.spec), "vocab_digest": "0" * 64})
        rc = cli(pipeline["base"] + [
            "infer", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(ckpt)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s was saved for vocabulary" % ckpt)
        assert vocab.digest[:12] in captured.err

    def test_truncated_checkpoint_names_file(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(pipeline["ckpt"].read_bytes()[:-100])
        rc = cli(pipeline["base"] + [
            "infer", "--dataset", str(pipeline["data"]), "--split", "train",
            "--checkpoint", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(ckpt) in err and "100 missing" in err

    @staticmethod
    def _strip_teacher(src, dst):
        """Copy checkpoint `src` to `dst` without its teacher section: the
        header loses the section and the file its blobs."""
        blob = src.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        params, teacher = header["sections"]
        header["sections"] = [params]
        teacher_bytes = sum(8 * r * c for r, c in teacher["shapes"].values())
        hb = json.dumps(header, sort_keys=True).encode("utf-8")
        dst.write_bytes(blob[:4] + struct.pack("<II", 1, len(hb)) + hb
                        + blob[12 + hlen : len(blob) - teacher_bytes])

    def test_load_checkpoint_refuses_a_missing_teacher(self, pipeline, tmp_path):
        ckpt = tmp_path / "student-only.ckpt"
        self._strip_teacher(pipeline["ckpt"], ckpt)
        with pytest.raises(CheckpointError, match=r"student-only\.ckpt: sections"):
            load_checkpoint(ckpt)

    def test_checkpoint_without_teacher_names_file(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "student-only.ckpt"
        self._strip_teacher(pipeline["ckpt"], ckpt)
        assert cli(eval_args({**pipeline, "ckpt": ckpt})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: sections ['params']" % ckpt)

    def test_cell_that_is_not_a_quadrilateral_names_file(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        lines = pipeline["data"].read_text().splitlines()
        rec = json.loads(lines[1])
        del rec["scenario"]["drivable"][0][3]
        lines[1] = json.dumps(rec, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        assert cli(pipeline["base"] + ["labels", "--dataset", str(data)]) == 2
        assert capsys.readouterr().err == (
            "error: %s line 2: drivable cell 0 has 3 vertices, "
            "not the 4 of a quadrilateral\n" % data)

    def test_expert_without_headings_names_file_and_line(self, pipeline, tmp_path,
                                                         capsys):
        data = tmp_path / "data.jsonl"
        lines = pipeline["data"].read_text().splitlines()
        rec = json.loads(lines[1])
        rec["scenario"]["expert"]["headings"] = None
        lines[1] = json.dumps(rec, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        rc = cli(pipeline["base"] + ["labels", "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "%s line 2: 'headings' is not a list: None" % data in err

    def test_dataset_header_missing_a_setting_names_file_and_line(self, pipeline, tmp_path,
                                                                  capsys):
        data = tmp_path / "data.jsonl"
        lines = pipeline["data"].read_text().splitlines()
        header = json.loads(lines[0])
        del header["gen_config"]["turn_fraction"]
        lines[0] = json.dumps(header, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        rc = cli(pipeline["base"] + ["labels", "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "%s line 1: missing gen_config key turn_fraction" % data in err

    def test_malformed_dataset_line_names_file_and_line(self, pipeline, tmp_path,
                                                       capsys):
        data = tmp_path / "data.jsonl"
        lines = pipeline["data"].read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        data.write_text("\n".join(lines) + "\n")
        rc = cli(pipeline["base"] + ["labels", "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "%s line 3:" % data in err

    def test_non_number_in_dataset_names_file_and_line(self, pipeline, tmp_path,
                                                        capsys):
        data = tmp_path / "data.jsonl"
        lines = pipeline["data"].read_text().splitlines()
        rec = json.loads(lines[1])
        rec["scenario"]["ego_speed"] = "fast"
        lines[1] = json.dumps(rec, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        rc = cli(pipeline["base"] + ["train", "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "%s line 2: 'ego_speed' is not a number" % data in err

    def test_empty_dataset_names_file(self, pipeline, tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_bytes(b"")
        rc = cli(pipeline["base"] + ["labels", "--dataset", str(data)])
        assert rc == 2
        assert "error: %s: empty dataset file" % data in capsys.readouterr().err

    def test_non_utf8_dataset_names_file_and_line(self, pipeline, tmp_path, capsys):
        blob = bytearray(pipeline["data"].read_bytes())
        blob[blob.index(b"\n") + 300] ^= 0x80
        data = tmp_path / "data.jsonl"
        data.write_bytes(bytes(blob))
        rc = cli(pipeline["base"] + ["labels", "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "%s line 2: 'utf-8' codec can't decode" % data in err

    def test_unknown_split_in_dataset_names_file_and_line(self, pipeline, tmp_path,
                                                           capsys):
        data = tmp_path / "data.jsonl"
        lines = pipeline["data"].read_text().splitlines()
        rec = json.loads(lines[2])
        rec["split"] = "val"
        lines[2] = json.dumps(rec, sort_keys=True)
        data.write_text("\n".join(lines) + "\n")
        rc = cli(pipeline["base"] + ["labels", "--dataset", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "%s line 3: split 'val' is neither 'train' nor 'test'" % data in err

    def test_gen_split_outside_train_test_is_usage_error(self, tmp_path, capsys):
        rc = cli(["--out", str(tmp_path), "gen", "--count", "1", "--split", "val"])
        assert rc == 1
        assert "--split" in capsys.readouterr().err
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_bad_config_path(self, tmp_path, capsys):
        rc = cli(["--config", str(tmp_path / "no.ini"), "--out", str(tmp_path),
                  "gen", "--count", "1"])
        assert rc == 2
        capsys.readouterr()


class TestLabelCache:
    def test_stale_cache_noted_and_ignored(self, pipeline, tmp_path, capsys):
        other = tmp_path / "other.ini"
        other.write_text(TINY_INI + "\n[evaluator]\nmax_jerk = 9.0\n")
        rc = cli(["--config", str(other), "--out", str(tmp_path),
                  "eval", "--dataset", str(pipeline["data"]),
                  "--split", "train", "--checkpoint", str(pipeline["ckpt"])])
        assert rc == 0
        err = capsys.readouterr().err
        assert "stale label cache" in err and "config_digest mismatch" in err
        assert str(pipeline["data"]) + ".labels.npz" in err


    def test_sidecar_with_a_row_per_cell_is_relabelled(self, pipeline, tmp_path, capsys):
        # A sidecar with more rows than the vocabulary has entries, as one
        # written with a row per grid cell would have, under the current digest.
        data = tmp_path / "data.jsonl"
        shutil.copy(pipeline["data"], data)
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        eval_cfg = load_config(pipeline["ini"]).evaluator
        labels = load_labels(str(pipeline["data"]) + ".labels.npz",
                             dataset_sha=load_dataset(pipeline["data"]).sha256,
                             vocabulary=vocab, cfg=eval_cfg)
        padded = [LabelSet(**{f.name: np.concatenate([getattr(ls, f.name)] * 2)
                              for f in dataclasses.fields(ls)}) for ls in labels]
        save_labels(str(data) + ".labels.npz", padded,
                    dataset_sha=load_dataset(data).sha256, vocabulary=vocab, cfg=eval_cfg)

        def eval_csv(out):
            rc = cli(["--config", str(pipeline["ini"]), "--out", str(out), "eval",
                      "--dataset", str(data), "--split", "train",
                      "--checkpoint", str(pipeline["ckpt"])])
            assert rc == 0
            return (out / "eval.csv").read_text(), capsys.readouterr().err

        relabelled, err = eval_csv(tmp_path / "padded")
        assert "stale label cache (%s.labels.npz: subscores of shape (4, 48, 10)" % data in err
        os.remove(str(data) + ".labels.npz")
        unlabelled, err = eval_csv(tmp_path / "none")
        assert "stale" not in err
        assert relabelled == unlabelled

    def test_sidecar_with_fewer_scenes_than_records_is_relabelled(self, pipeline, tmp_path,
                                                                  capsys):
        # A sidecar under the dataset's own digest that holds 2 of its 4 scenes.
        data = tmp_path / "data.jsonl"
        shutil.copy(pipeline["data"], data)
        vocab = build_vocabulary(VocabSpec(n_curvature=4, n_speed=3, n_accel=2))
        eval_cfg = load_config(pipeline["ini"]).evaluator
        sha = load_dataset(data).sha256
        labels = load_labels(str(pipeline["data"]) + ".labels.npz", dataset_sha=sha,
                             vocabulary=vocab, cfg=eval_cfg)
        save_labels(str(data) + ".labels.npz", labels[:2], dataset_sha=sha,
                    vocabulary=vocab, cfg=eval_cfg)

        def dist_hist(out):
            rc = cli(["--config", str(pipeline["ini"]), "--out", str(out), "dist-hist",
                      "--dataset", str(data), "--split", "train"])
            assert rc == 0
            return (out / "dist-hist.csv").read_text(), capsys.readouterr().err

        short, err = dist_hist(tmp_path / "short")
        assert "stale label cache (%s.labels.npz holds 2 scenes, %s has 4 records)" \
            % (data, data) in err
        os.remove(str(data) + ".labels.npz")
        unlabelled, err = dist_hist(tmp_path / "none")
        assert "stale" not in err
        assert short == unlabelled

    def test_truncated_sidecar_is_relabelled(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        shutil.copy(pipeline["data"], data)

        def eval_csv(out):
            rc = cli(["--config", str(pipeline["ini"]), "--out", str(out), "eval",
                      "--dataset", str(data), "--split", "train",
                      "--checkpoint", str(pipeline["ckpt"])])
            assert rc == 0
            return (out / "eval.csv").read_text(), capsys.readouterr().err

        unlabelled, err = eval_csv(tmp_path / "none")
        assert "stale" not in err
        sidecar = str(pipeline["data"]) + ".labels.npz"
        with open(sidecar, "rb") as fh:
            blob = fh.read()
        # The first central-directory entry's general-purpose flags follow
        # its signature by 8 bytes; bit 0 marks the entry as encrypted.
        encrypted = bytearray(blob)
        encrypted[blob.index(b"PK\x01\x02") + 8] |= 1
        for name, damaged in (("cut", blob[: len(blob) // 2]),
                              ("encrypted", bytes(encrypted))):
            with open(str(data) + ".labels.npz", "wb") as fh:
                fh.write(damaged)
            relabelled, err = eval_csv(tmp_path / name)
            assert "stale label cache" in err and "unreadable" in err, name
            assert relabelled == unlabelled, name


class TestLabelOnce:
    """Scoring commands label a split once, under the run's evaluator config."""

    def test_fov_sweep_labels_each_scene_once(self, pipeline, tmp_path,
                                              monkeypatch, capsys):
        from trajsel import evaluator

        data = tmp_path / "data.jsonl"  # a copy without a label sidecar
        shutil.copy(pipeline["data"], data)
        calls = []
        real = evaluator.label_vocabulary

        def counting(s, *a, **kw):
            calls.append(s)
            return real(s, *a, **kw)

        monkeypatch.setattr(evaluator, "label_vocabulary", counting)
        rc = cli(["--config", str(pipeline["ini"]), "--out", str(tmp_path),
                  "fov-sweep", "--dataset", str(data), "--split", "train",
                  "--checkpoint", str(pipeline["ckpt"])])
        assert rc == 0
        capsys.readouterr()
        assert len(calls) == len(load_dataset(str(data)).records) == 4

    def test_stale_sidecar_scores_under_run_config(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        shutil.copy(pipeline["data"], data)
        shutil.copy(str(pipeline["data"]) + ".labels.npz",
                    str(data) + ".labels.npz")
        # Zero progress weight makes the aggregate depend on the config.
        other = tmp_path / "other.ini"
        other.write_text(TINY_INI + "\n[evaluator]\n"
                         "average_v2 = ep:0.0, ttc:5.0, lk:2.0, hc:1.0, ec:1.0\n")

        def eval_csv(ini, out):
            rc = cli(["--config", str(ini), "--out", str(out), "eval",
                      "--dataset", str(data), "--split", "train",
                      "--checkpoint", str(pipeline["ckpt"])])
            assert rc == 0
            return (out / "eval.csv").read_text(), capsys.readouterr().err

        default, err = eval_csv(pipeline["ini"], tmp_path / "default")
        assert "stale" not in err
        stale, err = eval_csv(other, tmp_path / "stale")
        assert "stale label cache" in err
        assert cli(["--config", str(other), "--out", str(tmp_path),
                    "labels", "--dataset", str(data)]) == 0
        capsys.readouterr()
        fresh, err = eval_csv(other, tmp_path / "fresh")
        assert "stale" not in err
        assert stale == fresh
        assert stale != default


class TestThreadCap:
    def test_bad_value_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SUPRIM_THREADS", "two")
        assert cli(["gen", "--count", "0"]) == 1
        assert "SUPRIM_THREADS" in capsys.readouterr().err

    def test_cap_exports_thread_vars(self, pipeline, monkeypatch, tmp_path, capsys):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("SUPRIM_THREADS", "2")
        rc = cli(["--config", str(pipeline["ini"]), "--out", str(tmp_path),
                  "gen", "--count", "1"])
        assert rc == 0
        capsys.readouterr()
        assert os.environ["OMP_NUM_THREADS"] == "2"

    @pytest.mark.skipif((os.cpu_count() or 1) < 2 or not os.path.exists("/proc/self/status"),
                        reason="needs two or more CPUs and /proc/self/status")
    def test_cap_reaches_blas_threads(self):
        # Importing trajsel, or the console script's module trajsel.cli,
        # first must cap the pools numpy's BLAS starts.
        def threads(module, **extra):
            probe = ("import %s, numpy as np\n"
                     "a = np.ones((300, 300)); a @ a\n"
                     "print(next(l.split()[1] for l in open('/proc/self/status')"
                     " if l.startswith('Threads:')))" % module)
            env = {k: v for k, v in os.environ.items()
                   if k not in BLAS_THREAD_VARS + ("SUPRIM_THREADS",)}
            env.update(extra)
            out = subprocess.run([sys.executable, "-c", probe], env=env,
                                 capture_output=True, text=True, check=True)
            return int(out.stdout)

        if threads("trajsel") < 2:
            pytest.skip("numpy's BLAS runs one thread here")
        for module in ("trajsel", "trajsel.cli"):
            assert threads(module, SUPRIM_THREADS="1") == 1, module


def _declared_script(name):
    """The `module:attr` target that pyproject.toml's [project.scripts] gives `name`."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: no tomllib
        return _scripts_line(text, name)
    return tomllib.loads(text)["project"]["scripts"][name]


def _scripts_line(text, name):
    """Read `name = "module:attr"` from the [project.scripts] table line by line."""
    table = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            key, eq, value = line.partition("=")
            if eq and key.strip() == name:
                return value.strip().strip("\"'")
    raise KeyError("%s not in [project.scripts]" % name)


def _check_help(argv, cwd, env=None):
    out = subprocess.run(argv + ["--help"], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "gen" in out.stdout and "fov-sweep" in out.stdout


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        # Start the declared target as the installed wrapper does, so the
        # check runs without an install; an installed script is run as well.
        module, attr = _declared_script("trajsel").split(":")
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        code = ("import sys; from %s import %s; sys.argv[0] = 'trajsel'; "
                "sys.exit(%s())" % (module, attr, attr))
        _check_help([sys.executable, "-c", code], tmp_path, env)
        exe = shutil.which("trajsel")
        if exe:
            _check_help([exe], tmp_path)

    def test_scripts_line_reads_what_tomllib_reads(self):
        tomllib = pytest.importorskip("tomllib")
        text = (ROOT / "pyproject.toml").read_text()
        assert _scripts_line(text, "trajsel") == tomllib.loads(text)["project"]["scripts"]["trajsel"]
