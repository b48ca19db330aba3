"""CLI subcommands, overrides, exit codes."""

import csv
import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamhash
from streamhash import cli, data, experiment, trainer
from streamhash.errors import NumericError
from streamhash.experiment import OUTPUT_DIR_ENV

from oracles import load_dense_both_ways


def write_config(tmp_path, **overrides):
    raw = {
        "dataset": {"kind": "synth", "num_classes": 3, "dim": 8,
                    "per_class": 60, "spread": 0.3, "seed": 7},
        "split": {"test_per_class": 10, "train_size": 120, "seed": 0},
        "bits": 12,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "scale_p": 1.0, "scale_n": 1.0,
                  "batch_size": 20, "inner_iters": 3},
        "eval": {"cutoff": 50, "r_max": 20, "every_n_stages": 100},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestTrainCommand:
    def test_train_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.txt").exists()
        assert (out / "curve.csv").exists()
        assert "final map=" in capsys.readouterr().out

    def test_identical_config_byte_identical_curve(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "a")])
        cli.main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()
        # every file, stages.csv included
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "stages.csv" in names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_set_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["train", "--config", str(cfg),
                         "--set", "bits=8", "--set", "train.inner_iters=1",
                         "--output-dir", str(tmp_path / "o")])
        assert code == 0
        header = (tmp_path / "o/checkpoint.txt").read_text().splitlines()[0]
        assert header == "8 8"

    @pytest.mark.parametrize("sets, key, value", [
        (["bits=8", "bits=9"], "bits", 9),
        (['train={"sigma": 0.5}', "train.mu=2.0", 'train={"sigma": 0.5}'], "mu", 1.0),
        (["train.mu=2.0", 'train={"sigma": 0.5}', "train.mu=3.0"], "mu", 3.0),
    ])
    def test_set_flags_apply_in_order_and_the_last_wins(self, tmp_path, sets, key, value):
        argv = ["train", "--config", str(write_config(tmp_path))]
        cfg = cli._load_config(cli.build_parser().parse_args(
            argv + [f"--set={s}" for s in sets]))
        loaded = cfg.bits if key == "bits" else cfg.train.gaussian.mu
        assert loaded == value and type(loaded) is type(value)

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "env_out/curve.csv").exists()


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", str(cfg)])
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "out/checkpoint.txt"),
                         "--config", str(cfg), "--output-dir", str(tmp_path / "ev")])
        assert code == 0
        out = capsys.readouterr().out
        assert "trained:" in out and "lsh_baseline:" in out
        rows = (tmp_path / "ev/report.csv").read_text().splitlines()
        assert any("lsh_baseline" in r for r in rows)

    def test_eval_twice_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", str(cfg)])
        ckpt = str(tmp_path / "out/checkpoint.txt")
        cli.main(["eval", "--checkpoint", ckpt, "--config", str(cfg),
                  "--output-dir", str(tmp_path / "e1")])
        cli.main(["eval", "--checkpoint", ckpt, "--config", str(cfg),
                  "--output-dir", str(tmp_path / "e2")])
        assert (tmp_path / "e1/report.json").read_bytes() == (tmp_path / "e2/report.json").read_bytes()


class TestSweepCommand:
    def test_sweep_csv_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"learning_rate": [0.05, 0.1]})
        code = cli.main(["sweep", "--config", str(cfg), "--output-dir", str(tmp_path / "sw")])
        assert code == 0
        lines = (tmp_path / "sw/sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "best cell" in capsys.readouterr().out


class TestUnseenCommand:
    def test_unseen_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, unseen={"test_per_class": 10, "bits": 16},
                           dataset={"kind": "synth", "num_classes": 4, "dim": 8,
                                    "per_class": 60, "spread": 0.3, "seed": 7})
        code = cli.main(["unseen", "--config", str(cfg), "--output-dir", str(tmp_path / "u")])
        assert code == 0
        out = capsys.readouterr().out
        assert "seen labels" in out and "unseen labels" in out
        assert (tmp_path / "u/unseen_report.csv").exists()


class TestSynthAndSplitCommands:
    def test_synth_roundtrip(self, tmp_path):
        out = tmp_path / "blobs.txt"
        code = cli.main(["synth", "--num-classes", "3", "--dim", "4", "--per-class", "5",
                         "--spread", "0.2", "--seed", "1", "--out", str(out)])
        assert code == 0
        X, y = load_dense_both_ways(out)
        assert X.shape == (4, 15)
        expected_X, expected_y = data.synth_blobs(3, 4, 5, 0.2, seed=1)
        assert (X == expected_X).all() and (y == expected_y).all()

    def test_split_files(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["split", "--config", str(cfg), "--output-dir", str(tmp_path / "sp")])
        assert code == 0
        for name, size in [("train", 120), ("retrieval", 150), ("test", 30)]:
            X, y = load_dense_both_ways(tmp_path / "sp" / f"{name}.txt")
            assert y.shape[0] == size

    def test_split_failing_on_its_third_part_leaves_no_test_file(self, tmp_path, monkeypatch,
                                                                  capsys):
        cfg = write_config(tmp_path)
        real, parts = data.write_rows, []

        def third_part_fails(write, rows):
            parts.append(rows.shape)
            if len(parts) == 3:
                write(data._format_rows(rows[:1]))  # a first chunk, then the disk is full
                raise OSError("disk full")
            real(write, rows)

        monkeypatch.setattr(data, "write_rows", third_part_fails)
        code = cli.main(["split", "--config", str(cfg), "--output-dir", str(tmp_path / "sp")])
        assert code == 2 and "disk full" in capsys.readouterr().err
        assert parts == [(120, 8), (150, 8), (30, 8)]
        assert sorted(os.listdir(tmp_path / "sp")) == [
            f"{name}.txt{tail}" for name in ("retrieval", "train") for tail in ("", data.SIDECAR)]
        for name, size in [("train", 120), ("retrieval", 150)]:
            assert load_dense_both_ways(tmp_path / "sp" / f"{name}.txt")[1].shape == (size,)


class TestExitCodes:
    def test_invalid_config_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_unknown_key_is_2(self, tmp_path):
        cfg = write_config(tmp_path, bogus=1)
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_split_error_is_3(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg),
                         "--set", "split.test_per_class=1000"]) == 3

    def test_stream_without_a_stage_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--set", "split.train_size=1"]) == 3
        assert "1 training instances make no stage" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_with_a_bad_grid_value_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg),
                         "--set", 'sweep={"learning_rate": [-1, 0]}']) == 2
        assert capsys.readouterr().err == (
            "error (ConfigError): sweep.learning_rate must be above 0, got -1\n")
        assert not (tmp_path / "out").exists()

    def test_sweep_over_a_missing_dataset_is_2(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"sigma": [0.35]},
                           dataset={"kind": "dense", "path": str(tmp_path / "missing.txt")})
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    def test_sweep_without_an_ok_cell_exits_with_the_first_failure(self, tmp_path, capsys):
        # 2-instance batches of 12 classes: raw P meets a batch with no similar pair
        cfg = write_config(tmp_path, sweep={"p_variant": ["raw"]})
        code = cli.main(["sweep", "--config", str(cfg), "--set", "dataset.num_classes=12",
                         "--set", "train.batch_size=2"])
        assert code == 3
        assert "all 1 sweep cells failed; cell 0: off-diagonal mass is zero" in (
            capsys.readouterr().err)
        assert (tmp_path / "out/sweep.csv").read_text().splitlines()[1].startswith("0,raw,failed,")

    # configs/blobs.json: 2000 retrieval instances, 550 in the held-out protocol
    @pytest.mark.parametrize("command, r_max, n", [
        ("train", 100000, 2000), ("sweep", 100000, 2000), ("unseen", 600, 550)])
    def test_r_max_beyond_the_database_is_3_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                             command, r_max, n):
        def refuse(*args):
            raise AssertionError("a stage ran although eval.r_max is out of range")

        monkeypatch.setattr(trainer, "train_stage", refuse)
        config = Path(__file__).resolve().parents[1] / "configs" / "blobs.json"
        assert cli.main([command, "--config", str(config), "--output-dir", str(tmp_path / "out"),
                         "--set", f"eval.r_max={r_max}"]) == 3
        message = f"r_max={r_max} is outside 1..{n}, the database size"
        assert message in capsys.readouterr().err
        if command == "sweep":  # every cell fails alike and is recorded
            with open(tmp_path / "out" / "sweep.csv") as f:
                rows = list(csv.DictReader(f))
            assert [(r["status"], r["error"]) for r in rows] == [("failed", message)] * 4

    def test_label_outside_int64_is_2(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text("3 4\n" + "0.5 1.5 2.5\n" * 4 + f"0 1 2 {2**70}\n")
        cfg = write_config(tmp_path, dataset={"kind": "dense", "path": str(path)})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert f"{path}: line 6:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_wrong_type_override_is_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--set", 'bits="abc"']) == 2
        assert not (tmp_path / "out").exists()

    def test_wrong_type_train_override_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg),
                         "--set", 'train.learning_rate="abc"']) == 2
        assert "train.learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, name", [
        ("unseen.bits=abc", "unseen.bits"),
        ("unseen.seen_fraction=x", "unseen.seen_fraction"),
        ("dataset=3", "dataset"),
        ("split=3", "split"),
        ("sweep=3", "sweep"),
        ("eval.cutoff=1.5", "eval.cutoff"),
        ('sweep={"sigma": 0.5}', "sweep.sigma"),
        ('sweep={"sigma": []}', "sweep.sigma"),
    ])
    @pytest.mark.parametrize("command", ["train", "sweep", "unseen"])
    def test_bad_override_names_its_key(self, tmp_path, capsys, command, override, name):
        cfg = write_config(tmp_path)
        assert cli.main([command, "--config", str(cfg), "--set", override]) == 2
        assert f"error (ConfigError): {name} " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", ["train.learning_rate=NaN", "train.sigma=Infinity",
                                          "init_scale=NaN"])
    def test_non_finite_number_is_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--set", override]) == 2
        name = override.split("=")[0]
        assert f"error (ConfigError): {name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, override", [("[1]", "bits=8"), ("3", "train.seed=1")])
    def test_override_on_a_config_that_is_not_an_object_is_2(self, tmp_path, text, override):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["train", "--config", str(path), "--set", override]) == 2

    def test_unreadable_dataset_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset={"kind": "dense", "path": str(tmp_path)})
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_invalid_config_leaves_no_outputs(self, tmp_path):
        cfg = write_config(tmp_path, bits=-1)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bits", [0, -3])
    @pytest.mark.parametrize("command", ["train", "sweep", "unseen", "split"])
    def test_unseen_bits_below_1_is_2_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                      command, bits):
        # checked with bits, for every command, as the config loads
        def refuse(spec):
            raise AssertionError("the dataset loaded although the config is invalid")

        monkeypatch.setattr(experiment, "load_dataset", refuse)
        cfg = write_config(tmp_path, sweep={"sigma": [0.35]})
        assert cli.main([command, "--config", str(cfg), "--set", f"unseen.bits={bits}"]) == 2
        assert capsys.readouterr().err == (
            f"error (ConfigError): unseen.bits must be at least 1, got {bits}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, message", [
        ("bits=0", "bits must be at least 1, got 0"),
        ("unseen.bits=0", "unseen.bits must be at least 1, got 0"),
        ("epochs=0", "epochs must be at least 1, got 0"),
        ("init_scale=-0.5", "init_scale must be above 0, got -0.5"),
        ("init_scale=0", "init_scale must be above 0, got 0"),
        ("eval.cutoff=0", "eval.cutoff must be at least 1, got 0"),
        ("eval.r_max=0", "eval.r_max must be at least 1, got 0"),
        ("eval.every_n_stages=0", "eval.every_n_stages must be at least 1, got 0"),
        ("train.batch_size=1", "train.batch_size must be at least 2, got 1"),
        ("train.inner_iters=0", "train.inner_iters must be at least 1, got 0"),
        ("seed=-1", "seed must be at least 0, got -1"),
        ("split.seed=-1", "split.seed must be at least 0, got -1"),
        ("train.seed=-1", "train.seed must be at least 0, got -1"),
        ("dataset.seed=-1", "dataset.seed must be at least 0, got -1"),
        ("sweep.batch_size=[20, 1]", "sweep.batch_size must be at least 2, got 1"),
        ("sweep.inner_iters=[0]", "sweep.inner_iters must be at least 1, got 0"),
        ("sweep.seed=[-1]", "sweep.seed must be at least 0, got -1"),
    ])
    def test_number_below_its_floor_is_2_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                         override, message):
        # every least value, in each section where its key appears
        def refuse(spec):
            raise AssertionError("the dataset loaded although the config is invalid")

        monkeypatch.setattr(experiment, "load_dataset", refuse)
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--set", override]) == 2
        assert capsys.readouterr().err == f"error (ConfigError): {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, message", [
        ("unseen.seen_fraction=1.5", "unseen.seen_fraction must be below 1, got 1.5"),
        ("unseen.seen_fraction=0", "unseen.seen_fraction must be above 0, got 0"),
        ("unseen.test_per_class=-5", "unseen.test_per_class must be at least 1, got -5"),
        ("split.test_per_class=0", "split.test_per_class must be at least 1, got 0"),
        ("split.train_size=-1", "split.train_size must be at least 0, got -1"),
        ("train.sigma=0", "train.sigma must be above 0, got 0"),
        # the lighter pair weight exp(-1250) is 0: P would be p_raw's
        ("train.sigma=0.02", "train: mu=1.0 and sigma=0.02 collapse the Gaussian target: "
                             "|0.5 - mu| / sigma^2 = 1250 is above 708.396"),
        ('sweep={"sigma": [0.35, 0.02]}', "sweep: mu=1.0 and sigma=0.02 collapse the Gaussian "
                                          "target: |0.5 - mu| / sigma^2 = 1250 is above 708.396"),
        ("train.epsilon=0.1", "train.epsilon must be at most 1e-06, got 0.1"),
        ('train.grad_mode="fast"',
         "train.grad_mode must be one of ('paper', 'exact'), got 'fast'"),
        # ceil(1 x classes) would hold out no class
        ("unseen.seen_fraction=1", "unseen.seen_fraction must be below 1, got 1"),
        ("dataset.num_classes=0", "dataset.num_classes must be at least 1, got 0"),
        ("dataset.dim=0", "dataset.dim must be at least 1, got 0"),
        ("dataset.per_class=0", "dataset.per_class must be at least 1, got 0"),
        ("dataset.spread=-1", "dataset.spread must be at least 0, got -1"),
    ])
    @pytest.mark.parametrize("command", ["train", "sweep", "unseen", "split"])
    def test_setting_outside_its_domain_is_2_before_any_load(self, tmp_path, capsys, monkeypatch,
                                                            command, override, message):
        # ranges and choices, for every command that reads a config
        def refuse(spec):
            raise AssertionError("the dataset loaded although the config is invalid")

        monkeypatch.setattr(experiment, "load_dataset", refuse)
        cfg = write_config(tmp_path, sweep={"sigma": [0.35]})
        assert cli.main([command, "--config", str(cfg), "--set", override]) == 2
        assert capsys.readouterr().err == f"error (ConfigError): {message}\n"
        assert not (tmp_path / "out").exists()

    def test_scale_n_without_scale_p_trains(self, tmp_path, monkeypatch):
        # a null scale_p is bits / 2 = 6; the configured scale_n 3 is used as set
        divisors = set()
        real = trainer.build_target

        def recorded(labels, cfg, k):
            P, eta = real(labels, cfg, k)
            divisors.update(np.unique(eta).tolist())
            return P, eta

        monkeypatch.setattr(trainer, "build_target", recorded)
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--set", "train.scale_p=null",
                         "--set", "train.scale_n=3.0"]) == 0
        assert divisors == {6.0, 3.0}

    def test_negative_synth_seed_is_3(self, tmp_path, capsys):
        out = tmp_path / "blobs.txt"
        assert cli.main(["synth", "--num-classes", "2", "--dim", "2", "--per-class", "2",
                         "--spread", "0.1", "--seed", "-1", "--out", str(out)]) == 3
        assert "error (DomainError): seed must be at least 0, got -1\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spread", ["nan", "inf", "-0.5"])
    def test_non_finite_or_negative_synth_spread_is_3(self, tmp_path, capsys, spread):
        out = tmp_path / "blobs.txt"
        assert cli.main(["synth", "--num-classes", "2", "--dim", "2", "--per-class", "2",
                         "--spread", spread, "--out", str(out)]) == 3
        rule = "at least 0" if spread == "-0.5" else "finite"
        err = capsys.readouterr().err
        assert err == f"error (DomainError): spread must be {rule}, got {spread}\n"
        assert not out.exists()

    def test_eval_dimension_mismatch_is_4(self, tmp_path):
        cfg = write_config(tmp_path)
        cli.main(["train", "--config", str(cfg)])
        # checkpoint trained on 8-dim features, evaluated against 10-dim data
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "out/checkpoint.txt"),
                         "--config", str(cfg), "--set", "dataset.dim=10",
                         "--output-dir", str(tmp_path / "ev")]) == 4

    @pytest.mark.parametrize("text, code, where", [
        ("2 2\n1.0 abc\n3.0 4.0\n0 1\n", 2, "line 2"),
        ("2 2\n1.0 2.0\n3.0 4.0\n0 x\n", 2, "line 4"),
        ("2 2\n1.0 2.0\n3.0 nan\n0 1\n", 5, "line 3"),
        ("2 2\n1.0 2.0\n-inf 4.0\n0 1\n", 5, "line 3"),
    ])
    def test_bad_dense_value(self, tmp_path, capsys, text, code, where):
        path = tmp_path / "d.txt"
        path.write_text(text)
        cfg = write_config(tmp_path, dataset={"kind": "dense", "path": str(path)},
                           split={"test_per_class": 1, "train_size": 1})
        assert cli.main(["split", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert str(path) in err and where in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, code", [("0.5 abc", 2), ("0.5 nan", 5)])
    def test_bad_checkpoint_value(self, tmp_path, capsys, row, code):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "ckpt.txt"
        ckpt.write_text("8 2\n" + "0.5 0.5\n" * 3 + row + "\n" + "0.5 0.5\n" * 4)
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert str(ckpt) in err and "line 5" in err

    def test_aborted_stream_is_5_with_outputs(self, tmp_path, capsys, monkeypatch):
        real = trainer.train_stage

        def failing_second_stage(model, batch, cfg):
            if batch.stage_index == 2:
                raise NumericError("gradient contains non-finite entries; stage aborted")
            return real(model, batch, cfg)

        monkeypatch.setattr(trainer, "train_stage", failing_second_stage)
        cfg = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 5
        captured = capsys.readouterr()
        assert "aborted after 1 of 6 stages" in captured.err
        assert "trained" not in captured.out
        out = tmp_path / "out"
        assert (out / "checkpoint.txt").exists()
        assert len((out / "stages.csv").read_text().splitlines()) == 2  # header + stage 1
        assert (out / "curve.csv").read_text().splitlines()[1].startswith("1,")

    @pytest.mark.parametrize("override, completed", [
        ("train.learning_rate=1e300", 1), ("init_scale=1e6", 0)])
    def test_stream_that_stops_moving_is_5(self, tmp_path, capsys, override, completed):
        # 1e300 saturates every code in stage 1, so stage 2 applies no step;
        # an init_scale of 1e6 saturates them from the start
        config = Path(__file__).resolve().parents[1] / "configs" / "blobs.json"
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(config), "--set", override,
                         "--output-dir", str(out)]) == 5
        captured = capsys.readouterr()
        assert f"aborted after {completed} of 40 stages" in captured.err
        assert "trained" not in captured.out
        stages = (out / "stages.csv").read_text().splitlines()[1:]
        assert len(stages) == completed
        assert all(float(line.split(",")[3]) > 0 for line in stages)  # grad_norm


def write_idx(tmp_path, rows, cols):
    """An IDX pair of 3 images whose header claims rows x cols pixels each."""
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 2051, 3, rows, cols) + bytes(36))
    labels.write_bytes(struct.pack(">II", 2049, 3) + bytes([0, 1, 2]))
    return {"kind": "idx", "images": str(images), "labels": str(labels)}


def dense_header_case(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("784 100000000\n1.0 2.0\n0 1\n")
    return ["train", "--config", str(write_config(tmp_path, dataset={"kind": "dense",
                                                                      "path": str(path)}))]


def checkpoint_header_case(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("100000 100000000\n0.5 0.5\n")
    return ["eval", "--checkpoint", str(path), "--config", str(write_config(tmp_path))]


def config_bytes_case(text: bytes):
    def case(tmp_path):
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"seed": 0}', text))
        return ["train", "--config", str(path)]
    return case


# inputs that once ended in a traceback or in a wrong load, by exit code
REPRODUCED = {
    "dense header past the file": (dense_header_case, 2),
    "checkpoint header past the file": (checkpoint_header_case, 2),
    "idx sizes that read as -2 signed": (lambda tmp_path: ["train", "--config", str(
        write_config(tmp_path, dataset=write_idx(tmp_path, 2**32 - 2, 2**32 - 2)))], 2),
    "idx payload past the file": (lambda tmp_path: ["train", "--config", str(
        write_config(tmp_path, dataset=write_idx(tmp_path, 70000, 70000)))], 2),
    "config byte that is not utf-8": (config_bytes_case(b'"seed": 0, "\xff": 1}'), 2),
    "config integer past the digit limit": (config_bytes_case(
        b'"seed": ' + b"1" * 5000 + b"}"), 2),
    "--set integer past the digit limit": (lambda tmp_path: [
        "train", "--config", str(write_config(tmp_path)), "--set", "bits=" + "1" * 5000], 2),
}


def run_module(argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m streamhash.cli argv` in a child process, on this tree's package."""
    src = str(Path(streamhash.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "streamhash.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("name", sorted(REPRODUCED))
def test_module_run_exits_with_the_documented_code(tmp_path, name):
    make_argv, code = REPRODUCED[name]
    done = run_module(make_argv(tmp_path))
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert not (tmp_path / "out").exists()


# Each asks configs/blobs.json for more than the capped address space holds:
# the dataset (per_class x num_classes x dim), W (dim x bits), one stage's
# n x n buffers
OUT_OF_MEMORY = {
    "dataset": ["dataset.per_class=1000000000"],
    "projection": ["bits=100000000"],
    "40000 x 40000 stage": ["split.train_size=40000", "dataset.per_class=12000",
                            "train.batch_size=40000"],
}
ADDRESS_SPACE_BYTES = 3 * 10**9


def cap_address_space() -> None:
    """Runs in the child between fork and exec: the cap never reaches pytest."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


@pytest.mark.parametrize("name", sorted(OUT_OF_MEMORY))
def test_out_of_memory_is_3_in_one_line(tmp_path, name):
    config = Path(__file__).resolve().parents[1] / "configs" / "blobs.json"
    sets = [f"--set={s}" for s in OUT_OF_MEMORY[name]]
    done = run_module(["train", "--config", str(config), "--output-dir", str(tmp_path / "out"),
                       *sets], preexec_fn=cap_address_space)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: streamhash train ran out of memory: Unable to allocate ")
    assert "GiB for an array with shape" in done.stderr  # the size asked for
    assert len(done.stderr.splitlines()) == 1 and done.stdout == ""
    assert not (tmp_path / "out").exists()
