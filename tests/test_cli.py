"""CLI subcommands, overrides, exit codes."""

import json

import numpy as np
import pytest

from streamhash import cli, data, trainer
from streamhash.errors import NumericError
from streamhash.experiment import OUTPUT_DIR_ENV


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

    def test_set_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["train", "--config", str(cfg),
                         "--set", "bits=8", "--set", "train.inner_iters=1",
                         "--output-dir", str(tmp_path / "o")])
        assert code == 0
        header = (tmp_path / "o/checkpoint.txt").read_text().splitlines()[0]
        assert header == "8 8"

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
        X, y = data.load_dense(out)
        assert X.shape == (4, 15)
        expected_X, expected_y = data.synth_blobs(3, 4, 5, 0.2, seed=1)
        assert (X == expected_X).all() and (y == expected_y).all()

    def test_split_files(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli.main(["split", "--config", str(cfg), "--output-dir", str(tmp_path / "sp")])
        assert code == 0
        for name, size in [("train", 120), ("retrieval", 150), ("test", 30)]:
            X, y = data.load_dense(tmp_path / "sp" / f"{name}.txt")
            assert y.shape[0] == size


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

    def test_invalid_config_leaves_no_outputs(self, tmp_path):
        cfg = write_config(tmp_path, bits=-1)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

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
                           split={"test_per_class": 0, "train_size": 1})
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
