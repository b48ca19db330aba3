"""Experiment config validation, drivers, and report files."""

import json

import numpy as np
import pytest

from streamhash import experiment, model as hm, trainer
from streamhash.errors import ConfigError, NumericError
from streamhash.experiment import ExperimentConfig, config_from_dict


def blob_config(tmp_path, **overrides):
    raw = {
        "dataset": {"kind": "synth", "num_classes": 3, "dim": 8,
                    "per_class": 60, "spread": 0.3, "seed": 7},
        "split": {"test_per_class": 10, "train_size": 120, "seed": 0},
        "bits": 12,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "scale_p": 1.0, "scale_n": 1.0,
                  "batch_size": 20, "inner_iters": 3},
        "eval": {"cutoff": 50, "r_max": 20, "every_n_stages": 3},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    raw.update(overrides)
    return raw


@pytest.fixture
def failing_second_stage(monkeypatch):
    """Make every stream abort at stage 2, as a non-finite gradient would."""
    real = trainer.train_stage

    def train_stage(model, batch, cfg):
        if batch.stage_index == 2:
            raise NumericError("gradient contains non-finite entries; stage aborted")
        return real(model, batch, cfg)

    monkeypatch.setattr(trainer, "train_stage", train_stage)


class TestConfigValidation:
    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_dict(blob_config(tmp_path, bogus=1))

    def test_unknown_train_keys_rejected(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["train"]["lr"] = 0.1
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": {"kind": "synth"}})

    def test_dataset_kind_required_fields(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["dataset"] = {"kind": "idx", "images": "x"}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("section, key, value", [
        (None, "bits", "abc"), (None, "init_scale", [1]), (None, "seed", None),
        ("split", "train_size", "many"), ("eval", "r_max", {}),
    ])
    def test_uncoercible_values_rejected(self, tmp_path, section, key, value):
        raw = blob_config(tmp_path)
        (raw if section is None else raw[section])[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "abc"), ("mu", True), ("sigma", None), ("scale_p", "1"),
        ("scale_n", [1.0]), ("epsilon", False), ("batch_size", 20.0),
        ("inner_iters", True), ("seed", "0"), ("grad_mode", 1),
        ("p_variant", None), ("q_variant", ["plain"]),
    ])
    def test_wrong_train_types_rejected(self, tmp_path, key, value):
        raw = blob_config(tmp_path)
        raw["train"][key] = value
        with pytest.raises(ConfigError, match=f"train.{key} must be"):
            config_from_dict(raw)

    def test_scale_n_may_be_null_only_without_scale_p(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["train"].update(scale_p=None, scale_n=None)
        assert config_from_dict(raw).train.scaling is None
        raw["train"].update(scale_p=1.0)
        with pytest.raises(ConfigError, match="train.scale_n"):
            config_from_dict(raw)

    def test_train_values_are_not_converted(self, tmp_path):
        # ints stay ints in the digest payload: pinned digests of the same
        # settings written as ints and as floats
        raw = blob_config(tmp_path)
        assert config_from_dict(raw).digest() == "11423aa15de3caa5"
        raw["train"].update(learning_rate=1, mu=1, scale_p=2, scale_n=1)
        assert config_from_dict(raw).digest() == "7be0e674a2f08caf"
        raw["train"].update(learning_rate=1.0, mu=1.0, scale_p=2.0, scale_n=1.0)
        assert config_from_dict(raw).digest() == "10f1bfdb22ba0b9a"

    def test_invalid_config_writes_nothing(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["train"]["learning_rate"] = -1.0
        with pytest.raises(Exception):
            cfg = config_from_dict(raw)
            experiment.run_train(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_digest_stable_and_output_independent(self, tmp_path):
        a = config_from_dict(blob_config(tmp_path))
        b = config_from_dict(blob_config(tmp_path, output_dir="elsewhere"))
        c = config_from_dict(blob_config(tmp_path, bits=24))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestRunTrain:
    def test_outputs_and_curve_shape(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        out = tmp_path / "run"
        outcome = experiment.run_train(cfg, out_dir=out)
        assert (out / "checkpoint.txt").exists()
        assert (out / "stages.csv").exists()
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "stage_index,train_instances_seen,map,map_at_k,precision_h2,auc_so_far"
        # 120 train / batch 20 = 6 stages, eval every 3 -> rows at stages 3 and 6
        assert len(curve) == 3
        assert len(outcome.stage_reports) == 6
        xs = [int(line.split(",")[1]) for line in curve[1:]]
        assert xs == sorted(xs)

    def test_eval_interval_larger_than_stage_count_gives_one_final_row(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["eval"]["every_n_stages"] = 1000
        cfg = config_from_dict(raw)
        outcome = experiment.run_train(cfg)
        assert len(outcome.curve_rows) == 1
        assert outcome.curve_rows[0][0] == 6  # the final stage

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        experiment.run_train(cfg, out_dir=tmp_path / "a")
        experiment.run_train(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()
        assert (tmp_path / "a/checkpoint.txt").read_bytes() == (tmp_path / "b/checkpoint.txt").read_bytes()

    def test_epochs_extend_the_stream(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path, epochs=2))
        outcome = experiment.run_train(cfg)
        assert len(outcome.stage_reports) == 12
        assert [r.stage_index for r in outcome.stage_reports] == list(range(1, 13))


class TestRunEval:
    def test_reports_include_baseline_and_are_repeatable(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        outcome = experiment.run_train(cfg)
        r1 = experiment.run_eval(outcome.model, cfg, out_dir=tmp_path / "e1")
        r2 = experiment.run_eval(outcome.model, cfg, out_dir=tmp_path / "e2")
        assert [r.method for r in r1] == ["trained", "lsh_baseline"]
        assert r1[0].map == r2[0].map
        assert (tmp_path / "e1/report.csv").read_bytes() == (tmp_path / "e2/report.csv").read_bytes()
        rows = (tmp_path / "e1/report.csv").read_text().splitlines()
        assert len(rows) == 3  # header + trained + baseline
        assert "lsh_baseline" in rows[2]

    def test_json_mirror_carries_conventions_and_series(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        outcome = experiment.run_train(cfg)
        experiment.run_eval(outcome.model, cfg, out_dir=tmp_path / "e")
        payload = json.loads((tmp_path / "e/report.json").read_text())
        assert len(payload) == 2
        assert len(payload[0]["precision_at_r"]) == cfg.eval.r_max
        assert payload[0]["conventions"]["tie_break"] == "ascending-database-index"
        assert payload[0]["config_digest"] == cfg.digest()


class TestRunSweep:
    def test_rows_match_cells_and_best_flagged(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"learning_rate": [0.05, 0.1], "sigma": [0.35, 1.0]}
        cfg = config_from_dict(raw)
        rows = experiment.run_sweep(cfg, out_dir=tmp_path / "sw")
        assert len(rows) == 4
        assert sum(r["best"] for r in rows) == 1
        text = (tmp_path / "sw/sweep.csv").read_text().splitlines()
        assert len(text) == 5
        best = max((r for r in rows if r["status"] == "ok"), key=lambda r: r["map"])
        assert best["best"]

    def test_single_cell_equals_direct_train(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"learning_rate": [0.1]}
        cfg = config_from_dict(raw)
        rows = experiment.run_sweep(cfg)
        direct = experiment.run_train(cfg)
        assert rows[0]["map"] == direct.final_metrics["map"]

    def test_cell_failure_recorded_and_sweep_continues(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"batch_size": [1, 20]}  # batch_size 1 is invalid
        cfg = config_from_dict(raw)
        rows = experiment.run_sweep(cfg)
        assert rows[0]["status"] == "failed" and rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_aborted_cell_failed_and_never_best(self, tmp_path, failing_second_stage):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"learning_rate": [0.05, 0.1]}
        rows = experiment.run_sweep(config_from_dict(raw), out_dir=tmp_path / "sw")
        for row in rows:
            assert row["status"] == "failed" and not row["best"]
            assert row["error"] == "aborted after 1 of 6 stages"
        assert "aborted after 1 of 6 stages" in (tmp_path / "sw/sweep.csv").read_text()

    def test_unknown_sweep_key_rejected(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"momentum": [0.9]}
        with pytest.raises(ConfigError):
            experiment.run_sweep(config_from_dict(raw))


class TestRunUnseen:
    def test_disjointness_and_defaults(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        cfg = config_from_dict(raw)
        reports, info = experiment.run_unseen(cfg, out_dir=tmp_path / "u")
        assert info["label_sets_disjoint"]
        assert not set(info["seen_labels"]) & set(info["unseen_labels"])
        assert reports[0].bits == 64  # held-out evaluation default width
        assert (tmp_path / "u/unseen_report.csv").exists()
        assert (tmp_path / "u/unseen_split.json").exists()

    def test_aborted_stream_raises(self, tmp_path, failing_second_stage):
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        with pytest.raises(NumericError, match=r"aborted after 1 of \d+ stages"):
            experiment.run_unseen(config_from_dict(raw), out_dir=tmp_path / "u")
        assert not (tmp_path / "u").exists()
