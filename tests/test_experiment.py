"""Experiment config validation, drivers, and report files."""

import csv
import json
import os
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from streamhash import cli, data, experiment, index, metrics, trainer
from streamhash import model as hm
from streamhash.data import SplitSpec
from streamhash.errors import ConfigError, ConsistencyError, DomainError, NumericError, SplitError
from streamhash.experiment import EvalOptions, ExperimentConfig, UnseenOptions, config_from_dict
from streamhash.trainer import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


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

    # values are checked, never converted: 32.0 and "32" are not ints
    @pytest.mark.parametrize("section, key, value", [
        (None, "bits", "abc"), (None, "init_scale", [1]), (None, "seed", None),
        ("split", "train_size", "many"), ("eval", "r_max", {}),
        (None, "bits", 32.0), (None, "bits", "32"), (None, "init_scale", "1.0"),
        (None, "output_dir", 5), ("split", "train_size", 120.0), ("eval", "cutoff", 1.5),
        ("unseen", "bits", "64"), ("unseen", "seen_fraction", "0.5"),
        ("dataset", "num_classes", "3"), ("dataset", "spread", None),
    ])
    def test_uncoercible_values_rejected(self, tmp_path, section, key, value):
        raw = blob_config(tmp_path)
        (raw if section is None else raw.setdefault(section, {}))[key] = value
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

    def test_scale_n_may_not_be_null(self, tmp_path):
        raw = blob_config(tmp_path)
        for scale_p in (None, 1.0):
            raw["train"].update(scale_p=scale_p, scale_n=None)
            with pytest.raises(ConfigError, match="^train.scale_n must be int or float, got None$"):
                config_from_dict(raw)

    @pytest.mark.parametrize("scale_n", [3.0, 0.5, 2])
    def test_scale_n_applies_without_scale_p(self, tmp_path, scale_n):
        # a null scale_p is bits / 2 for similar pairs; scale_n still
        # divides the dissimilar ones
        raw = blob_config(tmp_path)
        raw["train"].update(scale_p=None, scale_n=scale_n)
        cfg = config_from_dict(raw)
        assert (cfg.train.scale_p, cfg.train.scale_n) == (None, scale_n)
        _, eta = trainer.build_target(np.array([0, 0, 1]), cfg.train, cfg.bits)
        np.testing.assert_array_equal(eta, [[cfg.bits / 2, cfg.bits / 2, scale_n],
                                            [cfg.bits / 2, cfg.bits / 2, scale_n],
                                            [scale_n, scale_n, cfg.bits / 2]])

    @pytest.mark.parametrize("where", ["split", "dataset", "train", None])
    def test_negative_seed_rejected(self, tmp_path, where):
        raw = blob_config(tmp_path)
        (raw if where is None else raw[where])["seed"] = -1
        name = "seed" if where is None else f"{where}.seed"
        with pytest.raises(ConfigError, match=f"^{name} must be at least 0, got -1$"):
            config_from_dict(raw)
        (raw if where is None else raw[where])["seed"] = 0
        assert config_from_dict(raw)

    def test_train_values_are_not_converted(self, tmp_path):
        # ints stay ints in the digest payload: pinned digests of the same
        # settings written as ints and as floats
        raw = blob_config(tmp_path)
        assert config_from_dict(raw).digest() == "11423aa15de3caa5"
        raw["train"].update(learning_rate=1, mu=1, scale_p=2, scale_n=1)
        assert config_from_dict(raw).digest() == "7be0e674a2f08caf"
        raw["train"].update(learning_rate=1.0, mu=1.0, scale_p=2.0, scale_n=1.0)
        assert config_from_dict(raw).digest() == "10f1bfdb22ba0b9a"

    @pytest.mark.parametrize("name, digest", [
        ("configs/blobs.json", "beb5671fd98f16df"),
        ("configs/mnist.json", "b0fe04dc91c531e6"),
        ("README.md", "5c4489e22b87660f"),
    ])
    def test_shipped_config_digests(self, name, digest):
        text = (ROOT / name).read_text()
        if name == "README.md":  # the config file section's example
            text = re.search(r"### Config file\n\n```json\n(.*?)```", text, re.S).group(1)
        assert config_from_dict(json.loads(text)).digest() == digest

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
    def test_numpy_scalars_digest_as_the_python_numbers(self, integer):
        # the settings take numpy numbers; the digest holds the number each one is
        def config(i, f):
            return ExperimentConfig(dataset={"kind": "synth"}, split=SplitSpec(i(5), 10, i(2)),
                                    train=TrainConfig(batch_size=i(10), learning_rate=f(0.5)),
                                    bits=i(16), seed=i(3), eval=EvalOptions(cutoff=i(100)))

        assert config(integer, np.float32).digest() == config(int, float).digest()

    def test_train_defaults_are_the_library_defaults(self):
        assert experiment.train_config({}) == TrainConfig()

    def test_int_is_a_float_value_and_digests_as_written(self, tmp_path):
        as_int = config_from_dict(blob_config(tmp_path, init_scale=1))
        assert as_int.init_scale == 1 and isinstance(as_int.init_scale, int)
        assert as_int.digest() != config_from_dict(blob_config(tmp_path)).digest()

    @pytest.mark.parametrize("section", ["dataset", "split", "train", "eval", "sweep", "unseen"])
    def test_a_section_must_be_an_object(self, tmp_path, section):
        with pytest.raises(ConfigError, match=f"^{section} must be object"):
            config_from_dict(blob_config(tmp_path, **{section: [1]}))

    def test_dataset_keys_are_checked_per_kind(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["dataset"]["path"] = "blobs.txt"
        with pytest.raises(ConfigError, match=r"unknown dataset keys: \['path'\]"):
            config_from_dict(raw)
        raw["dataset"] = {"kind": "idx", "images": "a", "labels": "b", "normalize": 1}
        with pytest.raises(ConfigError, match="dataset.normalize must be bool"):
            config_from_dict(raw)

    def test_nul_byte_rejected(self, tmp_path):
        raw = blob_config(tmp_path, dataset={"kind": "dense", "path": "a\0b"})
        with pytest.raises(ConfigError, match="dataset.path holds a NUL byte"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", -1.0), ("sigma", 0), ("scale_p", -1.0), ("batch_size", 1),
        ("grad_mode", "fast"), ("epsilon", 0.1),
    ])
    def test_train_domain_errors_are_config_errors(self, tmp_path, key, value):
        raw = blob_config(tmp_path)
        raw["train"][key] = value
        with pytest.raises(ConfigError, match=rf"^train\.{key} must "):
            config_from_dict(raw)

    def test_long_value_is_cut_in_the_message(self, tmp_path):
        with pytest.raises(ConfigError) as caught:
            config_from_dict(blob_config(tmp_path, bits="1" * 5000))
        message = str(caught.value)
        assert message.startswith("bits must be int, got '111") and message.endswith("…")
        assert len(message) == len("bits must be int, got ") + 80

    def test_unseen_options(self, tmp_path):
        assert config_from_dict(blob_config(tmp_path)).unseen == UnseenOptions(0.75, 100, 64)
        cfg = config_from_dict(blob_config(tmp_path, unseen={"seen_fraction": 0.5}))
        assert cfg.unseen == UnseenOptions(seen_fraction=0.5)

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


def experiment_config(**settings) -> ExperimentConfig:
    return ExperimentConfig(dataset={}, split=SplitSpec(10, 120), train=TrainConfig(), **settings)


def split_spec(**settings) -> SplitSpec:
    return SplitSpec(**{"test_per_class": 10, "train_size": 120, **settings})


SETTINGS_CLASSES = {"TrainConfig": TrainConfig, "EvalOptions": EvalOptions,
                    "UnseenOptions": UnseenOptions, "SplitSpec": split_spec,
                    "ExperimentConfig": experiment_config}


class TestSettingsFloors:
    """The library's settings classes check each least value when built."""

    @pytest.mark.parametrize("cls, name, floor", [
        ("TrainConfig", "batch_size", 2), ("TrainConfig", "inner_iters", 1),
        ("TrainConfig", "seed", 0), ("EvalOptions", "cutoff", 1), ("EvalOptions", "r_max", 1),
        ("EvalOptions", "every_n_stages", 1), ("UnseenOptions", "bits", 1),
        ("SplitSpec", "seed", 0), ("SplitSpec", "test_per_class", 1),
        ("SplitSpec", "train_size", 0), ("UnseenOptions", "test_per_class", 1),
        ("ExperimentConfig", "bits", 1),
        ("ExperimentConfig", "epochs", 1), ("ExperimentConfig", "seed", 0),
    ])
    def test_int_floor(self, cls, name, floor):
        build = SETTINGS_CLASSES[cls]
        assert getattr(build(**{name: floor}), name) == floor
        assert getattr(build(**{name: np.int64(floor)}), name) == floor
        below = f"^{name} must be at least {floor}, got {floor - 1}$"
        with pytest.raises(DomainError, match=below):
            build(**{name: floor - 1})
        with pytest.raises(DomainError, match=rf"^{name} must be int, got {floor + 1}\.5$"):
            build(**{name: floor + 1.5})
        with pytest.raises(DomainError, match=f"^{name} must be int, got True$"):
            build(**{name: True})

    @pytest.mark.parametrize("value, shown", [
        (-0.5, "-0.5"), (-1, "-1"), (float("nan"), "nan"), ("1", "'1'"), (None, "None"),
    ])
    def test_init_scale_floor(self, value, shown):
        # W = 0 is a stationary point of training: the least scale is above 0
        assert experiment_config(init_scale=5e-324).init_scale == 5e-324
        for zero in (0, 0.0):
            with pytest.raises(DomainError, match=f"^init_scale must be above 0, got {zero}$"):
                experiment_config(init_scale=zero)
        rule = {"nan": "finite", "'1'": "int or float", "None": "int or float"}.get(shown,
                                                                                 "above 0")
        with pytest.raises(DomainError, match=f"^init_scale must be {rule}, got {shown}$"):
            experiment_config(init_scale=value)

    @pytest.mark.parametrize("cls, name", [
        ("UnseenOptions", "test_per_class"), ("SplitSpec", "train_size"),
        ("SplitSpec", "test_per_class"),
    ])
    def test_int_fields_without_a_floor_take_integers_only(self, cls, name):
        with pytest.raises(DomainError, match=rf"^{name} must be int, got 2\.5$"):
            SETTINGS_CLASSES[cls](**{name: 2.5})

    def test_float_r_max_fails_before_any_stage(self, tmp_path, monkeypatch):
        # a float r_max was refused by retrieval_scores only after training
        cfg = config_from_dict(blob_config(tmp_path))
        monkeypatch.setattr(trainer, "train_stream", None)
        with pytest.raises(DomainError, match=r"^r_max must be int, got 2\.5$"):
            experiment.run_train(experiment.replace(
                cfg, eval=EvalOptions(cutoff=1000, r_max=2.5, every_n_stages=1000)))

    def test_zero_eval_interval_and_epochs_refused_when_built(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        with pytest.raises(DomainError, match="^every_n_stages must be at least 1, got 0$"):
            EvalOptions(every_n_stages=0)
        with pytest.raises(DomainError, match="^epochs must be at least 1, got 0$"):
            experiment.replace(cfg, epochs=0)


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
        # every file, stages.csv included
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert "stages.csv" in names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_epochs_extend_the_stream(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path, epochs=2))
        outcome = experiment.run_train(cfg)
        assert len(outcome.stage_reports) == 12
        assert [r.stage_index for r in outcome.stage_reports] == list(range(1, 13))
        assert outcome.curve_rows[-1][0] == 12  # the last curve point is the last stage

    def test_each_epoch_reshuffled_with_its_own_seed(self, tmp_path):
        # epoch e streams the train part with seed train.seed + e
        raw = blob_config(tmp_path, epochs=3)
        raw["train"]["seed"] = 4
        cfg = config_from_dict(raw)
        train, _, _ = data.split(*experiment.load_dataset(cfg.dataset), cfg.split)
        got = experiment.make_batches(train, cfg)
        want = [b for e in range(3) for b in data.stream(train, cfg.train.batch_size, 4 + e)]
        assert len(got) == len(want) == 18
        for a, b in zip(got, want):
            assert a.source is b.source and (a.idx == b.idx).all()
            assert (a.labels == b.labels).all()

    def test_aborted_stream_keeps_its_outputs(self, tmp_path, failing_second_stage):
        cfg = config_from_dict(blob_config(tmp_path))
        out = tmp_path / "run"
        with pytest.raises(NumericError, match="^aborted after 1 of 6 stages; partial outputs in "
                                               f"{re.escape(str(out))}$"):
            experiment.run_train(cfg, out)
        # the curve ends at the last completed stage, whose model is the checkpoint
        curve = list(csv.DictReader((out / "curve.csv").read_text().splitlines()))
        assert [(row["stage_index"], row["train_instances_seen"]) for row in curve] == [("1", "20")]
        _, retrieval, test = data.split(*experiment.load_dataset(cfg.dataset), cfg.split)
        scores = experiment.evaluate_model(hm.load_checkpoint(out / "checkpoint.txt"), retrieval,
                                           test, cfg.eval.cutoff, cfg.eval.r_max)
        assert curve[0]["map"] == repr(scores["map"])
        assert len((out / "stages.csv").read_text().splitlines()) == 2
        # with no out_dir, nothing is written and the error names no directory
        with pytest.raises(NumericError, match=r"^aborted after 1 of 6 stages$"):
            experiment.run_train(cfg)

    def test_aborted_stream_scored_only_for_its_curve(self, tmp_path, failing_second_stage,
                                                      counted):
        # the last completed stage is scored for curve.csv (whose row
        # test_aborted_stream_keeps_its_outputs checks); with no out_dir its
        # scores would be discarded, so it is not scored at all
        cfg = config_from_dict(blob_config(tmp_path))
        calls = counted(experiment, "evaluate_model")
        with pytest.raises(NumericError, match=r"^aborted after 1 of 6 stages$"):
            experiment.run_train(cfg)
        assert calls == {"evaluate_model": 0}
        with pytest.raises(NumericError, match="^aborted after 1 of 6 stages; partial outputs"):
            experiment.run_train(cfg, tmp_path / "run")
        assert calls == {"evaluate_model": 1}

    def test_final_metrics_are_the_last_models_full_scores(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        outcome = experiment.run_train(cfg)
        _, retrieval, test = data.split(*experiment.load_dataset(cfg.dataset), cfg.split)
        want = experiment.evaluate_model(outcome.model, retrieval, test, cfg.eval.cutoff,
                                         cfg.eval.r_max)
        assert sorted(outcome.final_metrics) == sorted(want)
        for key, value in want.items():
            assert outcome.final_metrics[key] == value, key
        assert len(outcome.final_metrics["precision_at_r"]) == cfg.eval.r_max

    @pytest.mark.parametrize("train_size", [0, 1])
    def test_stream_without_a_stage_writes_nothing(self, tmp_path, train_size):
        raw = blob_config(tmp_path)
        raw["split"]["train_size"] = train_size
        message = f"^{train_size} training instances make no stage of at least 2$"
        with pytest.raises(SplitError, match=message):
            experiment.run_train(config_from_dict(raw), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()


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

    def test_baseline_report_scores_the_seeded_init_model(self, tmp_path):
        # the lsh_baseline row scores an untrained random projection: init
        # at scale 1 with the config's seed and the checkpoint's shape
        cfg = config_from_dict(blob_config(tmp_path, seed=5))
        model = hm.init(8, 10, scale=0.3, seed=1)
        _, baseline = experiment.run_eval(model, cfg)
        _, retrieval, test = data.split(*experiment.load_dataset(cfg.dataset), cfg.split)
        want = experiment.evaluate_model(hm.init(8, 10, scale=1.0, seed=5), retrieval, test,
                                         cfg.eval.cutoff, cfg.eval.r_max)
        assert baseline.method == "lsh_baseline" and baseline.bits == 10
        assert {name: getattr(baseline, name) for name in want} == want

    def test_numpy_seed_reports_as_the_python_number(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path, seed=3))
        model = hm.init(8, 10, scale=0.3, seed=1)
        experiment.run_eval(model, cfg, out_dir=tmp_path / "plain")
        experiment.run_eval(model, replace(cfg, seed=np.int64(3)), out_dir=tmp_path / "numpy")
        for name in ("report.csv", "report.json", "report_precision_at_r.csv"):
            written = [(tmp_path / run / name).read_bytes() for run in ("numpy", "plain")]
            assert written[0] == written[1]
        assert json.loads((tmp_path / "numpy/report.json").read_text())[0]["seed"] == 3

    def test_json_mirror_carries_conventions_and_series(self, tmp_path):
        cfg = config_from_dict(blob_config(tmp_path))
        outcome = experiment.run_train(cfg)
        experiment.run_eval(outcome.model, cfg, out_dir=tmp_path / "e")
        payload = json.loads((tmp_path / "e/report.json").read_text())
        assert len(payload) == 2
        assert len(payload[0]["precision_at_r"]) == cfg.eval.r_max
        assert payload[0]["conventions"]["tie_break"] == "ascending-database-index"
        assert payload[0]["config_digest"] == cfg.digest()


class TestEvaluateModel:
    def test_parts_of_different_matrices_rejected(self):
        X, y = data.synth_blobs(2, 4, 10, 0.3, seed=0)
        retrieval = data.Part(X, np.arange(15), y[:15])
        test = data.Part(X.copy(), np.arange(15, 20), y[15:])
        with pytest.raises(ConsistencyError, match="different matrices"):
            experiment.evaluate_model(hm.init(4, 8, seed=0), retrieval, test, 10, 5)

    def test_equals_scores_of_copied_columns(self):
        X, y = data.synth_blobs(3, 6, 30, 0.5, seed=1)
        _, retrieval, test = data.split(X, y, data.SplitSpec(5, 10, seed=2))
        model = hm.init(6, 12, seed=3)
        db, queries = (index.pack(hm.encode_binary(model, X[:, p.idx]), p.labels)
                       for p in (retrieval, test))
        want = metrics.retrieval_scores(queries, db, cutoff=20, r_max=10)
        got = experiment.evaluate_model(model, retrieval, test, 20, 10)
        assert got["map"] == want["map"] and got["precision_h2"] == want["precision_h2"]
        assert got["precision_at_r"] == want["precision_at_r"].tolist()

    def test_parts_are_packs_of_their_columns(self, monkeypatch):
        # the source is packed once and each part takes rows of its words
        X, y = data.synth_blobs(3, 6, 30, 0.5, seed=1)
        _, retrieval, test = data.split(X, y, data.SplitSpec(5, 10, seed=2))
        model = hm.init(6, 70, seed=3)  # two words per code
        ranked = []

        def scores(queries, db, **kwargs):
            ranked.append((queries, db))
            return {"precision_at_r": np.zeros(0)}

        monkeypatch.setattr(metrics, "retrieval_scores", scores)
        experiment.evaluate_model(model, retrieval, test, 20, 10)
        [(queries, db)] = ranked
        for got, part in ((db, retrieval), (queries, test)):
            want = index.pack(hm.encode_binary(model, part.features), part.labels)
            for name in ("words", "k", "n", "labels"):
                a, b = getattr(got, name), getattr(want, name)
                assert type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype
                assert np.array_equal(a, b)


class TestWriteCsv:
    def test_values_are_str_and_floats_read_back_exactly(self, tmp_path):
        row = [None, True, 3, 0.1 + 0.2, 5e-324, 1e300]
        experiment.write_csv(tmp_path / "t.csv", list("abcdef"), [row])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines == ["a,b,c,d,e,f", "None,True,3,0.30000000000000004,5e-324,1e+300"]
        assert [float(v) for v in lines[1].split(",")[3:]] == row[3:]


class Unwritable:
    def __str__(self):
        raise OSError("disk full")


class TestFailedWrites:
    """A CSV or JSON output whose write fails mid-way leaves no partial file
    at its path, and an older file there stays intact."""

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_partial_file(self, tmp_path, fmt, older):
        path = tmp_path / f"out.{fmt}"

        def write(last):
            if fmt == "csv":  # the third row fails, after two are formatted
                experiment.write_csv(path, ["a"], [[1], [2], [last]])
            else:  # "b" fails, after "a" is formatted
                experiment.write_json(path, {"a": [1, 2], "b": last})

        if older:
            write(3)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        with pytest.raises((OSError, TypeError)):
            write(Unwritable())
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.fixture
def counted(monkeypatch):
    """counted(module, name) wraps module.name to count its calls and returns
    the {name: calls} dict of every wrapped name."""
    calls = {}

    def wrap(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
        return calls

    return wrap


def memory_config(tmp_path) -> ExperimentConfig:
    """A 10 x 400 x 512 synth dataset, 16.4 MB: 40 training stages of 50
    and one evaluation per model."""
    return config_from_dict({
        "dataset": {"kind": "synth", "num_classes": 10, "dim": 512, "per_class": 400,
                    "spread": 0.5, "seed": 3},
        "split": {"test_per_class": 10, "train_size": 2000, "seed": 0},
        "bits": 32,
        "train": {"sigma": 0.35},
        "eval": {"every_n_stages": 10**6},
        "output_dir": str(tmp_path / "out"),
    })


class TestMemory:
    """No run holds a second copy of the dataset: split parts and stream
    batches index it, and an evaluation encodes it once."""

    DATASET_BYTES = 10 * 400 * 512 * 8

    @pytest.mark.parametrize("run", ["run_train", "run_eval", "run_unseen"])
    def test_peak_below_twice_the_dataset(self, tmp_path, run):
        cfg = memory_config(tmp_path)
        args = (hm.init(512, 32, seed=0), cfg) if run == "run_eval" else (cfg,)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            getattr(experiment, run)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * self.DATASET_BYTES

    def test_evaluation_peak_is_one_code_matrix(self):
        # the codes are written over the projections and packed once, and
        # the parts take rows of the packed words: the peak is the float
        # codes plus pack's boolean masks, never a second float matrix
        rng = np.random.default_rng(0)
        n, k = 40_000, 64
        X, y = rng.standard_normal((8, n)), rng.integers(0, 10, size=n)
        retrieval, test = data.Part(X, np.arange(40, n), y[40:]), data.Part(X, np.arange(40), y[:40])
        model = hm.init(8, k, seed=0)
        tracemalloc.start()
        try:
            experiment.evaluate_model(model, retrieval, test, 100, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (8 * k * n)

    def test_idx_load_peak_is_the_matrix_and_its_bytes(self, tmp_path):
        # one float conversion of the pixel bytes, normalized in place
        images = np.random.default_rng(0).integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
        (tmp_path / "images.idx").write_bytes(struct.pack(">IIII", 2051, 2000, 28, 28)
                                              + images.tobytes())
        (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 2049, 2000) + bytes(2000))
        spec = {"kind": "idx", "images": str(tmp_path / "images.idx"),
                "labels": str(tmp_path / "labels.idx")}
        tracemalloc.start()
        try:
            features, _ = experiment.load_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * features.nbytes
        assert features.flags.c_contiguous
        assert (features == images.reshape(2000, -1).T / 255.0).all()

    def test_no_run_uses_a_part_as_a_pair(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a part was unpacked or indexed as (features, labels)")

        monkeypatch.setattr(data.Part, "__iter__", refuse)
        monkeypatch.setattr(data.Part, "__getitem__", refuse)
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        cfg = config_from_dict(raw)
        outcome = experiment.run_train(cfg, out_dir=tmp_path / "t")
        experiment.run_eval(outcome.model, cfg, out_dir=tmp_path / "e")
        experiment.run_unseen(cfg, out_dir=tmp_path / "u")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert cli.main(["split", "--config", str(config), "--output-dir", str(tmp_path / "s")]) == 0
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "retrieval.txt", "retrieval.txt.streamhash-cache", "test.txt",
            "test.txt.streamhash-cache", "train.txt", "train.txt.streamhash-cache"]


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

    def test_a_cell_is_scored_once(self, tmp_path, counted):
        raw = blob_config(tmp_path)  # a curve point every 3 of 6 stages
        raw["sweep"] = {"learning_rate": [0.1]}
        counted(experiment, "evaluate_model")
        calls = counted(trainer, "train_stream")
        experiment.run_sweep(config_from_dict(raw))
        assert calls == {"evaluate_model": 1, "train_stream": 1}

    def test_dataset_loaded_and_split_once(self, monkeypatch):
        calls = []
        for module, name in ((experiment, "load_dataset"), (data, "split")):
            def counted(*args, real=getattr(module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(module, name, counted)
        cfg = config_from_dict(json.loads((ROOT / "configs/blobs.json").read_text()))
        rows = experiment.run_sweep(cfg)
        assert [r["status"] for r in rows] == ["ok"] * 4
        assert calls == ["load_dataset", "split"]

    def test_split_error_ends_the_sweep_before_any_cell(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["split"]["test_per_class"] = 61  # more than a class holds
        raw["sweep"] = {"learning_rate": [0.05, 0.1]}
        with pytest.raises(SplitError, match="fewer than test_per_class=61"):
            experiment.run_sweep(config_from_dict(raw), out_dir=tmp_path / "sw")
        assert not (tmp_path / "sw").exists()

    def test_cell_failure_recorded_and_sweep_continues(self, tmp_path):
        # 2-instance batches of 12 classes: the first has no similar pair,
        # which raw P cannot normalise and the smoothed P can
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 12
        raw["train"]["batch_size"] = 2
        raw["sweep"] = {"p_variant": ["raw", "gaussian"]}
        rows = experiment.run_sweep(config_from_dict(raw))
        assert rows[0]["status"] == "failed"
        assert rows[0]["error"] == "off-diagonal mass is zero"
        assert rows[1]["status"] == "ok" and rows[1]["best"]

    def test_aborted_cell_failed_and_never_best(self, tmp_path, failing_second_stage):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"learning_rate": [0.05, 0.1]}
        # no cell is ok, so the sweep raises the first failure's class once
        # sweep.csv is written
        with pytest.raises(NumericError, match=r"^all 2 sweep cells failed; cell 0: aborted after "
                                               r"1 of 6 stages$"):
            experiment.run_sweep(config_from_dict(raw), out_dir=tmp_path / "sw")
        with open(tmp_path / "sw/sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "failed" and row["best"] == "False"
            assert row["error"] == "aborted after 1 of 6 stages"

    def test_aborted_cell_is_not_scored(self, tmp_path, failing_second_stage, counted):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"learning_rate": [0.1]}
        calls = counted(experiment, "evaluate_model")
        with pytest.raises(NumericError, match=r"^all 1 sweep cells failed; cell 0: aborted "):
            experiment.run_sweep(config_from_dict(raw))
        assert calls == {"evaluate_model": 0}

    def test_scale_p_sweep_from_an_unscaled_config(self, tmp_path):
        # the README example writes "scale_p": null, "scale_n": 1.0; a cell
        # keeps the configured scale_n, whatever it is
        raw = blob_config(tmp_path)
        raw["train"].update(scale_p=None, scale_n=1.0)
        raw["sweep"] = {"scale_p": [1.0, 2.0]}
        cfg = config_from_dict(raw)
        rows = experiment.run_sweep(cfg)
        assert [r["status"] for r in rows] == ["ok", "ok"], rows
        train = experiment.apply_cell(cfg, {"scale_p": 2.0}).train
        assert (train.scale_p, train.scale_n) == (2.0, 1.0)
        raw["train"].update(scale_n=3.0)
        cfg = config_from_dict(raw)
        train = experiment.apply_cell(cfg, {"scale_p": 2.0}).train
        assert (train.scale_p, train.scale_n) == (2.0, 3.0)
        train = experiment.apply_cell(cfg, {"scale_n": 0.5}).train
        assert (train.scale_p, train.scale_n) == (None, 0.5)

    def test_ablation_switches_sweep_together(self, tmp_path):
        raw = blob_config(tmp_path)
        raw["sweep"] = {"grad_mode": ["exact", "paper"], "q_variant": ["plain", "scaled"]}
        rows = experiment.run_sweep(config_from_dict(raw))
        assert [(r["grad_mode"], r["q_variant"]) for r in rows] == [
            ("exact", "plain"), ("exact", "scaled"), ("paper", "plain"), ("paper", "scaled")]
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize("grid, message", [
        ({"sigma": 0.5}, "sweep.sigma must be a non-empty list"),
        ({"sigma": []}, "sweep.sigma must be a non-empty list"),
        ({"batch_size": [20, "x"]}, "sweep.batch_size must be int"),
        ({"grad_mode": [None]}, "sweep.grad_mode must be str"),
        ({"learning_rate": [0.1, -1]}, "^sweep.learning_rate must be above 0, got -1$"),
        ({"scale_p": [1.0], "scale_n": [None]}, "sweep.scale_n must be int or float, got None"),
        ({"momentum": [0.9]}, r"unknown sweep keys: \['momentum'\]"),
        ({"seed": [0, -1]}, "^sweep.seed must be at least 0, got -1$"),
    ])
    def test_sweep_grid_checked(self, tmp_path, grid, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(blob_config(tmp_path, sweep=grid))

    def test_empty_grid_rejected_by_sweep(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep grid is empty"):
            experiment.run_sweep(config_from_dict(blob_config(tmp_path)))

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

    def test_trains_once_and_scores_each_model_once(self, tmp_path, counted):
        raw = blob_config(tmp_path)  # a curve point every 3 of the stages
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        counted(trainer, "train_stream")
        calls = counted(experiment, "evaluate_model")
        reports, _ = experiment.run_unseen(config_from_dict(raw))
        assert calls == {"train_stream": 1, "evaluate_model": 2}
        assert [r.method for r in reports] == ["trained", "lsh_baseline"]

    @pytest.mark.parametrize("every_n_stages", [1, 2])
    def test_scores_once_at_any_eval_interval(self, tmp_path, counted, every_n_stages):
        # a curve point every stage or two, as in train; unseen scores the
        # trained model at its last stage only, then the baseline
        raw = blob_config(tmp_path, eval={"cutoff": 50, "r_max": 20,
                                          "every_n_stages": every_n_stages})
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        counted(trainer, "train_stream")
        calls = counted(experiment, "evaluate_model")
        experiment.run_unseen(config_from_dict(raw))
        assert calls == {"train_stream": 1, "evaluate_model": 2}

    def test_encodes_the_held_out_columns_only(self, tmp_path, monkeypatch):
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        cfg = config_from_dict(raw)
        features, labels = experiment.load_dataset(cfg.dataset)
        _, retrieval, test = data.unseen_split(features, labels, cfg.unseen.seen_fraction,
                                               cfg.split.seed, test_per_class=10)
        held_out = features[:, np.union1d(retrieval.idx, test.idx)]
        assert held_out.shape[1] < features.shape[1]
        encoded = []

        def spy(model, X, real=hm.encode_binary):
            encoded.append(X.copy())
            return real(model, X)

        monkeypatch.setattr(hm, "encode_binary", spy)
        experiment.run_unseen(cfg)
        assert len(encoded) == 2  # the trained model and the baseline
        assert all(X.shape == held_out.shape and (X == held_out).all() for X in encoded)

    def test_empty_test_set_fails_before_training(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trainer, "train_stage", None)  # any stage would raise TypeError
        raw = blob_config(tmp_path)
        # each held-out class has one instance, and a test sample is at most half a class
        raw["dataset"].update(num_classes=4, per_class=1)
        with pytest.raises(SplitError, match="empty test set"):
            experiment.run_unseen(config_from_dict(raw), out_dir=tmp_path / "u")
        assert not (tmp_path / "u").exists()

    def test_aborted_stream_raises(self, tmp_path, failing_second_stage):
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        with pytest.raises(NumericError, match=r"aborted after 1 of \d+ stages"):
            experiment.run_unseen(config_from_dict(raw), out_dir=tmp_path / "u")
        assert not (tmp_path / "u").exists()

    def test_aborted_stream_is_not_scored(self, tmp_path, failing_second_stage, counted):
        raw = blob_config(tmp_path)
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        calls = counted(experiment, "evaluate_model")
        with pytest.raises(NumericError, match=r"^aborted after 1 of \d+ stages$"):
            experiment.run_unseen(config_from_dict(raw))
        assert calls == {"evaluate_model": 0}

    def test_digest_covers_the_unseen_protocol(self, tmp_path):
        # each held-out protocol reports its own digest; the digest of
        # train, eval and sweep reports does not see the unseen section
        report_digests, config_digests = set(), set()
        for unseen in ({"test_per_class": 10}, {"test_per_class": 10, "seen_fraction": 0.5},
                       {"test_per_class": 5}):
            raw = blob_config(tmp_path, unseen=unseen)
            raw["dataset"]["num_classes"] = 4
            cfg = config_from_dict(raw)
            reports, _ = experiment.run_unseen(cfg)
            assert reports[0].config_digest == reports[1].config_digest
            report_digests.add(reports[0].config_digest)
            config_digests.add(cfg.digest())
        assert len(report_digests) == 3 and len(config_digests) == 1

    @pytest.mark.parametrize("r_max", [5, 10])
    def test_precision_at_10_is_blank_below_r_max_10(self, tmp_path, r_max):
        raw = blob_config(tmp_path, eval={"cutoff": 50, "r_max": r_max, "every_n_stages": 3})
        raw["dataset"]["num_classes"] = 4
        raw["unseen"] = {"test_per_class": 10}
        reports, _ = experiment.run_unseen(config_from_dict(raw), out_dir=tmp_path / "u")
        with open(tmp_path / "u/unseen_report.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        first = [repr(r.precision_at_r[0]) for r in reports]
        assert [row["precision_at_1"] for row in rows] == first
        expected = [repr(r.precision_at_r[9]) if r_max >= 10 else "" for r in reports]
        assert [row["precision_at_10"] for row in rows] == expected
