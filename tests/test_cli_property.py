"""CLI-wide property test: cli.main, run in-process on hypothesis-drawn
configs near the edges of the data and the settings, ends in a documented
exit code, and exit 0 means the command did all of its work."""

import csv
import json
import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from streamhash import cli, data, trainer

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# a value whose repr would fill a screen: --set bits=<5000 digits> reads it
# as a string, because JSON stops at 4300 digits
LONG = "1" * 5000
# one or two values per key, bad ones among them
SWEEP_VALUES = {
    "learning_rate": [0.1, -1, 0],
    "batch_size": [2, 3, 1],
    "p_variant": ["raw", "gaussian"],
    "sigma": [0.35, 1.0],
    "grad_mode": ["exact", "paper", "bogus"],
}
# a negative seed is a config error; most draws keep every seed valid
SEEDS = st.sampled_from([0, 0, 0, -1])


@st.composite
def cases(draw):
    """A command and a config over a tiny IDX dataset: up to 3 classes of
    0-3 instances each, 1-3 bits (or LONG), every size a few either side
    of the data it applies to, and seeds of 0 or -1."""
    command = draw(st.sampled_from(["train", "sweep", "unseen", "split"]))
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    n = sum(counts)
    grid = {}
    if command == "sweep":
        for key in draw(st.lists(st.sampled_from(sorted(SWEEP_VALUES)), min_size=1,
                                 max_size=2, unique=True)):
            grid[key] = draw(st.lists(st.sampled_from(SWEEP_VALUES[key]), min_size=1,
                                      max_size=2, unique=True))
    return {
        "command": command,
        "counts": counts,
        "missing_dataset": draw(st.booleans()) if command == "sweep" else False,
        "config": {
            "split": {"test_per_class": draw(st.integers(0, 2)),
                      "train_size": draw(st.integers(0, 3)), "seed": draw(SEEDS)},
            "bits": draw(st.integers(1, 3) | st.just(LONG)),
            "epochs": draw(st.integers(1, 2)),
            "seed": draw(SEEDS),
            "train": {"learning_rate": 0.1, "sigma": 0.35, "inner_iters": 1, "seed": draw(SEEDS),
                      "batch_size": draw(st.integers(2, 3)),
                      "p_variant": draw(st.sampled_from(["gaussian", "raw"]))},
            "eval": {"cutoff": draw(st.integers(max(1, n - 2), n + 2)),
                     "r_max": draw(st.integers(max(1, n - 2), n + 2)),
                     "every_n_stages": draw(st.integers(1, 2))},
            "sweep": grid,
            "unseen": {"seen_fraction": draw(st.sampled_from([0.5, 0.75])),
                       "test_per_class": draw(st.integers(0, 2)), "bits": draw(st.integers(1, 2))},
        },
    }


def write_idx(directory: Path, counts: list[int]) -> dict:
    """An IDX pair of 1 x 2 images, counts[c] of class c, pixels varying by
    instance and class."""
    labels = [c for c, count in enumerate(counts) for _ in range(count)]
    pixels = bytes(v for i, c in enumerate(labels) for v in ((37 * i) % 256, 80 * c))
    images, label_file = directory / "images.idx", directory / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 2051, len(labels), 1, 2) + pixels)
    label_file.write_bytes(struct.pack(">II", 2049, len(labels)) + bytes(labels))
    return {"kind": "idx", "images": str(images), "labels": str(label_file)}


def planned_stages(cfg: dict) -> int:
    """Stages of the stream: one per batch_size instances of the training
    pool, a final short batch only if it has 2 or more, in every epoch."""
    size, batch = cfg["split"]["train_size"], cfg["train"]["batch_size"]
    return cfg["epochs"] * (size // batch + (size % batch >= 2))


def csv_rows(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def edge(command, counts, missing_dataset=False, **sections):
    """An explicit example: a small config that runs, with the given keys
    of each section replaced (the sweep grid, bits and seed whole)."""
    config = {
        "split": {"test_per_class": 1, "train_size": 2, "seed": 0}, "bits": 2, "epochs": 1,
        "seed": 0,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "inner_iters": 1, "batch_size": 2,
                  "p_variant": "gaussian", "seed": 0},
        "eval": {"cutoff": 2, "r_max": 2, "every_n_stages": 1}, "sweep": {},
        "unseen": {"seen_fraction": 0.5, "test_per_class": 1, "bits": 2},
    }
    for name, value in sections.items():
        config[name] = value if name in ("bits", "seed", "sweep") else {**config[name], **value}
    return {"command": command, "counts": counts, "missing_dataset": missing_dataset,
            "config": config}


# each example failed at the commit before the fixes it names
@SETTINGS
@given(case=cases())
# a sweep whose cells all fail: a bad grid value, a dataset file that does
# not exist, raw P on 2-instance batches with no similar pair
@example(case=edge("sweep", [3, 3], sweep={"learning_rate": [-1, 0]}))
@example(case=edge("sweep", [3, 3], missing_dataset=True, sweep={"sigma": [0.35]}))
@example(case=edge("sweep", [2, 2, 2], sweep={"p_variant": ["raw"]}))
# a long bad value
@example(case=edge("train", [3, 3], bits=LONG))
# a training pool of one instance makes no stage
@example(case=edge("train", [3], split={"train_size": 1}))
# an empty dataset
@example(case=edge("split", [0], split={"train_size": 0}))
# an empty test set, in the standard and the held-out protocols
@example(case=edge("train", [3, 3], split={"test_per_class": 0}, eval={"every_n_stages": 2}))
@example(case=edge("unseen", [3, 3], unseen={"test_per_class": 0}))
# an empty train part, which split wrote as a file that does not load
@example(case=edge("split", [2, 2], split={"train_size": 0}))
# a negative seed, which numpy's generator rejects
@example(case=edge("train", [3, 3], split={"seed": -1}))
@example(case=edge("unseen", [3, 3], train={"seed": -1}))
@example(case=edge("train", [3, 3], seed=-1))
def test_every_run_ends_in_a_documented_code(monkeypatch, capsys, case):
    stages = []
    real = trainer.train_stage

    def counted(model, batch, cfg):
        stages.append(batch.stage_index)
        return real(model, batch, cfg)

    # one context per example: hypothesis reuses the function's monkeypatch
    with monkeypatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(trainer, "train_stage", counted)
        tmp = Path(tmp)
        raw = dict(case["config"], dataset=write_idx(tmp, case["counts"]),
                   output_dir=str(tmp / "out"))
        if case["missing_dataset"]:
            raw["dataset"]["images"] = str(tmp / "missing.idx")
        config = tmp / "config.json"
        config.write_text(json.dumps(raw))
        command = case["command"]
        code = cli.main([command, "--config", str(config)])  # any exception fails the test
        assert code in (0, 2, 3, 4, 5)
        # an error names a value without repeating all of it
        assert all(len(line) < 200 for line in capsys.readouterr().err.splitlines())

        held_out = command == "unseen"
        if (raw["unseen"] if held_out else raw["split"])["test_per_class"] == 0:
            assert code != 0 and not stages  # an empty test set fails before training
        if min(raw["seed"], raw["split"]["seed"], raw["train"]["seed"]) < 0:
            assert code == 2 and not stages
        out = tmp / "out"
        parts = [out / f"{part}.txt" for part in ("train", "retrieval", "test")]
        if code != 0:
            assert not any(path.exists() for path in parts)  # split writes all parts or none
            return
        if command == "train":
            planned = planned_stages(raw)
            assert planned >= 1
            assert [int(r["stage_index"]) for r in csv_rows(out / "stages.csv")] == list(
                range(1, planned + 1))
        elif command == "sweep":
            assert any(r["status"] == "ok" for r in csv_rows(out / "sweep.csv"))
        elif held_out:
            assert len(csv_rows(out / "unseen_report.csv")) == 2
        else:
            for path in parts:
                data.load_dense(path)
