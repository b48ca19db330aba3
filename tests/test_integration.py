"""End-to-end runs over the same code paths a real image-dataset
experiment uses: IDX files on disk at 28x28 scale, the full split
protocol, streaming training, packed-code evaluation, and the
held-out-class protocol."""

import os
import re
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import streamhash
from streamhash import data, experiment, model as hm, trainer
from streamhash.experiment import config_from_dict

ROOT = Path(__file__).resolve().parents[1]


def write_surrogate_idx(tmp_path, n_classes=10, per_class=700, spread=0.9, seed=3):
    """Class blobs rendered as 28x28 byte images in the IDX pair format."""
    X, y = data.synth_blobs(n_classes, 784, per_class, spread, seed=seed)
    lo, hi = X.min(), X.max()
    pix = np.clip((X - lo) / (hi - lo) * 255, 0, 255).astype(np.uint8)
    images = pix.T.reshape(-1, 28, 28)
    img_path = tmp_path / "train-images-idx3-ubyte"
    lbl_path = tmp_path / "train-labels-idx1-ubyte"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, images.shape[0], 28, 28))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, len(y)))
        f.write(bytes(y.tolist()))
    return img_path, lbl_path


def test_idx_image_pipeline_learns(tmp_path):
    img_path, lbl_path = write_surrogate_idx(tmp_path)
    features, labels = data.load_idx(img_path, lbl_path)
    assert features.shape == (784, 7000)
    features = data.normalize_pixels(features)
    assert features.max() <= 1.0

    spec = data.SplitSpec(test_per_class=100, train_size=2000, seed=0)
    train_split, retrieval, test = data.split(features, labels, spec)
    assert test.labels.shape[0] == 1000

    cfg = experiment.train_config(
        {"sigma": 0.35, "learning_rate": 0.1, "scale_p": 1.0, "scale_n": 1.0}
    )
    model = hm.init(784, 32, 1.0, 0)
    stages = list(trainer.train_stream(model, data.stream(train_split, 50, 0), cfg))
    assert len(stages) == 40
    model = stages[-1][0]

    trained = experiment.evaluate_model(model, retrieval, test, 1000, 100)
    baseline = experiment.evaluate_model(
        hm.init(784, 32, scale=1.0, seed=0), retrieval, test, 1000, 100
    )
    # frozen seeded measurement: ~0.999 vs ~0.19 for the random projection
    assert trained["map"] >= 0.9
    assert trained["map"] - baseline["map"] >= 0.25


def test_idx_pipeline_through_cli_config(tmp_path):
    img_path, lbl_path = write_surrogate_idx(tmp_path, n_classes=4, per_class=150,
                                             spread=0.6, seed=5)
    raw = {
        "dataset": {"kind": "idx", "images": str(img_path), "labels": str(lbl_path)},
        "split": {"test_per_class": 20, "train_size": 300, "seed": 0},
        "bits": 24,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "scale_p": 1.0, "scale_n": 1.0,
                  "batch_size": 50, "inner_iters": 5},
        "eval": {"cutoff": 300, "r_max": 40, "every_n_stages": 3},
        "output_dir": str(tmp_path / "run"),
        "seed": 0,
    }
    outcome = experiment.run_train(config_from_dict(raw), out_dir=tmp_path / "run")
    assert (tmp_path / "run/curve.csv").exists()
    assert outcome.final_metrics["map"] > 0.8
    xs = [row[1] for row in outcome.curve_rows]
    assert xs == sorted(xs)


def test_unseen_class_protocol_generalizes(tmp_path):
    raw = {
        "dataset": {"kind": "synth", "num_classes": 8, "dim": 24, "per_class": 200,
                    "spread": 0.45, "seed": 11},
        "split": {"test_per_class": 10, "train_size": 100, "seed": 0},
        "bits": 16,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "scale_p": 1.0, "scale_n": 1.0,
                  "batch_size": 50, "inner_iters": 5},
        "eval": {"cutoff": 300, "r_max": 50, "every_n_stages": 1000},
        "output_dir": str(tmp_path),
        "seed": 0,
        "unseen": {"test_per_class": 50, "bits": 64},
    }
    reports, info = experiment.run_unseen(config_from_dict(raw), out_dir=tmp_path)
    trained, baseline = reports
    assert info["label_sets_disjoint"]
    assert trained.bits == 64
    assert [r.method for r in reports] == ["trained", "lsh_baseline"]
    # codes trained on six seen classes still rank the two held-out classes:
    # frozen seeded measurement is ~0.995 precision@10
    assert trained.precision_at_r[9] >= 0.9
    assert all(0.0 <= v <= 1.0 for v in trained.precision_at_r)


class TestPublicSurface:
    def test_exported_names(self):
        # submodules aside, exactly these names: a helper that only tests
        # use belongs in tests/oracles.py, not in the package namespace
        public = {name for name, value in vars(streamhash).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert public == {
            "GaussianParams", "HashModel", "MetricReport", "PackedCodes", "SplitSpec",
            "StageReport", "StreamingBatch", "TrainConfig", "build_similarity", "curve_auc",
            "encode_binary", "encode_relaxed", "init", "kl_loss",
            "load_checkpoint", "load_dense", "load_idx", "mean_ap",
            "normalize_pixels", "p_gaussian", "p_raw", "pack", "pairwise_hamming_sq",
            "precision_at_r", "precision_h2", "retrieval_scores", "save_checkpoint",
            "save_dense", "sgd_step", "split", "stream", "synth_blobs", "train_stage",
            "train_stream", "unpack", "unseen_split",
        }

    def test_readme_library_example_runs(self):
        text = (ROOT / "README.md").read_text()
        code = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("mAP ")
