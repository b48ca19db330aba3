"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured quantities.

Criteria 6 and 7 need the real MNIST IDX files (uncompressed). Point
STREAMHASH_MNIST at a directory holding train-images-idx3-ubyte and
train-labels-idx1-ubyte (t10k files are concatenated in when present), or
drop them under data/mnist/. Without the files those two tests skip, and
their accuracy thresholds apply to MNIST only; the same protocol runs at
MNIST's shape on a seeded synthetic IDX pair in any case.
"""

import math
import os
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from streamhash import cli, data, distribution as dist, experiment, index, metrics
from streamhash import model as hm
from streamhash import trainer
from streamhash.distribution import GaussianParams
from streamhash.experiment import config_from_dict
from streamhash.trainer import TrainConfig

from oracles import fd_oracle, grad_loss
from test_distribution import code_q
from test_metrics import bf_metrics


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- 1: gradient correctness -------------------------------------------------

def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        n_t = int(rng.integers(3, 9))      # n_t <= 8
        d = int(rng.integers(2, 6))        # d <= 5
        k = int(rng.integers(1, 5))        # k <= 4
        X = rng.standard_normal((d, n_t))
        labels = rng.integers(0, 3, size=n_t)
        cfg = TrainConfig(grad_mode="exact",
                          q_variant="scaled" if trial % 2 else "plain",
                          scale_p=2.0, scale_n=0.8)
        model = hm.init(d, k, seed=trial)
        P, eta = trainer.build_target(labels, cfg, k)
        g = grad_loss(X, model, P, eta, cfg)
        g_fd = fd_oracle(X, model, P, eta, cfg, step=1e-5)
        worst = max(worst, np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-12))
    elapsed = time.perf_counter() - t0
    check(1, "gradient correctness",
          worst < 1e-4 and elapsed < 1.0,
          f"max relative error {worst:.3e} (< 1e-4), runtime {elapsed:.2f}s (< 1s)")


# --- 2: distribution normalization -------------------------------------------

def test_criterion_2_distribution_normalization():
    rng = np.random.default_rng(7)
    worst_sum_dev = 0.0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 3, size=n)
        S = dist.build_similarity(labels)
        B = rng.uniform(-1, 1, size=(4, n))
        off = ~np.eye(n, dtype=bool)
        mats = {
            "p_gaussian": dist.p_gaussian(S),
            "q_plain": code_q(B, labels),
            "q_scaled": code_q(B, labels, (2.0, 1.0)),
        }
        has_similar_pair = S[off].sum() > 0
        if has_similar_pair:
            mats["p_raw"] = dist.p_raw(S)
        for name, M in mats.items():
            worst_sum_dev = max(worst_sum_dev, abs(M.sum() - 1.0))
            ok &= abs(M.sum() - 1.0) < 1e-9
            ok &= (np.diag(M) == 0).all()
        ok &= (mats["p_gaussian"][off] > 0).all()
        if has_similar_pair:
            dissim = off & ~S
            ok &= (mats["p_raw"][dissim] == 0).all()
    check(2, "distribution normalization", bool(ok),
          f"1000 inputs, worst off-diagonal sum deviation {worst_sum_dev:.2e} (< 1e-9)")


# --- 3: imbalance smoothing --------------------------------------------------

def test_criterion_3_imbalance_smoothing():
    labels = np.array([0, 0, 1, 2])
    S = dist.build_similarity(labels)
    P = dist.p_gaussian(S, GaussianParams(mu=1.0, sigma=1.0))
    ratio = P[0, 1] / P[0, 2]
    expected = math.exp(0.5)
    Praw = dist.p_raw(S)
    raw_dissim_mass = Praw[~S & ~np.eye(4, dtype=bool)].sum()
    ok = abs(ratio - expected) < 1e-6 and raw_dissim_mass == 0.0
    check(3, "imbalance smoothing", ok,
          f"smoothed ratio {ratio:.9f} vs e^0.5 {expected:.9f}; "
          f"raw dissimilar mass {raw_dissim_mass} (exact 0 -> infinite ratio)")


# --- 4: Hamming identity -----------------------------------------------------

def test_criterion_4_hamming_identity():
    # the popcount distances evaluation ranks by against the distances
    # training forms from the same codes
    rng = np.random.default_rng(11)
    identity_ok = True
    for _ in range(400):
        k = int(rng.integers(1, 17))
        B = rng.choice([-1.0, 1.0], size=(k, 2))
        packed = index.pack(B)
        pop = index.hamming_to_db(packed.words, packed)
        identity_ok &= (pop == dist.pairwise_hamming_sq(B)).all()
    axioms_ok = True
    B = rng.choice([-1.0, 1.0], size=(96, 40))
    w = index.pack(B)
    d = index.hamming_to_db(w.words, w).astype(int)
    for _ in range(300):
        i, j, l = rng.integers(0, 40, size=3)
        axioms_ok &= d[i, j] == d[j, i]
        axioms_ok &= d[i, i] == 0
        axioms_ok &= d[i, j] <= d[i, l] + d[l, j]
    check(4, "hamming identity", identity_ok and axioms_ok,
          "popcount == quarter-squared-norm on all sampled pairs; metric axioms hold")


# --- 5: synthetic-blob learning ----------------------------------------------

BLOB_SWEEP = {"sigma": [0.35, 1.0], "learning_rate": [0.1, 0.3]}


def blob_raw_config(out_dir, seed=0):
    return {
        "dataset": {"kind": "synth", "num_classes": 4, "dim": 16,
                    "per_class": 600, "spread": 0.4, "seed": 7},
        "split": {"test_per_class": 100, "train_size": 2000, "seed": 0},
        "bits": 16,
        "train": {"learning_rate": 0.1, "sigma": 0.35, "scale_p": 1.0, "scale_n": 1.0,
                  "batch_size": 50, "inner_iters": 5, "seed": seed},
        "eval": {"cutoff": 2000, "r_max": 100, "every_n_stages": 1000},
        "output_dir": str(out_dir),
        "seed": seed,
        "sweep": BLOB_SWEEP,
    }


def test_criterion_5_synthetic_blob_learning(tmp_path):
    t0 = time.perf_counter()
    cfg = config_from_dict(blob_raw_config(tmp_path))
    rows = experiment.run_sweep(cfg)
    best = max((r for r in rows if r["status"] == "ok"), key=lambda r: r["map"])
    best_cell = {k: best[k] for k in sorted(BLOB_SWEEP)}

    # robustness of the best cell across three seeds, against the matching
    # seeded untrained baseline
    maps, margins = [], []
    for seed in (0, 1, 2):
        seed_cfg = experiment.apply_cell(
            config_from_dict(blob_raw_config(tmp_path, seed=seed)), best_cell
        )
        outcome = experiment.run_train(seed_cfg)
        features, labels = experiment.load_dataset(seed_cfg.dataset)
        _, retrieval, test = data.split(features, labels, seed_cfg.split)
        baseline = experiment.evaluate_model(
            hm.init(16, 16, scale=1.0, seed=seed), retrieval, test,
            seed_cfg.eval.cutoff, seed_cfg.eval.r_max,
        )
        maps.append(outcome.final_metrics["map"])
        margins.append(outcome.final_metrics["map"] - baseline["map"])
    elapsed = time.perf_counter() - t0
    ok = min(maps) >= 0.95 and min(margins) >= 0.10 and elapsed < 30.0
    check(5, "synthetic-blob learning", ok,
          f"best cell {best_cell}; trained mAP {['%.4f' % m for m in maps]} (>= 0.95), "
          f"margins over baseline {['%.4f' % m for m in margins]} (>= 0.10), "
          f"runtime {elapsed:.1f}s (< 30s), seeds 0/1/2")


# --- 6 and 7: MNIST ----------------------------------------------------------

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
MNIST_EXTRA = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def mnist_dir():
    return Path(os.environ.get("STREAMHASH_MNIST", "data/mnist"))


def load_mnist_or_skip():
    root = mnist_dir()
    if not all((root / f).exists() for f in MNIST_FILES):
        pytest.skip(
            f"MNIST IDX files not present under {root} and not fetchable in "
            "this sandbox (no network route); set STREAMHASH_MNIST to run"
        )
    X, y = data.load_idx(root / MNIST_FILES[0], root / MNIST_FILES[1])
    if all((root / f).exists() for f in MNIST_EXTRA):
        X2, y2 = data.load_idx(root / MNIST_EXTRA[0], root / MNIST_EXTRA[1])
        X = np.concatenate([X, X2], axis=1)
        y = np.concatenate([y, y2])
    return data.normalize_pixels(X), y


MNIST_SWEEP = {"sigma": [0.25, 0.35, 0.5], "learning_rate": [0.1, 0.3]}


def run_mnist_configuration(features, labels, bits, train_overrides, curve=False):
    """One full protocol run through experiment.train_parts, which raises
    unless every stage completes, scoring the last stage and, with curve,
    every 40th; returns (trained metrics, baseline metrics, curve points
    (instances seen, mAP), wall time)."""
    spec = data.SplitSpec(test_per_class=100, train_size=20000, seed=0)
    t0 = time.perf_counter()
    train_split, retrieval, test = data.split(features, labels, spec)
    base = {"learning_rate": 0.1, "sigma": 0.35, "scale_p": 1.0, "scale_n": 1.0,
            "batch_size": 50, "inner_iters": 5, "seed": 0}
    base.update(train_overrides)
    cfg = experiment.ExperimentConfig(
        dataset={}, split=spec, train=experiment.train_config(base), bits=bits,
        eval=experiment.EvalOptions(cutoff=1000, r_max=100, every_n_stages=40))
    outcome = experiment.train_parts(cfg, train_split, retrieval, test, curve=curve)
    points = [(instances, map_) for _, instances, map_, *_ in outcome.curve_rows]
    baseline = experiment.evaluate_model(
        hm.init(features.shape[0], bits, scale=1.0, seed=0), retrieval, test, 1000, 100
    )
    return outcome.final_metrics, baseline, points, time.perf_counter() - t0


def test_criterion_6_mnist_reproduction():
    features, labels = load_mnist_or_skip()
    # documented sweep at 32 bits over the grid the CLI sweep command exposes
    best_map, best_cell = -1.0, None
    for sigma in MNIST_SWEEP["sigma"]:
        for lr in MNIST_SWEEP["learning_rate"]:
            trained, _, _, _ = run_mnist_configuration(
                features, labels, 32, {"sigma": sigma, "learning_rate": lr}
            )
            if trained["map"] > best_map:
                best_map, best_cell = trained["map"], {"sigma": sigma, "learning_rate": lr}

    details = [f"swept cells {MNIST_SWEEP}, best {best_cell}"]
    ok = True
    margins = {}
    for bits in (32, 48, 64, 128):
        trained, baseline, _, elapsed = run_mnist_configuration(
            features, labels, bits, best_cell
        )
        margins[bits] = trained["map"] - baseline["map"]
        ok &= elapsed <= 600.0
        ok &= margins[bits] >= 0.25
        if bits == 32:
            ok &= trained["map"] >= 0.70 and trained["precision_h2"] >= 0.70
            details.append(
                f"32-bit mAP {trained['map']:.4f} (>= 0.70), "
                f"PH2 {trained['precision_h2']:.4f} (>= 0.70)"
            )
        details.append(f"{bits}-bit margin {margins[bits]:+.4f} (>= 0.25), {elapsed:.0f}s")
    check(6, "MNIST desk-scale reproduction", ok, "; ".join(details))


def test_criterion_7_mnist_early_stage_shape():
    features, labels = load_mnist_or_skip()
    # curve every 40 stages of 50 = every 2000 instances at 32 bits
    trained, _, curve, _ = run_mnist_configuration(
        features, labels, 32, {"sigma": 0.35, "learning_rate": 0.1}, curve=True
    )
    early = dict(curve).get(2000)
    final = trained["map"]
    ok = early is not None and early >= 0.8 * final
    check(7, "early-stage generalization", ok,
          f"mAP at 2K instances {early} vs final {final:.4f} (need >= 80%)")


@pytest.fixture
def synthetic_mnist_idx(tmp_path):
    """An IDX pair at MNIST's shape: synth_blobs at 10 classes x 7000 x 784,
    spread 4, mapped from [-13, 13] onto the bytes 0..255 (clipped)."""
    X, y = data.synth_blobs(10, 784, 7000, 4.0, seed=0)
    X += 13.0
    X *= 255 / 26
    np.clip(np.rint(X, out=X), 0, 255, out=X)
    pixels = X.T.astype(np.uint8)  # one row of 28 x 28 bytes per image
    del X
    images, labels = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", 2051, y.size, 28, 28) + pixels.tobytes())
    labels.write_bytes(struct.pack(">II", 2049, y.size) + y.astype(np.uint8).tobytes())
    return {"kind": "idx", "images": str(images), "labels": str(labels)}


def test_north_star_protocol_at_mnist_shape(synthetic_mnist_idx):
    # criterion 7's run: the 70k x 784 IDX load scaled in place, 400 stages
    # of 50 at 32 bits and a curve point every 40 stages against a 69k
    # database; the MNIST accuracy thresholds are not applied to this data
    features, labels = experiment.load_dataset(synthetic_mnist_idx)
    assert features.shape == (784, 70000)
    tracemalloc.start()
    try:
        trained, _, curve, elapsed = run_mnist_configuration(
            features, labels, 32, {"sigma": 0.35, "learning_rate": 0.1}, curve=True
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rerun, _, rerun_curve, _ = run_mnist_configuration(
        features, labels, 32, {"sigma": 0.35, "learning_rate": 0.1}, curve=True
    )
    # the run raises unless all 400 stages complete; a point every 2000 instances
    ok = [seen for seen, _ in curve] == list(range(2000, 20001, 2000))
    ok &= rerun_curve == curve and rerun == trained
    ok &= elapsed <= 600.0
    # beyond the float matrix, which is allocated before tracing starts
    ok &= peak < 48 * 2**20
    check("6/7 shape", "north-star protocol on a synthetic IDX pair", ok,
          f"{len(curve)} curve points, mAP {curve[0][1]:.4f} -> {curve[-1][1]:.4f}, "
          f"rerun bit-identical {rerun_curve == curve}, {elapsed:.1f}s (<= 600s), "
          f"tracemalloc peak {peak / 2**20:.1f} MiB (< 48)")


# --- 8: metric oracle equivalence ---------------------------------------------

def test_criterion_8_metric_oracle_equivalence():
    # one query against database codes at distances 0, 1, 2, of which the
    # first and the last share its label
    db_codes = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
    hand = metrics.retrieval_scores(index.pack(np.ones((2, 1)), np.array([0])),
                                    index.pack(db_codes, np.array([0, 1, 0])))["map"]
    # the hand enumeration of the AP sum: (1/2)(1/1 + 2/3) = 5/6
    ok = hand == (1 / 1 + 2 / 3) / 2
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n_db = int(rng.integers(5, 21))
        db_B = rng.choice([-1.0, 1.0], size=(6, n_db))
        q_B = rng.choice([-1.0, 1.0], size=(6, 4))
        db_labels = rng.integers(0, 3, size=n_db)
        q_labels = rng.integers(0, 3, size=4)
        db = index.pack(db_B, db_labels)
        queries = index.pack(q_B, q_labels)
        cutoff, r_max = min(7, n_db), min(10, n_db)
        expect = [bf_metrics(q_B[:, i], q_labels[i], db_B, db_labels, cutoff, r_max)
                  for i in range(4)]
        pairs = [
            (metrics.mean_ap(queries, db), np.mean([e[0] for e in expect])),
            (metrics.mean_ap(queries, db, cutoff=cutoff), np.mean([e[1] for e in expect])),
            (metrics.precision_h2(queries, db), np.mean([e[2] for e in expect])),
        ]
        ok &= all(got == want for got, want in pairs)
        series = metrics.precision_at_r(queries, db, r_max)
        want_series = np.mean([e[3] for e in expect], axis=0)
        ok &= (series == want_series).all()
    check(8, "metric oracle equivalence", bool(ok),
          "mAP, mAP@k, Precision@H2, Precision@R equal brute force exactly; "
          f"AP[1,0,1] = {hand} = 5/6")


# --- 9: variant ablation --------------------------------------------------------

def test_criterion_9_variant_ablation(tmp_path):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        B = rng.uniform(-1, 1, size=(5, n))
        labels = rng.integers(0, 3, size=n)
        worst = max(worst, np.abs(code_q(B, labels, (1.0, 1.0))
                                  - code_q(B, labels)).max())

    # both distribution variants drive full training runs -> two curves
    curves = {}
    for name, overrides in [
        ("smoothed_scaled", {}),
        ("raw_plain", {"train.p_variant": "raw", "train.q_variant": "plain"}),
    ]:
        raw = blob_raw_config(tmp_path / name)
        for dotted, v in overrides.items():
            section, key = dotted.split(".")
            raw[section][key] = v
        raw["eval"]["every_n_stages"] = 20
        cfg = config_from_dict(raw)
        experiment.run_train(cfg, out_dir=tmp_path / name)
        lines = (tmp_path / name / "curve.csv").read_text().splitlines()
        curves[name] = len(lines) - 1
    ok = worst < 1e-12 and all(v >= 1 for v in curves.values())
    check(9, "variant ablation", ok,
          f"max |q_scaled(1,1) - q_plain| = {worst:.2e} (< 1e-12); "
          f"curve rows per variant: {curves}")


# --- 10: determinism -----------------------------------------------------------

def test_criterion_10_cmd_train_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(blob_raw_config(tmp_path / "ignored")))
    assert cli.main(["train", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "r1")]) == 0
    assert cli.main(["train", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "r2")]) == 0
    a = (tmp_path / "r1/curve.csv").read_bytes()
    b = (tmp_path / "r2/curve.csv").read_bytes()
    check(10, "config-to-output determinism", a == b,
          f"curve CSVs byte-identical ({len(a)} bytes)")
