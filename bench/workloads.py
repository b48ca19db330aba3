"""The benchmark's workloads: curve, stream_train and cli_dense.

Each workload makes its inputs from the seed in setup(), then runs passes of
the work a user waits for. Every operation a pass attempts (one run_train
call, one stage, one CLI command) is recorded with the problems found in it.
An operation fails when it raises, exits non-zero, completes fewer stages
than planned, reports a non-finite loss, or leaves outputs that fail
verification. finish() scores and verifies what the last pass produced and
charges any problem to that pass's last operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from streamhash import cli, data, experiment, index, metrics, trainer
from streamhash import model as hashmodel
from streamhash.distribution import GaussianParams

from reference import check_scores
from spans import patched

# Spread 0.4 saturates mAP at 1.0 and hides ranking cost; 3.0 does not.
SPREAD = 3.0
SIGMA = 0.35
LEARNING_RATE = 0.1
BATCH = 50
INNER_ITERS = 5
R_MAX = 100


def _train_section(seed: int) -> dict:
    # Gaussian P and scaled Q are the library defaults; sigma 0.35 learns.
    return {"learning_rate": LEARNING_RATE, "sigma": SIGMA, "batch_size": BATCH,
            "inner_iters": INNER_ITERS, "seed": seed}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    # Passes a run makes at the least, however short --seconds is.
    MIN_PASSES = 1

    def __init__(self, shape, seed: int, workdir: Path):
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.ops: list[list[str]] = []
        self.stages_planned = 0
        self.stages_done = 0
        self._first_curve: bytes | None = None

    def _same_curve(self, path: Path) -> list[str]:
        """Every pass trains one config, so curve.csv must repeat byte for byte."""
        curve = path.read_bytes()
        if self._first_curve is None:
            self._first_curve = curve
        return [] if curve == self._first_curve else ["curve.csv differs between repeats of one config"]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.ops if problems)

    def problems(self) -> list[str]:
        return [p for problems in self.ops for p in problems]


# ---------------------------------------------------------------------------
# curve: the north-star protocol in memory through experiment.run_train


@dataclass(frozen=True)
class CurveShape:
    classes: int
    dim: int
    per_class: int
    test_per_class: int
    train_size: int
    bits: int
    every: int  # stages between curve points
    points: int
    verify_queries: int


@dataclass
class Prepared:
    features: np.ndarray
    labels: np.ndarray
    split: tuple


class Curve(Workload):
    SHAPES = {
        "full": CurveShape(10, 784, 7000, 100, 20000, 32, 40, 3, 50),
        "tiny": CurveShape(4, 16, 120, 10, 300, 16, 2, 3, 10),
    }

    def __init__(self, shape, seed, workdir):
        super().__init__(shape, seed, workdir)
        s = shape
        self.cfg = experiment.config_from_dict({
            "dataset": {"kind": "synth", "num_classes": s.classes, "dim": s.dim,
                        "per_class": s.per_class, "spread": SPREAD, "seed": seed},
            "split": {"test_per_class": s.test_per_class, "train_size": s.train_size, "seed": seed},
            "bits": s.bits,
            "train": _train_section(seed),
            "eval": {"cutoff": 1000, "r_max": R_MAX, "every_n_stages": s.every},
            "output_dir": str(workdir / "curve"),
            "seed": seed,
        })
        self.curve_s: list[float] = []
        self.outcome = None

    def setup(self) -> Prepared:
        spec = self.cfg.dataset
        features, labels = data.synth_blobs(spec["num_classes"], spec["dim"], spec["per_class"],
                                            spec["spread"], spec["seed"])
        return Prepared(features, labels, data.split(features, labels, self.cfg.split))

    def _preloaded(self, prep: Prepared, stages: int):
        """Hand run_train the arrays setup made instead of regenerating them,
        and stop its stream after `stages` stages (a full 400-stage curve
        would evaluate ten times)."""
        load, split, make_batches = experiment.load_dataset, data.split, experiment.make_batches
        cfg = self.cfg

        def load_dataset(spec):
            return (prep.features, prep.labels) if spec == cfg.dataset else load(spec)

        def split_once(features, labels, spec):
            if features is prep.features and spec == cfg.split:
                return prep.split
            return split(features, labels, spec)

        return patched([
            (experiment, "load_dataset", load_dataset),
            (data, "split", split_once),
            (experiment, "make_batches", lambda train, c: make_batches(train, c)[:stages]),
        ])

    def run_pass(self, prep: Prepared) -> None:
        s = self.shape
        stages = s.every * s.points
        out = Path(self.cfg.output_dir)
        self.stages_planned += stages
        with self._preloaded(prep, stages):
            start = time.perf_counter()
            try:
                outcome = experiment.run_train(self.cfg, out_dir=out)
            except Exception as e:
                self.ops.append([f"run_train raised {e!r}"])
                return
            self.curve_s.append(time.perf_counter() - start)
        reports = outcome.stage_reports
        problems = []
        if len(reports) != stages:
            problems.append(f"run_train completed {len(reports)} of {stages} stages")
        if not all(_finite(r.loss_before, r.loss_after) for r in reports):
            problems.append("run_train reported a non-finite loss")
        if len(outcome.curve_rows) != s.points:
            problems.append(f"curve has {len(outcome.curve_rows)} points, expected {s.points}")
        problems.extend(self._same_curve(out / "curve.csv"))
        self.ops.append(problems)
        self.stages_done += len(reports)
        self.outcome = outcome

    def finish(self, prep: Prepared) -> None:
        if self.outcome is not None:
            rng = np.random.default_rng(self.seed)
            self.ops[-1].extend(check_scores(self.outcome.model, prep.split[1], prep.split[2],
                                             self.shape.verify_queries, rng, R_MAX))

    def named_metrics(self) -> dict:
        row = self.outcome.curve_rows[-1] if self.outcome else (math.nan,) * 6
        return {
            "curve_s": (statistics.median(self.curve_s) if self.curve_s else math.nan, "s"),
            "curve_map": (row[2], "ratio"),
            "curve_precision_h2": (row[4], "ratio"),
            "curve_auc": (row[5], "ratio"),
        }

    def headline(self):
        """(wall seconds of one pass, mAP) for the end-to-end result."""
        named = self.named_metrics()
        return named["curve_s"][0], named["curve_map"][0]


# ---------------------------------------------------------------------------
# stream_train: bursty stages timed from outside around trainer.train_stage


@dataclass(frozen=True)
class StreamShape:
    classes: int
    dim: int
    per_class: int  # pool instances per class
    test_per_class: int
    bits: int
    stages: int
    small: int
    large: int
    verify_queries: int


LARGE_SHARE = 0.1


@dataclass
class StreamInputs:
    pool: tuple
    test: tuple
    sizes: np.ndarray
    starts: np.ndarray
    order: np.ndarray


class StreamTrain(Workload):
    SHAPES = {
        "full": StreamShape(10, 784, 2000, 20, 64, 1000, 50, 400, 50),
        "tiny": StreamShape(4, 16, 100, 10, 16, 40, 10, 40, 10),
    }

    def __init__(self, shape, seed, workdir):
        super().__init__(shape, seed, workdir)
        self.cfg = trainer.TrainConfig(learning_rate=LEARNING_RATE,
                                       gaussian=GaussianParams(mu=1.0, sigma=SIGMA),
                                       inner_iters=INNER_ITERS)
        self.pass_s: list[float] = []
        self.stage_s: list[float] = []
        self.instances = 0
        self.model = None
        self.stream_map = math.nan

    def setup(self) -> StreamInputs:
        s = self.shape
        features, labels = data.synth_blobs(s.classes, s.dim, s.per_class + s.test_per_class,
                                            SPREAD, self.seed)
        pool, _, test = data.split(features, labels,
                                   data.SplitSpec(s.test_per_class, s.classes * s.per_class, self.seed))
        rng = np.random.default_rng(self.seed)
        # Exactly LARGE_SHARE of the stages are large, in a seeded order, so
        # every seed asks for the same work.
        n_large = round(LARGE_SHARE * s.stages)
        sizes = rng.permutation(np.repeat([s.large, s.small], [n_large, s.stages - n_large]))
        starts = np.cumsum(sizes) - sizes
        return StreamInputs(pool, test, sizes, starts, rng.permutation(pool[1].shape[0]))

    def run_pass(self, inp: StreamInputs) -> None:
        s = self.shape
        X, y = inp.pool
        model = hashmodel.init(s.dim, s.bits, 1.0, self.seed)
        pass_start = time.perf_counter()
        for i in range(s.stages):
            # consecutive stages walk one seeded permutation of the pool, wrapping
            idx = np.take(inp.order, np.arange(inp.starts[i], inp.starts[i] + inp.sizes[i]),
                          mode="wrap")
            batch = data.StreamingBatch(X[:, idx], y[idx], i + 1)
            start = time.perf_counter()
            try:
                next_model, report = trainer.train_stage(model, batch, self.cfg)
            except Exception as e:
                self.ops.append([f"stage {i + 1} raised {e!r}"])
                continue
            elapsed = time.perf_counter() - start
            if not _finite(report.loss_before, report.loss_after):
                self.ops.append([f"stage {i + 1} reported a non-finite loss"])
                continue
            self.ops.append([])
            model = next_model
            self.stage_s.append(elapsed)
            self.instances += batch.size
            self.stages_done += 1
        self.pass_s.append(time.perf_counter() - pass_start)
        self.stages_planned += s.stages
        self.model = model

    def finish(self, inp: StreamInputs) -> None:
        """Score the final model after the timed part and verify the scores."""
        db = index.pack(hashmodel.encode_binary(self.model, inp.pool[0]), inp.pool[1])
        queries = index.pack(hashmodel.encode_binary(self.model, inp.test[0]), inp.test[1])
        self.stream_map = metrics.mean_ap(queries, db)
        rng = np.random.default_rng(self.seed)
        self.ops[-1].extend(check_scores(self.model, inp.pool, inp.test,
                                         self.shape.verify_queries, rng, R_MAX))

    def named_metrics(self) -> dict:
        def stage_ms(q):
            return float(np.percentile(self.stage_s, q)) * 1e3 if self.stage_s else math.nan
        return {
            "stage_ms_p50": (stage_ms(50), "ms"),
            "stage_ms_p99": (stage_ms(99), "ms"),
            "train_instances_per_s": (self.instances / sum(self.stage_s) if self.stage_s else math.nan,
                                      "1/s"),
            "stream_map": (self.stream_map, "ratio"),
        }

    def headline(self):
        return statistics.median(self.pass_s), self.stream_map


# ---------------------------------------------------------------------------
# cli_dense: the README flow synth -> train -> eval through cli.main


@dataclass(frozen=True)
class CliShape:
    classes: int
    dim: int
    per_class: int
    test_per_class: int
    train_size: int
    bits: int
    every: int
    verify_queries: int
    verify_lines: int


class CliDense(Workload):
    # One pass is about 20 s of mostly interpreted text I/O, whose speed on a
    # shared host drifts over tens of seconds; a second pass averages more
    # of that drift out.
    MIN_PASSES = 2
    SHAPES = {
        "full": CliShape(10, 784, 1000, 10, 2000, 128, 10, 50, 20),
        "tiny": CliShape(4, 16, 60, 10, 200, 128, 1, 10, 5),
    }

    def __init__(self, shape, seed, workdir):
        super().__init__(shape, seed, workdir)
        s = shape
        self.data_path = workdir / "data.txt"
        self.config_path = workdir / "config.json"
        self.config = {
            "dataset": {"kind": "dense", "path": str(self.data_path)},
            "split": {"test_per_class": s.test_per_class, "train_size": s.train_size, "seed": seed},
            "bits": s.bits,
            "train": _train_section(seed),
            "eval": {"cutoff": 1000, "r_max": R_MAX, "every_n_stages": s.every},
            "output_dir": str(workdir / "train"),
            "seed": seed,
        }
        full, rest = divmod(s.train_size, BATCH)
        self.planned_stages = full + (rest >= 2)
        self.synth_s: list[float] = []
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.eval_map = math.nan

    def setup(self) -> Prepared:
        s = self.shape
        self.config_path.write_text(json.dumps(self.config))
        # the arrays `synth` must write, kept to verify the file and the scores
        features, labels = data.synth_blobs(s.classes, s.dim, s.per_class, SPREAD, self.seed)
        spec = data.SplitSpec(s.test_per_class, s.train_size, self.seed)
        return Prepared(features, labels, data.split(features, labels, spec))

    def _command(self, argv) -> tuple[float, list[str]]:
        """Run one streamhash command in-process; (seconds, problems)."""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            return time.perf_counter() - start, [f"streamhash {argv[0]} raised {e!r}"]
        elapsed = time.perf_counter() - start
        return elapsed, [] if code == 0 else [f"streamhash {argv[0]} exited {code}"]

    def _check_dense_file(self, prep: Prepared) -> list[str]:
        """Compare the header, a seeded sample of instance lines and the
        label line of the written file with the arrays synth_blobs made."""
        d, n = prep.features.shape
        rng = np.random.default_rng(self.seed)
        sample = set(rng.choice(n, size=min(self.shape.verify_lines, n), replace=False).tolist())
        with open(self.data_path) as f:
            if f.readline().split() != [str(d), str(n)]:
                return ["synth wrote a wrong header"]
            for i in range(n):
                line = f.readline()
                if i in sample and not np.array_equal(
                        np.array([float(v) for v in line.split()]), prep.features[:, i]):
                    return [f"synth wrote instance {i} inexactly"]
            if not np.array_equal(np.array([int(v) for v in f.readline().split()]), prep.labels):
                return ["synth wrote wrong labels"]
        return []

    def _check_stages(self, out: Path) -> list[str]:
        with open(out / "stages.csv") as f:
            rows = list(csv.DictReader(f))
        self.stages_done += len(rows)
        problems = []
        if len(rows) != self.planned_stages:
            problems.append(f"train completed {len(rows)} of {self.planned_stages} stages")
        if not all(_finite(float(r["loss_before"]), float(r["loss_after"])) for r in rows):
            problems.append("train reported a non-finite loss")
        return problems

    def run_pass(self, prep: Prepared) -> None:
        s = self.shape
        elapsed, problems = self._command([
            "synth", "--num-classes", str(s.classes), "--dim", str(s.dim),
            "--per-class", str(s.per_class), "--spread", repr(SPREAD),
            "--seed", str(self.seed), "--out", str(self.data_path)])
        self.synth_s.append(elapsed)
        self.ops.append(problems or self._check_dense_file(prep))

        out = self.workdir / "train"
        elapsed, problems = self._command(
            ["train", "--config", str(self.config_path), "--output-dir", str(out)])
        self.train_s.append(elapsed)
        self.stages_planned += self.planned_stages
        self.ops.append(problems or self._check_stages(out) + self._same_curve(out / "curve.csv"))

        elapsed, problems = self._command([
            "eval", "--checkpoint", str(self.workdir / "train" / "checkpoint.txt"),
            "--config", str(self.config_path), "--output-dir", str(self.workdir / "eval")])
        self.eval_s.append(elapsed)
        self.ops.append(problems)

    def finish(self, prep: Prepared) -> None:
        """Check the eval report against the train curve and re-score a
        sample of queries with the checkpoint's own weights."""
        problems = self.ops[-1]
        if problems:
            return
        with open(self.workdir / "eval" / "report.json") as f:
            trained = next(r for r in json.load(f) if r["method"] == "trained")
        self.eval_map = trained["map"]
        with open(self.workdir / "train" / "curve.csv") as f:
            last = list(csv.DictReader(f))[-1]
        if float(last["map"]) != self.eval_map:
            problems.append("eval map differs from the final curve point of the same model")
        with open(self.workdir / "train" / "checkpoint.txt") as f:
            f.readline()
            W = np.array([[float(v) for v in line.split()] for line in f])
        rng = np.random.default_rng(self.seed)
        problems.extend(check_scores(hashmodel.HashModel(W=W), prep.split[1], prep.split[2],
                                     self.shape.verify_queries, rng, R_MAX))

    def named_metrics(self) -> dict:
        def median(values):
            return statistics.median(values) if values else math.nan
        return {
            "synth_cmd_s": (median(self.synth_s), "s"),
            "train_cmd_s": (median(self.train_s), "s"),
            "eval_cmd_s": (median(self.eval_s), "s"),
            "eval_map": (self.eval_map, "ratio"),
        }

    def headline(self):
        named = self.named_metrics()
        return sum(named[k][0] for k in ("synth_cmd_s", "train_cmd_s", "eval_cmd_s")), self.eval_map


WORKLOADS = {"curve": Curve, "stream_train": StreamTrain, "cli_dense": CliDense}
