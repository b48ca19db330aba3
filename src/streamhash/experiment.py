"""Experiment configuration and the train/eval/sweep/unseen drivers.

A single JSON config file describes an experiment; every report embeds a
digest of the resolved config so results are self-describing. Validation
happens before any filesystem write, and all output formatting goes
through repr() so identical configs reproduce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data, index, metrics, model as hashmodel, trainer
from .data import SplitSpec
from .distribution import GaussianParams, ScalingParams
from .errors import ConfigError, DomainError, NumericError
from .index import PackedCodes
from .metrics import CONVENTIONS, CurvePoint, MetricReport
from .model import HashModel
from .trainer import TrainConfig

log = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "STREAMHASH_OUT"

DATASET_KINDS = ("idx", "dense", "synth")


@dataclass(frozen=True)
class EvalOptions:
    cutoff: int = 1000
    r_max: int = 100
    every_n_stages: int = 50


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    split: SplitSpec
    train: TrainConfig
    bits: int = 32
    init_scale: float = 1.0
    epochs: int = 1
    eval: EvalOptions = field(default_factory=EvalOptions)
    output_dir: str = "runs/default"
    seed: int = 0
    sweep: dict = field(default_factory=dict)
    unseen: dict = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of everything that determines results (not where they go)."""
        payload = {
            "dataset": self.dataset,
            "split": vars(self.split),
            "train": _train_to_dict(self.train),
            "bits": self.bits,
            "init_scale": self.init_scale,
            "epochs": self.epochs,
            "eval": vars(self.eval),
            "seed": self.seed,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _train_to_dict(cfg: TrainConfig) -> dict:
    return {
        "learning_rate": cfg.learning_rate,
        "mu": cfg.gaussian.mu,
        "sigma": cfg.gaussian.sigma,
        "scale_p": None if cfg.scaling is None else cfg.scaling.p,
        "scale_n": None if cfg.scaling is None else cfg.scaling.n,
        "batch_size": cfg.batch_size,
        "inner_iters": cfg.inner_iters,
        "grad_mode": cfg.grad_mode,
        "p_variant": cfg.p_variant,
        "q_variant": cfg.q_variant,
        "epsilon": cfg.epsilon,
        "seed": cfg.seed,
    }


_NUMBER, _INT, _STR = (int, float), (int,), (str,)

# The types each train field may have (bool never counts as int). Values
# are checked, not converted, so the digest payload holds them exactly as
# the config wrote them.
TRAIN_TYPES = {
    "learning_rate": _NUMBER, "mu": _NUMBER, "sigma": _NUMBER, "scale_p": _NUMBER,
    "scale_n": _NUMBER, "batch_size": _INT, "inner_iters": _INT, "grad_mode": _STR,
    "p_variant": _STR, "q_variant": _STR, "epsilon": _NUMBER, "seed": _INT,
}


def _check_train_types(raw: dict) -> None:
    # scale_p null means the default bits / 2, and then scale_n is unused
    nullable = {"scale_p", "scale_n"} if raw.get("scale_p") is None else set()
    for name, value in raw.items():
        kinds = TRAIN_TYPES[name]
        if value is None and name in nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, kinds):
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise ConfigError(f"train.{name} must be {expected}, got {value!r}")


def _train_from_dict(raw: dict) -> TrainConfig:
    unknown = set(raw) - set(TRAIN_TYPES)
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    _check_train_types(raw)
    scale_p = raw.get("scale_p")
    scale_n = raw.get("scale_n", 1.0)
    scaling = None if scale_p is None else ScalingParams(p=scale_p, n=scale_n)
    cfg = TrainConfig(
        learning_rate=raw.get("learning_rate", 0.1),
        gaussian=GaussianParams(mu=raw.get("mu", 1.0), sigma=raw.get("sigma", 1.0)),
        scaling=scaling,
        batch_size=raw.get("batch_size", 50),
        inner_iters=raw.get("inner_iters", 5),
        grad_mode=raw.get("grad_mode", "exact"),
        p_variant=raw.get("p_variant", "gaussian"),
        q_variant=raw.get("q_variant", "scaled"),
        epsilon=raw.get("epsilon", 1e-12),
        seed=raw.get("seed", 0),
    )
    cfg.validate()
    return cfg


def _validate_dataset(raw: dict) -> dict:
    kind = raw.get("kind")
    if kind not in DATASET_KINDS:
        raise ConfigError(f"dataset.kind must be one of {DATASET_KINDS}, got {kind!r}")
    required = {
        "idx": {"images", "labels"},
        "dense": {"path"},
        "synth": {"num_classes", "dim", "per_class", "spread", "seed"},
    }[kind]
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"dataset kind {kind!r} requires keys {sorted(missing)}")
    return dict(raw)


def _typed(kind, value, name: str):
    """kind(value) for a config field; a value that does not convert is a
    ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from e


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and fully validate an ExperimentConfig from parsed JSON."""
    known = {
        "dataset", "split", "train", "bits", "init_scale", "epochs",
        "eval", "output_dir", "seed", "sweep", "unseen",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "dataset" not in raw or "split" not in raw:
        raise ConfigError("config requires 'dataset' and 'split' sections")
    split_raw = raw["split"]
    try:
        split = SplitSpec(
            test_per_class=_typed(int, split_raw["test_per_class"], "split.test_per_class"),
            train_size=_typed(int, split_raw["train_size"], "split.train_size"),
            seed=_typed(int, split_raw.get("seed", 0), "split.seed"),
        )
    except KeyError as e:
        raise ConfigError(f"split section missing {e}") from e
    eval_raw = raw.get("eval", {})
    opts = EvalOptions(
        cutoff=_typed(int, eval_raw.get("cutoff", 1000), "eval.cutoff"),
        r_max=_typed(int, eval_raw.get("r_max", 100), "eval.r_max"),
        every_n_stages=_typed(int, eval_raw.get("every_n_stages", 50), "eval.every_n_stages"),
    )
    if opts.cutoff < 1 or opts.r_max < 1 or opts.every_n_stages < 1:
        raise ConfigError("eval options must be positive")
    cfg = ExperimentConfig(
        dataset=_validate_dataset(raw["dataset"]),
        split=split,
        train=_train_from_dict(raw.get("train", {})),
        bits=_typed(int, raw.get("bits", 32), "bits"),
        init_scale=_typed(float, raw.get("init_scale", 1.0), "init_scale"),
        epochs=_typed(int, raw.get("epochs", 1), "epochs"),
        eval=opts,
        output_dir=str(raw.get("output_dir", "runs/default")),
        seed=_typed(int, raw.get("seed", 0), "seed"),
        sweep=dict(raw.get("sweep", {})),
        unseen=dict(raw.get("unseen", {})),
    )
    if cfg.bits < 1:
        raise ConfigError("bits must be at least 1")
    if cfg.epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if cfg.init_scale < 0:
        raise ConfigError("init_scale must be non-negative")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return config_from_dict(raw)


def load_dataset(spec: dict):
    """Materialize (features, labels) from a dataset config section."""
    kind = spec["kind"]
    if kind == "idx":
        features, labels = data.load_idx(spec["images"], spec["labels"])
        if spec.get("normalize", True):
            features = data.normalize_pixels(features)
        return features, labels
    if kind == "dense":
        return data.load_dense(spec["path"])
    return data.synth_blobs(
        num_classes=int(spec["num_classes"]),
        dim=int(spec["dim"]),
        per_class=int(spec["per_class"]),
        spread=float(spec["spread"]),
        seed=int(spec["seed"]),
    )


# ---------------------------------------------------------------------------
# evaluation plumbing


def encode_packed(model: HashModel, features, labels) -> PackedCodes:
    return index.pack(hashmodel.encode_binary(model, features), labels)


def evaluate_model(model, retrieval, test, cutoff: int, r_max: int):
    """All retrieval metrics of one model on a retrieval/test split."""
    db = encode_packed(model, *retrieval)
    queries = encode_packed(model, *test)
    scores = metrics.retrieval_scores(queries, db, cutoff=cutoff, r_max=r_max)
    return {**scores, "precision_at_r": scores["precision_at_r"].tolist()}


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# drivers


@dataclass
class TrainOutcome:
    model: HashModel
    stage_reports: list
    curve_rows: list  # (stage_index, instances_seen, map, map_at_k, precision_h2, auc_so_far)
    final_metrics: dict
    stages_planned: int

    @property
    def stages_completed(self) -> int:
        return len(self.stage_reports)

    @property
    def aborted(self) -> bool:
        """True when a NumericError stopped the stream before its last stage."""
        return self.stages_completed < self.stages_planned

    @property
    def abort_reason(self) -> str:
        return f"aborted after {self.stages_completed} of {self.stages_planned} stages"


def make_batches(train_split, cfg: ExperimentConfig):
    """Streaming batches over the training pool, one list per run.

    Each epoch reshuffles with a distinct seed; stage indices continue
    across epochs.
    """
    features, labels = train_split
    batches = []
    for epoch in range(cfg.epochs):
        epoch_batches = data.stream(
            features, labels, cfg.train.batch_size, cfg.train.seed + epoch
        )
        batches.extend(trainer.with_stage_indices(epoch_batches, start=len(batches) + 1))
    return batches


def run_train(cfg: ExperimentConfig, out_dir: Path | None = None) -> TrainOutcome:
    """Train over the stream, evaluating periodically for the size curve.

    When out_dir is given, writes checkpoint.txt, stages.csv and curve.csv,
    also for a stream that a NumericError cut short (see TrainOutcome.aborted).
    """
    features, labels = load_dataset(cfg.dataset)
    train_split, retrieval, test = data.split(features, labels, cfg.split)
    batches = make_batches(train_split, cfg)
    model = hashmodel.init(features.shape[0], cfg.bits, cfg.init_scale, cfg.seed)

    curve_rows = []
    points: list[CurvePoint] = []
    seen = {"count": 0, "last_eval_stage": 0}

    def evaluate_at(stage_index: int):
        m = evaluate_model(model_box[0], retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
        points.append(CurvePoint(x=seen["count"], y=m["map"]))
        # a single point spans a degenerate interval; its AUC is its own value
        auc = metrics.curve_auc(points) if len(points) > 1 else m["map"]
        curve_rows.append(
            (stage_index, seen["count"], m["map"], m["map_at_k"], m["precision_h2"], auc)
        )
        seen["last_eval_stage"] = stage_index
        return m

    model_box = [model]

    def hook(current_model, report):
        model_box[0] = current_model
        seen["count"] += batch_sizes[report.stage_index - 1]
        if report.stage_index % cfg.eval.every_n_stages == 0:
            evaluate_at(report.stage_index)

    batch_sizes = [b.size for b in batches]
    model, stage_reports = trainer.train_stream(model, batches, cfg.train, eval_hook=hook)
    model_box[0] = model
    if stage_reports and seen["last_eval_stage"] != stage_reports[-1].stage_index:
        evaluate_at(stage_reports[-1].stage_index)
    elif not stage_reports:
        seen["count"] = 0
        evaluate_at(0)
    final_metrics = {
        "map": curve_rows[-1][2],
        "map_at_k": curve_rows[-1][3],
        "precision_h2": curve_rows[-1][4],
    }

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        hashmodel.save_checkpoint(model, out_dir / "checkpoint.txt")
        write_csv(
            out_dir / "stages.csv",
            ["stage_index", "loss_before", "loss_after", "grad_norm", "wall_time"],
            [
                (r.stage_index, r.loss_before, r.loss_after, r.grad_norm, r.wall_time)
                for r in stage_reports
            ],
        )
        write_csv(
            out_dir / "curve.csv",
            ["stage_index", "train_instances_seen", "map", "map_at_k", "precision_h2", "auc_so_far"],
            curve_rows,
        )
    return TrainOutcome(
        model=model,
        stage_reports=stage_reports,
        curve_rows=curve_rows,
        final_metrics=final_metrics,
        stages_planned=len(batches),
    )


def build_report(metric_values: dict, cfg: ExperimentConfig, method: str,
                 auc: float | None = None) -> MetricReport:
    return MetricReport(
        map=metric_values["map"],
        map_at_k=metric_values["map_at_k"],
        map_cutoff=cfg.eval.cutoff,
        precision_h2=metric_values["precision_h2"],
        precision_at_r=metric_values["precision_at_r"],
        auc=auc,
        bits=cfg.bits,
        seed=cfg.seed,
        config_digest=cfg.digest(),
        method=method,
    )


REPORT_COLUMNS = [
    "method", "bits", "seed", "map", "map_at_k", "map_cutoff", "precision_h2",
    "precision_at_1", "precision_at_10", "auc", "config_digest",
    "map_denominator", "h2_empty_ball", "tie_break",
]


def _report_row(r: MetricReport):
    series = r.precision_at_r
    return (
        r.method, r.bits, r.seed, r.map, r.map_at_k, r.map_cutoff, r.precision_h2,
        series[0], series[9] if len(series) > 9 else series[-1],
        "" if r.auc is None else r.auc, r.config_digest,
        r.conventions["map_denominator"], r.conventions["h2_empty_ball"],
        r.conventions["tie_break"],
    )


def write_reports(out_dir: Path, reports: list[MetricReport], stem: str = "report") -> None:
    """One CSV row per report plus a JSON mirror and the Precision@R series."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / f"{stem}.csv", REPORT_COLUMNS, [_report_row(r) for r in reports])
    payload = []
    for r in reports:
        entry = {
            "method": r.method,
            "bits": r.bits,
            "seed": r.seed,
            "map": r.map,
            "map_at_k": r.map_at_k,
            "map_cutoff": r.map_cutoff,
            "precision_h2": r.precision_h2,
            "precision_at_r": r.precision_at_r,
            "auc": r.auc,
            "config_digest": r.config_digest,
            "conventions": r.conventions,
        }
        payload.append(entry)
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    rows = []
    for r in reports:
        rows.extend((r.method, i + 1, v) for i, v in enumerate(r.precision_at_r))
    write_csv(out_dir / f"{stem}_precision_at_r.csv", ["method", "R", "precision"], rows)


def run_eval(model: HashModel, cfg: ExperimentConfig, out_dir: Path | None = None):
    """Evaluate a model and the seeded untrained baseline on cfg's split."""
    features, labels = load_dataset(cfg.dataset)
    _, retrieval, test = data.split(features, labels, cfg.split)
    cfg = replace(cfg, bits=model.k)  # report the checkpoint's actual width
    trained = evaluate_model(model, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
    baseline_model = index.lsh_baseline(features.shape[0], model.k, seed=cfg.seed)
    baseline = evaluate_model(baseline_model, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
    reports = [
        build_report(trained, cfg, "trained"),
        build_report(baseline, cfg, "lsh_baseline"),
    ]
    if out_dir is not None:
        write_reports(out_dir, reports)
    return reports


SWEEP_KEYS = (
    "learning_rate", "mu", "sigma", "scale_p", "scale_n", "batch_size", "inner_iters",
)


def sweep_cells(grid: dict) -> list[dict]:
    """Cartesian product of a {param: [values]} grid, validated."""
    unknown = set(grid) - set(SWEEP_KEYS)
    if unknown:
        raise ConfigError(f"unknown sweep keys: {sorted(unknown)} (allowed: {SWEEP_KEYS})")
    if not grid:
        raise ConfigError("sweep grid is empty")
    keys = sorted(grid)
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cells.append(dict(zip(keys, combo)))
    return cells


def apply_cell(cfg: ExperimentConfig, cell: dict) -> ExperimentConfig:
    base = _train_to_dict(cfg.train)
    base.update(cell)
    return replace(cfg, train=_train_from_dict(base))


def run_sweep(cfg: ExperimentConfig, out_dir: Path | None = None):
    """Train+eval once per grid cell (same seed everywhere); flag the best.

    Cell failures are recorded and the sweep continues. Returns the row
    dicts in grid order.
    """
    cells = sweep_cells(cfg.sweep)
    keys = sorted(cfg.sweep)
    rows = []
    for i, cell in enumerate(cells):
        row = {"cell": i, **cell}
        try:
            cell_cfg = apply_cell(cfg, cell)
            # final evaluation only: no intermediate curve points needed
            quiet = replace(cell_cfg, eval=replace(cell_cfg.eval, every_n_stages=10**9))
            outcome = run_train(quiet)
            if outcome.aborted:
                raise NumericError(outcome.abort_reason)
            row.update(
                status="ok",
                map=outcome.final_metrics["map"],
                map_at_k=outcome.final_metrics["map_at_k"],
                precision_h2=outcome.final_metrics["precision_h2"],
                error="",
            )
        except Exception as e:  # record and continue
            log.warning("sweep cell %d failed: %s", i, e)
            row.update(status="failed", map="", map_at_k="", precision_h2="", error=str(e))
        rows.append(row)
    ok = [r for r in rows if r["status"] == "ok"]
    best = max(ok, key=lambda r: r["map"]) if ok else None
    for r in rows:
        r["best"] = (best is not None and r is best)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        header = ["cell", *keys, "status", "map", "map_at_k", "precision_h2", "best", "error"]
        write_csv(out_dir / "sweep.csv", header, [[r[h] for h in header] for r in rows])
    return rows


def run_unseen(cfg: ExperimentConfig, out_dir: Path | None = None):
    """Train on seen classes only, evaluate retrieval of held-out classes."""
    features, labels = load_dataset(cfg.dataset)
    seen_fraction = float(cfg.unseen.get("seen_fraction", 0.75))
    test_per_class = int(cfg.unseen.get("test_per_class", 100))
    bits = int(cfg.unseen.get("bits", 64))
    train_split, retrieval, test = data.unseen_split(
        features, labels, seen_fraction, cfg.split.seed, test_per_class=test_per_class
    )
    cfg = replace(cfg, bits=bits)
    batches = make_batches(train_split, cfg)
    model = hashmodel.init(features.shape[0], bits, cfg.init_scale, cfg.seed)
    model, stage_reports = trainer.train_stream(model, batches, cfg.train)
    if len(stage_reports) < len(batches):
        raise NumericError(f"aborted after {len(stage_reports)} of {len(batches)} stages")
    trained = evaluate_model(model, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
    baseline_model = index.lsh_baseline(features.shape[0], bits, seed=cfg.seed)
    baseline = evaluate_model(baseline_model, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
    reports = [
        build_report(trained, cfg, "trained"),
        build_report(baseline, cfg, "lsh_baseline"),
    ]
    disjointness = {
        "seen_labels": sorted(int(v) for v in np.unique(train_split[1])),
        "unseen_labels": sorted(int(v) for v in np.unique(test[1])),
        "label_sets_disjoint": not set(np.unique(train_split[1])) & set(np.unique(test[1])),
    }
    if out_dir is not None:
        write_reports(out_dir, reports, stem="unseen_report")
        with open(out_dir / "unseen_split.json", "w") as f:
            json.dump(disjointness, f, indent=2, sort_keys=True)
            f.write("\n")
    return reports, disjointness
