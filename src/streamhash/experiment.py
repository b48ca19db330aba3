"""Experiment configuration and the train/eval/sweep/unseen drivers.

A single JSON config file describes an experiment; every report embeds a
digest of the resolved config so results are self-describing. Validation
happens before any filesystem write, and every CSV value goes through str()
(repr for a float) so identical configs reproduce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import data, index, metrics, model as hashmodel, trainer
from .data import SplitSpec
from .distribution import KINDS, GaussianParams, check_settings, refusal, shown
from .errors import ConfigError, ConsistencyError, DomainError, SplitError, StreamHashError
from .metrics import MetricReport
from .model import HashModel
from .trainer import TrainConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalOptions:
    cutoff: int = 1000
    r_max: int = 100
    every_n_stages: int = 50
    __post_init__ = check_settings


@dataclass(frozen=True)
class UnseenOptions:
    seen_fraction: float = 0.75
    test_per_class: int = 100
    bits: int = 64  # the held-out protocol's code width, in place of bits
    __post_init__ = check_settings


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
    unseen: UnseenOptions = field(default_factory=UnseenOptions)
    __post_init__ = check_settings

    def digest(self, *sections: str) -> str:
        """Hash of everything that determines results (not where they go):
        every field but output_dir, sweep and unseen, plus those named in
        sections (run_unseen names "unseen")."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("output_dir", "sweep", "unseen") or f.name in sections}
        payload["train"] = _train_view(self.train)
        blob = json.dumps(payload, sort_keys=True, default=_plain).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _plain(value):
    """json's fallback: a numpy scalar as its Python number, a dataclass as its fields."""
    if isinstance(value, np.generic):
        return value.item()
    return vars(value) if is_dataclass(value) else json.JSONEncoder().default(value)


SECTIONS = ("dataset", "split", "train", "eval", "sweep", "unseen")


def _table(cls) -> dict:
    """The check_section table of a dataclass's fields annotated as a KINDS key."""
    return {f.name: (f.type, f.default) for f in fields(cls) if f.type in KINDS}


# The flat train section: the KINDS key and default of each key
TRAIN_FIELDS = {**_table(TrainConfig), **_table(GaussianParams)}

DATASET_FIELDS = {
    "idx": {"images": ("str", MISSING), "labels": ("str", MISSING), "normalize": ("bool", True)},
    "dense": {"path": ("str", MISSING)},
    "synth": {"num_classes": ("int", MISSING), "dim": ("int", MISSING),
              "per_class": ("int", MISSING), "spread": ("float", MISSING),
              "seed": ("int", MISSING)},
}


def check_section(raw, table: dict, section: str) -> dict:
    """Each key of a {key: (KINDS key, default)} table mapped to raw's
    value, or to its default where raw lacks it (MISSING: required).

    A non-object, an unknown key, a missing required key or a value that
    distribution.refusal refuses is a ConfigError naming section.key. No
    value is converted, so the digest holds each value exactly as the
    config wrote it.
    """
    prefix = f"{section}." if section else ""
    if reason := refusal(section or "config", "dict", raw):
        raise ConfigError(reason)
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown {section or 'config'} keys: {sorted(unknown)}")
    values = {}
    for key, (kind, default) in table.items():
        value = raw.get(key, default)
        if value is MISSING:
            raise ConfigError(f"{prefix}{key} is required")
        if reason := refusal(key, kind, value):
            raise ConfigError(prefix + reason)
        values[key] = value
    return values


def _options(cls, raw, section: str):
    return cls(**check_section(raw, _table(cls), section))


def _train_view(cfg: TrainConfig) -> dict:
    """The flat train settings of cfg."""
    flat = {**vars(cfg), **vars(cfg.gaussian)}
    return {key: flat[key] for key in TRAIN_FIELDS}


def train_config(raw, section: str = "train") -> TrainConfig:
    """The validated TrainConfig of a flat train section named section."""
    values = check_section(raw, TRAIN_FIELDS, section)
    try:
        gaussian = GaussianParams(**{key: values.pop(key) for key in _table(GaussianParams)})
    except DomainError as e:  # the (mu, sigma) rule: each value alone is checked above
        raise ConfigError(f"{section}: {e}") from e
    return TrainConfig(gaussian=gaussian, **values)


def _check_dataset(raw: dict) -> dict:
    """The dataset section as written, checked against its kind's table."""
    kind = raw.get("kind")
    if not (isinstance(kind, str) and kind in DATASET_FIELDS):
        raise ConfigError(f"dataset.kind must be one of {tuple(DATASET_FIELDS)}, "
                          f"got {shown(kind)}")
    check_section(raw, {"kind": ("str", MISSING), **DATASET_FIELDS[kind]}, "dataset")
    return dict(raw)


def _sweep_cells(grid: dict):
    """The {key: value} cells of a {key: non-empty list} grid, the last of
    the sorted keys varying fastest."""
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key} must be a non-empty list, got {shown(values)}")
    keys = sorted(grid)
    for values in itertools.product(*(grid[key] for key in keys)):
        yield dict(zip(keys, values))


def config_from_dict(raw) -> ExperimentConfig:
    """Build and fully validate an ExperimentConfig from parsed JSON."""
    top = check_section(raw, {**_table(ExperimentConfig), **{s: ("dict", {}) for s in SECTIONS}},
                        "")
    cfg = ExperimentConfig(**(top | dict(
        dataset=_check_dataset(top["dataset"]),
        split=_options(SplitSpec, top["split"], "split"),
        train=train_config(top["train"]),
        eval=_options(EvalOptions, top["eval"], "eval"),
        sweep=dict(top["sweep"]),
        unseen=_options(UnseenOptions, top["unseen"], "unseen"),
    )))
    for cell in _sweep_cells(cfg.sweep):
        apply_cell(cfg, cell)
    return cfg


def load_dataset(spec: dict):
    """Materialize (features, labels) from a dataset config section."""
    kind = spec["kind"]
    if kind == "idx":
        features, labels = data.load_idx(spec["images"], spec["labels"])
        if spec.get("normalize", True):
            data.normalize_pixels(features, out=features)  # in place: no second matrix
        return features, labels
    if kind == "dense":
        return data.load_dense(spec["path"])
    return data.synth_blobs(spec["num_classes"], spec["dim"], spec["per_class"],
                            spec["spread"], spec["seed"])


# ---------------------------------------------------------------------------
# evaluation plumbing


def evaluate_model(model, retrieval: data.Part, test: data.Part, cutoff: int, r_max: int):
    """All retrieval metrics of one model on the retrieval/test parts of one
    matrix, encoded and packed once: database and queries are rows of its
    packed codes."""
    if retrieval.source is not test.source:
        raise ConsistencyError("retrieval and test parts index different matrices")
    words = index.pack(hashmodel.encode_binary(model, retrieval.source)).words
    db, queries = (index.PackedCodes(words[part.idx], model.k, part.idx.size, part.labels)
                   for part in (retrieval, test))
    scores = metrics.retrieval_scores(queries, db, cutoff=cutoff, r_max=r_max)
    return {**scores, "precision_at_r": scores["precision_at_r"].tolist()}


def write_csv(path, header, rows) -> None:
    """The CSV of header and rows, written whole through data.replacing."""
    # str(): a float's shortest round-trip repr, and "None" where csv alone writes ""
    text = io.StringIO()
    w = csv.writer(text, lineterminator="\n")
    w.writerow(header)
    w.writerows(map(str, row) for row in rows)
    with data.replacing(path) as f:
        f.write(text.getvalue().encode())


def write_json(path, payload) -> None:
    """payload as indented JSON with sorted keys, written whole through data.replacing."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"
    with data.replacing(path) as f:
        f.write(text.encode())


# ---------------------------------------------------------------------------
# drivers


# The scalar scores of curve.csv and sweep.csv, in their column order
SCORE_COLUMNS = ("map", "map_at_k", "precision_h2")


@dataclass
class TrainOutcome:
    model: HashModel  # after the last stage
    stage_reports: list[trainer.StageReport]
    curve_rows: list  # (stage_index, instances_seen, *SCORE_COLUMNS, auc_so_far)
    final_metrics: dict  # evaluate_model's scores at the last curve point


def make_batches(train: data.Part, cfg: ExperimentConfig) -> list[data.Part]:
    """The stream batches of every epoch in turn, each epoch reshuffled with
    its own seed. A pool that makes no stage is a SplitError."""
    batches = [batch for epoch in range(cfg.epochs)
               for batch in data.stream(train, cfg.train.batch_size, cfg.train.seed + epoch)]
    if not batches:
        raise SplitError(f"{train.labels.shape[0]} training instances make no stage of at least 2")
    return batches


def run_train(cfg: ExperimentConfig, out_dir: Path | None = None) -> TrainOutcome:
    """Load cfg's dataset, split it and train on the parts (train_parts)."""
    return train_parts(cfg, *data.split(*load_dataset(cfg.dataset), cfg.split), out_dir)


def train_parts(cfg: ExperimentConfig, train_split, retrieval, test, out_dir: Path | None = None,
                curve: bool = True):
    """Train on the train part over trainer.train_stream, scoring the
    retrieval and test parts at the last completed stage and, with curve,
    every eval.every_n_stages stages for the size curve. When out_dir is
    given, writes checkpoint.txt, stages.csv and curve.csv.

    A library error in a stage ends the stream: the completed stages'
    outputs are still written, then one of its class says "aborted after i
    of n stages: <its message>", naming out_dir when it holds them; with no
    out_dir, before the last completed stage is scored. An eval.r_max that
    retrieval_scores would refuse is refused before any stage.
    """
    if cfg.eval.r_max > (n := retrieval.idx.size):
        raise DomainError(f"r_max={cfg.eval.r_max} is outside 1..{n}, the database size")
    batches = make_batches(train_split, cfg)
    # instances seen after stage i: stage indices count the batches from 1
    seen = list(itertools.accumulate((b.labels.shape[0] for b in batches), initial=0))
    reports, curve_rows, final, aborted = [], [], {}, None

    def evaluate_at(model: HashModel, stage_index: int) -> dict:
        scores = evaluate_model(model, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
        instances = seen[stage_index]
        points = [row[1:3] for row in curve_rows] + [(instances, scores["map"])]
        # a single point spans a degenerate interval; its AUC is its own value
        auc = metrics.curve_auc(points) if curve_rows else scores["map"]
        curve_rows.append((stage_index, instances, *(scores[s] for s in SCORE_COLUMNS), auc))
        return scores

    model = hashmodel.init(train_split.source.shape[0], cfg.bits, cfg.init_scale, cfg.seed)
    try:
        for model, report in trainer.train_stream(model, batches, cfg.train):
            reports.append(report)
            if curve and report.stage_index % cfg.eval.every_n_stages == 0:
                final = evaluate_at(model, report.stage_index)
    except StreamHashError as e:
        aborted = e
    if not (curve_rows and curve_rows[-1][0] == len(reports) or aborted and out_dir is None):
        final = evaluate_at(model, len(reports))

    if out_dir is not None:
        hashmodel.save_checkpoint(model, out_dir / "checkpoint.txt")
        write_csv(out_dir / "stages.csv", [f.name for f in fields(trainer.StageReport)],
                  [astuple(r) for r in reports])
        write_csv(out_dir / "curve.csv",
                  ["stage_index", "train_instances_seen", *SCORE_COLUMNS, "auc_so_far"], curve_rows)
    if aborted:  # of the stage error's class, so its exit code holds
        raise type(aborted)(f"aborted after {len(reports)} of {len(batches)} stages: {aborted}"
                            + ("" if out_dir is None else f"; partial outputs in {out_dir}"))
    return TrainOutcome(model, reports, curve_rows, final)


REPORT_COLUMNS = [
    "method", "bits", "seed", "map", "map_at_k", "map_cutoff", "precision_h2",
    "precision_at_1", "precision_at_10", "auc", "config_digest",
    "map_denominator", "h2_empty_ball", "tie_break",
]


def _report_row(r: MetricReport) -> list:
    """r's REPORT_COLUMNS values; precision_at_10 is "" below r_max 10, as auc is when None."""
    series = r.precision_at_r
    values = {**vars(r), **r.conventions, "precision_at_1": series[0],
              "precision_at_10": series[9] if len(series) > 9 else "",
              "auc": "" if r.auc is None else r.auc}
    return [values[column] for column in REPORT_COLUMNS]


def write_reports(out_dir: Path, reports: list[MetricReport], stem: str = "report") -> None:
    """One CSV row per report plus a JSON mirror and the Precision@R series."""
    write_csv(out_dir / f"{stem}.csv", REPORT_COLUMNS, [_report_row(r) for r in reports])
    write_json(out_dir / f"{stem}.json", reports)  # every MetricReport field
    rows = [(r.method, i + 1, v) for r in reports for i, v in enumerate(r.precision_at_r)]
    write_csv(out_dir / f"{stem}_precision_at_r.csv", ["method", "R", "precision"], rows)


def evaluate_pair(model: HashModel, scores: dict, retrieval, test, cfg: ExperimentConfig,
                  out_dir: Path | None = None, *sections: str) -> list[MetricReport]:
    """Reports of a model, from its evaluate_model scores, and of the seeded
    untrained baseline of its shape, the random projection that is the
    control for learning gains (method lsh_baseline). Each carries the
    model's width as bits, the digest of cfg at that width and sections,
    and no auc. Given out_dir, they go to [sections_]report.* files."""
    baseline = hashmodel.init(model.d, model.k, 1.0, cfg.seed)
    baseline_scores = evaluate_model(baseline, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
    digest = replace(cfg, bits=model.k).digest(*sections)
    reports = [MetricReport(**s, map_cutoff=cfg.eval.cutoff, bits=model.k, seed=cfg.seed,
                            auc=None, config_digest=digest, method=method)
               for s, method in ((scores, "trained"), (baseline_scores, "lsh_baseline"))]
    if out_dir is not None:
        write_reports(out_dir, reports, "_".join((*sections, "report")))
    return reports


def run_eval(model: HashModel, cfg: ExperimentConfig, out_dir: Path | None = None):
    """Evaluate a model and the seeded untrained baseline on cfg's split."""
    _, retrieval, test = data.split(*load_dataset(cfg.dataset), cfg.split)
    scores = evaluate_model(model, retrieval, test, cfg.eval.cutoff, cfg.eval.r_max)
    return evaluate_pair(model, scores, retrieval, test, cfg, out_dir)


def apply_cell(cfg: ExperimentConfig, cell: dict) -> ExperimentConfig:
    """cfg with one sweep cell's train keys replaced; errors name the sweep."""
    return replace(cfg, train=train_config({**_train_view(cfg.train), **cell}, "sweep"))


def run_sweep(cfg: ExperimentConfig, out_dir: Path | None = None):
    """Train+eval each grid cell on one split and seed; flag the best.

    A cell's library error is recorded in its row and the sweep goes on;
    any other error ends it. Writes sweep.csv when out_dir is given, then
    raises an error of the first failure's class if no cell is ok. Returns
    the row dicts in grid order.
    """
    if not cfg.sweep:
        raise ConfigError("sweep grid is empty")
    parts = data.split(*load_dataset(cfg.dataset), cfg.split)
    rows, failures = [], []
    for i, cell in enumerate(_sweep_cells(cfg.sweep)):
        row = {"cell": i, **cell}
        try:
            outcome = train_parts(apply_cell(cfg, cell), *parts, curve=False)
            row.update(status="ok", **{s: outcome.final_metrics[s] for s in SCORE_COLUMNS},
                       error="")
        except StreamHashError as e:  # record and continue
            log.warning("sweep cell %d failed: %s", i, e)
            failures.append(e)
            row.update(status="failed", **dict.fromkeys(SCORE_COLUMNS, ""), error=str(e))
        rows.append(row)
    ok = [r for r in rows if r["status"] == "ok"]
    best = max(ok, key=lambda r: r["map"]) if ok else None
    for r in rows:
        r["best"] = (best is not None and r is best)
    if out_dir is not None:
        header = ["cell", *sorted(cfg.sweep), "status", *SCORE_COLUMNS, "best", "error"]
        write_csv(out_dir / "sweep.csv", header, [[r[h] for h in header] for r in rows])
    if not ok:
        raise type(failures[0])(f"all {len(rows)} sweep cells failed; cell 0: {failures[0]}")
    return rows


def run_unseen(cfg: ExperimentConfig, out_dir: Path | None = None):
    """Train on seen classes only; score held-out classes over one gather of their columns."""
    train_split, retrieval, test = data.unseen_split(
        *load_dataset(cfg.dataset), cfg.unseen.seen_fraction, cfg.split.seed,
        test_per_class=cfg.unseen.test_per_class)
    held_out = np.union1d(retrieval.idx, test.idx)
    source = train_split.source[:, held_out]
    retrieval, test = (data.Part(source, np.searchsorted(held_out, part.idx), part.labels)
                       for part in (retrieval, test))
    cfg = replace(cfg, bits=cfg.unseen.bits)
    outcome = train_parts(cfg, train_split, retrieval, test, curve=False)
    reports = evaluate_pair(outcome.model, outcome.final_metrics, retrieval, test, cfg, out_dir,
                            "unseen")
    seen_labels, unseen_labels = (np.unique(p.labels).tolist() for p in (train_split, test))
    disjointness = {"seen_labels": seen_labels, "unseen_labels": unseen_labels,
                    "label_sets_disjoint": not set(seen_labels) & set(unseen_labels)}
    if out_dir is not None:
        write_json(out_dir / "unseen_split.json", disjointness)
    return reports, disjointness
