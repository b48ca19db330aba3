"""Command-line experiment driver.

Subcommands: train, eval, sweep, unseen, synth, split. All experiment
commands read one JSON config file; individual fields can be overridden
with repeated --set dotted.key=value flags. The output directory resolves
as --output-dir flag > STREAMHASH_OUT env var > config value. Exit codes
encode the failure category (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import data, experiment, model as hashmodel
from .errors import (
    ConfigError,
    ConsistencyError,
    DegenerateDistributionError,
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    SplitError,
    StreamHashError,
)
from .experiment import OUTPUT_DIR_ENV

log = logging.getLogger(__name__)

EXIT_CODES = [
    ((ConfigError, FormatError), 2),
    ((SplitError, ConsistencyError, DomainError, DegenerateDistributionError), 3),
    ((DimensionError,), 4),
    ((NumericError,), 5),
    ((StreamHashError,), 1),
]


def _exit_code(exc: Exception) -> int:
    for types, code in EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 1


def _parse_set(values):
    """Parse --set dotted.key=value pairs; values are JSON, else strings."""
    overrides = {}
    for item in values or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key] = value
    return overrides


def _apply_overrides(raw_cfg: dict, overrides: dict) -> dict:
    for dotted, value in overrides.items():
        node = raw_cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {dotted!r} crosses a non-section value")
        node[parts[-1]] = value
    return raw_cfg


def _load_config(args) -> experiment.ExperimentConfig:
    with open(args.config) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{args.config}: invalid JSON: {e}") from e
    raw = _apply_overrides(raw, _parse_set(args.set))
    cfg = experiment.config_from_dict(raw)
    out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    return experiment.replace(cfg, output_dir=str(out_dir))


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(cfg.output_dir)
    outcome = experiment.run_train(cfg, out_dir=out_dir)
    if outcome.aborted:
        raise NumericError(f"{outcome.abort_reason}; partial outputs in {out_dir}")
    final = outcome.curve_rows[-1]
    print(f"trained {len(outcome.stage_reports)} stages; final map={final[2]:.4f} "
          f"map@{cfg.eval.cutoff}={final[3]:.4f} precision_h2={final[4]:.4f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    model = hashmodel.load_checkpoint(args.checkpoint)
    reports = experiment.run_eval(model, cfg, out_dir=Path(cfg.output_dir))
    for r in reports:
        print(f"{r.method}: map={r.map:.4f} map@{r.map_cutoff}={r.map_at_k:.4f} "
              f"precision_h2={r.precision_h2:.4f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = experiment.run_sweep(cfg, out_dir=Path(cfg.output_dir))
    ok = [r for r in rows if r["status"] == "ok"]
    print(f"{len(rows)} cells ({len(rows) - len(ok)} failed)")
    for r in rows:
        if r["best"]:
            params = {k: v for k, v in r.items()
                      if k not in ("cell", "status", "map", "map_at_k",
                                   "precision_h2", "best", "error")}
            print(f"best cell {r['cell']}: map={r['map']:.4f} params={params}")
    return 0


def cmd_unseen(args) -> int:
    cfg = _load_config(args)
    reports, disjointness = experiment.run_unseen(cfg, out_dir=Path(cfg.output_dir))
    print(f"seen labels: {disjointness['seen_labels']}")
    print(f"unseen labels: {disjointness['unseen_labels']}")
    for r in reports:
        print(f"{r.method}: precision@1={r.precision_at_r[0]:.4f} "
              f"precision@{len(r.precision_at_r)}={r.precision_at_r[-1]:.4f}")
    return 0


def cmd_synth(args) -> int:
    features, labels = data.synth_blobs(
        args.num_classes, args.dim, args.per_class, args.spread, args.seed
    )
    data.save_dense(args.out, features, labels)
    print(f"wrote {features.shape[1]} instances of dim {features.shape[0]} to {args.out}")
    return 0


def cmd_split(args) -> int:
    cfg = _load_config(args)
    features, labels = experiment.load_dataset(cfg.dataset)
    train, retrieval, test = data.split(features, labels, cfg.split)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (X, y) in [("train", train), ("retrieval", retrieval), ("test", test)]:
        data.save_dense(out_dir / f"{name}.txt", X, y)
        print(f"{name}: {y.shape[0]} instances -> {out_dir / (name + '.txt')}")
    return 0


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON experiment config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (dotted path, JSON value)")
    p.add_argument("--output-dir", help="where outputs go (beats config and env)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamhash",
        description="Streaming supervised hashing: train, evaluate and sweep "
                    "binary-code retrieval experiments.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train over the stream and emit curve CSVs")
    _add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint plus the untrained baseline")
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    _add_config_args(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="grid-search hyperparameters, one train+eval per cell")
    _add_config_args(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("unseen", help="train on seen classes, evaluate held-out classes")
    _add_config_args(p)
    p.set_defaults(fn=cmd_unseen)

    p = sub.add_parser("synth", help="generate a synthetic blob dataset file")
    p.add_argument("--num-classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--spread", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dense-matrix file")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="materialize train/retrieval/test dense files")
    _add_config_args(p)
    p.set_defaults(fn=cmd_split)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except StreamHashError as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return _exit_code(e)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
