"""Command-line experiment driver.

Subcommands: train, eval, sweep, unseen, synth, split. All experiment
commands read one JSON config file; individual fields can be overridden
with repeated --set dotted.key=value flags. The output directory resolves
as --output-dir flag > STREAMHASH_OUT env var > config value. The exit
code of a failure is the exit_code of its error class (see errors), and
running out of memory exits 3.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import data, experiment, model as hashmodel
from .errors import ConfigError, StreamHashError
from .experiment import OUTPUT_DIR_ENV

log = logging.getLogger(__name__)


def _load_config(args) -> experiment.ExperimentConfig:
    """The config file with each --set dotted.key=value applied in command-line
    order, so a later flag wins; values are JSON, else strings."""
    with open(args.config, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as e:  # not UTF-8, not JSON, or an integer past the digit limit
            raise ConfigError(f"{args.config}: invalid JSON: {e}") from e
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except ValueError:  # not JSON, or an integer past the digit limit
            value = text
        node = raw
        *parents, key = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):  # the config itself may not be an object
            raise ConfigError(f"--set path {dotted!r} crosses a non-section value")
        node[key] = value
    cfg = experiment.config_from_dict(raw)
    out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir
    return experiment.replace(cfg, output_dir=str(out_dir))


def cmd_train(args, cfg, out_dir: Path) -> None:
    outcome = experiment.run_train(cfg, out_dir=out_dir)
    final = outcome.final_metrics
    print(f"trained {len(outcome.stage_reports)} stages; final map={final['map']:.4f} "
          f"map@{cfg.eval.cutoff}={final['map_at_k']:.4f} precision_h2={final['precision_h2']:.4f}")
    print(f"outputs in {out_dir}")


def cmd_eval(args, cfg, out_dir: Path) -> None:
    model = hashmodel.load_checkpoint(args.checkpoint)
    reports = experiment.run_eval(model, cfg, out_dir=out_dir)
    for r in reports:
        print(f"{r.method}: map={r.map:.4f} map@{r.map_cutoff}={r.map_at_k:.4f} "
              f"precision_h2={r.precision_h2:.4f}")


def cmd_sweep(args, cfg, out_dir: Path) -> None:
    rows = experiment.run_sweep(cfg, out_dir=out_dir)
    ok = [r for r in rows if r["status"] == "ok"]
    print(f"{len(rows)} cells ({len(rows) - len(ok)} failed)")
    for r in rows:
        if r["best"]:
            params = {key: r[key] for key in sorted(cfg.sweep)}
            print(f"best cell {r['cell']}: map={r['map']:.4f} params={params}")


def cmd_unseen(args, cfg, out_dir: Path) -> None:
    reports, disjointness = experiment.run_unseen(cfg, out_dir=out_dir)
    print(f"seen labels: {disjointness['seen_labels']}")
    print(f"unseen labels: {disjointness['unseen_labels']}")
    for r in reports:
        print(f"{r.method}: precision@1={r.precision_at_r[0]:.4f} "
              f"precision@{len(r.precision_at_r)}={r.precision_at_r[-1]:.4f}")


def cmd_synth(args) -> None:
    features, labels = data.synth_blobs(
        args.num_classes, args.dim, args.per_class, args.spread, args.seed
    )
    data.save_dense(args.out, features, labels)
    print(f"wrote {features.shape[1]} instances of dim {features.shape[0]} to {args.out}")


def cmd_split(args, cfg, out_dir: Path) -> None:
    train, retrieval, test = data.split(*experiment.load_dataset(cfg.dataset), cfg.split)
    for name, part in [("train", train), ("retrieval", retrieval), ("test", test)]:
        data.save_dense(out_dir / f"{name}.txt", part.features, part.labels)
        print(f"{name}: {part.labels.shape[0]} instances -> {out_dir / (name + '.txt')}")


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
        if "config" not in args:  # synth: flags only, no config
            args.fn(args)
        else:
            cfg = _load_config(args)
            args.fn(args, cfg, Path(cfg.output_dir))
        return 0
    except StreamHashError as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a missing or unreadable file
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a size the config or a file asks for; numpy's message gives it
        print(f"error: streamhash {args.command} ran out of memory: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
