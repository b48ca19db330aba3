"""Benchmark of streamhash: three seeded workloads, end to end and per layer.

    python3 bench/run.py --workload {curve,stream_train,cli_dense} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
Each run sets up the workload's inputs SETUP_REPEATS times (setup_s is the
median), then runs passes of the workload until --seconds have elapsed and
at least the workload's MIN_PASSES are done, then scores and verifies the
outputs of the last pass.

--trace 0 prints the end-to-end metrics, measured with no tracing in place.
Every workload reports the same names: wall_s is the wall time of one pass
(curve: one run_train; stream_train: the whole stage schedule; cli_dense:
synth + train + eval), map the mAP of the model the pass produced and
success_rate 1 - error_rate. The workload's own metrics (curve_s,
stage_ms_p99, eval_cmd_s, ...) are printed on the detail lines.
--trace 1 runs one pass untraced and one traced, and prints the per-layer
metrics from the traced pass's spans, with the tracing overhead as the
difference between the two passes.

Lines before the last one describe the run for a reader: the run context,
the workload's own named metrics and any problem found. The last line of
standard output is the result, one JSON object with the keys correct,
attempted, failed and metrics. The full result and the spans of a traced
run are written under .bench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
# BLAS runs on the calling thread: the matrices are small (d = 784, n <= 400),
# and a second thread makes every timing depend on the load of two cores.
THREADS = 1

# (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("wall_s", "s"),
    ("map", "ratio"),
]

# (name, unit) of the per-layer metrics every traced run reports. A layer a
# workload never calls reads 0.
PER_LAYER = [
    ("data.synth_blobs.s", "s"),
    ("data.split.s", "s"),
    ("data.save_dense.s", "s"),
    ("data.load_dense.s", "s"),
    ("data.load_dense.mb_per_s", "MB/s"),
    ("model.encode_relaxed.s", "s"),
    ("model.encode_binary.s", "s"),
    ("model.save_checkpoint.s", "s"),
    ("model.load_checkpoint.s", "s"),
    ("distribution.build_similarity.s", "s"),
    ("distribution.p_gaussian.s", "s"),
    ("distribution.pairwise_hamming_sq.s", "s"),
    ("distribution.scaling_matrix.s", "s"),
    ("trainer.train_stage.self_s", "s"),
    ("trainer.build_workspace.self_s", "s"),
    ("trainer.build_workspace.calls_per_stage", "count"),
    ("trainer.kl_loss.s", "s"),
    ("trainer.sgd_step.s", "s"),
    ("trainer.stages_completed_ratio", "ratio"),
    ("index.pack.s", "s"),
    ("index.hamming_to_db.s", "s"),
    ("index.scans_per_query", "count"),
    ("metrics.mean_ap.self_s", "s"),
    ("metrics.precision_h2.self_s", "s"),
    ("metrics.precision_at_r.self_s", "s"),
    ("experiment.evaluate_model.s", "s"),
    ("experiment.evaluate_model.share", "ratio"),
    ("experiment.run_train.self_s", "s"),
    ("experiment.write_csv.s", "s"),
    ("experiment.write_reports.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def trace_targets():
    """(module, attribute, amount) for every call the tracer wraps: the
    attributes through which the library calls its own layers."""
    from streamhash import cli, data, distribution, experiment, index, metrics, trainer
    from streamhash import model as hashmodel

    def file_bytes(args, kwargs):
        return os.path.getsize(args[0])

    def queries(args, kwargs):
        return args[2][1].shape[0]  # evaluate_model(model, retrieval, test, ...)

    names = {
        data: ["synth_blobs", "split", "save_dense", "load_dense"],
        hashmodel: ["encode_relaxed", "encode_binary", "save_checkpoint", "load_checkpoint"],
        distribution: ["build_similarity", "p_gaussian", "pairwise_hamming_sq", "scaling_matrix"],
        trainer: ["train_stage", "build_workspace", "kl_loss", "sgd_step"],
        index: ["pack"],
        metrics: ["hamming_to_db", "mean_ap", "precision_h2", "precision_at_r"],
        experiment: ["evaluate_model", "run_train", "run_eval", "write_csv", "write_reports"],
        cli: ["main"],
    }
    amounts = {"load_dense": file_bytes, "evaluate_model": queries}
    return [(module, attr, amounts.get(attr)) for module, attrs in names.items() for attr in attrs]


def layer_metrics(spans, workload, traced_s: float, untraced_s: float) -> dict:
    from spans import summarize

    summary = summarize(spans)

    def get(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name, _ in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("s", "self_s"):
            values[name] = get(layer, key)
    values.update({
        "data.load_dense.mb_per_s": ratio(get("data.load_dense", "amount") / 1e6,
                                          get("data.load_dense")),
        "trainer.build_workspace.calls_per_stage": ratio(get("trainer.build_workspace", "calls"),
                                                         get("trainer.train_stage", "calls")),
        "trainer.stages_completed_ratio": ratio(workload.stages_done, workload.stages_planned),
        # hamming_to_db calls per query per evaluated model
        "index.scans_per_query": ratio(get("index.hamming_to_db", "calls"),
                                       get("experiment.evaluate_model", "amount")),
        "experiment.evaluate_model.share": ratio(get("experiment.evaluate_model"), traced_s),
        "trace.spans": len(spans),
        "trace.overhead_s": traced_s - untraced_s,
    })
    return values


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "streamhash").glob("*.py")))


def run(args) -> dict:
    import numpy as np
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = Tracer(trace_targets()) if args.trace else None
    traced = tracer.installed if tracer else contextlib.nullcontext
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        workload = cls(cls.SHAPES[args.size], args.seed, workdir)
        setup_s = []
        inputs = None
        for _ in range(1 if tracer else SETUP_REPEATS):
            inputs = None  # let the previous inputs go before making new ones
            start = time.perf_counter()
            with traced():
                inputs = workload.setup()
            setup_s.append(time.perf_counter() - start)

        walls = []
        min_passes = 1 if tracer else cls.MIN_PASSES
        run_start = time.perf_counter()
        while len(walls) < min_passes or (
                not tracer and time.perf_counter() - run_start < args.seconds):
            start = time.perf_counter()
            workload.run_pass(inputs)
            walls.append(time.perf_counter() - start)
        if tracer:
            with traced():
                start = time.perf_counter()
                workload.run_pass(inputs)
                traced_s = time.perf_counter() - start
        workload.finish(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = workload.failed / workload.attempted
    named = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (error_rate, "ratio"),
        **workload.named_metrics(),
    }
    if tracer:
        values = layer_metrics(tracer.spans, workload, traced_s, walls[0])
        reported = {name: (values[name], unit) for name, unit in PER_LAYER}
    else:
        wall_s, quality = workload.headline()
        values = {
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
            # error_rate itself reads 0 on working code
            "success_rate": 1.0 - error_rate,
            "wall_s": wall_s,
            "map": quality,
        }
        reported = {name: (values[name], unit) for name, unit in END_TO_END}
    context = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "seed": args.seed,
        "size": args.size,
        "src_lines": src_lines(),
        "passes": len(walls),
    }
    return {
        "workload": args.workload,
        "trace": args.trace,
        "context": context,
        "named": named,
        "problems": workload.problems(),
        "spans": tracer.spans if tracer else [],
        "result": {
            "correct": workload.failed == 0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in reported.items()},
        },
    }


def write_outputs(args, out: dict) -> None:
    """Print the detail lines and the result line; keep everything on disk."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = out.pop("spans")
    if spans:
        with open(results / f"{stem}-spans.json", "w") as f:
            json.dump([[s.name, s.start, s.end, s.parent, s.amount] for s in spans], f)
    with open(results / f"{stem}.json", "w") as f:
        json.dump(out, f, indent=1)
    print(f"# {args.workload} " + " ".join(f"{k}={v}" for k, v in out["context"].items()))
    for name, (value, unit) in out["named"].items():
        print(f"#   {name:24s} {value:.6g} {unit}")
    for problem in out["problems"]:
        print(f"# problem: {problem}", file=sys.stderr)
    print(json.dumps(out["result"]))


def parse_args(argv):
    p = argparse.ArgumentParser(description="streamhash benchmark")
    p.add_argument("--workload", required=True, choices=["curve", "stream_train", "cli_dense"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shapes for the benchmark's own smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # pin BLAS threads before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import streamhash
    except ImportError as e:
        print(f"bench: cannot import streamhash from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(streamhash.__file__).resolve().parent.parent != SRC:
        print(f"bench: streamhash came from {streamhash.__file__}, not {SRC}", file=sys.stderr)
        return 2
    write_outputs(args, run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
