"""Mutation check: every listed one-place edit of the program must be caught.

For each mutant, copies src/, tests/, tools/, configs/ and README.md into a
temporary directory and applies the edit there (its old text must occur
exactly once in its file). It then runs the test file named as the
mutant's killer with -x; only a mutant that file does not catch runs
tier-1 with -x and then tools/parity.py at one BLAS thread. Every killer
file is part of tier-1, so a mutant is killed exactly when tier-1 fails or
its parity manifest differs from the manifest of an unmutated copy made by
the same invocation; no golden file is kept and the result does not depend
on the CPU or the BLAS build. The unmutated copy must pass tier-1 first.
Exits 1 if that copy fails, if an edit does not apply, or if any mutant
survives both checks:

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "tools", "configs", "README.md"]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str   # occurs exactly once in file
    new: str
    breaks: str  # the guarantee the edit breaks
    killer: str  # the tier-1 test file that catches it, run on its own first


MUTANTS = [
    Mutant("split_test_unsorted", "src/streamhash/data.py",
           "    return np.sort(np.concatenate(drawn))",
           "    return np.concatenate(drawn)",
           "split parts list their columns in matrix order",
           "tests/test_data.py"),
    Mutant("unseen_bits_unchecked", "src/streamhash/distribution.py",
           '"bits": {"at least": 1}, ',
           "",
           "a bits or unseen.bits below 1 is a config error (exit 2) before any dataset loads",
           "tests/test_cli.py"),
    Mutant("epochs_floor_dropped", "src/streamhash/distribution.py",
           ', "epochs": {"at least": 1},',
           ",",
           "an epochs below 1 is refused when the config or ExperimentConfig is built",
           "tests/test_experiment.py"),
    Mutant("init_scale_floor_dropped", "src/streamhash/distribution.py",
           '"init_scale": {"above": 0}, ',
           "",
           "a negative init_scale is refused when the config or ExperimentConfig is built",
           "tests/test_experiment.py"),
    Mutant("init_scale_zero_admitted", "src/streamhash/distribution.py",
           '"init_scale": {"above": 0}, ',
           '"init_scale": {"at least": 0}, ',
           "an init_scale of 0, whose W = 0 takes no step, is a config error (exit 2) before "
           "any dataset loads", "tests/test_cli.py"),
    Mutant("every_n_stages_floor_dropped", "src/streamhash/distribution.py",
           ', "every_n_stages": {"at least": 1},',
           ",",
           "an every_n_stages below 1 is refused, not a ZeroDivisionError mid-stream",
           "tests/test_experiment.py"),
    Mutant("floor_refuses_its_own_value", "src/streamhash/distribution.py",
           '"at least": operator.ge',
           '"at least": operator.gt',
           "a setting at its least value builds",
           "tests/test_experiment.py"),
    Mutant("eval_options_unchecked", "src/streamhash/experiment.py",
           "    every_n_stages: int = 50\n    __post_init__ = check_settings\n",
           "    every_n_stages: int = 50\n",
           "EvalOptions refuses a float r_max when built, not after training",
           "tests/test_experiment.py"),
    Mutant("collapsed_gaussian_admitted", "src/streamhash/distribution.py",
           "if (ratio := abs(0.5 - mu) / sigma / sigma) > MAX_LOG_RATIO:",
           "if (ratio := abs(0.5 - mu) / sigma / sigma) > 2 * MAX_LOG_RATIO:",
           "GaussianParams refuses a (mu, sigma) whose lighter pair weight is below one ulp of "
           "the heavier one", "tests/test_distribution.py"),
    Mutant("collapse_bound_at_the_smallest_normal", "src/streamhash/distribution.py",
           "MAX_LOG_RATIO = -math.log(np.finfo(np.float64).eps)",
           "MAX_LOG_RATIO = -math.log(np.finfo(np.float64).tiny)",
           "a sigma of 0.1 at mu = 1, whose P has the raw target's bytes, is a config error "
           "(exit 2) before any dataset loads", "tests/test_cli.py"),
    Mutant("collapsed_gaussian_refused_after_config", "src/streamhash/experiment.py",
           "    try:\n        gaussian = GaussianParams(**{key: values.pop(key) for key in "
           "_table(GaussianParams)})\n    except DomainError as e:",
           "    gaussian = GaussianParams(**{key: values.pop(key) for key in "
           "_table(GaussianParams)})\n    if False:",
           "a train or sweep (mu, sigma) that collapses the Gaussian target is a config error "
           "(exit 2) naming the section, before any dataset loads", "tests/test_cli.py"),
    Mutant("sigma_may_be_zero", "src/streamhash/distribution.py",
           '"sigma": {"above": 0}, ',
           "",
           "a sigma of 0 is a config error (exit 2) before any dataset loads",
           "tests/test_cli.py"),
    Mutant("seen_fraction_without_ceiling", "src/streamhash/distribution.py",
           '"seen_fraction": {"above": 0, "below": 1}',
           '"seen_fraction": {"above": 0}',
           "an unseen.seen_fraction of 1 or above is a config error (exit 2) before any dataset "
           "loads", "tests/test_cli.py"),
    Mutant("grad_mode_choices_dropped", "src/streamhash/distribution.py",
           '"grad_mode": {"one of": ("paper", "exact")}, ',
           "",
           "the grad_mode entry lists the modes the trainer runs and refuses any other",
           "tests/test_trainer.py"),
    Mutant("choices_unchecked", "src/streamhash/distribution.py",
           '"one of": lambda value, bound: value in bound',
           '"one of": lambda value, bound: True',
           "a str setting outside its choices is refused (an unknown grad_mode: exit 2)",
           "tests/test_cli.py"),
    Mutant("unseen_split_takes_any_seen_fraction", "src/streamhash/data.py",
           '    check_setting("seen_fraction", "float", seen_fraction)\n',
           "",
           "unseen_split refuses a seen_fraction outside (0, 1) with a DomainError",
           "tests/test_data.py"),
    Mutant("retrieval_scores_takes_any_cutoff", "src/streamhash/metrics.py",
           '            check_setting(name, "int", value)',
           "            pass",
           "a float, bool or zero cutoff or r_max is a DomainError before any ranking",
           "tests/test_metrics.py"),
    Mutant("epochs_share_a_seed", "src/streamhash/experiment.py",
           "data.stream(train, cfg.train.batch_size, cfg.train.seed + epoch)",
           "data.stream(train, cfg.train.batch_size, cfg.train.seed)",
           "epoch e of the stream is shuffled with seed train.seed + e",
           "tests/test_experiment.py"),
    Mutant("load_skips_finiteness", "src/streamhash/data.py",
           "X.shape == (d, n) and _parsed_as(X, y, n)",
           "X.shape == (d, n) and X.dtype == np.float64 and y.dtype == np.int64 "
           "and y.shape == (n,)",
           "a sidecar with non-finite features is ignored, and the text's error raised",
           "tests/test_data.py"),
    Mutant("p_diagonal_kept", "src/streamhash/distribution.py",
           "    np.fill_diagonal(P, 0.0)\n    return P\n\n\ndef p_raw",
           "    return P\n\n\ndef p_raw",
           "p_raw and p_gaussian have an exactly zero diagonal",
           "tests/test_distribution.py"),
    Mutant("eta_similar_gets_scale_n", "src/streamhash/trainer.py",
           "dist.scaling_matrix(S, k / 2 if cfg.scale_p is None else cfg.scale_p, cfg.scale_n)",
           "dist.scaling_matrix(S, cfg.scale_n, cfg.scale_n)",
           "similar pairs' distances are divided by scale_p (k / 2 when null)",
           "tests/test_trainer.py"),
    Mutant("null_scale_p_is_k", "src/streamhash/trainer.py",
           "k / 2 if cfg.scale_p is None",
           "k if cfg.scale_p is None",
           "a null scale_p divides similar pairs' distances by k / 2",
           "tests/test_distribution.py"),
    Mutant("plain_q_scaled", "src/streamhash/trainer.py",
           '    if cfg.q_variant == "plain":\n        return P, dist.scaling_matrix(S, 1.0, 1.0)\n',
           "",
           "the plain Q divides no distance",
           "tests/test_trainer.py"),
    Mutant("similar_count_with_diagonal", "src/streamhash/distribution.py",
           "n_similar = np.count_nonzero(_mask(S)) - np.count_nonzero(S.diagonal())",
           "n_similar = np.count_nonzero(_mask(S))",
           "P's similar pairs are counted off the diagonal only, so P has unit mass",
           "tests/test_distribution.py"),
    Mutant("hamming_clamp_deleted", "src/streamhash/distribution.py",
           "    np.maximum(dist, 0.0, out=dist)\n",
           "",
           "no pairwise distance of relaxed codes is negative",
           "tests/test_distribution.py"),
    Mutant("ap_terms_not_rezeroed", "src/streamhash/metrics.py",
           "            terms[found] = 0.0  # all zeros again for the next query\n",
           "",
           "each query's AP sums its own terms only",
           "tests/test_metrics.py"),
    Mutant("label_codes_from_db_only", "src/streamhash/metrics.py",
           "np.unique(np.concatenate((db.labels, queries.labels)),\n"
           "                                      return_inverse=True)",
           "np.unique(db.labels), np.searchsorted(np.unique(db.labels),\n"
           "                                      np.concatenate((db.labels, queries.labels)))",
           "a query label absent from the database matches no database item",
           "tests/test_metrics.py"),
    Mutant("labels_of_any_dtype_ranked", "src/streamhash/metrics.py",
           "if part.labels is None or part.labels.dtype != np.int64:",
           "if part.labels is None:",
           "labels that are not int64 are a DomainError before any ranking",
           "tests/test_metrics.py"),
    Mutant("label_codes_fixed_uint8", "src/streamhash/metrics.py",
           "label_codes.astype(np.min_scalar_type(distinct.size - 1))",
           "label_codes.astype(np.uint8)",
           "labels stay distinct above 256 distinct labels",
           "tests/test_metrics.py"),
    Mutant("fast_text_from_1e-5", "src/streamhash/data.py",
           "size >= 1e-4",
           "size >= 1e-5",
           "dense and checkpoint values are written as repr() writes them",
           "tests/test_row_codec.py"),
    Mutant("fast_text_below_1e17", "src/streamhash/data.py",
           "size < 1e16",
           "size < 1e17",
           "dense and checkpoint values are written as repr() writes them",
           "tests/test_row_codec.py"),
    Mutant("parse_minus_zero_unguarded", "src/streamhash/data.py",
           "np.isfinite(rows).all() and not minus_zero:",
           "np.isfinite(rows).all():",
           "an integer -0 token parses as -0.0, as float() parses it",
           "tests/test_row_codec.py"),
    Mutant("parse_strips_last_byte", "src/streamhash/data.py",
           'encode("ascii", "replace").removesuffix(b"\\n")',
           'encode("ascii", "replace")[:-1]',
           "a last line with no line end keeps its last character",
           "tests/test_row_codec.py"),
    Mutant("parse_any_bytes_as_json", "src/streamhash/data.py",
           "if not text.translate(None, ROW_BYTES):",
           "if True:",
           "a token float() rejects (true, null, \"1\", 1],[2) is a FormatError",
           "tests/test_row_codec.py"),
    Mutant("parse_no_shape_check", "src/streamhash/data.py",
           "if rows.shape == (len(lines), width) and np.isfinite",
           "if np.isfinite",
           "a line of the wrong length, or a missing line, is a FormatError",
           "tests/test_row_codec.py"),
    Mutant("sidecar_digest_unchecked", "src/streamhash/data.py",
           'cache.readline(65) == _sha256(path) + b"\\n"',
           "cache.readline(65)",
           "a sidecar is used only when it holds the sha256 of the text beside it",
           "tests/test_data.py"),
    Mutant("sidecar_order_unchecked", "src/streamhash/data.py",
           "X.flags.c_contiguous and X.shape == (d, n)",
           "X.shape == (d, n)",
           "load_dense returns C-ordered features, as a parse does",
           "tests/test_data.py"),
    Mutant("sidecar_memory_error_raised", "src/streamhash/data.py",
           "except (OSError, ValueError, MemoryError):",
           "except (OSError, ValueError):",
           "a sidecar whose header claims a huge array is ignored",
           "tests/test_data.py"),
    Mutant("label_overflow_uncaught", "src/streamhash/data.py",
           "except (ValueError, OverflowError) as e:",
           "except ValueError as e:",
           "a label outside int64 is a FormatError (exit code 2)",
           "tests/test_data.py"),
    Mutant("save_takes_any_feature_dtype", "src/streamhash/data.py",
           'if features.dtype.kind not in "iuf":',
           "if False:",
           "bool, complex, object and text features are a DomainError before any file opens",
           "tests/test_data.py"),
    Mutant("save_writes_non_finite", "src/streamhash/data.py",
           "if not _parsed_as(features, labels, n):",
           "if False:",
           "nan or infinite features are a NumericError before any file opens",
           "tests/test_data.py"),
    Mutant("load_ignores_trailing_lines", "src/streamhash/data.py",
           "        if line.strip():\n",
           "        if False:\n",
           "a non-blank line after a file's last declared line is a FormatError",
           "tests/test_data.py"),
    Mutant("sidecar_shape_unchecked", "src/streamhash/data.py",
           "X.flags.c_contiguous and X.shape == (d, n) and _parsed_as",
           "X.flags.c_contiguous and _parsed_as",
           "a sidecar is used only when its features have the text header's shape",
           "tests/test_data.py"),
    Mutant("failed_save_keeps_tmp", "src/streamhash/data.py",
           "        with contextlib.suppress(OSError):\n            os.remove(tmp)\n        raise",
           "        raise",
           "a failed save leaves no temporary file behind",
           "tests/test_data.py"),
    Mutant("save_needs_its_directory", "src/streamhash/data.py",
           '    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)\n',
           "",
           "a save creates the missing directories of its path",
           "tests/test_model.py"),
    Mutant("save_through_a_fixed_tmp", "src/streamhash/data.py",
           'f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"',
           'f"{os.fspath(path)}.tmp"',
           "two saves to one path at once both return normally, and one of them wins whole",
           "tests/test_data.py"),
    Mutant("sidecar_features_off_by_an_ulp", "src/streamhash/data.py",
           "features.tofile(f)",
           "(features * (1 + 2**-52)).tofile(f)",
           "the sidecar holds exactly the features a parse of the text returns",
           "tests/test_data.py"),
    Mutant("no_step_check_deleted", "src/streamhash/trainer.py",
           "    if grad_norm == 0.0 and loss_before > 0:",
           "    if False:",
           "a stage that applies no step at a positive loss aborts the stream (exit 5)",
           "tests/test_trainer.py"),
    Mutant("row_sums_dropped", "src/streamhash/trainer.py",
           "r = A.sum(axis=1)",
           "r = 0.0",
           "the code-space gradient is B o r - B A, with r the row sums of A",
           "tests/test_trainer.py"),
    Mutant("paper_mode_takes_b_for_c", "src/streamhash/trainer.py",
           "C = B * tanh_deriv",
           "C = B",
           "the paper gradient carries the tanh derivative of the partner sample",
           "tests/test_trainer.py"),
    Mutant("train_config_takes_bools", "src/streamhash/distribution.py",
           'type(value) is bool and kind != "bool"',
           "False",
           "a bool where TrainConfig takes a number is a DomainError naming the field",
           "tests/test_trainer.py"),
    Mutant("int_settings_take_floats", "src/streamhash/distribution.py",
           'KINDS = {"int": (Integral, "int")',
           'KINDS = {"int": (Real, "int")',
           "an int setting of another type (2.5, \"3\") is a DomainError naming the field",
           "tests/test_trainer.py"),
    Mutant("kernel_diagonal_kept", "src/streamhash/trainer.py",
           "    np.fill_diagonal(kernel, 0.0)\n",
           "",
           "Q has an exactly zero diagonal: no instance is its own neighbor",
           "tests/test_trainer.py"),
    Mutant("r_max_checked_after_training", "src/streamhash/experiment.py",
           "    if cfg.eval.r_max > (n := retrieval.idx.size):\n",
           "    if False:\n",
           "an eval.r_max outside the database is a DomainError (exit 3) before any stage",
           "tests/test_cli.py"),
    Mutant("aborted_train_returns", "src/streamhash/experiment.py",
           "    if aborted:  # of the stage error's class",
           "    if False:  # of the stage error's class",
           "a stream a stage error cut short is never returned as trained: train exits 5",
           "tests/test_cli.py"),
    Mutant("abort_raised_before_outputs", "src/streamhash/experiment.py",
           "    if out_dir is not None:\n        hashmodel.save_checkpoint(",
           "    if aborted and out_dir is not None:\n"
           "        raise type(aborted)(f\"aborted after {len(reports)} of {len(batches)} \"\n"
           "                            f\"stages: {aborted}; partial outputs in {out_dir}\")\n"
           "    if out_dir is not None:\n        hashmodel.save_checkpoint(",
           "an aborted stream still writes checkpoint.txt, stages.csv and curve.csv of the "
           "stages it completed", "tests/test_experiment.py"),
    Mutant("abort_catches_numeric_errors_only", "src/streamhash/experiment.py",
           "    except StreamHashError as e:\n        aborted = e",
           "    except trainer.NumericError as e:\n        aborted = e",
           "any library error of a stage ends the stream as a numeric one does: a raw target's "
           "batch with no similar pair keeps the completed stages' outputs", "tests/test_cli.py"),
    Mutant("abort_message_drops_its_cause", "src/streamhash/experiment.py",
           'stages: {aborted}"',
           'stages"',
           "the abort message ends with the stage error's own message",
           "tests/test_experiment.py"),
    Mutant("final_only_run_scores_its_curve", "src/streamhash/experiment.py",
           "            if curve and report.stage_index",
           "            if report.stage_index",
           "a sweep cell or an unseen run (curve=False) scores its last stage only",
           "tests/test_experiment.py"),
    Mutant("aborted_stream_scored", "src/streamhash/experiment.py",
           " or aborted and out_dir is None):",
           "):",
           "an aborted stream with no out_dir raises without scoring its last completed stage",
           "tests/test_experiment.py"),
    Mutant("pack_takes_zero_codes", "src/streamhash/index.py",
           "np.count_nonzero(B == -1) != B.size",
           "np.count_nonzero(B <= 0) != B.size",
           "pack refuses every code entry other than +1 and -1, 0 included",
           "tests/test_index.py"),
    Mutant("q_normalized_over_the_kernel", "src/streamhash/trainer.py",
           "    return kernel, kernel / kernel.sum()",
           "    kernel /= kernel.sum()\n    return kernel, kernel",
           "build_workspace's kernel and Q are new arrays that share no memory",
           "tests/test_trainer.py"),
    Mutant("model_takes_any_W_dtype", "src/streamhash/model.py",
           'if self.W.dtype.kind not in "iuf":',
           "if False:",
           "a W that is not of a real dtype is a DomainError",
           "tests/test_model.py"),
    Mutant("encode_binary_ge", "src/streamhash/model.py",
           "np.multiply(Z > 0.0, 2.0, out=Z)",
           "np.multiply(Z >= 0.0, 2.0, out=Z)",
           "a zero projection encodes as -1",
           "tests/test_model.py"),
    Mutant("hamming_norms_apart_from_gram", "src/streamhash/distribution.py",
           "dist = gram.diagonal()[:, None] + gram.diagonal()",
           "sq = (B * B).sum(axis=0)\n    dist = sq[:, None] + sq",
           "the pairwise distances have an exactly zero diagonal with no fill",
           "tests/test_distribution.py"),
    Mutant("digest_takes_no_numpy_scalars", "src/streamhash/experiment.py",
           "    if isinstance(value, np.generic):\n        return value.item()\n",
           "",
           "a numpy-number setting digests and reports as the Python number it holds",
           "tests/test_experiment.py"),
    Mutant("split_label_count_unchecked", "src/streamhash/data.py",
           "    n = features.shape[1]\n    if labels.shape != (n,):",
           "    n = features.shape[1]\n    if False:",
           "split refuses labels of another count than the feature columns (DimensionError)",
           "tests/test_data.py"),
    Mutant("pixels_take_nan", "src/streamhash/data.py",
           "not (raw.min() >= 0 and raw.max() <= 255)",
           "(raw.min() < 0 or raw.max() > 255)",
           "normalize_pixels refuses nan as out of range",
           "tests/test_data.py"),
    Mutant("text_hashed_before_the_sidecar_opens", "src/streamhash/data.py",
           '        try:\n            with open(f"{os.fspath(path)}{SIDECAR}", "rb") as cache:\n'
           '                if cache.readline(65) == _sha256(path) + b"\\n":',
           '        try:\n            text_digest = _sha256(path) + b"\\n"\n'
           '            with open(f"{os.fspath(path)}{SIDECAR}", "rb") as cache:\n'
           "                if cache.readline(65) == text_digest:",
           "a load with no sidecar does not hash the text",
           "tests/test_data.py"),
    Mutant("sidecar_features_shifted_by_1e-300", "src/streamhash/data.py",
           "features.tofile(f)",
           "(features + 1e-300).tofile(f)",
           "the sidecar holds exactly the features a parse of the text returns, zeros included",
           "tests/test_data.py"),
    Mutant("output_dir_read_from_the_environment", "src/streamhash/cli.py",
           "str(args.output_dir or cfg.output_dir)",
           "str(args.output_dir or __import__(\"os\").environ.get(\"STREAMHASH_OUT\")\n"
           "                                                     or cfg.output_dir)",
           "no environment variable redirects a run: outputs go to --output-dir, else the "
           "config's output_dir", "tests/test_cli.py"),
    Mutant("command_optional", "src/streamhash/cli.py",
           'add_subparsers(dest="command", required=True)',
           'add_subparsers(dest="command")',
           "a run with no command is argparse's usage error (exit 2), not a traceback",
           "tests/test_cli.py"),
    Mutant("config_flag_optional", "src/streamhash/cli.py",
           'config.add_argument("--config", required=True,',
           'config.add_argument("--config",',
           "a config command without --config is argparse's usage error (exit 2)",
           "tests/test_cli.py"),
    Mutant("checkpoint_flag_optional", "src/streamhash/cli.py",
           'p.add_argument("--checkpoint", required=True,',
           'p.add_argument("--checkpoint",',
           "eval without --checkpoint is argparse's usage error (exit 2)",
           "tests/test_cli.py"),
    Mutant("synth_dim_optional", "src/streamhash/cli.py",
           'p.add_argument("--dim", type=int, required=True)',
           'p.add_argument("--dim", type=int)',
           "synth without --dim is argparse's usage error (exit 2), not a DomainError (exit 3)",
           "tests/test_cli.py"),
    Mutant("report_digest_at_the_configs_width", "src/streamhash/experiment.py",
           "replace(cfg, bits=model.k).digest(*sections)",
           "cfg.digest(*sections)",
           "a report's config digest is taken at the evaluated model's width",
           "tests/test_cli.py"),
    Mutant("set_without_equals_unchecked", "src/streamhash/cli.py",
           '        if "=" not in item:\n'
           '            raise ConfigError(f"--set expects key=value, got {item!r}")\n',
           "",
           "a --set without = is a ConfigError naming the flag (exit 2)",
           "tests/test_cli.py"),
    Mutant("verbose_levels_swapped", "src/streamhash/cli.py",
           "level=logging.DEBUG if args.verbose else logging.INFO",
           "level=logging.INFO if args.verbose else logging.DEBUG",
           "-v logs one DEBUG line per stage, and the default level logs none",
           "tests/test_cli.py"),
]


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def mutated(tree: Path, mutant: Mutant) -> str:
    """The text of mutant.file in tree with the edit applied."""
    text = (tree / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        sys.exit(f"{mutant.name}: the old text occurs {count} times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def tier1_failure(tree: Path, tests: str = "tests") -> str | None:
    """None if tier-1, or its file tests, passes in tree, else the first
    failing test as pytest names it (or pytest's exit status), stopping at
    the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", tests],
                         cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode == 0:
        return None
    failed = [line.split()[1] for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit status {out.returncode}"


def manifest(tree: Path) -> str | None:
    """tools/parity.py's manifest of tree at one BLAS thread; None if it exits non-zero."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out_dir = tree / "parity-out"
    result = subprocess.run([sys.executable, str(tree / "tools" / "parity.py"), str(out_dir)],
                            cwd=tree, env=env, capture_output=True, text=True)
    return (out_dir / "manifest.txt").read_text() if result.returncode == 0 else None


def main() -> int:
    for mutant in MUTANTS:  # every edit applies before anything runs
        mutated(ROOT, mutant)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="streamhash-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        failure = tier1_failure(clean)
        if failure:
            sys.exit(f"the unmutated copy fails tier-1 ({failure}); no mutant can be judged")
        want = manifest(clean)
        if want is None:
            sys.exit("tools/parity.py fails on the unmutated copy")
        survivors = []
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            copy_tree(tree)
            (tree / mutant.file).write_text(mutated(tree, mutant))
            failure = tier1_failure(tree, mutant.killer)
            if failure:
                by = [f"{mutant.killer} ({failure})"]
            else:
                failure = tier1_failure(tree)
                by = [check for check, caught in ((f"tier-1 ({failure})", failure),
                                                  ("parity", manifest(tree) != want)) if caught]
            print(f"{mutant.name}: {'killed by ' + ' and '.join(by) if by else 'SURVIVED'}"
                  f" - breaks: {mutant.breaks}", flush=True)
            if not by:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
