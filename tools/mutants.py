"""Mutation check: every listed one-place edit of the program must be caught.

For each mutant, copies src/, tests/, tools/, configs/ and README.md into a
temporary directory, applies the edit there (its old text must occur exactly
once in its file), runs tier-1 with -x and then tools/parity.py at one BLAS
thread. A mutant is killed when tier-1 fails or its parity manifest differs
from the manifest of an unmutated copy made by the same invocation, so no
golden file is kept and the result does not depend on the CPU or the BLAS
build. The unmutated copy must pass tier-1 first. Exits 1 if that copy
fails, if an edit does not apply, or if any mutant survives both checks:

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


MUTANTS = [
    Mutant("split_test_unsorted", "src/streamhash/data.py",
           "test_idx = np.sort(np.concatenate(test_idx))\n    mask",
           "test_idx = np.concatenate(test_idx)\n    mask",
           "split parts list their columns in matrix order"),
    Mutant("epochs_share_a_seed", "src/streamhash/experiment.py",
           "data.stream(train, cfg.train.batch_size, cfg.train.seed + epoch)",
           "data.stream(train, cfg.train.batch_size, cfg.train.seed)",
           "epoch e of the stream is shuffled with seed train.seed + e"),
    Mutant("load_skips_finiteness", "src/streamhash/data.py",
           "X.shape == (d, n) and _parsed_as(X, y, n)",
           "X.shape == (d, n) and X.dtype == np.float64 and y.dtype == np.int64 "
           "and y.shape == (n,)",
           "a sidecar with non-finite features is ignored, and the text's error raised"),
    Mutant("p_diagonal_kept", "src/streamhash/distribution.py",
           "    diag_view(P)[:] = 0.0\n    return P\n\n\ndef p_raw",
           "    return P\n\n\ndef p_raw",
           "p_raw and p_gaussian have an exactly zero diagonal"),
    Mutant("eta_similar_gets_scale_n", "src/streamhash/distribution.py",
           "np.where(_mask(S), bits / 2.0 if sp.scale_p is None else sp.scale_p, sp.scale_n)",
           "np.where(_mask(S), sp.scale_n, sp.scale_n)",
           "similar pairs' distances are divided by scale_p (bits / 2 when null)"),
    Mutant("similar_count_with_diagonal", "src/streamhash/distribution.py",
           "n_similar = np.count_nonzero(_mask(S)) - np.count_nonzero(S.diagonal())",
           "n_similar = np.count_nonzero(_mask(S))",
           "P's similar pairs are counted off the diagonal only, so P has unit mass"),
    Mutant("hamming_clamp_deleted", "src/streamhash/distribution.py",
           "    np.maximum(dist, 0.0, out=dist)\n",
           "",
           "no pairwise distance of relaxed codes is negative"),
    Mutant("ap_terms_not_rezeroed", "src/streamhash/metrics.py",
           "            terms[found] = 0.0  # all zeros again for the next query\n",
           "",
           "each query's AP sums its own terms only"),
    Mutant("label_codes_from_db_only", "src/streamhash/metrics.py",
           "np.unique(np.concatenate((db.labels, queries.labels)),\n"
           "                                      return_inverse=True)",
           "np.unique(db.labels), np.searchsorted(np.unique(db.labels),\n"
           "                                      np.concatenate((db.labels, queries.labels)))",
           "a query label absent from the database matches no database item"),
    Mutant("labels_of_any_dtype_ranked", "src/streamhash/metrics.py",
           "if part.labels is None or part.labels.dtype != np.int64:",
           "if part.labels is None:",
           "labels that are not int64 are a DomainError before any ranking"),
    Mutant("label_codes_fixed_uint8", "src/streamhash/metrics.py",
           "label_codes.astype(np.min_scalar_type(distinct.size - 1))",
           "label_codes.astype(np.uint8)",
           "labels stay distinct above 256 distinct labels"),
    Mutant("fast_text_from_1e-5", "src/streamhash/data.py",
           "size >= 1e-4",
           "size >= 1e-5",
           "dense and checkpoint values are written as repr() writes them"),
    Mutant("fast_text_below_1e17", "src/streamhash/data.py",
           "size < 1e16",
           "size < 1e17",
           "dense and checkpoint values are written as repr() writes them"),
    Mutant("parse_minus_zero_unguarded", "src/streamhash/data.py",
           "np.isfinite(rows).all() and not minus_zero:",
           "np.isfinite(rows).all():",
           "an integer -0 token parses as -0.0, as float() parses it"),
    Mutant("parse_strips_last_byte", "src/streamhash/data.py",
           'encode("ascii", "replace").removesuffix(b"\\n")',
           'encode("ascii", "replace")[:-1]',
           "a last line with no line end keeps its last character"),
    Mutant("parse_any_bytes_as_json", "src/streamhash/data.py",
           "if not text.translate(None, ROW_BYTES):",
           "if True:",
           "a token float() rejects (true, null, \"1\", 1],[2) is a FormatError"),
    Mutant("parse_no_shape_check", "src/streamhash/data.py",
           "if rows.shape == (len(lines), width) and np.isfinite",
           "if np.isfinite",
           "a line of the wrong length, or a missing line, is a FormatError"),
    Mutant("sidecar_digest_unchecked", "src/streamhash/data.py",
           'cache.readline(65) == _sha256(path) + b"\\n"',
           "cache.readline(65)",
           "a sidecar is used only when it holds the sha256 of the text beside it"),
    Mutant("sidecar_order_unchecked", "src/streamhash/data.py",
           "X.flags.c_contiguous and X.shape == (d, n)",
           "X.shape == (d, n)",
           "load_dense returns C-ordered features, as a parse does"),
    Mutant("sidecar_memory_error_raised", "src/streamhash/data.py",
           "except (OSError, ValueError, MemoryError):",
           "except (OSError, ValueError):",
           "a sidecar whose header claims a huge array is ignored"),
    Mutant("label_overflow_uncaught", "src/streamhash/data.py",
           "except (ValueError, OverflowError) as e:",
           "except ValueError as e:",
           "a label outside int64 is a FormatError (exit code 2)"),
    Mutant("save_takes_any_feature_dtype", "src/streamhash/data.py",
           'if features.dtype.kind not in "iuf":',
           "if False:",
           "bool, complex, object and text features are a DomainError before any file opens"),
    Mutant("save_writes_non_finite", "src/streamhash/data.py",
           "if not _parsed_as(features, labels, n):",
           "if False:",
           "nan or infinite features are a NumericError before any file opens"),
    Mutant("load_ignores_trailing_lines", "src/streamhash/data.py",
           "        if line.strip():\n",
           "        if False:\n",
           "a non-blank line after a file's last declared line is a FormatError"),
    Mutant("sidecar_shape_unchecked", "src/streamhash/data.py",
           "X.flags.c_contiguous and X.shape == (d, n) and _parsed_as",
           "X.flags.c_contiguous and _parsed_as",
           "a sidecar is used only when its features have the text header's shape"),
    Mutant("failed_save_keeps_tmp", "src/streamhash/data.py",
           "        with contextlib.suppress(OSError):\n            os.remove(tmp)\n        raise",
           "        raise",
           "a failed save leaves no PATH.tmp behind"),
    Mutant("sidecar_features_off_by_an_ulp", "src/streamhash/data.py",
           "features.tofile(f)",
           "(features * (1 + 2**-52)).tofile(f)",
           "the sidecar holds exactly the features a parse of the text returns"),
    Mutant("model_takes_any_W_dtype", "src/streamhash/model.py",
           'if self.W.dtype.kind not in "iuf":',
           "if False:",
           "a W that is not of a real dtype is a DomainError"),
    Mutant("encode_binary_ge", "src/streamhash/model.py",
           "np.multiply(Z > 0.0, 2.0, out=Z)",
           "np.multiply(Z >= 0.0, 2.0, out=Z)",
           "a zero projection encodes as -1"),
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


def tier1_failure(tree: Path) -> str | None:
    """None if tier-1 passes in tree, else the first failing test as pytest
    names it (or pytest's exit status), stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", "tests"],
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
