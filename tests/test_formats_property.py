"""Property tests for the textual dense and checkpoint formats: exact
round trips, and rejection of what must not load."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamhash import data, model as hm
from streamhash.errors import FormatError, NumericError

from oracles import load_dense_both_ways

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# finite doubles, -0.0, subnormals and the extreme exponents included
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e-300, 1e300])
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
UNPARSED = st.sampled_from(["abc", "1.2.3", "0x10", "--1", "1e", "1,5", "nan%"])
SHAPE = st.tuples(st.integers(1, 4), st.integers(1, 4))
LABELS = st.integers(-(2**63), 2**63 - 1)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def matrices(draw):
    return draw(arrays(np.float64, draw(SHAPE), elements=FINITE))


@st.composite
def poisoned(draw, bad):
    """(matrix, row, col, token): a finite matrix, one cell to replace with
    a bad token."""
    X = draw(matrices())
    row = draw(st.integers(0, X.shape[0] - 1))
    col = draw(st.integers(0, X.shape[1] - 1))
    return X, row, col, draw(bad)


def write_rows(path, header, rows, tail=()):
    lines = [" ".join(header)] + [" ".join(r) for r in rows] + list(tail)
    path.write_text("\n".join(lines) + "\n")


@st.composite
def dense_sets(draw):
    X = draw(matrices())
    n = X.shape[1]
    return X, np.array(draw(st.lists(LABELS, min_size=n, max_size=n)), dtype=np.int64)


class TestDense:
    @SETTINGS
    @given(case=dense_sets())
    @example(case=(np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308]]),
                   np.array([-(2**63), 2**63 - 1])))
    def test_round_trip_bit_exact(self, tmp_path, case):
        X, y = case
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        X2, y2 = load_dense_both_ways(path)
        assert (bits(X2) == bits(X)).all()
        assert (y2 == y).all() and y2.dtype == np.int64

    @SETTINGS
    @given(case=dense_sets(), seed=st.integers(0, 2**32 - 1))
    def test_gathered_columns_cached_as_parsed(self, tmp_path, case, seed):
        # columns gathered as a part gathers them are F-ordered; the sidecar
        # holds them in C order, as the parse returns them
        X, y = case
        idx = np.random.default_rng(seed).permutation(X.shape[1])
        path = tmp_path / "d.txt"
        data.save_dense(path, X[:, idx], y[idx])
        X2, y2 = load_dense_both_ways(path)
        assert (bits(X2) == bits(X[:, idx])).all() and (y2 == y[idx]).all()

    @SETTINGS
    @given(case=poisoned(NON_FINITE))
    def test_non_finite_rejected(self, tmp_path, case):
        X, row, col, value = case
        X[row, col] = value
        path = tmp_path / "d.txt"
        data.save_dense(path, X, np.zeros(X.shape[1], dtype=np.int64))
        with pytest.raises(NumericError, match=f"line {col + 2}:"):
            data.load_dense(path)

    @SETTINGS
    @given(case=poisoned(UNPARSED))
    def test_unparsed_value_rejected(self, tmp_path, case):
        X, row, col, token = case
        rows = [[repr(v) for v in X[:, i].tolist()] for i in range(X.shape[1])]
        rows[col][row] = token
        path = tmp_path / "d.txt"
        write_rows(path, [str(X.shape[0]), str(X.shape[1])], rows, [" ".join(["0"] * X.shape[1])])
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: line {col + 2}:"):
            data.load_dense(path)

    @SETTINGS
    @given(X=matrices(), token=UNPARSED | st.sampled_from(["1.5", "nan"]))
    def test_unparsed_label_rejected(self, tmp_path, X, token):
        d, n = X.shape
        rows = [[repr(v) for v in X[:, i].tolist()] for i in range(n)]
        path = tmp_path / "d.txt"
        write_rows(path, [str(d), str(n)], rows, [" ".join(["0"] * (n - 1) + [token])])
        with pytest.raises(FormatError, match=f"line {n + 2}:"):
            data.load_dense(path)


class TestCheckpoint:
    @SETTINGS
    @given(W=matrices())
    @example(W=np.array([[-0.0, 5e-324, -1.7976931348623157e308]]))
    def test_round_trip_bit_exact(self, tmp_path, W):
        path = tmp_path / "ckpt.txt"
        hm.save_checkpoint(hm.HashModel(W=W), path)
        assert (bits(hm.load_checkpoint(path).W) == bits(W)).all()

    @SETTINGS
    @given(case=poisoned(NON_FINITE.map(repr) | UNPARSED))
    def test_bad_value_rejected(self, tmp_path, case):
        W, row, col, token = case
        rows = [[repr(v) for v in r] for r in W.tolist()]
        rows[row][col] = token
        path = tmp_path / "ckpt.txt"
        write_rows(path, [str(W.shape[0]), str(W.shape[1])], rows)
        error = NumericError if token in ("nan", "inf", "-inf") else FormatError
        with pytest.raises(error, match=f"{re.escape(str(path))}: line {row + 2}:"):
            hm.load_checkpoint(path)


# the rest of each file after its first line; every one loads under "2 2"
BODIES = {"dense": b"0.5 0.5\n0.5 0.5\n0 1\n", "checkpoint": b"0.5 0.5\n0.5 0.5\n"}
LOADERS = {"dense": lambda path: data.load_dense(path)[0],
           "checkpoint": lambda path: hm.load_checkpoint(path).W}
SIZES = st.integers() | st.integers(-(2**70), 2**70)
FIRST_LINES = (st.binary() | st.text().map(str.encode)
               | st.tuples(SIZES, SIZES).map(lambda ab: f"{ab[0]} {ab[1]}".encode()))


class TestHeader:
    @SETTINGS
    @given(kind=st.sampled_from(sorted(LOADERS)), line=FIRST_LINES)
    @example(kind="dense", line=b"784 100000000")
    @example(kind="checkpoint", line=b"100000 100000000")
    @example(kind="checkpoint", line=f"{2**70} 1".encode())
    @example(kind="dense", line=b"2 2")
    def test_any_first_line_loads_or_is_rejected(self, tmp_path, kind, line):
        path = tmp_path / "f.txt"
        path.write_bytes(line + b"\n" + BODIES[kind])
        try:
            loaded = LOADERS[kind](path)
        except (FormatError, NumericError):
            return
        # whatever loads holds no more values than the file has bytes
        assert loaded.size <= path.stat().st_size
