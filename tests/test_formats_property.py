"""Property tests for the textual dense, checkpoint and codes formats:
exact round trips, and rejection of what must not load."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamhash import data, index, model as hm
from streamhash.errors import FormatError, NumericError

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
        X2, y2 = data.load_dense(path)
        assert (bits(X2) == bits(X)).all()
        assert (y2 == y).all() and y2.dtype == np.int64

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


@st.composite
def codes(draw):
    """(k, n) +/-1 codes, k on both sides of the 64-bit word boundaries."""
    k = draw(st.sampled_from([1, 63, 64, 65, 130]))
    n = draw(st.integers(1, 5))
    return draw(arrays(np.float64, (k, n), elements=st.sampled_from([-1.0, 1.0])))


class TestCodes:
    @SETTINGS
    @given(B=codes())
    def test_round_trip(self, tmp_path, B):
        labels = np.arange(B.shape[1])
        path = tmp_path / "codes.txt"
        index.save_codes(index.pack(B, labels), path)
        loaded = index.load_codes(path, labels)
        assert (index.unpack(loaded) == B).all() and (loaded.labels == labels).all()

    @SETTINGS
    @given(B=codes(), data_=st.data(),
           bad=st.sampled_from(["2", "x", " ", "-", "drop", "extra"]))
    def test_bad_line_rejected(self, tmp_path, B, data_, bad):
        k, n = B.shape
        rows = ["".join("1" if v > 0 else "0" for v in B[:, i]) for i in range(n)]
        i = data_.draw(st.integers(0, n - 1))
        if bad == "drop":
            rows[i] = rows[i][1:]
        elif bad == "extra":
            rows[i] += "0"
        else:
            j = data_.draw(st.integers(0, k - 1))
            rows[i] = rows[i][:j] + bad + rows[i][j + 1:]
        path = tmp_path / "codes.txt"
        write_rows(path, [str(k), str(n)], [[r] for r in rows])
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: line {i + 2} "):
            index.load_codes(path)
