"""The row codec behind the dense and checkpoint formats: the writer's text
equals the repr() oracle's, the orjson reader's values and errors equal the
float() reference parser's, saves and loads run inline and never fork, a
failed save leaves no partial file, and a file split into many chunks gives
the bytes, values and errors of one chunk."""

import os
import subprocess
import sys
import textwrap
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import streamhash
from streamhash import cli, data, model as hm
from streamhash.errors import FormatError, NumericError

from oracles import format_rows_by_repr, load_dense_both_ways

SRC = Path(streamhash.__file__).resolve().parent.parent


@pytest.fixture
def no_fork(monkeypatch):
    """Three values per chunk and two cores, with every fork refused."""
    def refuse():
        raise AssertionError("the codec forked")

    monkeypatch.setattr(data, "CHUNK_VALUES", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refuse)


def dense_set(d=4, n=23, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-300, 300, size=(d, n))
    return X, rng.integers(-5, 5, size=n)


def assert_formats_as_repr(values, width):
    """_format_rows of the values in rows of `width` (a short last row
    padded with 1.5) is the repr() oracle's text, also for a transposed view."""
    values = np.asarray(values).ravel()
    pad = np.full(-len(values) % width, 1.5, dtype=values.dtype)
    rows = np.concatenate([values, pad]).reshape(-1, width)
    want = format_rows_by_repr(rows).encode()
    assert data._format_rows(rows) == want
    assert data._format_rows(np.asfortranarray(rows)) == want


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))  # all 2098 of them
EDGES = np.array([1e-4, 1e16])
NEIGHBOURS = np.concatenate([EDGES, np.nextafter(EDGES, 0.0), np.nextafter(EDGES, np.inf)])
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                    np.finfo(np.float64).max, -np.finfo(np.float64).max, np.nan, np.inf, -np.inf])


class TestFormatRows:
    """The text of float64 rows, written through orjson where its text is
    repr's and as repr() elsewhere, equals the repr() oracle byte for byte."""

    @pytest.mark.parametrize("width", [1, 784])
    @pytest.mark.parametrize("values", [
        pytest.param(np.array([0.0, -0.0]), id="zeros"),
        pytest.param(np.concatenate([POWERS_OF_TWO, -POWERS_OF_TWO]), id="powers_of_two"),
        pytest.param(np.concatenate([NEIGHBOURS, -NEIGHBOURS]), id="fast_range_edges"),
        pytest.param(SPECIAL, id="special"),
        pytest.param(np.random.default_rng(1).integers(1, 1 << 52, 500, dtype=np.uint64)
                     .view(np.float64), id="subnormals"),
    ])
    def test_values_as_repr(self, values, width):
        assert_formats_as_repr(values, width)

    def test_the_fast_range_ends_at_its_edges(self):
        inside = np.array([1e-4, np.nextafter(1e16, 0.0), 0.0, -0.0])
        outside = np.array([np.nextafter(1e-4, 0.0), 1e16, 1e-5, 1e17])
        # orjson writes the outside values in another notation than repr
        assert data._format_rows(inside[None]) == b"0.0001 9999999999999998.0 0.0 -0.0\n"
        assert data._format_rows(outside[None]) == (
            b"9.999999999999999e-05 1e+16 1e-05 1e+17\n")

    @pytest.mark.parametrize("width", [1, 784])
    def test_random_bit_patterns(self, width):
        bits = np.random.default_rng(7).integers(0, 1 << 64, 10**5, dtype=np.uint64,
                                                 endpoint=False)
        assert_formats_as_repr(bits.view(np.float64), width)

    @pytest.mark.parametrize("width", [1, 784])
    @pytest.mark.parametrize("fallback", [False, True])
    def test_chunks_with_and_without_fallback_values(self, width, fallback):
        values = np.random.default_rng(3).normal(0.0, 3.0, 4 * 784)
        values = values[np.abs(values) >= 1e-4]  # no fallback value at all
        if fallback:
            values[::97] = SPECIAL[np.arange(len(values[::97])) % len(SPECIAL)]
        assert_formats_as_repr(values, width)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_dtypes_as_repr_of_their_python_values(self, dtype):
        # the Python values of their float64 values: float32 text is each
        # value's double's repr, and an int is written as a float
        rows = (np.arange(-6, 6).reshape(3, 4) * 7.25).astype(dtype)
        assert data._format_rows(rows) == format_rows_by_repr(rows.astype(np.float64)).encode()

    def test_int_features_are_written_as_floats(self, tmp_path):
        data.save_dense(tmp_path / "d.txt", np.array([[1, 2], [3, 4]]), np.array([0, 1]))
        assert (tmp_path / "d.txt").read_text() == "2 2\n1.0 3.0\n2.0 4.0\n0 1\n"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40)))
    def test_hypothesis_arrays(self, rows):
        assert data._format_rows(rows) == format_rows_by_repr(rows).encode()


def outcome(parse, lines, width):
    """parse's rows of lines as (shape, bytes), or its error as (type, message)."""
    try:
        rows = parse(lines, width, 7, "f.txt")
    except (FormatError, NumericError) as e:
        return type(e), str(e)
    return rows.shape, rows.tobytes()


def assert_parses_as_reference(lines, width):
    """_parse_chunk gives _parse_rows' values bit for bit, or its error."""
    want = outcome(data._parse_rows, lines, width)
    assert outcome(data._parse_chunk, lines, width) == want
    return want


def assert_read_through_orjson(tokens, width):
    """_parse_chunk reads the tokens, in lines of width, as float() does,
    with the reference parser refused."""
    lines = [" ".join(tokens[i : i + width]) + "\n" for i in range(0, len(tokens), width)]
    want = data._parse_rows(lines, width, 7, "f.txt")
    assert want.ravel().tolist() == [float(t) for t in tokens]

    def refuse(*args):
        raise AssertionError("the chunk went to the reference parser")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "_parse_rows", refuse)
        rows = data._parse_chunk(lines, width, 7, "f.txt")
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()


def finite_bit_patterns(count, seed):
    bits = np.random.default_rng(seed).integers(0, 1 << 64, count, dtype=np.uint64,
                                                endpoint=False)
    values = bits.view(np.float64)
    return np.where(np.isfinite(values), values, 1.5)


def halfway_tokens(count, seed):
    """The exact decimal midpoints of count random pairs of adjacent finite
    doubles, and each midpoint with a 1 appended: float() rounds the first
    to even and the second up."""
    tokens = []
    with localcontext(prec=1200):  # every midpoint of doubles is exact in 1200 digits
        for x in np.abs(finite_bit_patterns(count, seed)):
            up = np.nextafter(x, np.inf)
            if not np.isfinite(up):
                continue
            mid = (Decimal(float(x)) + Decimal(float(up))) / 2
            digits, exponent = f"{mid:e}".split("e")
            sign = "-" if len(tokens) % 4 >= 2 else ""
            tokens += [f"{sign}{digits}e{exponent}", f"{sign}{digits}1e{exponent}"]
    return tokens


SIGNED_ZEROS = [
    pytest.param(["-0 1\n"], 2, id="first"),
    pytest.param(["1 -0\n"], 2, id="last_in_line"),
    pytest.param(["1 -0"], 2, id="end_of_file"),
    pytest.param(["0 -0\n", "-0 0\n"], 2, id="next_to_zeros"),
    pytest.param(["-0.0 0.0\n"], 2, id="floats"),
    pytest.param(["1e-400 -1e-400\n"], 2, id="underflow"),
    pytest.param(["1e-0 0\n"], 2, id="exponent_minus_zero"),
    pytest.param(["-0\n", "-0\n", "-0"], 1, id="column"),
]

OUTSIDE_JSON = [
    ".5 1\n", "+5 1\n", "007 1\n", "1_0 1\n", "1.\t2\n", "1\t2\n", "1  2\n", "1 2\r\n",
    " 1 2\n", "1 2 \n", "1. 2\n", "1e5 2E-3\n", "١ 2\n", "1 2\n", "1 2\x0b\n",
    "\udcff 1\n", "0x10 1\n", "1e 2\n", "-- 1\n",
]

NOT_NUMBERS = ["true 1\n", "null 1\n", '"1" 2\n', "[1] 2\n", "1,2 3\n", "1],[2 3\n",
               "] 1\n", "[ 1\n", "1 2\n3\n"]

NON_FINITE = ["nan 1\n", "NaN 1\n", "inf 1\n", "-inf 1\n", "Infinity 1\n", "1e400 1\n",
              "-1e400 1\n", "1" * 400 + " 1\n"]

SOUP = ["0", "-0", "1", "-1", "25", "0.5", "-0.0", "1e5", "1E-5", "1e-0", "1e400", "1e-400",
        "18446744073709551616", ".5", "+5", "007", "1_0", "true", "null", '"1"', "[1]", "1,2",
        "]", "[", ",", "],[", "nan", "inf", "1.", "-", "e", "١", "\t", "\r", ""]


class TestParseChunk:
    """_parse_chunk reads chunks of JSON numbers through orjson and gives
    exactly the values of the float() reference parser _parse_rows, and its
    errors, on every chunk."""

    @pytest.mark.parametrize("width", [1, 784])
    def test_random_bit_patterns(self, width):
        values = finite_bit_patterns(128 * 784, 11)  # over 10**5, whole lines of 784
        assert_read_through_orjson([repr(v) for v in values.tolist()], width)

    def test_halfway_cases_and_long_decimals(self):
        tokens = halfway_tokens(2000, 12)
        rng = np.random.default_rng(13)
        for _ in range(2000):
            digits = "".join(map(str, rng.integers(0, 10, rng.integers(18, 60))))
            point = rng.integers(1, min(20, len(digits)))
            tokens.append(f"{rng.integers(1, 10)}{digits[:point]}.{digits[point:]}"
                          f"e{rng.integers(-340, 280)}")
        assert_read_through_orjson(tokens, 8)

    def test_integers_past_2_to_53_and_2_to_64(self):
        edges = [2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 2**11,
                 2**64 + 2**11 + 1, 2**64 + 3 * 2**11, 10**22, 10**23, 2**1023 * 3 // 2]
        rng = np.random.default_rng(14)
        ints = edges + [int(v) for v in rng.integers(2**53, 2**63, 500, dtype=np.int64)]
        ints += [int(a) << int(b) for a, b in zip(rng.integers(2**52, 2**63, 500),
                                                   rng.integers(1, 40, 500))]
        tokens = [str(sign * v) for v in ints for sign in (1, -1)]
        # orjson reads integers within 64 bits as ints; past them, a release
        # may read them as doubles or refuse them, so only the values are pinned
        assert_read_through_orjson([t for t in tokens if abs(int(t)) < 2**64], 2)  # sign pairs
        assert_parses_as_reference([t + "\n" for t in tokens], 1)

    @pytest.mark.parametrize("lines, width", SIGNED_ZEROS)
    def test_signed_zeros(self, lines, width):
        raw = assert_parses_as_reference(lines, width)[1]
        signs = np.signbit(np.frombuffer(raw)).tolist()
        assert signs == [token.startswith("-") for line in lines for token in line.split()]

    def test_last_line_without_line_end(self, tmp_path):
        want = ((2, 1), np.array([1.0, 25.0]).tobytes())
        assert assert_parses_as_reference(["1\n", "25"], 1) == want
        (tmp_path / "c.txt").write_text("2 1\n1\n25")
        assert hm.load_checkpoint(tmp_path / "c.txt").W.tolist() == [[1.0], [25.0]]

    @pytest.mark.parametrize("line", OUTSIDE_JSON + NOT_NUMBERS + NON_FINITE)
    def test_tokens_outside_json_numbers(self, line):
        assert_parses_as_reference(["1.5 2.5\n", line, "3.5 4.5\n"], 2)

    @pytest.mark.parametrize("lines", [["1],[2\n", ""], ["1],[2"], ["1\n", ""], ["\n"], [""]])
    def test_missing_lines(self, lines):
        assert assert_parses_as_reference(lines, 1)[0] is FormatError

    def test_crlf_file_parses_as_lf(self, tmp_path):
        W = dense_set(d=6, n=3)[0]
        hm.save_checkpoint(hm.HashModel(W=W), tmp_path / "c.txt")
        crlf = (tmp_path / "c.txt").read_bytes().replace(b"\n", b"\r\n")
        (tmp_path / "crlf.txt").write_bytes(crlf)
        assert hm.load_checkpoint(tmp_path / "crlf.txt").W.tobytes() == W.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.lists(st.lists(st.sampled_from(SOUP), max_size=4),
                                      min_size=1, max_size=4),
           st.sampled_from(["\n", ""]), st.integers(0, 2))
    def test_token_soup(self, width, lines, end, missing):
        lines = [" ".join(tokens) + "\n" for tokens in lines]
        lines[-1] = lines[-1][:-1] + end
        assert_parses_as_reference(lines + [""] * missing, width)


class TestSaves:
    """Saves format inline: they never fork, and a failed one leaves no file
    at its path and an older file there intact."""

    def test_saves_never_fork(self, tmp_path, no_fork):
        X, y = dense_set()
        data.save_dense(tmp_path / "d.txt", X, y)
        hm.save_checkpoint(hm.HashModel(W=X), tmp_path / "c.txt")
        out = str(tmp_path / "blobs.txt")
        assert cli.main(["synth", "--num-classes", "3", "--dim", "4", "--per-class", "20",
                         "--spread", "0.5", "--seed", "2", "--out", out]) == 0
        # the loads parse in many chunks with every fork refused too
        assert (hm.load_checkpoint(tmp_path / "c.txt").W == X).all()
        X2, y2 = load_dense_both_ways(tmp_path / "d.txt")
        assert (X2.view(np.uint64) == X.view(np.uint64)).all() and (y2 == y).all()
        X3, y3 = load_dense_both_ways(out)
        X4, y4 = data.synth_blobs(3, 4, 20, 0.5, 2)
        assert X3.tobytes() == X4.tobytes() and (y3 == y4).all()

    @pytest.mark.parametrize("older", [False, True])
    @pytest.mark.parametrize("fmt", ["dense", "checkpoint"])
    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch, fmt, older):
        X, y = dense_set()
        path = tmp_path / "out.txt"
        save = ((lambda M: data.save_dense(path, M, y)) if fmt == "dense"
                else (lambda M: hm.save_checkpoint(hm.HashModel(W=M), path)))
        if older:
            save(X)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        real, calls = data._format_rows, []

        def second_chunk_raises(rows):
            calls.append(len(rows))
            if len(calls) == 2:
                raise OSError("disk full")
            return real(rows)

        monkeypatch.setattr(data, "CHUNK_VALUES", 3)  # one row a chunk
        monkeypatch.setattr(data, "_format_rows", second_chunk_raises)
        with pytest.raises(OSError, match="disk full"):
            save(X + 1.0)
        assert len(calls) == 2
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


class TestManyChunkFiles:
    """Files written and parsed in many chunks: the bytes and values of one chunk."""

    def test_dense_bytes_and_values(self, tmp_path, monkeypatch):
        X, y = dense_set()
        data.save_dense(tmp_path / "one.txt", X, y)
        monkeypatch.setattr(data, "CHUNK_VALUES", 3)
        data.save_dense(tmp_path / "many.txt", X, y)
        assert (tmp_path / "many.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()
        sidecar = (tmp_path / f"many.txt{data.SIDECAR}").read_bytes()
        assert sidecar == (tmp_path / f"one.txt{data.SIDECAR}").read_bytes()
        X2, y2 = load_dense_both_ways(tmp_path / "many.txt")  # the text parse is in 8 chunks
        assert (X2.view(np.uint64) == X.view(np.uint64)).all() and (y2 == y).all()
        assert X2.flags.c_contiguous

    def test_checkpoint_bytes_and_values(self, tmp_path, monkeypatch):
        W = dense_set(d=19, n=5)[0]
        hm.save_checkpoint(hm.HashModel(W=W), tmp_path / "one.txt")
        monkeypatch.setattr(data, "CHUNK_VALUES", 3)
        hm.save_checkpoint(hm.HashModel(W=W), tmp_path / "many.txt")
        assert (tmp_path / "many.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()
        W2 = hm.load_checkpoint(tmp_path / "many.txt").W
        assert (W2.view(np.uint64) == W.view(np.uint64)).all()


def corrupt(lines, line, how):
    """Damage file line `line` (1-based) of a list of text lines."""
    lines = list(lines)
    fields = lines[line - 1].split()
    if how == "token":
        fields[-1] = "1.2.3"
    elif how == "field_count":
        fields.append("0.5")
    elif how == "nan":
        fields[0] = "nan"
    elif how == "undecodable":
        fields[0] = "\udcff"  # written back as the byte 0xff, which is not UTF-8
    elif how == "truncated":
        return lines[: line - 1]
    lines[line - 1] = " ".join(fields)
    return lines


def error_of(load, path):
    with pytest.raises((FormatError, NumericError)) as info:
        load(path)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("how, error", [
    ("token", FormatError), ("field_count", FormatError), ("nan", NumericError),
    ("truncated", FormatError), ("undecodable", FormatError),
])
@pytest.mark.parametrize("fmt", ["dense", "checkpoint"])
def test_late_chunk_error_matches_one_chunk(tmp_path, monkeypatch, fmt, how, error):
    X, y = dense_set()
    path = tmp_path / "bad.txt"
    if fmt == "dense":
        data.save_dense(path, X, y)
        load, line = data.load_dense, 20  # instance 18, in the 7th of 8 chunks
    else:
        hm.save_checkpoint(hm.HashModel(W=X.T), path)
        load, line = hm.load_checkpoint, 21  # row 19, in the 7th of 8 chunks
    text = "\n".join(corrupt(path.read_text().splitlines(), line, how)) + "\n"
    path.write_bytes(text.encode(errors="surrogateescape"))
    one_chunk = error_of(load, path)
    monkeypatch.setattr(data, "CHUNK_VALUES", 12)  # 3 lines of 4 values a chunk
    assert error_of(load, path) == one_chunk
    assert one_chunk[0] is error and f"{path}: line {line}:" in one_chunk[1]


def run_dev_script(tmp_path, body):
    """Run `body` as a script under -X dev -W error, which turns any warning
    into a failure, with os.fork refused; return its stdout."""
    script = tmp_path / "script.py"
    script.write_text("import os\n\ndef refuse():\n    raise AssertionError('forked')\n\n"
                      "os.fork = refuse\n" + textwrap.dedent(body))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_pooled_evaluation_then_save_and_pooled_parse(tmp_path):
    """An evaluation on the thread pool leaves no thread behind, and a later
    save and many-chunk parse of the text start no process."""
    assert run_dev_script(tmp_path, """
        import threading
        import numpy as np
        from streamhash import data, experiment, metrics, model as hm

        data.CHUNK_VALUES = 8
        metrics._usable_cores = lambda: 2
        metrics.BLOCK_BYTES = 2 * 8 * 60  # one query per block
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(6, 69)), rng.integers(0, 3, size=69)
        retrieval = data.Part(X, np.arange(60), y[:60])
        test = data.Part(X, np.arange(60, 69), y[60:])
        scores = experiment.evaluate_model(hm.init(6, 16, seed=0), retrieval, test,
                                           cutoff=10, r_max=20)
        assert 0.0 <= scores["map"] <= 1.0
        assert threading.active_count() == 1
        data.save_dense("d.txt", retrieval.features, retrieval.labels)
        parse, data.read_rows = data.read_rows, None  # the sidecar's load must not parse
        X1, y1 = data.load_dense("d.txt")
        data.read_rows = parse
        os.remove("d.txt.streamhash-cache")
        X2, y2 = data.load_dense("d.txt")  # a parse of the text in many chunks
        assert X1.tobytes() == X2.tobytes() == retrieval.features.tobytes()
        assert (y1 == y2).all() and (y2 == retrieval.labels).all()
        assert threading.active_count() == 1
        print("ok")
    """) == "ok\n"


def test_synth_command_then_pooled_parse(tmp_path):
    """synth_blobs joins its helper thread before it returns, and a later
    many-chunk parse of the file that `streamhash synth` saved starts no
    process."""
    assert run_dev_script(tmp_path, """
        import threading
        from streamhash import cli, data

        data.CHUNK_VALUES = 8
        code = cli.main(["synth", "--num-classes", "3", "--dim", "4", "--per-class", "20",
                         "--spread", "0.5", "--seed", "2", "--out", "blobs.txt"])
        assert code == 0
        assert threading.active_count() == 1
        os.remove("blobs.txt.streamhash-cache")
        X, y = data.load_dense("blobs.txt")  # a parse of the text in many chunks
        X2, y2 = data.synth_blobs(3, 4, 20, 0.5, 2)
        assert (X == X2).all() and (y == y2).all()
        print("ok")
    """).endswith("ok\n")


def test_unguarded_script_saves_and_loads(tmp_path):
    """A top-level script with no __main__ guard saves and loads in many
    chunks: nothing starts a worker process, which under spawn or forkserver
    would re-run __main__."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent("""
        import os
        import numpy as np
        from streamhash import data, model as hm

        data.CHUNK_VALUES = 8
        X = np.arange(200.0).reshape(4, 50) / 7.0
        data.save_dense("d.txt", X, np.arange(50))
        parse, data.read_rows = data.read_rows, None  # the sidecar's load must not parse
        X1, y1 = data.load_dense("d.txt")
        data.read_rows = parse
        os.remove("d.txt.streamhash-cache")
        X2, y2 = data.load_dense("d.txt")  # a parse of the text in 25 chunks
        hm.save_checkpoint(hm.HashModel(W=X.T), "c.txt")
        assert X1.tobytes() == X2.tobytes() == X.tobytes()
        assert (y1 == y2).all() and (y2 == np.arange(50)).all()
        assert (hm.load_checkpoint("c.txt").W == X.T).all()
        print("ok")
    """))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
