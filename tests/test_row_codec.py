"""The row codec behind the dense and checkpoint formats: the writer's text
equals the repr() oracle's, saves run inline and never fork, a failed save
leaves no partial file, and a parse split into many chunks, so that the
worker pool runs, gives the same values and the same errors as one chunk
parsed inline."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import array_shapes, arrays

import streamhash
from streamhash import cli, data, model as hm
from streamhash.errors import FormatError, NumericError

from oracles import format_rows_by_repr, load_dense_both_ways

SRC = Path(streamhash.__file__).resolve().parent.parent


@pytest.fixture
def pooled(monkeypatch):
    """Three values per chunk and two workers, whatever the host has."""
    monkeypatch.setattr(data, "CHUNK_VALUES", 3)
    monkeypatch.setattr(data, "_usable_cores", lambda: 2)


def dense_set(d=4, n=23, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-300, 300, size=(d, n))
    return X, rng.integers(-5, 5, size=n)


def position(i):
    return i, os.getpid()


class TestInOrder:
    def test_results_in_task_order_from_workers(self, pooled):
        out = list(data._in_order(position, [(i,) for i in range(20)], 20))
        assert [i for i, _ in out] == list(range(20))
        assert os.getpid() not in {pid for _, pid in out}

    def test_tasks_drawn_two_per_worker_ahead(self, pooled):
        drawn = []

        def tasks():
            for i in range(20):
                drawn.append(i)
                yield (i,)

        for i, _ in data._in_order(position, tasks(), 20):
            # 2 workers: the result due plus at most 4 tasks in flight
            assert len(drawn) <= min(20, i + 5)

    def test_one_task_runs_inline(self, pooled):
        assert list(data._in_order(position, [(0,)], 1)) == [(0, os.getpid())]

    def test_one_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(data, "_usable_cores", lambda: 1)
        out = list(data._in_order(position, [(i,) for i in range(5)], 5))
        assert out == [(i, os.getpid()) for i in range(5)]


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
        rows = (np.arange(-6, 6).reshape(3, 4) * 7.25).astype(dtype)
        assert data._format_rows(rows) == format_rows_by_repr(rows).encode()

    def test_int_features_are_written_as_ints(self, tmp_path):
        data.save_dense(tmp_path / "d.txt", np.array([[1, 2], [3, 4]]), np.array([0, 1]))
        assert (tmp_path / "d.txt").read_text() == "2 2\n1 3\n2 4\n0 1\n"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40)))
    def test_hypothesis_arrays(self, rows):
        assert data._format_rows(rows) == format_rows_by_repr(rows).encode()


class TestSaves:
    """Saves format inline: they never fork, and a failed one leaves no file
    at its path and an older file there intact."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        """Three values per chunk and two cores, with every fork refused."""
        def refuse():
            raise AssertionError("a save forked")

        monkeypatch.setattr(data, "CHUNK_VALUES", 3)
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse)

    def test_saves_never_fork(self, tmp_path, no_fork, monkeypatch):
        X, y = dense_set()
        data.save_dense(tmp_path / "d.txt", X, y)
        hm.save_checkpoint(hm.HashModel(W=X), tmp_path / "c.txt")
        out = str(tmp_path / "blobs.txt")
        assert cli.main(["synth", "--num-classes", "3", "--dim", "4", "--per-class", "20",
                         "--spread", "0.5", "--seed", "2", "--out", out]) == 0
        monkeypatch.undo()  # the loads below may fork
        assert (hm.load_checkpoint(tmp_path / "c.txt").W == X).all()
        X2, y2 = load_dense_both_ways(tmp_path / "d.txt")
        assert (X2.view(np.uint64) == X.view(np.uint64)).all() and (y2 == y).all()
        assert data.load_dense(tmp_path / "blobs.txt")[1].shape == (60,)

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


class TestPooledFiles:
    """Files written in many chunks, then parsed on the pool: the bytes and
    values of one chunk."""

    def test_dense_bytes_and_values(self, tmp_path, monkeypatch):
        X, y = dense_set()
        data.save_dense(tmp_path / "one.txt", X, y)
        monkeypatch.setattr(data, "CHUNK_VALUES", 3)
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        data.save_dense(tmp_path / "pooled.txt", X, y)
        assert (tmp_path / "pooled.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()
        sidecar = (tmp_path / f"pooled.txt{data.SIDECAR}").read_bytes()
        assert sidecar == (tmp_path / f"one.txt{data.SIDECAR}").read_bytes()
        X2, y2 = load_dense_both_ways(tmp_path / "pooled.txt")  # the text parse is pooled
        assert (X2.view(np.uint64) == X.view(np.uint64)).all() and (y2 == y).all()
        assert X2.flags.c_contiguous

    def test_checkpoint_bytes_and_values(self, tmp_path, monkeypatch):
        W = dense_set(d=19, n=5)[0]
        hm.save_checkpoint(hm.HashModel(W=W), tmp_path / "one.txt")
        monkeypatch.setattr(data, "CHUNK_VALUES", 3)
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        hm.save_checkpoint(hm.HashModel(W=W), tmp_path / "pooled.txt")
        assert (tmp_path / "pooled.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()
        W2 = hm.load_checkpoint(tmp_path / "pooled.txt").W
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
    monkeypatch.setattr(data, "_usable_cores", lambda: 2)
    assert error_of(load, path) == one_chunk
    assert one_chunk[0] is error and f"{path}: line {line}:" in one_chunk[1]


def test_unguarded_script_saves_and_loads(tmp_path):
    """A top-level script with no __main__ guard must survive the pool:
    workers that re-ran __main__ (spawn, forkserver) would break it."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent("""
        import os
        import numpy as np
        from streamhash import data, model as hm

        data.CHUNK_VALUES = 8
        data._usable_cores = lambda: 2
        X = np.arange(200.0).reshape(4, 50) / 7.0
        data.save_dense("d.txt", X, np.arange(50))
        parse, data.read_rows = data.read_rows, None  # the sidecar's load must not parse
        X1, y1 = data.load_dense("d.txt")
        data.read_rows = parse
        os.remove("d.txt.streamhash-cache")
        X2, y2 = data.load_dense("d.txt")  # a pooled parse of the text
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


def test_pooled_evaluation_then_save_and_pooled_parse(tmp_path):
    """An evaluation on the thread pool leaves no thread behind, so the fork
    pool of a later parse starts from a single-threaded process; run under
    -X dev -W error, which turns any warning into a failure."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent("""
        import os
        import threading
        import numpy as np
        from streamhash import data, experiment, metrics, model as hm

        data.CHUNK_VALUES = 8
        data._usable_cores = lambda: 2
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
        X2, y2 = data.load_dense("d.txt")  # a pooled parse of the text
        assert X1.tobytes() == X2.tobytes() == retrieval.features.tobytes()
        assert (y1 == y2).all() and (y2 == retrieval.labels).all()
        print("ok")
    """))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_synth_command_then_pooled_parse(tmp_path):
    """synth_blobs joins its helper thread before it returns, so the fork
    pool of a later parse of the file that `streamhash synth` saved starts
    from a single-threaded process; run under -X dev -W error, which turns
    any warning into a failure."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent("""
        import os
        import numpy as np
        from streamhash import cli, data

        data.CHUNK_VALUES = 8
        data._usable_cores = lambda: 2
        code = cli.main(["synth", "--num-classes", "3", "--dim", "4", "--per-class", "20",
                         "--spread", "0.5", "--seed", "2", "--out", "blobs.txt"])
        assert code == 0
        os.remove("blobs.txt.streamhash-cache")
        X, y = data.load_dense("blobs.txt")  # a pooled parse of the text
        X2, y2 = data.synth_blobs(3, 4, 20, 0.5, 2)
        assert (X == X2).all() and (y == y2).all()
        print("ok")
    """))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ok\n")
