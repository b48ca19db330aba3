"""The row codec behind the dense and checkpoint formats, split into many
chunks so that the worker pool runs: same bytes, same values and the same
errors as one chunk parsed inline."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import streamhash
from streamhash import data, model as hm
from streamhash.errors import FormatError, NumericError

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


class TestPooledFiles:
    def test_dense_bytes_and_values(self, tmp_path, monkeypatch):
        X, y = dense_set()
        data.save_dense(tmp_path / "one.txt", X, y)
        monkeypatch.setattr(data, "CHUNK_VALUES", 3)
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        data.save_dense(tmp_path / "pooled.txt", X, y)
        assert (tmp_path / "pooled.txt").read_bytes() == (tmp_path / "one.txt").read_bytes()
        X2, y2 = data.load_dense(tmp_path / "pooled.txt")
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
        import numpy as np
        from streamhash import data, model as hm

        data.CHUNK_VALUES = 8
        data._usable_cores = lambda: 2
        X = np.arange(200.0).reshape(4, 50) / 7.0
        data.save_dense("d.txt", X, np.arange(50))
        X2, y2 = data.load_dense("d.txt")
        hm.save_checkpoint(hm.HashModel(W=X.T), "c.txt")
        assert (X2 == X).all() and (y2 == np.arange(50)).all()
        assert (hm.load_checkpoint("c.txt").W == X.T).all()
        print("ok")
    """))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_pooled_evaluation_then_pooled_save_and_load(tmp_path):
    """An evaluation on the thread pool leaves no thread behind, so the fork
    pool of a later save and load starts from a single-threaded process;
    run under -X dev -W error, which turns any warning into a failure."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent("""
        import threading
        import numpy as np
        from streamhash import data, experiment, metrics, model as hm

        data.CHUNK_VALUES = 8
        data._usable_cores = lambda: 2
        metrics.BLOCK_BYTES = 2 * 8 * 60  # one query per block
        rng = np.random.default_rng(0)
        retrieval = (rng.normal(size=(6, 60)), rng.integers(0, 3, size=60))
        test = (rng.normal(size=(6, 9)), rng.integers(0, 3, size=9))
        scores = experiment.evaluate_model(hm.init(6, 16, seed=0), retrieval, test,
                                           cutoff=10, r_max=20)
        assert 0.0 <= scores["map"] <= 1.0
        assert threading.active_count() == 1
        data.save_dense("d.txt", *retrieval)
        X2, y2 = data.load_dense("d.txt")
        assert (X2 == retrieval[0]).all() and (y2 == retrieval[1]).all()
        print("ok")
    """))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
