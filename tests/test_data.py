"""Dataset loading, splits and the streaming batcher."""

import hashlib
import io
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from streamhash import data, model
from streamhash.data import SplitSpec
from streamhash.errors import (ConsistencyError, DimensionError, DomainError, FormatError,
                              NumericError, SplitError)

from oracles import load_dense_both_ways


def write_idx_pair(tmp_path, images, labels, image_magic=2051, label_magic=2049,
                   truncate_images=False):
    """images: (n, rows, cols) uint8 array."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    payload = images.tobytes()
    if truncate_images:
        payload = payload[:-1]
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", image_magic, n, rows, cols))
        f.write(payload)
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">ii", label_magic, len(labels)))
        f.write(bytes(labels))
    return img_path, lbl_path


class TestLoadIdx:
    def test_roundtrip_values_and_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        labels = [3, 1, 4, 1, 5]
        img, lbl = write_idx_pair(tmp_path, images, labels)
        X, y = data.load_idx(img, lbl)
        assert X.shape == (12, 5)
        assert y.tolist() == labels
        # row-major flattening into columns, bytes kept raw
        np.testing.assert_array_equal(X[:, 2], images[2].reshape(-1).astype(float))

    def test_bad_image_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1], image_magic=1234)
        with pytest.raises(FormatError):
            data.load_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1], label_magic=42)
        with pytest.raises(FormatError):
            data.load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1])
        with pytest.raises(ConsistencyError):
            data.load_idx(img, lbl)

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1], truncate_images=True)
        with pytest.raises(FormatError):
            data.load_idx(img, lbl)


# unsigned 32-bit IDX sizes; the top ones read as negative when signed
IDX_SIZES = st.integers(0, 4) | st.integers(0, 2**32 - 1) | st.sampled_from(
    [2**31, 2**32 - 2, 2**32 - 1, 70000])


class TestIdxHeader:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=IDX_SIZES, rows=IDX_SIZES, cols=IDX_SIZES, payload=st.integers(0, 24))
    @example(n=1, rows=2**32 - 2, cols=2**32 - 2, payload=12)  # rows = cols = -2 signed
    @example(n=1, rows=70000, cols=70000, payload=12)
    def test_sizes_are_unsigned_and_bounded_by_the_file(self, tmp_path, n, rows, cols, payload):
        img, lbl = tmp_path / "images.idx", tmp_path / "labels.idx"
        img.write_bytes(struct.pack(">IIII", 2051, n, rows, cols) + bytes(range(payload)))
        lbl.write_bytes(struct.pack(">II", 2049, n) + bytes(min(n, 3)))
        # a zero size counts as one, so that every size must fit the file
        fits = max(n, 1) * max(rows, 1) * max(cols, 1) <= 16 + payload
        if n <= 3 and n * rows * cols <= payload and fits:
            X, y = data.load_idx(img, lbl)
            assert X.shape == (rows * cols, n) and y.tolist() == [0] * n
            assert X.T.ravel().tolist() == list(range(n * rows * cols))
        else:
            with pytest.raises(FormatError):
                data.load_idx(img, lbl)


class TestNormalizePixels:
    def test_endpoints_and_hand_value(self):
        raw = np.array([[0.0, 255.0, 51.0]]).T.reshape(1, 3)
        out = data.normalize_pixels(raw)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 1.0
        assert out[0, 2] == pytest.approx(0.2)

    def test_out_of_range_rejected(self):
        # nan compares False with either end, so it must fail the range test itself
        for raw in ([[256.0]], [[-1.0]], [[np.nan, 3.0]], [[3.0, np.nan]], [[np.nan]]):
            with pytest.raises(DomainError, match=r"^pixel values must lie in \[0, 255\]$"):
                data.normalize_pixels(np.array(raw))


class TestDenseFormat:
    def test_header_example(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("4 2\n1 2 3 4\n5 6 7 8\n0 1\n")
        X, y = data.load_dense(path)
        assert X.shape == (4, 2)
        np.testing.assert_array_equal(X[:, 1], [5, 6, 7, 8])
        assert y.tolist() == [0, 1]

    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((7, 11))
        y = rng.integers(0, 4, size=11)
        path = tmp_path / "rt.txt"
        data.save_dense(path, X, y)
        X2, y2 = load_dense_both_ways(path)
        # bit-exact round-trip
        assert (X == X2).all()
        assert (y == y2).all()

    def test_short_payload(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n1 2 3 4\n")
        with pytest.raises(FormatError):
            data.load_dense(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("four two\n")
        with pytest.raises(FormatError):
            data.load_dense(path)

    @pytest.mark.parametrize("header", ["x y", "3", "3 1 2", "3.5 1", "-3 1", "3 -1"])
    def test_bad_header_rejected(self, tmp_path, header):
        # read_header parses the dense and checkpoint headers alike
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n1 0 1\n0\n")
        with pytest.raises(FormatError, match="header"):
            data.load_dense(path)

    @pytest.mark.parametrize("d, n", [(3, 0), (0, 2), (0, 0)])
    def test_empty_matrix_not_written(self, tmp_path, d, n):
        # load_dense rejects a size of 0, so save_dense writes no such file
        path = tmp_path / "empty.txt"
        with pytest.raises(DomainError, match=f"got {d} x {n}"):
            data.save_dense(path, np.zeros((d, n)), np.zeros(n, dtype=np.int64))
        assert not path.exists()

    @pytest.mark.parametrize("labels", [np.arange(4), np.arange(10).reshape(2, 5),
                                        np.arange(6), np.int64(3)],
                             ids=["4", "2x5", "6", "scalar"])
    def test_labels_not_one_per_instance_not_written(self, tmp_path, labels):
        # the label count or shape is checked before the text or a sidecar opens
        path = tmp_path / "d.txt"
        with pytest.raises(DimensionError, match=r"labels of shape \(.*\) for 5 instances"):
            data.save_dense(path, np.ones((3, 5)), labels)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([False, True]),
                                        np.array(["0", "1"]),
                                        np.array([1, 2**64 - 1], dtype=np.uint64)],
                             ids=["float64", "bool", "str_", "uint64_above_int64"])
    def test_non_integer_labels_not_written(self, tmp_path, labels):
        # load_dense reads labels as int64, so a uint64 label above its
        # range would make a file that its own loader rejects
        path = tmp_path / "d.txt"
        with pytest.raises(DomainError, match=f"labels must be int64-range integers, "
                                              f"got {labels.dtype}"):
            data.save_dense(path, np.ones((3, 2)), labels)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("features", [np.ones((3, 2), dtype=bool),
                                          np.ones((3, 2), dtype=complex),
                                          np.ones((3, 2)).astype(object),
                                          np.full((3, 2), "1")],
                             ids=["bool", "complex", "object", "str_"])
    def test_non_real_features_not_written(self, tmp_path, features):
        # the text would hold tokens (True, (1+0j)) that load_dense rejects
        path = tmp_path / "d.txt"
        with pytest.raises(DomainError, match=f"features must be real numbers, "
                                              f"got {features.dtype}") as refused:
            data.save_dense(path, features, np.arange(2))
        assert refused.value.exit_code == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_non_finite_features_not_written(self, tmp_path, value, dtype):
        # load_dense raises the same NumericError (exit 5) for such a file
        features = np.ones((3, 4), dtype=dtype)
        features[2, 1] = value
        path = tmp_path / "d.txt"
        with pytest.raises(NumericError, match="nan or an infinity") as refused:
            data.save_dense(path, features, np.arange(4))
        assert refused.value.exit_code == 5
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tail, line", [("garbage line\n", 5), ("\n\n0 1\n", 7), ("1", 5)])
    def test_text_after_the_label_line_is_a_format_error(self, tmp_path, tail, line):
        path = tmp_path / "d.txt"
        path.write_text("3 2\n0.5 1.5 2.5\n3.5 4.5 5.5\n0 1\n" + tail)
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: line {line}: text after"):
            data.load_dense(path)

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n", "  \n\t\n", " "])
    def test_trailing_blank_lines_load(self, tmp_path, tail):
        path = tmp_path / "d.txt"
        path.write_text("3 2\n0.5 1.5 2.5\n3.5 4.5 5.5\n0 1\n" + tail)
        features, labels = data.load_dense(path)
        assert features.tolist() == [[0.5, 3.5], [1.5, 4.5], [2.5, 5.5]]
        assert labels.tolist() == [0, 1]

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_other_integer_labels_load_as_int64(self, tmp_path, dtype):
        top = min(np.iinfo(dtype).max, np.iinfo(np.int64).max)
        path = tmp_path / "d.txt"
        data.save_dense(path, np.ones((3, 3)), np.array([0, 7, top], dtype=dtype))
        labels = data.load_dense(path)[1]
        assert labels.dtype == np.int64 and labels.tolist() == [0, 7, top]

    @pytest.mark.parametrize("label", [2**70, 2**63, -(2**63) - 1])
    def test_label_outside_int64_is_a_format_error(self, tmp_path, label):
        path = tmp_path / "d.txt"
        path.write_text("3 4\n" + "0.5 1.5 2.5\n" * 4 + f"0 1 2 {label}\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: line 6:"):
            data.load_dense(path)

    @pytest.mark.parametrize("label", [2**63 - 1, -(2**63)])
    def test_int64_extreme_label_loads(self, tmp_path, label):
        path = tmp_path / "d.txt"
        path.write_text("3 4\n" + "0.5 1.5 2.5\n" * 4 + f"0 1 2 {label}\n")
        assert data.load_dense(path)[1].tolist() == [0, 1, 2, label]


def sidecar_of(path) -> Path:
    return Path(f"{path}{data.SIDECAR}")


def dense_pair(d=3, n=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)), rng.integers(-3, 3, size=n)


def write_sidecar(path, features, labels, cut=None):
    """A sidecar of path that carries the text's digest but the given arrays,
    pickled if they are object arrays, truncated to `cut` bytes if given."""
    out = io.BytesIO()
    out.write(hashlib.sha256(Path(path).read_bytes()).hexdigest().encode() + b"\n")
    for a in (features, labels):
        np.lib.format.write_array(out, a, allow_pickle=True)
    sidecar_of(path).write_bytes(out.getvalue()[:cut])


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDenseSidecar:
    """save_dense's binary copy of the arrays, which load_dense returns only
    when it belongs to the text and holds what a parse of the text gives."""

    def test_digest_line_then_the_arrays_as_npy(self, tmp_path):
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        npy = io.BytesIO()
        for a in (X, y):
            np.lib.format.write_array(npy, a, allow_pickle=False)
        digest = hashlib.sha256(path.read_bytes()).hexdigest().encode()
        assert sidecar_of(path).read_bytes() == digest + b"\n" + npy.getvalue()
        assert sorted(os.listdir(tmp_path)) == ["d.txt", "d.txt" + data.SIDECAR]

    @pytest.mark.parametrize("token, error", [("7.5", None), ("nan", NumericError)])
    def test_same_length_edit_of_the_text_is_parsed(self, tmp_path, token, error):
        path = tmp_path / "d.txt"
        data.save_dense(path, np.array([[1.5, 2.0], [3.0, 4.0]]), np.array([0, 1]))
        path.write_text(path.read_text().replace("1.5", token))
        if error:
            with pytest.raises(error, match="line 2:"):
                data.load_dense(path)
        else:
            assert data.load_dense(path)[0].tolist() == [[7.5, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("cut", [0, 10, 64, 65, 100, 200, -9, -1])
    def test_truncated_sidecar_is_ignored(self, tmp_path, cut):
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        write_sidecar(path, X, y, cut=cut)
        features, labels = data.load_dense(path)
        assert same(features, X) and same(labels, y)

    @pytest.mark.parametrize("how", ["object", "float32", "transposed", "fortran", "nan",
                                     "int32 labels", "short labels", "2-D labels"])
    def test_sidecar_unlike_a_parse_is_ignored(self, tmp_path, how):
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        features, labels = np.zeros_like(X), np.zeros_like(y)
        features = {"object": features.astype(object), "float32": features.astype(np.float32),
                    "transposed": np.zeros((5, 3)), "fortran": np.asfortranarray(features),
                    "nan": np.full_like(X, np.nan)}.get(how, features)
        labels = {"int32 labels": labels.astype(np.int32), "short labels": labels[:-1],
                  "2-D labels": labels[None]}.get(how, labels)
        write_sidecar(path, features, labels)
        features, labels = data.load_dense(path)
        assert same(features, X) and same(labels, y)

    def test_corrupt_sidecar_next_to_a_bad_text_raises_what_the_text_does(self, tmp_path):
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        lines = path.read_text().splitlines()
        lines[1] += " 1.0"
        path.write_text("\n".join(lines) + "\n")
        write_sidecar(path, X.astype(object), y)
        with pytest.raises(FormatError, match="line 2: 4 values, expected 3") as cached:
            data.load_dense(path)
        sidecar_of(path).unlink()
        with pytest.raises(FormatError) as text_alone:
            data.load_dense(path)
        assert str(cached.value) == str(text_alone.value)

    def test_sidecar_claiming_a_huge_array_is_ignored(self, tmp_path):
        # numpy cannot allocate what the corrupt header claims: a MemoryError
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**7, 10**7)})
        digest = hashlib.sha256(path.read_bytes()).hexdigest().encode()
        sidecar_of(path).write_bytes(digest + b"\n" + header.getvalue() + X.tobytes())
        features, labels = data.load_dense(path)
        assert same(features, X) and same(labels, y)

    @pytest.mark.parametrize("how", ["nan", "inf", "float32", "int64", "int32 labels",
                                     "big-endian"])
    def test_arrays_a_parse_would_not_return_leave_no_sidecar(self, tmp_path, how):
        # non-finite features are refused before any file opens, so the older
        # save stays; arrays of any other real dtype are saved as their
        # float64 and int64 values, which the sidecar holds as a parse does
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        bad_X, bad_y = X.copy(), y
        if how in ("nan", "inf"):
            bad_X[1, 3] = float(how)
            with pytest.raises(NumericError, match="nan or an infinity"):
                data.save_dense(path, bad_X, bad_y)
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
            return
        if how == "int32 labels":
            bad_y = y.astype(np.int32)
        else:
            bad_X = np.arange(15).reshape(3, 5).astype({"float32": np.float32, "int64": np.int64,
                                                        "big-endian": ">f8"}[how])
        data.save_dense(path, bad_X, bad_y)
        features, labels = load_dense_both_ways(path)
        assert same(features, bad_X.astype(np.float64)) and same(labels, bad_y.astype(np.int64))

    def test_failed_replace_keeps_the_save(self, tmp_path, monkeypatch):
        X, y = dense_pair()
        path = tmp_path / "d.txt"
        data.save_dense(path, X, y)
        stale = sidecar_of(path).read_bytes()

        replace = os.replace

        def refuse(src, dst):  # the sidecar's replace only: the text's goes through
            if str(dst).endswith(data.SIDECAR):
                raise OSError("replace refused")
            replace(src, dst)

        monkeypatch.setattr(data.os, "replace", refuse)
        data.save_dense(path, X + 1.0, y)
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["d.txt", "d.txt" + data.SIDECAR]
        assert sidecar_of(path).read_bytes() == stale  # of the old text: its digest differs
        features, labels = data.load_dense(path)
        assert same(features, X + 1.0) and same(labels, y)

    def test_no_sidecar_no_hashing(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("the text was hashed without a sidecar")

        monkeypatch.setattr(data, "_sha256", refuse)
        path = tmp_path / "d.txt"
        path.write_text("2 2\n1.0 2.0\n3.0 4.0\n0 1\n")
        assert data.load_dense(path)[0].tolist() == [[1.0, 3.0], [2.0, 4.0]]


# Each child saves its arrays to argv[2] argv[3] times, once its parent
# closes its stdin: the two children of a test start saving together.
SAVE_LOOP = """
import sys
import numpy as np
from streamhash import data
value, path, saves = float(sys.argv[1]), sys.argv[2], int(sys.argv[3])
features, labels = np.full((40, 1500), value), np.arange(1500) * int(value + 1)
print("ready", flush=True)
sys.stdin.read()
for _ in range(saves):
    data.save_dense(path, features, labels)
"""


class TestConcurrentSaves:
    """Two saves to one path at once, from two threads or two processes:
    each writes its own temporary file, so each returns normally and the
    path holds one save whole, never a mix, with no temporary file left."""

    @staticmethod
    def inputs(value):  # the arrays SAVE_LOOP saves for value
        return np.full((40, 1500), value), np.arange(1500) * int(value + 1)

    @staticmethod
    def assert_one_whole_save(path, inputs):
        assert sorted(os.listdir(path.parent)) == [path.name, path.name + data.SIDECAR]
        probe = path.parent.parent / "probe"
        with open(probe, "wb"):  # the mode a plain open gives a new file
            pass
        assert {stat.S_IMODE(p.stat().st_mode) for p in (path, sidecar_of(path))} == {
            stat.S_IMODE(probe.stat().st_mode)}
        probe.unlink()
        cached = data.load_dense(path)  # through the sidecar when its digest matches
        sidecar_of(path).unlink()
        parsed = data.load_dense(path)
        assert all(same(a, b) for a, b in zip(cached, parsed))
        assert [same(parsed[0], X) and same(parsed[1], y) for X, y in inputs].count(True) == 1

    def test_two_threads(self, tmp_path):
        path = tmp_path / "out" / "d.txt"
        path.parent.mkdir()
        inputs = [self.inputs(0.0), self.inputs(1.0)]
        errors = []

        def save(X, y):
            try:
                data.save_dense(path, X, y)
            except Exception as e:  # recorded: every save must return normally
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads take turns far more often
        try:
            for _ in range(20):
                threads = [threading.Thread(target=save, args=xy) for xy in inputs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert errors == []
                self.assert_one_whole_save(path, inputs)
        finally:
            sys.setswitchinterval(interval)

    def test_two_processes(self, tmp_path):
        path = tmp_path / "out" / "d.txt"
        path.parent.mkdir()
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        children = [subprocess.Popen([sys.executable, "-c", SAVE_LOOP, value, str(path), "60"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=env, text=True)
                    for value in ("0.0", "1.0")]
        for child in children:
            assert child.stdout.readline() == "ready\n"
        for child in children:
            child.stdin.close()  # both start saving
        for child in children:
            with child:  # closes its pipes
                assert (child.wait(timeout=120), child.stderr.read()) == (0, "")
        self.assert_one_whole_save(path, [self.inputs(0.0), self.inputs(1.0)])


# sha256 of the features and labels of synth_blobs(num_classes, dim,
# per_class, spread, seed), as one thread drawing and placing each class in
# turn made them; any core count must give the same bits
BLOB_DIGESTS = {
    (3, 5, 10, 0.2, 9): ("46abdfcfe42e2b50fe74f70ba71d4273ec516b7a16a35d3490e70f443df95d62",
                         "ca7eaa11b24553ba101ba2ab3e1abef27a775b4f0fe5d2af5383c8655b68403e"),
    (1, 1, 1, 0.4, 0): ("e338159892aea1b88acfaa4ddd94e15746cfed362eabdacc16cd66de9d3d3b7c",
                        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    (4, 16, 120, 3.0, 5): ("20891069ef420b7a386a38e1be2a282e1ad2ce2bdd74c98cba52a1f5c9270097",
                           "2983731ec8dd0a2610d7a03c0ef989f131e4ee660e4e7dae57a483b0631da476"),
    (10, 64, 200, 3.0, 1): ("f57e2e36d53f700e564325f0b27a0b109bb91c4d81a03bbce031189dffc46795",
                            "4e64a02568003d897e7b68ba22d98a34f324c87f72edef91cddc23d3c5cfeb56"),
}


class TestSynthBlobs:
    def test_determinism(self):
        a = data.synth_blobs(3, 5, 10, 0.2, seed=9)
        b = data.synth_blobs(3, 5, 10, 0.2, seed=9)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_counts(self):
        X, y = data.synth_blobs(3, 4, 10, 0.2, seed=0)
        assert X.shape == (4, 30)
        assert all((y == c).sum() == 10 for c in range(3))

    @pytest.mark.parametrize("args", [(0, 3, 5, 0.1, 0), (2, 3, 5, 0.1, -1), (2, 3, 5, math.nan, 0),
                                      (2, 3, 5, math.inf, 0), (2, 3, 5, -0.5, 0)])
    def test_bad_arguments_rejected(self, args):
        with pytest.raises(DomainError):
            data.synth_blobs(*args)

    def test_zero_spread_collapses_classes(self):
        X, y = data.synth_blobs(2, 3, 5, 0.0, seed=1)
        for c in range(2):
            block = X[:, y == c]
            assert np.ptp(block, axis=1).max() == 0.0

    @pytest.mark.parametrize("args", sorted(BLOB_DIGESTS))
    def test_bits_are_pinned(self, args):
        X, y = data.synth_blobs(*args)
        digests = (hashlib.sha256(X.astype("<f8").tobytes()).hexdigest(),
                   hashlib.sha256(y.astype("<i8").tobytes()).hexdigest())
        assert digests == BLOB_DIGESTS[args]

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        data.synth_blobs(4, 16, 120, 3.0, 5)
        assert threading.active_count() == before


class TestSplit:
    def setup_method(self):
        self.X, self.y = data.synth_blobs(5, 3, 40, 0.1, seed=2)

    def test_sizes_and_partition(self):
        spec = SplitSpec(test_per_class=4, train_size=100, seed=0)
        (Xtr, ytr), (Xrt, yrt), (Xte, yte) = data.split(self.X, self.y, spec)
        assert yte.shape[0] == 20  # 4 per class x 5 classes
        assert yrt.shape[0] == 200 - 20
        assert ytr.shape[0] == 100
        # test and retrieval partition the dataset
        assert yte.shape[0] + yrt.shape[0] == self.y.shape[0]

    def test_train_subset_of_retrieval_and_disjoint_from_test(self):
        spec = SplitSpec(test_per_class=4, train_size=100, seed=0)
        (Xtr, _), (Xrt, _), (Xte, _) = data.split(self.X, self.y, spec)
        rt_cols = {tuple(c) for c in Xrt.T}
        te_cols = {tuple(c) for c in Xte.T}
        tr_cols = {tuple(c) for c in Xtr.T}
        assert tr_cols <= rt_cols
        assert not (tr_cols & te_cols)
        assert not (rt_cols & te_cols)

    def test_indices_ascend(self):
        # each part lists its columns in matrix order, whatever order the
        # seeded draws came in; the outputs written from the parts rely on it
        spec = SplitSpec(test_per_class=4, train_size=50, seed=11)
        for part in data.split(self.X, self.y, spec):
            assert (np.diff(part.idx) > 0).all()
            assert (part.labels == self.y[part.idx]).all()

    def test_determinism(self):
        spec = SplitSpec(test_per_class=4, train_size=50, seed=11)
        a = data.split(self.X, self.y, spec)
        b = data.split(self.X, self.y, spec)
        for (Xa, ya), (Xb, yb) in zip(a, b):
            assert (Xa == Xb).all() and (ya == yb).all()

    def test_small_class_rejected(self):
        spec = SplitSpec(test_per_class=100, train_size=10, seed=0)
        with pytest.raises(SplitError):
            data.split(self.X, self.y, spec)

    def test_oversized_train_rejected(self):
        spec = SplitSpec(test_per_class=4, train_size=1000, seed=0)
        with pytest.raises(SplitError):
            data.split(self.X, self.y, spec)

    def test_negative_train_size_rejected(self):
        with pytest.raises(DomainError, match="^train_size must be at least 0, got -1$"):
            data.split(self.X, self.y, SplitSpec(test_per_class=4, train_size=-1))

    def test_parts_index_the_matrix_they_were_given(self):
        spec = SplitSpec(test_per_class=4, train_size=100, seed=0)
        for part in data.split(self.X, self.y, spec):
            assert part.source is self.X
            assert (part.features == self.X[:, part.idx]).all()
            assert (part.labels == self.y[part.idx]).all()

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be at least 0, got -1$"):
            data.split(self.X, self.y, SplitSpec(2, 4, -1))

    def test_empty_test_set_rejected(self):
        with pytest.raises(DomainError, match="^test_per_class must be at least 1, got 0$"):
            data.split(self.X, self.y, SplitSpec(test_per_class=0, train_size=10))
        with pytest.raises(SplitError, match="empty test set: 0 instances"):
            data.split(np.empty((3, 0)), np.empty(0, dtype=np.int64), SplitSpec(1, 0))

    @pytest.mark.parametrize("count", [6, 20, 0])
    def test_label_count_unlike_the_columns_rejected(self, count, monkeypatch):
        # before any draw: too many labels would index past the matrix, too
        # few would drop its last columns
        monkeypatch.setattr(data, "seeded_rng", None)
        X, y = np.zeros((3, 10)), np.arange(count) % 2
        with pytest.raises(DimensionError, match=rf"^labels of shape \({count},\) for 10 "):
            data.split(X, y, SplitSpec(2, 4, 0))


class TestUnseenSplit:
    def setup_method(self):
        self.X, self.y = data.synth_blobs(8, 3, 30, 0.1, seed=4)

    def test_seen_unseen_class_counts(self):
        (_, ytr), (_, yrt), (_, yte) = data.unseen_split(self.X, self.y, 0.75, seed=0,
                                                         test_per_class=5)
        assert np.unique(ytr).shape[0] == 6  # ceil(0.75 * 8)
        unseen = set(np.unique(yrt)) | set(np.unique(yte))
        assert len(unseen) == 2

    def test_label_disjointness_every_seed(self):
        for seed in range(20):
            (_, ytr), (_, yrt), (_, yte) = data.unseen_split(
                self.X, self.y, 0.75, seed=seed, test_per_class=5
            )
            assert not (set(ytr) & (set(yrt) | set(yte)))

    def test_parts_index_the_matrix_they_were_given(self):
        train, retrieval, test = data.unseen_split(self.X, self.y, 0.75, seed=1, test_per_class=5)
        assert (train.idx == np.flatnonzero(np.isin(self.y, np.unique(train.labels)))).all()
        for part in (train, retrieval, test):
            assert part.source is self.X and (part.labels == self.y[part.idx]).all()

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be at least 0, got -1$"):
            data.unseen_split(self.X, self.y, 0.75, seed=-1)

    def test_full_seen_fraction_rejected(self):
        # ceil(1 x classes) would hold out no class, whatever the data
        with pytest.raises(DomainError, match="^seen_fraction must be below 1, got 1.0$"):
            data.unseen_split(self.X, self.y, 1.0, seed=0)

    def test_single_class_rejected(self):
        X, y = data.synth_blobs(1, 3, 10, 0.1, seed=0)
        with pytest.raises(SplitError):
            data.unseen_split(X, y, 0.5, seed=0)

    @pytest.mark.parametrize("test_per_class", [0, -1])
    def test_empty_test_set_rejected(self, test_per_class):
        with pytest.raises(DomainError,
                           match=f"^test_per_class must be at least 1, got {test_per_class}$"):
            data.unseen_split(self.X, self.y, 0.75, seed=0, test_per_class=test_per_class)

    @pytest.mark.parametrize("count", [6, 20, 0])
    def test_label_count_unlike_the_columns_rejected(self, count, monkeypatch):
        monkeypatch.setattr(data, "seeded_rng", None)  # refused before any draw
        X, y = np.zeros((3, 10)), np.arange(count) % 3
        with pytest.raises(DimensionError, match=rf"^labels of shape \({count},\) for 10 "):
            data.unseen_split(X, y, 0.5, seed=0, test_per_class=1)

    def test_one_instance_unseen_classes_leave_the_test_set_empty(self):
        # a test sample is at most half a class
        X, y = data.synth_blobs(4, 3, 1, 0.1, seed=0)
        with pytest.raises(SplitError, match="^empty test set: test_per_class=1, at most half"):
            data.unseen_split(X, y, 0.75, seed=0, test_per_class=1)


def whole(X, y) -> data.Part:
    """Every column of X, in order, as one part."""
    return data.Part(X, np.arange(y.shape[0]), y)


class TestStream:
    def setup_method(self):
        self.X, self.y = data.synth_blobs(4, 3, 25, 0.1, seed=5)  # n = 100

    def test_stage_count_and_sizes(self):
        batches = data.stream(whole(self.X, self.y), 25, seed=0)
        assert len(batches) == 4
        assert all(b.labels.shape[0] == b.idx.shape[0] == 25 for b in batches)
        # batches index the pool's matrix; train_stream numbers them by position
        assert all(b.source is self.X for b in batches)

    def test_batches_partition_the_permutation(self):
        batches = data.stream(whole(self.X, self.y), 30, seed=1)
        cols = np.concatenate([b.features for b in batches], axis=1)
        # no duplicates, and every original instance appears exactly once
        seen = {tuple(c) for c in cols.T}
        assert len(seen) == cols.shape[1] == 100
        assert seen == {tuple(c) for c in self.X.T}

    def test_short_final_batch_dropped(self):
        X, y = data.synth_blobs(1, 2, 101, 0.1, seed=6)
        batches = data.stream(whole(X, y), 25, seed=0)
        assert len(batches) == 4  # the trailing singleton is dropped
        X, y = data.synth_blobs(1, 2, 102, 0.1, seed=6)
        batches = data.stream(whole(X, y), 25, seed=0)
        assert len(batches) == 5
        assert batches[-1].labels.shape[0] == 2

    def test_determinism(self):
        a = data.stream(whole(self.X, self.y), 17, seed=3)
        b = data.stream(whole(self.X, self.y), 17, seed=3)
        assert len(a) == len(b)
        for ba, bb in zip(a, b):
            assert (ba.features == bb.features).all()
            assert (ba.labels == bb.labels).all()

    def test_batch_size_one_rejected(self):
        with pytest.raises(DomainError):
            data.stream(whole(self.X, self.y), 1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be at least 0, got -1$"):
            data.stream(whole(self.X, self.y), 2, seed=-1)

    def test_batches_of_a_part_index_its_source(self):
        pool = data.Part(self.X, np.arange(99, -1, -3), self.y[99::-3])
        for batch in data.stream(pool, 8, seed=2):
            assert batch.source is self.X and set(batch.idx) <= set(pool.idx)
            assert (batch.labels == self.y[batch.idx]).all()


@pytest.mark.parametrize("call, message", [
    (lambda X, y: data.stream(whole(X, y), 2.5, 0), "batch_size must be int, got 2.5"),
    (lambda X, y: data.stream(whole(X, y), True, 0), "batch_size must be int, got True"),
    (lambda X, y: data.stream(whole(X, y), 8, 1.5), "seed must be int, got 1.5"),
    (lambda X, y: data.unseen_split(X, y, 0.75, 0, test_per_class=2.5),
     "test_per_class must be int, got 2.5"),
    (lambda X, y: data.unseen_split(X, y, 1.5, 0), "seen_fraction must be below 1, got 1.5"),
    (lambda X, y: data.unseen_split(X, y, 0, 0), "seen_fraction must be above 0, got 0"),
    (lambda X, y: data.unseen_split(X, y, "0.5", 0),
     "seen_fraction must be int or float, got '0.5'"),
    (lambda X, y: data.unseen_split(X, y, 0.75, 2.5), "seed must be int, got 2.5"),
    (lambda X, y: model.init(16, 8, 1.0, 2.5), "seed must be int, got 2.5"),
    (lambda X, y: data.synth_blobs(2, 3, 4, 0.5, 1.5), "seed must be int, got 1.5"),
    (lambda X, y: data.unseen_split(X, y, 1, 0), "seen_fraction must be below 1, got 1"),
    (lambda X, y: model.init(16, 2.5), "bits must be int, got 2.5"),
    (lambda X, y: model.init(16, True), "bits must be int, got True"),
    (lambda X, y: model.init(0, 8), "dim must be at least 1, got 0"),
    (lambda X, y: model.init(16, 0), "bits must be at least 1, got 0"),
    (lambda X, y: data.synth_blobs(2.5, 3, 4, 0.5, 0), "num_classes must be int, got 2.5"),
    (lambda X, y: data.synth_blobs(True, 3, 4, 0.5, 0), "num_classes must be int, got True"),
    (lambda X, y: data.synth_blobs(2, 3, 2.5, 0.5, 0), "per_class must be int, got 2.5"),
    (lambda X, y: data.synth_blobs(0, 3, 4, 0.5, 0), "num_classes must be at least 1, got 0"),
    (lambda X, y: data.synth_blobs(2, 0, 4, 0.5, 0), "dim must be at least 1, got 0"),
    (lambda X, y: data.synth_blobs(2, 3, 0, 0.5, 0), "per_class must be at least 1, got 0"),
    (lambda X, y: data.synth_blobs(2, 3, 4, -1, 0), "spread must be at least 0, got -1"),
    (lambda X, y: data.synth_blobs(2, 3, 4, np.nan, 0), "spread must be finite, got nan"),
], ids=["stream_float_batch_size", "stream_bool_batch_size", "stream_float_seed",
        "unseen_float_test_per_class", "unseen_seen_fraction_above_1", "unseen_seen_fraction_0",
        "unseen_str_seen_fraction", "unseen_float_seed", "init_float_seed", "synth_float_seed",
        "unseen_seen_fraction_1", "init_float_k", "init_bool_k", "init_zero_d", "init_zero_k",
        "synth_float_num_classes", "synth_bool_num_classes", "synth_float_per_class",
        "synth_zero_num_classes", "synth_zero_dim", "synth_zero_per_class",
        "synth_negative_spread", "synth_nan_spread"])
def test_raw_settings_outside_their_domain_are_domain_errors(call, message):
    X, y = data.synth_blobs(4, 3, 10, 0.1, seed=5)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(X, y)


class TestPart:
    def setup_method(self):
        self.X = np.arange(12.0).reshape(3, 4)
        self.part = data.Part(self.X, np.array([2, 0]), np.array([7, 5]))

    def test_features_gather_the_columns_in_order(self):
        assert (self.part.features == self.X[:, [2, 0]]).all()
        assert not np.shares_memory(self.part.features, self.X)

    def test_pair_protocol(self):
        X, y = self.part
        assert (X == self.X[:, [2, 0]]).all() and (y == [7, 5]).all()
        assert (self.part[0] == X).all() and self.part[1] is self.part.labels
        with pytest.raises(IndexError):
            self.part[2]
        with pytest.raises(TypeError):
            len(self.part)
