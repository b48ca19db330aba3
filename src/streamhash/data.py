"""Dataset ingestion, splits, and the streaming batcher.

Feature matrices are dense float64 arrays of shape (d, n): one column per
instance; labels are 1-D int64 arrays of length n. save_dense, HashModel
and retrieval_scores check what enters. Splits and streams give Parts
(column indices) and are bit-reproducible: seeds go through seeded_rng.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import secrets
import stat
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import orjson

from .distribution import check_setting, check_settings
from .errors import (ConsistencyError, DimensionError, DomainError, FormatError, NumericError,
                     SplitError)

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
SIDECAR = ".streamhash-cache"  # PATH + SIDECAR: the parsed arrays of a dense file

# orjson maps an 8 MiB read buffer on its first loads. Mapped here, before the
# large allocations of a run, it costs no peak RSS; mapped by the first parse
# of a run (a checkpoint's, before an evaluation) it added 7-9 MB (glibc, 3.8.3).
orjson.loads(b"0")


@dataclass(frozen=True)
class SplitSpec:
    """Test/retrieval/train split protocol parameters."""

    test_per_class: int
    train_size: int
    seed: int = 0
    __post_init__ = check_settings


@dataclass(frozen=True, eq=False)
class Part:
    """The columns idx of the (d, n) matrix source, in that order, and their
    labels: a split part or a stream batch that copies no feature column."""

    source: np.ndarray
    idx: np.ndarray
    labels: np.ndarray  # the dataset's labels at idx

    @property
    def features(self) -> np.ndarray:
        """The (d, len(idx)) columns, gathered anew on every access."""
        return self.source[:, self.idx]

    # the (features, labels) pair protocol, which bench/ still unpacks
    def __iter__(self):
        return iter((self.features, self.labels))

    def __getitem__(self, i: int):
        return getattr(self, ("features", "labels")[i])  # IndexError past 1, as for a pair


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of every seeded draw; a seed outside its domain is a DomainError."""
    check_setting("seed", "int", seed)
    return np.random.default_rng(seed)


@dataclass
class StreamingBatch:
    """One stage of streaming input: a (d, n_t) feature slice plus labels."""

    features: np.ndarray
    labels: np.ndarray
    stage_index: int

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def _check_claim(f, path, sizes) -> None:
    """FormatError if a regular file has fewer bytes than the product of its
    header's sizes, each counted as at least 1: every value takes a byte."""
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode) and math.prod(max(size, 1) for size in sizes) > info.st_size:
        claim = " x ".join(map(str, sizes))
        raise FormatError(f"{path}: header sizes {claim} exceed the file's {info.st_size} bytes")


def read_header(f, path, names: str) -> tuple[int, int]:
    """The two sizes of a text file's first line, `names` (e.g. 'd n'),
    each at least 1 and together within the file (_check_claim)."""
    try:
        a, b = map(int, f.readline().split())
    except ValueError as e:
        raise FormatError(f"{path}: header must be two integers '{names}'") from e
    if min(a, b) < 1:
        raise FormatError(f"{path}: header sizes '{names}' must be at least 1")
    _check_claim(f, path, (a, b))
    return a, b


def _read_idx(path, magic: int) -> tuple[list[int], np.ndarray]:
    """The sizes and byte payload of an IDX file; the low byte of magic
    counts the sizes, unsigned big-endian 32-bit words."""
    fmt = f">{1 + (magic & 0xFF)}I"
    with open(path, "rb") as f:
        head = f.read(struct.calcsize(fmt))
        if len(head) != struct.calcsize(fmt):
            raise FormatError(f"{path}: truncated header")
        found, *sizes = struct.unpack(fmt, head)
        if found != magic:
            raise FormatError(f"{path}: bad magic {found}, expected {magic}")
        _check_claim(f, path, sizes)
        count = math.prod(sizes)
        raw = f.read(count)
    if len(raw) != count:
        raise FormatError(f"{path}: payload truncated, expected {count} bytes")
    return sizes, np.frombuffer(raw, dtype=np.uint8)


def load_idx(image_path, label_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label file pair into a (d, n) matrix and labels.

    Each image is flattened row-major into one column. Pixel bytes are kept
    raw (0..255); use normalize_pixels for the [0, 1] scaling.
    """
    (n_labels,), labels = _read_idx(label_path, IDX_LABEL_MAGIC)
    (n_images, rows, cols), pixels = _read_idx(image_path, IDX_IMAGE_MAGIC)
    if n_images != n_labels:
        raise ConsistencyError(f"image count {n_images} does not match label count {n_labels}")
    features = np.ascontiguousarray(pixels.reshape(n_images, rows * cols).T, dtype=np.float64)
    return features, labels.astype(np.int64)


def normalize_pixels(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale byte-valued pixels into [0, 1] by dividing by 255, into out when given."""
    if raw.size and not (raw.min() >= 0 and raw.max() <= 255):  # nan fails both
        raise DomainError("pixel values must lie in [0, 255]")
    return np.divide(raw, 255.0, out=out)


def save_dense(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Write the textual dense-matrix format: `d n` header, one line of d
    reals per instance, then one line of n integer labels.

    Before the file opens: a d or n of 0, features not int, uint or float
    and labels not int64-range integers are a DomainError, labels not of
    shape (n,) a DimensionError, a nan or an infinity a NumericError. The
    float64 features and int64 labels go through write_rows and a temporary
    file (replacing), hashed as written; then PATH + SIDECAR gets that sha256
    hex line and the arrays, C order, as .npy, ignoring any OSError.
    """
    d, n = features.shape
    if min(d, n) < 1:
        raise DomainError(f"{path}: a dense file needs d and n of at least 1, got {d} x {n}")
    if labels.shape != (n,):
        raise DimensionError(f"{path}: labels of shape {labels.shape} for {n} instances")
    if features.dtype.kind not in "iuf":
        raise DomainError(f"{path}: features must be real numbers, got {features.dtype}")
    if not np.issubdtype(labels.dtype, np.integer) or labels.max() > np.iinfo(np.int64).max:
        raise DomainError(f"{path}: labels must be int64-range integers, got {labels.dtype}")
    features, labels = np.asarray(features, dtype=np.float64), labels.astype(np.int64, copy=False)
    if not _parsed_as(features, labels, n):  # converted: only a nan or an inf fails it
        raise NumericError(f"{path}: features hold a nan or an infinity")
    digest = hashlib.sha256()
    with replacing(path) as f:
        def write(text: bytes) -> None:
            f.write(text)
            digest.update(text)

        write(f"{d} {n}\n".encode())
        write_rows(write, features.T)
        write((" ".join(map(str, labels.tolist())) + "\n").encode())
    with contextlib.suppress(OSError), replacing(f"{os.fspath(path)}{SIDECAR}") as f:
        f.write(digest.hexdigest().encode() + b"\n")
        np.lib.format.write_array_header_1_0(
            f, {"descr": features.dtype.str, "fortran_order": False, "shape": (d, n)})
        features.tofile(f)  # C order whatever the layout, with no copy
        np.lib.format.write_array(f, labels, allow_pickle=False)


@contextlib.contextmanager
def replacing(path):
    """A binary file created at a new PATH.<16 random hex digits>.tmp, which
    replaces path when the block ends normally and is removed on any
    exception: a failed save leaves no partial file at path and an older
    file there intact, and each of two saves to one path writes its own
    file, with the mode open(path, "wb") gives. Missing directories are made."""
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_dense(path) -> tuple[np.ndarray, np.ndarray]:
    """Read what save_dense wrote, from its sidecar or from its text, which ends at its labels."""
    with open_text(path) as f:
        d, n = read_header(f, path, "d n")
        try:
            with open(f"{os.fspath(path)}{SIDECAR}", "rb") as cache:
                if cache.readline(65) == _sha256(path) + b"\n":
                    X = np.lib.format.read_array(cache, allow_pickle=False)
                    y = np.lib.format.read_array(cache, allow_pickle=False)
                    if X.flags.c_contiguous and X.shape == (d, n) and _parsed_as(X, y, n):
                        return X, y
        except (OSError, ValueError, MemoryError):  # a corrupt header may claim any size
            pass
        features = np.empty((d, n), dtype=np.float64)
        read_rows(f, path, features.T, first_line=2)
        fields = f.readline().split()
        if len(fields) != n:
            raise FormatError(
                f"{path}: line {n + 2}: label line has {len(fields)} values, expected {n}"
            )
        try:
            labels = np.array([int(v) for v in fields], dtype=np.int64)
        except (ValueError, OverflowError) as e:  # OverflowError: a label outside int64
            raise FormatError(f"{path}: line {n + 2}: {e}") from e
        read_end(f, path, first_line=n + 3)
    return features, labels


def _parsed_as(features: np.ndarray, labels: np.ndarray, n: int) -> bool:
    """Whether the text save_dense writes for these arrays parses back to them exactly."""
    rows = max(1, CHUNK_VALUES // n)  # finiteness a few rows at a time: no full-size temporary
    return (features.dtype == np.float64 and labels.dtype == np.int64 and labels.shape == (n,)
            and all(np.isfinite(features[i : i + rows]).all()
                    for i in range(0, len(features), rows)))


def _sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest().encode()


# Values per chunk of the row codec below: about 0.6 MB of text, so one
# chunk's text, its JSON document and its Python values stay small.
CHUNK_VALUES = 1 << 15

# JSON number bytes, the space and the line end: a chunk of nothing else is
# one JSON document once spaces are commas and line ends are "],[" (_parse_chunk).
ROW_BYTES = b"0123456789+-.eE \n"


def write_rows(write, rows: np.ndarray) -> None:
    """Pass the text of the 2-D array `rows`, one line of reals per row, to
    write in bytes, chunks of about CHUNK_VALUES values formatted inline.

    Every value is written as repr() writes its float64 value, which
    round-trips exactly (_format_rows).
    """
    step = max(1, CHUNK_VALUES // max(1, rows.shape[1]))
    for start in range(0, rows.shape[0], step):
        write(_format_rows(rows[start : start + step]))


def read_rows(f, path, out: np.ndarray, first_line: int) -> None:
    """Parse the next out.shape[0] lines of f into the rows of `out`.

    Each line must hold out.shape[1] finite reals. first_line is the file
    line number of the first one; errors name the file and the line:
    FormatError for a wrong field count (a missing line has none) or a
    value that does not parse, NumericError for nan or an infinity. Lines
    are parsed inline in chunks of about CHUNK_VALUES values (_parse_chunk).
    """
    n_rows, width = out.shape
    step = max(1, CHUNK_VALUES // width)
    for start in range(0, n_rows, step):
        lines = [f.readline() for _ in range(min(step, n_rows - start))]
        out[start : start + step] = _parse_chunk(lines, width, first_line + start, path)


def read_end(f, path, first_line: int) -> None:
    """FormatError at the first non-blank line left in f, numbered from first_line."""
    for i, line in enumerate(f, start=first_line):
        if line.strip():
            raise FormatError(f"{path}: line {i}: text after the last declared line")


def open_text(path):
    """Open a text file for reading. Bytes that are not UTF-8 decode to
    lone surrogates, which no number parses, so the parser names their line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _format_rows(rows: np.ndarray) -> bytes:
    """The lines of rows as float64, each value's text as repr() writes it.

    The rows go through orjson's shortest round-trip writer, whose text
    equals repr's for 0.0, -0.0 and 1e-4 <= |x| < 1e16; every other value
    (nan, an infinity, a tiny or a huge one) keeps its repr() token.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)  # orjson takes C-ordered arrays only
    size = np.abs(rows)
    other = ~((size >= 1e-4) & (size < 1e16) | (rows == 0.0))
    lines = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    for i in np.flatnonzero(other.any(axis=1)):
        tokens = lines[i].split(b",")
        for j in np.flatnonzero(other[i]):
            tokens[j] = repr(float(rows[i, j])).encode()
        lines[i] = b",".join(tokens)
    return b"\n".join(lines).replace(b",", b" ") + b"\n"


def _parse_chunk(lines: list[str], width: int, first_line: int, path) -> np.ndarray:
    """The rows of lines exactly as _parse_rows parses them, through orjson
    where its values are float()'s.

    A chunk of ROW_BYTES only, its final line end dropped, is read as one
    JSON document. The result is kept when it has one row of width values a
    line, all finite. Every other chunk (a token outside JSON's grammar, a
    non-ASCII byte, a missing line) goes to _parse_rows, which raises every
    error.
    """
    text = "".join(lines).encode("ascii", "replace").removesuffix(b"\n")
    if not text.translate(None, ROW_BYTES):
        doc = b"[[" + text.replace(b" ", b",").replace(b"\n", b"],[") + b"]]"
        try:
            rows = np.array(orjson.loads(doc), dtype=np.float64)
        except ValueError:  # not JSON, or rows of unequal lengths
            pass
        else:
            # orjson reads the integer -0 as 0: a chunk with a zero may hold no -0 token
            minus_zero = (rows == 0.0).any() and (
                b"-0 " in text or b"-0\n" in text or text.endswith(b"-0"))
            if rows.shape == (len(lines), width) and np.isfinite(rows).all() and not minus_zero:
                return rows
    return _parse_rows(lines, width, first_line, path)


def _parse_rows(lines: list[str], width: int, first_line: int, path) -> np.ndarray:
    """The reference parser: float() of each space-separated field."""
    rows = np.empty((len(lines), width))
    for i, line in enumerate(lines):
        fields = line.split()
        if len(fields) != width:
            raise FormatError(
                f"{path}: line {first_line + i}: {len(fields)} values, expected {width}"
            )
        try:
            rows[i] = list(map(float, fields))
        except ValueError as e:
            raise FormatError(f"{path}: line {first_line + i}: {e}") from e
        if not np.isfinite(rows[i]).all():
            raise NumericError(f"{path}: line {first_line + i}: non-finite value")
    return rows


def synth_blobs(num_classes: int, dim: int, per_class: int, spread: float, seed: int):
    """Gaussian class blobs: centers uniform in [-1, 1]^dim, isotropic std
    `spread` around each. Returns (features, labels) in class-block order.
    A helper thread, which never touches rng, places each class as the next is drawn.
    """
    for name, value in (("num_classes", num_classes), ("dim", dim), ("per_class", per_class)):
        check_setting(name, "int", value)
    check_setting("spread", "float", spread)
    rng = seeded_rng(seed)
    features = np.empty((dim, num_classes * per_class))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)

    def place(c: int, center: np.ndarray, block: np.ndarray) -> None:
        block *= spread  # then + center: rounded as center + spread * block
        np.add(block, center[:, None], out=features[:, c * per_class : (c + 1) * per_class])

    with ThreadPoolExecutor(1) as helper:  # joined on exit: no thread outlives the call
        placed = None
        for c in range(num_classes):
            center = rng.uniform(-1.0, 1.0, size=dim)
            block = rng.standard_normal((dim, per_class))
            if placed is not None:
                placed.result()  # so at most two blocks are alive
            placed = helper.submit(place, c, center, block)
        placed.result()
    return features, labels


def split(features: np.ndarray, labels: np.ndarray, spec: SplitSpec) -> tuple[Part, Part, Part]:
    """Standard protocol split into (train, retrieval, test) parts of features.

    The test set holds `test_per_class` seeded samples per class; every
    non-test instance forms the retrieval set; the train set is a seeded
    uniform sample of `train_size` instances drawn FROM the retrieval set
    (training images remain retrievable). An empty test set is a SplitError,
    labels of another count than the feature columns a DimensionError.
    """
    n = features.shape[1]
    if labels.shape != (n,):
        raise DimensionError(f"labels of shape {labels.shape} for {n} instances")
    if n == 0:
        raise SplitError("empty test set: 0 instances")
    rng = seeded_rng(spec.seed)
    test_idx = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.shape[0] < spec.test_per_class:
            raise SplitError(
                f"class {c} has {members.shape[0]} instances, "
                f"fewer than test_per_class={spec.test_per_class}"
            )
        test_idx.append(rng.choice(members, size=spec.test_per_class, replace=False))
    test_idx = np.sort(np.concatenate(test_idx))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    retrieval_idx = np.flatnonzero(mask)
    if spec.train_size > retrieval_idx.shape[0]:
        raise SplitError(f"train_size={spec.train_size} is outside 0..{retrieval_idx.shape[0]}, "
                         "the retrieval set size")
    train_idx = np.sort(rng.choice(retrieval_idx, size=spec.train_size, replace=False))
    return tuple(Part(features, i, labels[i]) for i in (train_idx, retrieval_idx, test_idx))


def unseen_split(features, labels, seen_fraction: float, seed: int, test_per_class: int = 100):
    """Class-disjoint split into (train, retrieval, test) parts of features:
    ceil(seen_fraction * #classes) seeded classes form the training set;
    instances of the remaining classes divide into retrieval/test (a seeded
    per-class test sample, capped at half the class, the rest retrieval).
    Label sets of train vs retrieval+test are disjoint by construction. An
    empty test set is a SplitError, labels as in split a DimensionError.
    """
    if labels.shape != (features.shape[1],):
        raise DimensionError(f"labels of shape {labels.shape} for {features.shape[1]} instances")
    check_setting("seen_fraction", "float", seen_fraction)
    check_setting("test_per_class", "int", test_per_class)
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise SplitError("unseen_split needs at least 2 classes")
    n_seen = int(np.ceil(seen_fraction * classes.shape[0]))
    if n_seen >= classes.shape[0]:
        raise SplitError(
            f"seen_fraction={seen_fraction} leaves no unseen class "
            f"({n_seen} of {classes.shape[0]} seen)"
        )
    rng = seeded_rng(seed)
    seen = rng.choice(classes, size=n_seen, replace=False)
    seen_mask = np.isin(labels, seen)
    unseen_idx = np.flatnonzero(~seen_mask)
    test_idx = []
    for c in classes[~np.isin(classes, seen)]:
        members = np.flatnonzero(labels == c)
        take = min(test_per_class, members.shape[0] // 2)
        if take > 0:
            test_idx.append(rng.choice(members, size=take, replace=False))
    if not test_idx:
        raise SplitError(f"empty test set: test_per_class={test_per_class}, at most half a class")
    test_idx = np.sort(np.concatenate(test_idx))
    retrieval_idx = np.setdiff1d(unseen_idx, test_idx)
    parts = (np.flatnonzero(seen_mask), retrieval_idx, test_idx)
    return tuple(Part(features, i, labels[i]) for i in parts)


def stream(pool: Part, batch_size: int, seed: int) -> list[Part]:
    """Partition a seeded permutation of the pool into consecutive batches,
    parts of the pool's matrix.

    A final short batch is kept unless it has fewer than 2 instances
    (pairwise terms need one off-diagonal pair).
    """
    check_setting("batch_size", "int", batch_size)
    n = pool.labels.shape[0]
    order = seeded_rng(seed).permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        chunk = order[start : start + batch_size]
        if chunk.shape[0] < 2:
            break
        batches.append(Part(pool.source, pool.idx[chunk], pool.labels[chunk]))
    return batches
