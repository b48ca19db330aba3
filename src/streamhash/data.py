"""Dataset ingestion, splits, and the streaming batcher.

Feature matrices are dense float64 arrays of shape (d, n): one column per
instance. Labels are 1-D int64 arrays of length n. All randomness flows
through explicit seeds so splits and streams are bit-reproducible.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, FormatError, NumericError, SplitError

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


@dataclass(frozen=True)
class SplitSpec:
    """Test/retrieval/train split protocol parameters."""

    test_per_class: int
    train_size: int
    seed: int = 0


@dataclass
class StreamingBatch:
    """One stage of streaming input: a (d, n_t) feature slice plus labels."""

    features: np.ndarray
    labels: np.ndarray
    stage_index: int

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def _read_be32(f, path) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated header")
    return struct.unpack(">i", raw)[0]


def load_idx(image_path, label_path) -> tuple[np.ndarray, np.ndarray]:
    """Load an IDX image/label file pair into a (d, n) matrix and labels.

    Each image is flattened row-major into one column. Pixel bytes are kept
    raw (0..255); use normalize_pixels for the [0, 1] scaling.
    """
    with open(label_path, "rb") as f:
        magic = _read_be32(f, label_path)
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"{label_path}: bad magic {magic}, expected {IDX_LABEL_MAGIC}")
        n_labels = _read_be32(f, label_path)
        raw = f.read(n_labels)
        if len(raw) != n_labels:
            raise FormatError(f"{label_path}: expected {n_labels} labels, file truncated")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    with open(image_path, "rb") as f:
        magic = _read_be32(f, image_path)
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{image_path}: bad magic {magic}, expected {IDX_IMAGE_MAGIC}")
        n_images = _read_be32(f, image_path)
        rows = _read_be32(f, image_path)
        cols = _read_be32(f, image_path)
        if n_images != n_labels:
            raise ConsistencyError(
                f"image count {n_images} does not match label count {n_labels}"
            )
        raw = f.read(n_images * rows * cols)
        if len(raw) != n_images * rows * cols:
            raise FormatError(f"{image_path}: pixel payload truncated")
        pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)

    # (n, rows*cols) row-major flattening, transposed to one column per image
    features = pixels.reshape(n_images, rows * cols).T.copy()
    return features, labels


def normalize_pixels(raw: np.ndarray) -> np.ndarray:
    """Scale byte-valued pixels into [0, 1] by dividing by 255."""
    if raw.size and (raw.min() < 0 or raw.max() > 255):
        raise DomainError("pixel values must lie in [0, 255]")
    return raw / 255.0


def save_dense(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Write the textual dense-matrix format: `d n` header, one line of d
    reals per instance, then one line of n integer labels.

    repr() formatting makes the round-trip bit-exact for finite floats.
    """
    d, n = features.shape
    with open(path, "w") as f:
        f.write(f"{d} {n}\n")
        write_rows(f, features.T)
        f.write(" ".join(str(int(v)) for v in labels.tolist()))
        f.write("\n")


def load_dense(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the textual dense-matrix format written by save_dense."""
    with open_text(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: header must be 'd n'")
        try:
            d, n = int(header[0]), int(header[1])
        except ValueError as e:
            raise FormatError(f"{path}: non-integer header: {e}") from e
        if d < 1 or n < 1:
            raise FormatError(f"{path}: header dimensions must be positive")
        features = np.empty((d, n), dtype=np.float64)
        read_rows(f, path, features.T, first_line=2)
        fields = f.readline().split()
        if len(fields) != n:
            raise FormatError(
                f"{path}: line {n + 2}: label line has {len(fields)} values, expected {n}"
            )
        try:
            labels = np.array([int(v) for v in fields], dtype=np.int64)
        except ValueError as e:
            raise FormatError(f"{path}: line {n + 2}: {e}") from e
    return features, labels


# Values per unit of work of the row codec below. Formatting or parsing a
# chunk costs far more than handing it to a worker, and its text, about
# 0.6 MB, is small enough to keep two chunks per worker in flight.
CHUNK_VALUES = 1 << 15


def write_rows(f, rows: np.ndarray) -> None:
    """Write each row of the 2-D array `rows` to f as one line of reals.

    repr() formatting round-trips float64 exactly. Rows are formatted in
    chunks of about CHUNK_VALUES values, on every usable core.
    """
    n_rows, width = rows.shape
    step = max(1, CHUNK_VALUES // max(1, width))
    starts = range(0, n_rows, step)
    chunks = ((rows[start : start + step],) for start in starts)
    for text in _in_order(_format_rows, chunks, len(starts)):
        f.write(text)


def read_rows(f, path, out: np.ndarray, first_line: int) -> None:
    """Parse the next out.shape[0] lines of f into the rows of `out`.

    Each line must hold out.shape[1] finite reals. first_line is the file
    line number of the first one; errors name the file and the line:
    FormatError for a wrong field count (a missing line has none) or a
    value that does not parse, NumericError for nan or an infinity. Lines
    are parsed in chunks of about CHUNK_VALUES values, on every usable core.
    """
    n_rows, width = out.shape
    step = max(1, CHUNK_VALUES // width)
    starts = range(0, n_rows, step)
    chunks = (
        ([f.readline() for _ in range(min(step, n_rows - start))], width, first_line + start, path)
        for start in starts
    )
    for i, rows in enumerate(_in_order(_parse_rows, chunks, len(starts))):
        out[starts[i] : starts[i] + step] = rows


def open_text(path):
    """Open a text file for reading. Bytes that are not UTF-8 decode to
    lone surrogates, which no number parses, so the parser names their line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _format_rows(rows: np.ndarray) -> str:
    return "".join([" ".join(map(repr, row.tolist())) + "\n" for row in rows])


def _parse_rows(lines: list[str], width: int, first_line: int, path) -> np.ndarray:
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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_order(fn, tasks, n_tasks: int):
    """Yield fn(*task) for each of the n_tasks tasks of the iterable
    `tasks`, in order.

    Runs inline for a single task, on a single usable core and where the
    platform cannot fork. Otherwise the tasks go to a pool of forked
    worker processes with at most two per worker in flight, so tasks drawn
    lazily from a file stay a few chunks ahead of the results. A worker's
    exception is raised here when its result is due.

    fork, not spawn or forkserver: those re-run the caller's __main__ in
    every worker, which breaks a script that calls save_dense at top level
    without an `if __name__ == "__main__"` guard. A fork pool starts all of
    its workers before its own manager thread.
    """
    workers = min(n_tasks, _usable_cores())
    if workers < 2 or not hasattr(os, "fork"):
        for task in tasks:
            yield fn(*task)
        return
    # imported here, so that a process that never pools does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pending: deque = deque()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            for task in tasks:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, *task))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def synth_blobs(num_classes: int, dim: int, per_class: int, spread: float, seed: int):
    """Gaussian class blobs: centers uniform in [-1, 1]^dim, isotropic std
    `spread` around each. Returns (features, labels) in class-block order.
    """
    if num_classes < 1 or dim < 1 or per_class < 1:
        raise DomainError("num_classes, dim and per_class must be positive")
    rng = np.random.default_rng(seed)
    features = np.empty((dim, num_classes * per_class))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    for c in range(num_classes):
        center = rng.uniform(-1.0, 1.0, size=dim)
        block = center[:, None] + spread * rng.standard_normal((dim, per_class))
        features[:, c * per_class : (c + 1) * per_class] = block
    return features, labels


def split(features: np.ndarray, labels: np.ndarray, spec: SplitSpec):
    """Standard protocol split into (train, retrieval, test) pairs.

    The test set holds `test_per_class` seeded samples per class; every
    non-test instance forms the retrieval set; the train set is a seeded
    uniform sample of `train_size` instances drawn FROM the retrieval set
    (training images remain retrievable).
    """
    n = labels.shape[0]
    rng = np.random.default_rng(spec.seed)
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
        raise SplitError(
            f"train_size={spec.train_size} exceeds retrieval set size {retrieval_idx.shape[0]}"
        )
    train_idx = np.sort(rng.choice(retrieval_idx, size=spec.train_size, replace=False))

    def take(idx):
        return features[:, idx], labels[idx]

    return take(train_idx), take(retrieval_idx), take(test_idx)


def unseen_split(features, labels, seen_fraction: float, seed: int, test_per_class: int = 100):
    """Class-disjoint split: ceil(seen_fraction * #classes) seeded classes
    form the training set; instances of the remaining classes divide into
    retrieval/test (a seeded per-class test sample, capped at half the
    class, the rest retrieval). Label sets of train vs retrieval+test are
    disjoint by construction.
    """
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise SplitError("unseen_split needs at least 2 classes")
    if not 0.0 < seen_fraction <= 1.0:
        raise DomainError("seen_fraction must lie in (0, 1]")
    n_seen = int(np.ceil(seen_fraction * classes.shape[0]))
    if n_seen >= classes.shape[0]:
        raise SplitError(
            f"seen_fraction={seen_fraction} leaves no unseen class "
            f"({n_seen} of {classes.shape[0]} seen)"
        )
    rng = np.random.default_rng(seed)
    seen = rng.choice(classes, size=n_seen, replace=False)
    seen_mask = np.isin(labels, seen)
    train = features[:, seen_mask], labels[seen_mask]

    unseen_idx = np.flatnonzero(~seen_mask)
    test_idx = []
    for c in classes[~np.isin(classes, seen)]:
        members = np.flatnonzero(labels == c)
        take = min(test_per_class, members.shape[0] // 2)
        if take:
            test_idx.append(rng.choice(members, size=take, replace=False))
    test_idx = np.sort(np.concatenate(test_idx)) if test_idx else np.array([], dtype=int)
    retrieval_idx = np.setdiff1d(unseen_idx, test_idx)
    retrieval = features[:, retrieval_idx], labels[retrieval_idx]
    test = features[:, test_idx], labels[test_idx]
    return train, retrieval, test


def stream(features, labels, batch_size: int, seed: int) -> list[StreamingBatch]:
    """Partition a seeded permutation of the data into consecutive batches.

    Stage indices count from 1. A final short batch is kept unless it has
    fewer than 2 instances (pairwise terms need one off-diagonal pair).
    """
    if batch_size < 2:
        raise DomainError("batch_size must be at least 2")
    n = labels.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        if idx.shape[0] < 2:
            break
        batches.append(
            StreamingBatch(
                features=features[:, idx],
                labels=labels[idx],
                stage_index=len(batches) + 1,
            )
        )
    return batches
