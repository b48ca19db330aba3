"""Bit-packed binary codes, popcount Hamming search, and the untrained
random-projection baseline.

Codes are stored as uint64 words, little-endian bit order within each
word: bit j of an instance is set iff code entry j is +1. Search is a full
linear scan (databases here stay small enough that a scan beats any index
structure) with ties broken by ascending database index so rankings are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as hashmodel
from .data import open_text
from .errors import DimensionError, DomainError, FormatError
from .model import HashModel

WORD_BITS = 64


@dataclass
class PackedCodes:
    words: np.ndarray  # (n, n_words) uint64
    k: int
    n: int
    labels: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n


@dataclass
class RetrievalResult:
    """Full database ranking for one query: ids by ascending distance."""

    ranked_ids: np.ndarray
    distances: np.ndarray


def pack(B: np.ndarray, labels: np.ndarray | None = None) -> PackedCodes:
    """Pack a (k, n) matrix of +/-1 codes into per-instance uint64 words."""
    ones = B == 1
    if not (ones | (B == -1)).all():
        raise DomainError("codes must be exactly +1 or -1")
    k, n = B.shape
    n_words = (k + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n, n_words * WORD_BITS), dtype=bool)
    bits[:, :k] = ones.T
    # bit j of a word is bit j % 8 of its byte j // 8: little-endian bit
    # order in little-endian words (astype is a no-op on little-endian hosts)
    octets = np.packbits(bits, axis=1, bitorder="little")
    words = octets.view("<u8").astype(np.uint64, copy=False)
    return PackedCodes(words=words, k=k, n=n, labels=labels)


def unpack(packed: PackedCodes) -> np.ndarray:
    """Recover the (k, n) +/-1 code matrix from packed words."""
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    bits = (packed.words[:, :, None] >> shifts) & np.uint64(1)
    bits = bits.reshape(packed.n, -1)[:, : packed.k]
    return np.where(bits.T == 1, 1.0, -1.0)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Popcount Hamming distance between two packed codes (word arrays)."""
    if a.shape != b.shape:
        raise DimensionError(f"packed code shapes differ: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def hamming_to_db(query_words: np.ndarray, db: PackedCodes) -> np.ndarray:
    """Distances from packed queries to every database entry.

    query_words holds one query's words, shape (n_words,), or a block of
    queries, shape (m, n_words); the distances come back with shape (n,) or
    (m, n), in the smallest unsigned dtype that holds k (uint8 below 256).
    """
    if query_words.shape[-1] != db.words.shape[1]:
        raise DimensionError("query and database use different code lengths")
    dists = np.zeros(query_words.shape[:-1] + (db.n,), dtype=np.min_scalar_type(db.k))
    for w in range(db.words.shape[1]):
        dists += np.bitwise_count(np.bitwise_xor(db.words[:, w], query_words[..., w, None]))
    return dists


def search(query_words: np.ndarray, db: PackedCodes) -> RetrievalResult:
    """Rank the whole database by ascending distance, ties by ascending id."""
    dists = hamming_to_db(query_words, db)
    order = np.argsort(dists, kind="stable")
    return RetrievalResult(ranked_ids=order, distances=dists[order].astype(np.int64))


def lsh_baseline(d: int, k: int, seed: int = 0) -> HashModel:
    """Untrained random-projection model, the control for learning gains."""
    return hashmodel.init(d, k, scale=1.0, seed=seed)


def save_codes(packed: PackedCodes, path) -> None:
    """Write the textual codes file: `k n` header, one 0/1 line per instance."""
    bits = (unpack(packed) > 0).astype(np.uint8)
    with open(path, "w") as f:
        f.write(f"{packed.k} {packed.n}\n")
        for i in range(packed.n):
            f.write("".join("1" if b else "0" for b in bits[:, i]))
            f.write("\n")


def load_codes(path, labels: np.ndarray | None = None) -> PackedCodes:
    """Read a codes file written by save_codes."""
    with open_text(path) as f:
        header = f.readline().split()
        try:
            k, n = (int(v) for v in header)
        except ValueError as e:
            raise FormatError(f"{path}: header must be two integers 'k n'") from e
        B = np.empty((k, n))
        for i in range(n):
            line = f.readline().strip()
            if len(line) != k or set(line) - {"0", "1"}:
                raise FormatError(f"{path}: line {i + 2} is not {k} characters of 0/1")
            B[:, i] = [1.0 if c == "1" else -1.0 for c in line]
    return pack(B, labels)
