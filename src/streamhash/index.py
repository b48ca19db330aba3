"""Bit-packed binary codes, popcount Hamming distances, and the untrained
random-projection baseline.

Codes are stored as uint64 words, little-endian bit order within each
word: bit j of an instance is set iff code entry j is +1. Distances come
from a full linear scan (databases here stay small enough that a scan
beats any index structure); metrics.retrieval_scores ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as hashmodel
from .data import open_text, read_header
from .errors import DimensionError, DomainError, FormatError
from .model import HashModel

WORD_BITS = 64


@dataclass
class PackedCodes:
    words: np.ndarray  # (n, n_words) uint64
    k: int
    n: int
    labels: np.ndarray | None = None


def pack(B: np.ndarray, labels: np.ndarray | None = None) -> PackedCodes:
    """Pack a (k, n) matrix of +/-1 codes into per-instance uint64 words."""
    ones = B == 1
    if not (ones | (B == -1)).all():
        raise DomainError("codes must be exactly +1 or -1")
    k, n = B.shape
    if labels is not None and labels.shape[0] != n:
        raise DimensionError(f"{labels.shape[0]} labels for {n} codes")
    n_words = (k + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n, n_words * WORD_BITS), dtype=bool)
    bits[:, :k] = ones.T
    # bit j of a word is bit j % 8 of its byte j // 8: little-endian bit
    # order in little-endian words (astype is a no-op on little-endian hosts)
    octets = np.packbits(bits, axis=1, bitorder="little")
    words = octets.view("<u8").astype(np.uint64, copy=False)
    return PackedCodes(words=words, k=k, n=n, labels=labels)


def _bits(packed: PackedCodes) -> np.ndarray:
    """(n, k) uint8 0/1 matrix of the packed codes, the mirror of pack."""
    octets = np.ascontiguousarray(packed.words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=packed.k, bitorder="little")


def unpack(packed: PackedCodes) -> np.ndarray:
    """Recover the (k, n) +/-1 code matrix from packed words."""
    return np.where(_bits(packed).T == 1, 1.0, -1.0)


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


def lsh_baseline(d: int, k: int, seed: int = 0) -> HashModel:
    """Untrained random-projection model, the control for learning gains."""
    return hashmodel.init(d, k, scale=1.0, seed=seed)


def save_codes(packed: PackedCodes, path) -> None:
    """Write the textual codes file: `k n` header, one 0/1 line per instance."""
    text = np.full((packed.n, packed.k + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = _bits(packed) + ord("0")
    with open(path, "w") as f:
        f.write(f"{packed.k} {packed.n}\n")
        f.write(text.tobytes().decode("ascii"))


def load_codes(path, labels: np.ndarray | None = None) -> PackedCodes:
    """Read a codes file written by save_codes."""
    with open_text(path) as f:
        k, n = read_header(f, path, "k n", minimum=0)
        lines = [f.readline().strip() for _ in range(n)]
    for i, line in enumerate(lines):
        if len(line) != k or line.strip("01"):
            raise FormatError(f"{path}: line {i + 2} is not {k} characters of 0/1")
    ones = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8).reshape(n, k) == ord("1")
    return pack(np.where(ones.T, 1.0, -1.0), labels)
