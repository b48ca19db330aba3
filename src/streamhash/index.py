"""Bit-packed binary codes and popcount Hamming distances.

Codes are stored as uint64 words, little-endian bit order within each
word: bit j of an instance is set iff code entry j is +1. Distances come
from a full linear scan (databases here stay small enough that a scan
beats any index structure); metrics.retrieval_scores ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

WORD_BITS = 64


@dataclass
class PackedCodes:
    words: np.ndarray  # (n, n_words) uint64
    k: int
    n: int
    labels: np.ndarray | None = None


def pack(B: np.ndarray, labels: np.ndarray | None = None) -> PackedCodes:
    """Pack a (k, n) matrix of +/-1 codes into per-instance uint64 words."""
    # one k x n bool temporary at a time, beside the float codes
    if np.count_nonzero(B == 1) + np.count_nonzero(B == -1) != B.size:
        raise DomainError("codes must be exactly +1 or -1")
    k, n = B.shape
    if labels is not None and labels.shape != (n,):
        raise DimensionError(f"labels of shape {labels.shape} for {n} codes")
    n_words = (k + WORD_BITS - 1) // WORD_BITS
    bits = np.zeros((n, n_words * WORD_BITS), dtype=bool)
    np.equal(B.T, 1, out=bits[:, :k])
    # bit j of a word is bit j % 8 of its byte j // 8: little-endian bit
    # order in little-endian words (astype is a no-op on little-endian hosts)
    octets = np.packbits(bits, axis=1, bitorder="little")
    words = octets.view("<u8").astype(np.uint64, copy=False)
    return PackedCodes(words=words, k=k, n=n, labels=labels)


def unpack(packed: PackedCodes) -> np.ndarray:
    """Recover the (k, n) +/-1 code matrix from packed words, the mirror of pack."""
    octets = np.ascontiguousarray(packed.words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets, axis=1, count=packed.k, bitorder="little")
    return np.where(bits.T == 1, 1.0, -1.0)


def hamming_to_db(query_words: np.ndarray, db: PackedCodes) -> np.ndarray:
    """Distances from packed queries to every database entry.

    query_words holds one query's words, shape (n_words,), or a block of
    queries, shape (m, n_words); the distances come back with shape (n,) or
    (m, n), in the smallest unsigned dtype that holds k (uint8 below 256).
    """
    if query_words.shape[-1] != db.words.shape[1]:
        raise DimensionError("query and database use different code lengths")
    counts = (np.bitwise_count(np.bitwise_xor(db.words[:, w], query_words[..., w, None]))
              for w in range(db.words.shape[1]))
    # the first word's uint8 counts are the sum itself below 256 bits
    dists = next(counts).astype(np.min_scalar_type(db.k), copy=False)
    for count in counts:
        dists += count
    return dists
