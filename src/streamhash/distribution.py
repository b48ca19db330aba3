"""Pairwise similarity distributions over a streaming batch.

Training aligns a code-side distribution Q with a label-side target P
built from the binary similarity matrix, either by raw normalization or
with Gaussian smoothing. Both are (n, n) matrices with an exactly-zero
diagonal whose off-diagonal entries sum to 1. This module builds P, the
pairwise Hamming distances and the per-pair scaling matrix; Q is formed
from them in trainer.build_workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DegenerateDistributionError, DomainError


@dataclass(frozen=True)
class GaussianParams:
    """Location and width of the smoothing pdf applied to similarity values."""

    mu: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.mu, Real) and math.isfinite(self.mu)):
            raise DomainError("mu must be finite")
        if not _positive_finite(self.sigma):
            raise DomainError("sigma must be positive and finite")


@dataclass(frozen=True)
class ScalingParams:
    """Distance divisors of the scaled Q: scale_p for similar pairs (None
    stands for bits / 2, see scaling_matrix), scale_n for dissimilar ones."""

    scale_p: float | None = None
    scale_n: float = 1.0

    def __post_init__(self):
        if not (self.scale_p is None or _positive_finite(self.scale_p)):
            raise DomainError("scale_p must be positive and finite")
        if not _positive_finite(self.scale_n):
            raise DomainError("scale_n must be positive and finite")


def _positive_finite(value) -> bool:  # a real number in (0, inf); nan is not
    return isinstance(value, Real) and 0 < value < math.inf


def build_similarity(labels: np.ndarray) -> np.ndarray:
    """Binary label-agreement matrix: entry (i, j) is 1 iff labels match."""
    if labels.shape[0] < 2:
        raise DomainError("similarity needs at least 2 instances")
    return (labels[:, None] == labels[None, :]).astype(np.float64)


def _similar_pairs(S: np.ndarray):
    """Mask of a binary S's ones and their off-diagonal count."""
    similar = S == 1.0
    n_ones = np.count_nonzero(similar)
    if n_ones + np.count_nonzero(S == 0.0) != S.size:
        raise DomainError("P needs a binary similarity matrix")
    return similar, n_ones - np.count_nonzero(similar.diagonal())


def p_raw(S: np.ndarray) -> np.ndarray:
    """Target distribution by direct normalization of the similarity matrix:
    each similar pair off the diagonal gets 1 / (number of them), so
    dissimilar pairs get exactly 0 and the result is extremely imbalanced
    whenever similar pairs are rare. Raises when no off-diagonal pair is
    similar."""
    similar, n_similar = _similar_pairs(S)
    if not n_similar:
        raise DegenerateDistributionError("off-diagonal mass is zero")
    P = np.where(similar, 1.0 / n_similar, 0.0)
    diag_view(P)[:] = 0.0
    return P


def p_gaussian(S: np.ndarray, g: GaussianParams = GaussianParams()) -> np.ndarray:
    """Target distribution after smoothing similarity values with a
    Gaussian pdf f(s) = exp(-(s - mu)^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).

    S must be binary (DomainError otherwise), so P takes two values off
    the diagonal, in the similar:dissimilar ratio
    exp((2 mu - 1) / (2 sigma^2)). They come in closed form from the
    log-weights shifted by their maximum over the pair kinds present: the
    heavier kind weighs exactly 1 and the other exp of the log-ratio, so
    no sigma empties the distribution (at mu = 0.5 P is uniform for any
    sigma). The lighter kind's mass is 0 only where the ratio exceeds the
    float range.
    """
    similar, n_similar = _similar_pairs(S)
    n = S.shape[0]
    if n < 2:
        raise DegenerateDistributionError("off-diagonal mass is zero")
    n_dissimilar = n * (n - 1) - n_similar
    # log(f(0) / f(1)), the dissimilar log-weight minus the similar one
    log_ratio = (0.5 - g.mu) / g.sigma / g.sigma
    if n_similar and (log_ratio <= 0 or not n_dissimilar):
        w_similar, w_dissimilar = 1.0, math.exp(min(log_ratio, 0.0))
    else:
        w_similar, w_dissimilar = math.exp(min(-log_ratio, 0.0)), 1.0
    total = n_similar * w_similar + n_dissimilar * w_dissimilar
    P = np.where(similar, w_similar / total, w_dissimilar / total)
    diag_view(P)[:] = 0.0
    return P


def diag_view(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous square matrix."""
    return A.reshape(-1)[:: A.shape[0] + 1]


def pairwise_hamming_sq(B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """||b_i - b_j||^2 / 4 over all column pairs of a (k, n) code matrix (the
    bit-level Hamming distance on +/-1 codes), written into out (a
    C-contiguous (n, n) array) when given."""
    gram = B.T @ B
    # 0.25 * (sq_i + sq_j - 2 gram_ij), the gram as the one (n, n) temporary.
    # sq_i + sq_j comes from the rank-2 product (sq_i, 1) . (1, sq_j): each
    # entry is one exactly rounded sum, as in a broadcast add, and BLAS
    # writes the (n, n) result several times faster.
    terms = np.empty((2, gram.shape[0]))
    terms[0] = gram.diagonal()
    terms[1] = 1.0
    dist = np.matmul(terms.T, terms[::-1], out=out)
    gram *= 2.0
    dist -= gram
    dist *= 0.25
    np.maximum(dist, 0.0, out=dist)
    diag_view(dist)[:] = 0.0
    return dist


def scaling_matrix(S: np.ndarray, sp: ScalingParams, bits: int) -> np.ndarray:
    """Per-pair eta matrix of codes of `bits` bits: sp.scale_p (bits / 2 when
    None) where S is 1, sp.scale_n elsewhere."""
    return np.where(S == 1.0, bits / 2.0 if sp.scale_p is None else sp.scale_p, sp.scale_n)
