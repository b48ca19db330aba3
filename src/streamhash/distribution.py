"""Pairwise similarity distributions over a streaming batch.

Two distributions get aligned during training: a label-side target P built
from the binary similarity matrix (either raw normalization or a
Gaussian-smoothed variant) and a code-side distribution Q built from
pairwise Hamming distances through a heavy-tailed kernel (plain or with
per-pair scaling). Both are (n, n) matrices with an exactly-zero diagonal
whose off-diagonal entries sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, DimensionError, DomainError


@dataclass(frozen=True)
class GaussianParams:
    """Location and width of the smoothing pdf applied to similarity values."""

    mu: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")


@dataclass(frozen=True)
class ScalingParams:
    """Per-pair distance divisors: p for similar pairs, n for dissimilar."""

    p: float
    n: float

    def __post_init__(self):
        if self.p <= 0 or self.n <= 0:
            raise DomainError("scaling parameters must be positive")


def build_similarity(labels: np.ndarray) -> np.ndarray:
    """Binary label-agreement matrix: entry (i, j) is 1 iff labels match."""
    if labels.shape[0] < 2:
        raise DomainError("similarity needs at least 2 instances")
    return (labels[:, None] == labels[None, :]).astype(np.float64)


def _normalize_offdiag(weights: np.ndarray) -> np.ndarray:
    """Zero the diagonal and normalize the rest to total mass 1."""
    out = weights.copy()
    np.fill_diagonal(out, 0.0)
    total = out.sum()
    if total <= 0:
        raise DegenerateDistributionError("off-diagonal mass is zero")
    out /= total
    np.fill_diagonal(out, 0.0)
    return out


def p_raw(S: np.ndarray) -> np.ndarray:
    """Target distribution by direct normalization of the similarity matrix.

    Dissimilar pairs get probability exactly 0, so the result is extremely
    imbalanced whenever similar pairs are rare. Raises when no off-diagonal
    pair is similar.
    """
    return _normalize_offdiag(S)


def p_gaussian(S: np.ndarray, g: GaussianParams = GaussianParams()) -> np.ndarray:
    """Target distribution after smoothing similarity values with a
    Gaussian pdf f(s) = exp(-(s - mu)^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).

    f is strictly positive, so every off-diagonal pair keeps nonzero mass;
    on binary S the similar:dissimilar ratio is exp((2 mu - 1) / (2 sigma^2)).
    """
    coef = 1.0 / (math.sqrt(2.0 * math.pi) * g.sigma)
    f = coef * np.exp(-((S - g.mu) ** 2) / (2.0 * g.sigma**2))
    return _normalize_offdiag(f)


def hamming_sq(b_i: np.ndarray, b_j: np.ndarray) -> float:
    """Squared-difference Hamming measure: one quarter of ||b_i - b_j||^2.

    On exact +/-1 codes this equals the integer bit-level Hamming distance;
    on relaxed codes it interpolates it continuously. Always in [0, k].
    """
    if b_i.shape != b_j.shape:
        raise DimensionError(f"code lengths differ: {b_i.shape} vs {b_j.shape}")
    diff = b_i - b_j
    return 0.25 * float(diff @ diff)


def pairwise_hamming_sq(B: np.ndarray) -> np.ndarray:
    """All-pairs hamming_sq over the columns of a (k, n) code matrix."""
    gram = B.T @ B
    sq = np.diag(gram).copy()
    # 0.25 * (sq_i + sq_j - 2 gram_ij), with one (n, n) temporary
    dist = np.add.outer(sq, sq)
    gram *= 2.0
    dist -= gram
    dist *= 0.25
    np.maximum(dist, 0.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


def q_plain(B: np.ndarray) -> np.ndarray:
    """Code-side distribution with the heavy-tailed kernel (1 + dist)^-1."""
    if B.shape[1] < 2:
        raise DomainError("need at least 2 code columns")
    kernel = 1.0 / (1.0 + pairwise_hamming_sq(B))
    return _normalize_offdiag(kernel)


def q_scaled(B: np.ndarray, S: np.ndarray, sp: ScalingParams) -> np.ndarray:
    """Code-side distribution with per-pair scaled distances.

    Each distance is divided by eta_ij = sp.p on similar pairs and sp.n on
    dissimilar ones before entering the (1 + d/eta)^-1 kernel. With
    p = n = 1 this reduces to q_plain exactly.
    """
    if B.shape[1] != S.shape[0] or S.shape[0] != S.shape[1]:
        raise DimensionError(
            f"code columns {B.shape[1]} must match similarity shape {S.shape}"
        )
    eta = scaling_matrix(S, sp)
    kernel = 1.0 / (1.0 + pairwise_hamming_sq(B) / eta)
    return _normalize_offdiag(kernel)


def scaling_matrix(S: np.ndarray, sp: ScalingParams) -> np.ndarray:
    """Per-pair eta matrix: sp.p where S is 1, sp.n elsewhere."""
    return np.where(S == 1.0, sp.p, sp.n)
