"""Linear hash model: a (d, k) projection whose column signs give code bits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import open_text, read_rows, write_rows
from .errors import DimensionError, DomainError, FormatError, NumericError


@dataclass
class HashModel:
    """Projection matrix W of shape (d, k): one column per hash function."""

    W: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.W.shape[0] < 1 or self.W.shape[1] < 1:
            raise DimensionError("W must be a (d, k) matrix with d, k >= 1")
        if not np.all(np.isfinite(self.W)):
            raise NumericError("W contains non-finite entries")

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return self.W.shape[1]


def init(d: int, k: int, scale: float = 1.0, seed: int = 0) -> HashModel:
    """Seeded Gaussian init with entry std scale/sqrt(d).

    The 1/sqrt(d) factor keeps initial projections O(scale) regardless of
    the feature dimension, so tanh does not start saturated.
    """
    if d < 1 or k < 1:
        raise DomainError("d and k must be at least 1")
    if scale < 0:
        raise DomainError("scale must be non-negative")
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((d, k)) * (scale / np.sqrt(d))
    return HashModel(W=W)


def project(model: HashModel, X: np.ndarray) -> np.ndarray:
    """Real-valued projections W^T X, one column per instance."""
    if X.shape[0] != model.d:
        raise DimensionError(f"X has {X.shape[0]} rows, model expects {model.d}")
    return model.W.T @ X


def encode_relaxed(model: HashModel, X: np.ndarray) -> np.ndarray:
    """Differentiable surrogate codes tanh(W^T X), entries in (-1, 1)."""
    return np.tanh(project(model, X))


def encode_binary(model: HashModel, X: np.ndarray) -> np.ndarray:
    """Binary codes sgn(W^T X) with sgn(u) = +1 iff u > 0, else -1.

    Zero projections map to -1; the tie-break is deterministic.
    """
    return np.where(project(model, X) > 0.0, 1.0, -1.0)


def save_checkpoint(model: HashModel, path) -> None:
    """Write the textual checkpoint: `d k` header, then d rows of k reals.

    repr() formatting round-trips float64 exactly.
    """
    with open(path, "w") as f:
        f.write(f"{model.d} {model.k}\n")
        write_rows(f, model.W)


def load_checkpoint(path) -> HashModel:
    """Read a checkpoint written by save_checkpoint."""
    with open_text(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: header must be 'd k'")
        try:
            d, k = int(header[0]), int(header[1])
        except ValueError as e:
            raise FormatError(f"{path}: non-integer header: {e}") from e
        if d < 1 or k < 1:
            raise FormatError(f"{path}: header dimensions must be positive")
        W = np.empty((d, k))
        read_rows(f, path, W, first_line=2)
    return HashModel(W=W)
