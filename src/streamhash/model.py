"""Linear hash model: a (d, k) projection whose column signs give code bits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import open_text, read_end, read_header, read_rows, replacing, seeded_rng, write_rows
from .distribution import check_setting
from .errors import DimensionError, DomainError, NumericError


@dataclass
class HashModel:
    """Projection matrix W (d, k), finite and real: one column per hash function."""

    W: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.W.shape[0] < 1 or self.W.shape[1] < 1:
            raise DimensionError("W must be a (d, k) matrix with d, k >= 1")
        if self.W.dtype.kind not in "iuf":
            raise DomainError(f"W must hold real numbers, got {self.W.dtype}")
        if not np.all(np.isfinite(self.W)):
            raise NumericError("W contains non-finite entries")

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return self.W.shape[1]


def init(d: int, k: int, scale: float = 1.0, seed: int = 0) -> HashModel:
    """Seeded Gaussian init with entry std scale/sqrt(d); d, k and scale are
    refused as dim, bits and init_scale settings outside their domains would be.

    The 1/sqrt(d) factor keeps initial projections O(scale) regardless of
    the feature dimension, so tanh does not start saturated.
    """
    check_setting("dim", "int", d)
    check_setting("bits", "int", k)
    check_setting("init_scale", "float", scale)
    W = seeded_rng(seed).standard_normal((d, k)) * (scale / np.sqrt(d))
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

    Zero projections map to -1; the tie-break is deterministic. The codes
    are written over the projections, so one (k, n) float matrix is made.
    """
    Z = project(model, X)
    np.multiply(Z > 0.0, 2.0, out=Z)  # 2 where positive, 0 at zero and nan
    Z -= 1.0
    return Z


def save_checkpoint(model: HashModel, path) -> None:
    """Write the textual checkpoint: `d k` header, then d rows of k reals.

    Values are written as repr() writes their float64 values (write_rows),
    which round-trips exactly. The text goes through a temporary file (replacing),
    so a failed save leaves no partial file at path.
    """
    with replacing(path) as f:
        f.write(f"{model.d} {model.k}\n".encode())
        write_rows(f.write, model.W)


def load_checkpoint(path) -> HashModel:
    """Read a checkpoint written by save_checkpoint, which ends at its row d."""
    with open_text(path) as f:
        d, k = read_header(f, path, "d k")
        W = np.empty((d, k))
        read_rows(f, path, W, first_line=2)
        read_end(f, path, first_line=d + 2)
    return HashModel(W=W)
