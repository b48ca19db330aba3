"""Pairwise similarity distributions over a streaming batch.

Training aligns a code-side distribution Q with a label-side target P
built from the boolean similarity mask, either by raw normalization or
with Gaussian smoothing. Both are (n, n) matrices with an exactly-zero
diagonal whose off-diagonal entries sum to 1. This module builds P, the
pairwise Hamming distances and the per-pair scaling matrix; Q is formed
from them in trainer.build_workspace. Each setting's domain (DOMAINS) and
the one check against it (refusal) live here too: this module imports only errors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateDistributionError, DomainError


# Each setting's domain beyond its type, by field or config key name: a rule
# of _RULES and its bound. refusal() reads it wherever a setting enters.
DOMAINS = {
    "seed": {"at least": 0}, "bits": {"at least": 1}, "epochs": {"at least": 1},
    "init_scale": {"above": 0}, "batch_size": {"at least": 2}, "inner_iters": {"at least": 1},
    "cutoff": {"at least": 1}, "r_max": {"at least": 1}, "every_n_stages": {"at least": 1},
    "test_per_class": {"at least": 1}, "train_size": {"at least": 0},
    "num_classes": {"at least": 1}, "dim": {"at least": 1}, "per_class": {"at least": 1},
    "spread": {"at least": 0},
    "learning_rate": {"above": 0}, "scale_p": {"above": 0}, "scale_n": {"above": 0},
    "sigma": {"above": 0}, "epsilon": {"above": 0, "at most": 1e-6},
    "seen_fraction": {"above": 0, "below": 1},
    "grad_mode": {"one of": ("paper", "exact")}, "p_variant": {"one of": ("raw", "gaussian")},
    "q_variant": {"one of": ("plain", "scaled")},
}
_RULES = {"at least": operator.ge, "above": operator.gt, "at most": operator.le,
          "below": operator.lt, "one of": lambda value, bound: value in bound}
# The one rule on a pair of settings: GaussianParams refuses a |0.5 - mu| / sigma^2 above
# -ln eps = 52 ln 2, where p_gaussian's lighter weight is below one ulp of the heavier one
MAX_LOG_RATIO = -math.log(np.finfo(np.float64).eps)

# Each settings annotation: the types its values may have and their name in a message
KINDS = {"int": (Integral, "int"), "float": (Real, "int or float"),
         "float | None": ((Real, type(None)), "int or float or null"),
         "str": (str, "str"), "bool": (bool, "bool"), "dict": (dict, "object")}


def shown(value) -> str:
    """repr(value) for an error message, cut to 80 characters ending in …"""
    text = repr(value)
    return text if len(text) <= 80 else text[:79] + "…"


def refusal(name: str, kind: str, value) -> str | None:
    """Why value is outside the domain of the setting name annotated kind (a
    KINDS key), or None: a value of another type (a bool only where kind is
    "bool"), a str holding a NUL byte (no file name holds one), a nan or
    infinite number, or a DOMAINS rule of name that it breaks."""
    types, type_name = KINDS[kind]
    if not isinstance(value, types) or type(value) is bool and kind != "bool":
        return f"{name} must be {type_name}, got {shown(value)}"
    if isinstance(value, str) and "\0" in value:
        return f"{name} holds a NUL byte"
    if isinstance(value, Real) and not -math.inf < value < math.inf:
        return f"{name} must be finite, got {shown(value)}"
    for rule, bound in DOMAINS.get(name, {}).items():
        if value is not None and not _RULES[rule](value, bound):
            return f"{name} must be {rule} {bound}, got {shown(value)}"
    return None


def check_setting(name: str, kind: str, value) -> None:
    """A DomainError giving refusal's reason if value is outside its domain."""
    if reason := refusal(name, kind, value):
        raise DomainError(reason)


def check_settings(settings) -> None:  # a settings dataclass's __post_init__
    for f in fields(settings):
        if f.type in KINDS:
            check_setting(f.name, f.type, getattr(settings, f.name))


@dataclass(frozen=True)
class GaussianParams:
    """Location and width of the smoothing pdf applied to similarity values."""

    mu: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        check_settings(self)
        mu, sigma = float(self.mu), float(self.sigma)  # numpy numbers would warn on overflow
        if (ratio := abs(0.5 - mu) / sigma / sigma) > MAX_LOG_RATIO:
            raise DomainError(f"mu={mu!r} and sigma={sigma!r} collapse the Gaussian target: "
                              f"|0.5 - mu| / sigma^2 = {ratio:.6g} is above {MAX_LOG_RATIO:.6g}")


def build_similarity(labels: np.ndarray) -> np.ndarray:
    """Boolean label-agreement mask: entry (i, j) is True iff labels match."""
    if labels.shape[0] < 2:
        raise DomainError("similarity needs at least 2 instances")
    return labels[:, None] == labels[None, :]


def _mask(S: np.ndarray) -> np.ndarray:  # S, if it is build_similarity's bool mask
    if S.dtype != np.bool_:
        raise DomainError(f"need a boolean similarity mask, got dtype {S.dtype}")
    return S


def _two_valued(S: np.ndarray, weigh) -> np.ndarray:
    """P over a boolean similarity mask S (DomainError otherwise): the
    weights weigh(n_similar, n_dissimilar) of one off-diagonal pair of each
    kind, normalized to unit mass (zero mass is degenerate), zero diagonal."""
    n_similar = np.count_nonzero(_mask(S)) - np.count_nonzero(S.diagonal())
    n_dissimilar = S.size - S.shape[0] - n_similar
    w_similar, w_dissimilar = weigh(n_similar, n_dissimilar)
    total = n_similar * w_similar + n_dissimilar * w_dissimilar
    if not total:
        raise DegenerateDistributionError("off-diagonal mass is zero")
    P = np.where(S, w_similar / total, w_dissimilar / total)
    np.fill_diagonal(P, 0.0)
    return P


def p_raw(S: np.ndarray) -> np.ndarray:
    """Target distribution by direct normalization of the similarity mask:
    each similar pair off the diagonal gets 1 / (number of them), so
    dissimilar pairs get exactly 0 and the result is extremely imbalanced
    whenever similar pairs are rare. Raises when no off-diagonal pair is
    similar."""
    return _two_valued(S, lambda n_similar, n_dissimilar: (1.0, 0.0))


def p_gaussian(S: np.ndarray, g: GaussianParams = GaussianParams()) -> np.ndarray:
    """Target distribution after smoothing similarity values with a
    Gaussian pdf f(s) = exp(-(s - mu)^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).

    S is a boolean mask (DomainError otherwise), so P takes two values off
    the diagonal, in the similar:dissimilar ratio
    exp((2 mu - 1) / (2 sigma^2)). They come in closed form from the
    log-weights shifted by their maximum over the pair kinds present: the
    heavier kind weighs exactly 1 and the other exp of the log-ratio, so
    no sigma empties the distribution (at mu = 0.5 P is uniform for any
    sigma). GaussianParams refuses a ratio past MAX_LOG_RATIO, so the
    lighter kind's weight is at least the double epsilon, one ulp of 1.
    """
    # log(f(0) / f(1)), the dissimilar log-weight minus the similar one
    log_ratio = (0.5 - g.mu) / g.sigma / g.sigma

    def weigh(n_similar, n_dissimilar):
        if n_similar and (log_ratio <= 0 or not n_dissimilar):
            return 1.0, math.exp(min(log_ratio, 0.0))
        return math.exp(min(-log_ratio, 0.0)), 1.0

    return _two_valued(S, weigh)


def pairwise_hamming_sq(B: np.ndarray) -> np.ndarray:
    """||b_i - b_j||^2 / 4 over all column pairs of a (k, n) code matrix (the
    Hamming distance on +/-1 codes), exactly 0 on the diagonal while B.T @ B is finite."""
    gram = B.T @ B
    dist = gram.diagonal()[:, None] + gram.diagonal()
    gram *= 2.0
    dist -= gram
    dist *= 0.25
    np.maximum(dist, 0.0, out=dist)
    return dist


def scaling_matrix(S: np.ndarray, similar: float, dissimilar: float) -> np.ndarray:
    """Per-pair eta matrix: similar where the boolean similarity mask S is
    True, dissimilar elsewhere. Any other S is a DomainError, as in p_raw
    and p_gaussian."""
    return np.where(_mask(S), similar, dissimilar)
