"""Reference implementations the tests compare the library against.

Each is the plain, per-entry form of a quantity the library computes in a
vectorised or fused way; none of them runs in training or evaluation. The
dense text parser is the oracle of the binary sidecar (load_dense_both_ways).
"""

import math
from pathlib import Path

import numpy as np

from streamhash import data, model as hm, trainer
from streamhash.errors import DegenerateDistributionError, DimensionError, DomainError
from streamhash.model import HashModel


def load_dense_both_ways(path):
    """load_dense of a file save_dense wrote, twice: through its sidecar, with
    the text parser refused, then with the sidecar removed, through the text
    parser, the sidecar's oracle. Asserts that the two loads give the same
    dtypes, shapes, C order and bits; returns the parsed (features, labels)."""
    sidecar = Path(f"{path}{data.SIDECAR}")
    assert sidecar.is_file(), f"save_dense wrote no {sidecar.name}"
    parse = data.read_rows
    data.read_rows = _refuse_to_parse
    try:
        cached = data.load_dense(path)
    finally:
        data.read_rows = parse
    sidecar.unlink()
    parsed = data.load_dense(path)
    for a, b in zip(cached, parsed):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    return parsed


def _refuse_to_parse(*args):
    raise AssertionError("load_dense parsed the text although its sidecar matches")


def format_rows_by_repr(rows):
    """The text of the dense and checkpoint rows by definition: each value's
    repr(), spaces between them, one line per row; the reference of
    data._format_rows, which writes float64 values through orjson."""
    return "".join([" ".join(map(repr, row.tolist())) + "\n" for row in rows])


def p_by_sum(S):
    """Raw target P by definition: S with a zeroed diagonal over its sum."""
    out = S.copy()
    np.fill_diagonal(out, 0.0)
    total = out.sum()
    if total <= 0:
        raise DegenerateDistributionError("off-diagonal mass is zero")
    return out / total


def reference_target(labels, cfg, k):
    """(P, eta) of trainer.build_target from a float64 n x n similarity
    matrix S with entries 1.0 and 0.0 instead of a boolean mask: P's two
    values in the closed form p_gaussian documents (raw: 1 / n_similar and
    0), eta scale_p (k / 2 when None) where S == 1.0 and scale_n elsewhere,
    all 1 for the plain Q."""
    S = (labels[:, None] == labels[None, :]).astype(np.float64)
    similar = S == 1.0
    n = S.shape[0]
    n_similar = np.count_nonzero(similar) - np.count_nonzero(similar.diagonal())
    n_dissimilar = n * (n - 1) - n_similar
    if cfg.p_variant == "raw":
        if not n_similar:
            raise DegenerateDistributionError("off-diagonal mass is zero")
        P = np.where(similar, 1.0 / n_similar, 0.0)
    else:
        log_ratio = (0.5 - cfg.gaussian.mu) / cfg.gaussian.sigma / cfg.gaussian.sigma
        if n_similar and (log_ratio <= 0 or not n_dissimilar):
            w_similar, w_dissimilar = 1.0, math.exp(min(log_ratio, 0.0))
        else:
            w_similar, w_dissimilar = math.exp(min(-log_ratio, 0.0)), 1.0
        total = n_similar * w_similar + n_dissimilar * w_dissimilar
        P = np.where(similar, w_similar / total, w_dissimilar / total)
    np.fill_diagonal(P, 0.0)
    if cfg.q_variant == "plain":
        eta = np.ones_like(S)
    else:
        eta = np.where(S == 1.0, k / 2.0 if cfg.scale_p is None else cfg.scale_p, cfg.scale_n)
    return P, eta


def hamming_sq(b_i, b_j):
    """Quarter squared distance ||b_i - b_j||^2 / 4 of two code vectors."""
    if b_i.shape != b_j.shape:
        raise DimensionError(f"code lengths differ: {b_i.shape} vs {b_j.shape}")
    diff = b_i - b_j
    return 0.25 * float(diff @ diff)


def hamming(a, b):
    """Popcount Hamming distance of two packed codes (word arrays)."""
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def _stage_loss(X, model, P, eta, epsilon):
    _, Q = trainer.build_workspace(hm.encode_relaxed(model, X), eta)
    return trainer.kl_loss(P, Q, epsilon)


def grad_loss(X, model, P, eta, cfg):
    """Gradient of the stage loss at target P and divisors eta with respect
    to W, per cfg.grad_mode."""
    B = hm.encode_relaxed(model, X)
    kernel, Q = trainer.build_workspace(B, eta)
    return X @ trainer.code_coefficients(B, P, Q, kernel, eta, cfg.grad_mode).T


def fd_oracle(X, model, P, eta, cfg, step=1e-5):
    """Central finite differences of the stage loss at target P and divisors
    eta over every W entry."""
    if step <= 0:
        raise DomainError("step must be positive")

    def loss_at(W):
        return _stage_loss(X, HashModel(W=W), P, eta, cfg.epsilon)

    grad = np.empty_like(model.W)
    for a in range(model.d):
        for b in range(model.k):
            Wp = model.W.copy()
            Wp[a, b] += step
            Wm = model.W.copy()
            Wm[a, b] -= step
            grad[a, b] = (loss_at(Wp) - loss_at(Wm)) / (2.0 * step)
    return grad
