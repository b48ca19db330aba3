"""Reference implementations the tests compare the library against.

Each is the plain, per-entry form of a quantity the library computes in a
vectorised or fused way; none of them runs in training or evaluation. The
dense text parser is the oracle of the binary sidecar (load_dense_both_ways).
"""

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


def p_by_sum(S):
    """Raw target P by definition: S with a zeroed diagonal over its sum."""
    out = S.copy()
    np.fill_diagonal(out, 0.0)
    total = out.sum()
    if total <= 0:
        raise DegenerateDistributionError("off-diagonal mass is zero")
    return out / total


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
    ws = trainer.build_workspace(hm.encode_relaxed(model, X), P, eta)
    return trainer.kl_loss(P, ws.Q, epsilon)


def grad_loss(X, model, P, S, cfg):
    """Gradient of the stage loss with respect to W, per cfg.grad_mode."""
    ws = trainer.build_workspace(hm.encode_relaxed(model, X), P,
                                 trainer.stage_eta(S, cfg, model.k))
    return X @ trainer.code_coefficients(ws, cfg.grad_mode).T


def fd_oracle(X, model, P, S, cfg, step=1e-5):
    """Central finite differences of the stage loss over every W entry."""
    if step <= 0:
        raise DomainError("step must be positive")
    eta = trainer.stage_eta(S, cfg, model.k)

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
