"""KL-divergence alignment trainer for the streaming hash model.

Each stage sees one batch only. The batch's label-side target distribution
P stays fixed while SGD on the projection matrix moves the code-side
distribution Q toward it. Two gradient modes exist:

* "exact" - the true analytic gradient of the clamped KL loss, including
  the per-pair 1/eta factor from differentiating dist/eta and the coupling
  through Q's normalizer. This is the default and is verified against a
  finite-difference oracle.
* "paper" - the closed form X ((B o (1 - B o B)) L)^T, where L holds the
  row sums of Lmat = (P - Q) o kernel on its diagonal and -Lmat off it.
  Kept for ablation; it omits the 1/eta factor and attaches the tanh
  derivative to the partner sample, so it is an approximation of the true
  gradient.

Both are X @ M.T for a (k, n) code-space matrix M (code_coefficients).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import distribution as dist
from . import model as hashmodel
from .data import StreamingBatch
from .distribution import GaussianParams, ScalingParams
from .errors import DimensionError, DomainError, NumericError
from .model import HashModel

log = logging.getLogger(__name__)

GRAD_MODES = ("paper", "exact")
P_VARIANTS = ("raw", "gaussian")
Q_VARIANTS = ("plain", "scaled")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    gaussian: GaussianParams = field(default_factory=GaussianParams)
    scaling: ScalingParams | None = None  # None resolves to p = k/2, n = 1
    batch_size: int = 50
    inner_iters: int = 5
    grad_mode: str = "exact"
    p_variant: str = "gaussian"
    q_variant: str = "scaled"
    epsilon: float = 1e-12
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if self.batch_size < 2:
            raise DomainError("batch_size must be at least 2")
        if self.inner_iters < 1:
            raise DomainError("inner_iters must be at least 1")
        if not 0.0 < self.epsilon <= 1e-6:
            raise DomainError("epsilon must lie in (0, 1e-6]")
        if self.grad_mode not in GRAD_MODES:
            raise DomainError(f"grad_mode must be one of {GRAD_MODES}")
        if self.p_variant not in P_VARIANTS:
            raise DomainError(f"p_variant must be one of {P_VARIANTS}")
        if self.q_variant not in Q_VARIANTS:
            raise DomainError(f"q_variant must be one of {Q_VARIANTS}")

    def resolve_scaling(self, k: int) -> ScalingParams:
        if self.scaling is not None:
            return self.scaling
        return ScalingParams(p=k / 2.0, n=1.0)


@dataclass
class StageReport:
    stage_index: int
    loss_before: float
    loss_after: float
    grad_norm: float
    wall_time: float


@dataclass
class GradWorkspace:
    """Intermediates of one loss evaluation at fixed codes, exposed for testing."""

    B: np.ndarray             # (k, n) relaxed codes
    D: np.ndarray             # (n, n) dist/eta, zero diagonal
    kernel: np.ndarray        # (n, n) 1 / (1 + D), zero diagonal
    Q: np.ndarray             # (n, n) code-side distribution
    Lmat: np.ndarray          # (n, n) (P - Q) o kernel, zero diagonal
    eta: np.ndarray | float   # (n, n) per-pair divisors, or 1.0 for plain Q


def kl_loss(P: np.ndarray, Q: np.ndarray, epsilon: float = 1e-12) -> float:
    """Sum of P_ij log(P_ij / Q_ij) over off-diagonal pairs.

    Q is clamped below by epsilon inside the log; terms with P_ij = 0
    contribute 0 (the x log x limit convention).
    """
    if P.shape != Q.shape:
        raise DimensionError(f"shape mismatch: {P.shape} vs {Q.shape}")
    mask = P > 0
    q = np.maximum(Q[mask], epsilon)
    p = P[mask]
    return float(np.sum(p * np.log(p / q)))


def stage_eta(S, cfg: TrainConfig, k: int):
    """Per-pair distance divisors of one batch: the scaling matrix for the
    scaled Q, 1.0 for the plain one."""
    if cfg.q_variant == "scaled":
        return dist.scaling_matrix(S, cfg.resolve_scaling(k))
    return 1.0


def build_workspace(B, P, eta) -> GradWorkspace:
    """Distances, Q and the gradient's pair coefficients at relaxed codes B."""
    D = dist.pairwise_hamming_sq(B)
    D /= eta
    np.fill_diagonal(D, 0.0)
    kernel = 1.0 + D
    np.divide(1.0, kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    Q = kernel / kernel.sum()
    Lmat = P - Q
    Lmat *= kernel
    np.fill_diagonal(Lmat, 0.0)
    return GradWorkspace(B=B, D=D, kernel=kernel, Q=Q, Lmat=Lmat, eta=eta)


def pair_laplacian(ws: GradWorkspace, grad_mode: str) -> np.ndarray:
    """(n, n) negated pair coefficients with their row sums on the diagonal,
    so every row sums to 0.

    paper: the published coefficients Lmat; exact: they gain the 1/eta
    factor from differentiating dist/eta.
    """
    coeff = ws.Lmat if grad_mode == "paper" else ws.Lmat / ws.eta
    lap = -coeff
    np.fill_diagonal(lap, coeff.sum(axis=1))
    return lap


def code_coefficients(ws: GradWorkspace, grad_mode: str) -> np.ndarray:
    """M (k, n) such that the gradient with respect to W is X @ M.T."""
    lap = pair_laplacian(ws, grad_mode)
    tanh_deriv = 1.0 - ws.B * ws.B
    if grad_mode == "paper":
        return (ws.B * tanh_deriv) @ lap
    # exact: the tanh derivative applies to the differentiated sample via
    # the chain rule
    return (ws.B @ lap) * tanh_deriv


def _check_finite(M: np.ndarray) -> None:
    if not np.all(np.isfinite(M)):
        raise NumericError("gradient contains non-finite entries; stage aborted")


def _stage_loss(X, model: HashModel, P, eta, epsilon: float) -> float:
    ws = build_workspace(hashmodel.encode_relaxed(model, X), P, eta)
    return kl_loss(P, ws.Q, epsilon)


def grad_loss(X, model: HashModel, P, S, cfg: TrainConfig) -> np.ndarray:
    """Gradient of the stage loss with respect to W, per cfg.grad_mode."""
    if P.shape[0] != X.shape[1]:
        raise DimensionError(
            f"P is {P.shape} but X has {X.shape[1]} columns"
        )
    B = hashmodel.encode_relaxed(model, X)
    ws = build_workspace(B, P, stage_eta(S, cfg, model.k))
    return X @ code_coefficients(ws, cfg.grad_mode).T


def fd_oracle(X, model: HashModel, P, S, cfg: TrainConfig, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the stage loss over every W entry."""
    if step <= 0:
        raise DomainError("step must be positive")
    eta = stage_eta(S, cfg, model.k)

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


def sgd_step(model: HashModel, gradient: np.ndarray, learning_rate: float) -> HashModel:
    """One descent update W <- W - lr * gradient, returning a new model."""
    if gradient.shape != model.W.shape:
        raise DimensionError(
            f"gradient shape {gradient.shape} does not match W {model.W.shape}"
        )
    _check_finite(gradient)
    return HashModel(W=model.W - learning_rate * gradient)


def build_target(labels, cfg: TrainConfig):
    """Similarity matrix and label-side target P for one batch."""
    S = dist.build_similarity(labels)
    if cfg.p_variant == "raw":
        P = dist.p_raw(S)
    else:
        P = dist.p_gaussian(S, cfg.gaussian)
    return S, P


def train_stage(model: HashModel, batch: StreamingBatch, cfg: TrainConfig):
    """Update the model on one batch: inner_iters SGD steps against the
    batch's fixed target distribution. Returns (model, StageReport).

    X is fixed for the stage, so every step X @ M.T keeps W - W0 inside
    span(X) and the projections Z = W^T X follow as Z -= lr * M @ X^T X.
    The loop runs on Z; W is written once, with the summed step.
    """
    cfg.validate()
    if batch.size < 2:
        raise DomainError("a stage needs at least 2 instances")
    start = time.perf_counter()
    X = batch.features
    S, P = build_target(batch.labels, cfg)
    eta = stage_eta(S, cfg, model.k)
    Z = hashmodel.project(model, X)
    K = X.T @ X
    M_sum = np.zeros_like(Z)
    for i in range(cfg.inner_iters):
        ws = build_workspace(np.tanh(Z), P, eta)
        if i == 0:
            loss_before = kl_loss(P, ws.Q, cfg.epsilon)
        M = code_coefficients(ws, cfg.grad_mode)
        _check_finite(M)
        M_sum += M
        step = M @ K
        Z -= cfg.learning_rate * step
    # ||X M^T||^2 = <M, M X^T X> for the last inner gradient
    grad_norm = math.sqrt(max(float(np.vdot(M, step)), 0.0))
    model = sgd_step(model, X @ M_sum.T, cfg.learning_rate)
    loss_after = _stage_loss(X, model, P, eta, cfg.epsilon)
    report = StageReport(
        stage_index=batch.stage_index,
        loss_before=loss_before,
        loss_after=loss_after,
        grad_norm=grad_norm,
        wall_time=time.perf_counter() - start,
    )
    return model, report


def train_stream(model: HashModel, batches, cfg: TrainConfig, eval_hook=None):
    """Fold train_stage over a batch sequence in order.

    eval_hook(model, report), when given, runs synchronously after each
    stage. A NumericError aborts the stream and returns progress so far;
    other errors propagate.
    """
    reports: list[StageReport] = []
    for batch in batches:
        try:
            model, report = train_stage(model, batch, cfg)
        except NumericError as e:
            log.warning("stage %d aborted: %s", batch.stage_index, e)
            return model, reports
        reports.append(report)
        if eval_hook is not None:
            eval_hook(model, report)
    return model, reports


def with_stage_indices(batches, start: int = 1) -> list[StreamingBatch]:
    """Renumber stage indices sequentially (used when chaining epochs)."""
    return [replace(b, stage_index=start + i) for i, b in enumerate(batches)]
