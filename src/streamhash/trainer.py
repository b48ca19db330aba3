"""KL-divergence alignment trainer for the streaming hash model.

Each stage sees one batch only. The batch's label-side target distribution
P stays fixed while SGD on the projection matrix moves the code-side
distribution Q toward it. Two gradient modes exist:

* "exact" - the true analytic gradient of the clamped KL loss, including
  the per-pair 1/eta factor from differentiating dist/eta and the coupling
  through Q's normalizer. This is the default and is verified against a
  finite-difference oracle.
* "paper" - the closed form X (C o r - C A)^T with C = B o (1 - B o B),
  where A = (P - Q) o kernel holds the pair coefficients and r their row
  sums. Kept for ablation; it omits the 1/eta factor and attaches the tanh
  derivative to the partner sample, so it is an approximation of the true
  gradient.

Both are X @ M.T for a (k, n) code-space matrix M (code_coefficients).
TrainConfig checks its settings when built and HashModel checks that W is
finite; train_stage repeats neither check.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from . import model as hashmodel
from .data import StreamingBatch
from .distribution import GaussianParams, check_settings
from .errors import DimensionError, DomainError, NumericError
from .model import HashModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    gaussian: GaussianParams = field(default_factory=GaussianParams)
    scale_p: float | None = None  # scaled Q's similar-pair divisor; None: k / 2
    scale_n: float = 1.0  # and its dissimilar-pair divisor
    batch_size: int = 50
    inner_iters: int = 5
    grad_mode: str = "exact"
    p_variant: str = "gaussian"
    q_variant: str = "scaled"
    epsilon: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        check_settings(self)
        if not isinstance(self.gaussian, GaussianParams):
            raise DomainError(f"gaussian must be a GaussianParams, got {self.gaussian!r}")


@dataclass
class StageReport:
    stage_index: int
    loss_before: float
    loss_after: float
    grad_norm: float


def kl_loss(P: np.ndarray, Q: np.ndarray, epsilon: float = 1e-12) -> float:
    """Sum of P_ij log(P_ij / Q_ij) over off-diagonal pairs, for a
    distribution P (non-negative, zero diagonal).

    Q is clamped below by epsilon inside the log; terms with P_ij = 0
    contribute 0 (the x log x limit convention). Computed densely over all
    n^2 entries: the ratio P / max(Q, epsilon) is 0 where P is, the log
    is taken only where P > 0, and one dot product sums the terms.
    """
    if P.shape != Q.shape:
        raise DimensionError(f"shape mismatch: {P.shape} vs {Q.shape}")
    ratio = np.maximum(Q, epsilon)
    np.divide(P, ratio, out=ratio)
    np.log(ratio, out=ratio, where=P > 0)
    return float(np.vdot(P, ratio))


def build_workspace(B, eta):
    """(kernel, Q) at relaxed codes B, for the (n, n) divisors eta of
    build_target: the kernel (1 + dist/eta)^-1 with a zero diagonal and Q,
    the kernel at unit mass, as two new arrays."""
    kernel = dist.pairwise_hamming_sq(B)
    kernel /= eta  # eta > 0 keeps the zero diagonal
    kernel += 1.0
    np.divide(1.0, kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    return kernel, kernel / kernel.sum()


def code_coefficients(B, P, Q, kernel, eta, grad_mode: str) -> np.ndarray:
    """M (k, n) such that the gradient with respect to W is X @ M.T, at
    relaxed codes B with target P and build_workspace(B, eta)'s (kernel, Q).

    The symmetric, zero-diagonal pair coefficients A = (P - Q) o kernel,
    divided by eta in exact mode, and their row sums r give C's code-space
    gradient C o r - C A, as in t-SNE.
    """
    A = P - Q
    A *= kernel
    if grad_mode == "exact":
        A /= eta
    r = A.sum(axis=1)
    tanh_deriv = 1.0 - B * B
    if grad_mode == "paper":
        C = B * tanh_deriv
        return C * r - C @ A
    # exact: by the chain rule the tanh derivative is the differentiated sample's
    return (B * r - B @ A) * tanh_deriv


def sgd_step(model: HashModel, gradient: np.ndarray, learning_rate: float) -> HashModel:
    """One descent update W <- W - lr * gradient, returning a new model."""
    if gradient.shape != model.W.shape:
        raise DimensionError(
            f"gradient shape {gradient.shape} does not match W {model.W.shape}"
        )
    return HashModel(W=model.W - learning_rate * gradient)


def build_target(labels, cfg: TrainConfig, k: int):
    """Label-side target P of one batch and the per-pair distance divisors
    eta of its k-bit codes, both from the batch's similarity mask: eta is
    (scale_p, scale_n) for the scaled Q, a null scale_p standing for k / 2,
    and (1, 1) for the plain one."""
    S = dist.build_similarity(labels)
    P = dist.p_raw(S) if cfg.p_variant == "raw" else dist.p_gaussian(S, cfg.gaussian)
    if cfg.q_variant == "plain":
        return P, dist.scaling_matrix(S, 1.0, 1.0)
    return P, dist.scaling_matrix(S, k / 2 if cfg.scale_p is None else cfg.scale_p, cfg.scale_n)


def train_stage(model: HashModel, batch: StreamingBatch, cfg: TrainConfig):
    """Update the model on one batch: inner_iters SGD steps against the
    batch's fixed target distribution. Returns (model, StageReport).

    X is fixed for the stage, so every step X @ M.T keeps W - W0 inside
    span(X) and the projections Z = W^T X follow as Z -= lr * M @ X^T X.
    The loop runs on Z; W is written once, with the summed step, and
    loss_after is taken at the tracked Z rather than by encoding X again.
    """
    if batch.features.shape[1] != batch.size:
        raise DimensionError(f"{batch.features.shape[1]} feature columns for {batch.size} labels")
    X = batch.features
    P, eta = build_target(batch.labels, cfg, model.k)
    Z = hashmodel.project(model, X)
    K = X.T @ X
    M_sum = np.zeros_like(Z)
    for i in range(cfg.inner_iters):
        B = np.tanh(Z)
        kernel, Q = build_workspace(B, eta)
        if i == 0:
            loss_before = kl_loss(P, Q, cfg.epsilon)
        M = code_coefficients(B, P, Q, kernel, eta, cfg.grad_mode)
        if not np.all(np.isfinite(M)):  # Z would turn non-finite
            raise NumericError("gradient contains non-finite entries; stage aborted")
        M_sum += M
        Z -= cfg.learning_rate * (M @ K)
    G = X @ M_sum.T  # the stage's whole step, over the learning rate
    grad_norm = float(np.linalg.norm(G))
    if grad_norm == 0.0 and loss_before > 0:  # every 1 - tanh^2 underflowed, say
        raise NumericError(f"stage {batch.stage_index} applied no step at a positive loss")
    model = sgd_step(model, G, cfg.learning_rate)
    # Z now tracks the new model's projections W^T X up to rounding
    loss_after = kl_loss(P, build_workspace(np.tanh(Z), eta)[1], cfg.epsilon)
    report = StageReport(stage_index=batch.stage_index, loss_before=loss_before,
                         loss_after=loss_after, grad_norm=grad_norm)
    return model, report


def train_stream(model: HashModel, batches, cfg: TrainConfig):
    """Fold train_stage over a list of data.stream parts, gathering each
    one's features just before its stage; the one stage loop. Stage i is
    the i-th part, counted from 1.

    Yields (model, report) after each stage, so the last model yielded is
    the last completed stage's; an error a stage raises, a NumericError
    included, leaves the loop at that stage. Each completed stage's time
    goes to the DEBUG log only, so a report holds results only.
    """
    for i, part in enumerate(batches, 1):
        start = time.perf_counter()
        model, report = train_stage(model, StreamingBatch(part.features, part.labels, i), cfg)
        log.debug("stage %d of %d: %.4f s", i, len(batches), time.perf_counter() - start)
        yield model, report
