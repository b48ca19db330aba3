"""KL loss, gradient correctness, SGD updates and the streaming loop."""

import numpy as np
import pytest

from streamhash import data, distribution as dist, model as hm, trainer
from streamhash.data import StreamingBatch
from streamhash.distribution import GaussianParams, ScalingParams
from streamhash.errors import (
    DegenerateDistributionError,
    DimensionError,
    DomainError,
    NumericError,
)
from streamhash.trainer import TrainConfig


def random_instance(rng, n_t=6, d=4, k=3, q_variant="scaled", p_variant="gaussian",
                    scaling=ScalingParams(2.5, 0.7)):
    X = rng.standard_normal((d, n_t))
    labels = rng.integers(0, 3, size=n_t)
    cfg = TrainConfig(grad_mode="exact", p_variant=p_variant, q_variant=q_variant,
                      scaling=scaling)
    model = hm.init(d, k, scale=1.0, seed=int(rng.integers(1 << 30)))
    S, P = trainer.build_target(labels, cfg)
    return X, labels, model, S, P, cfg


class TestKlLoss:
    def test_identity_is_zero(self):
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 0, 1])))
        assert trainer.kl_loss(P, P) == 0.0

    def test_frozen_hand_instance(self):
        # P from the smoothed [a,a,b] target, Q from the scaled hand case;
        # value frozen from direct high-precision evaluation of the sum
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 0, 1])))
        B = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0]])
        S = dist.build_similarity(np.array([0, 0, 1]))
        Q = dist.q_scaled(B, S, ScalingParams(2.0, 1.0))
        assert trainer.kl_loss(P, Q) == pytest.approx(0.0445705410, abs=1e-9)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            labels = rng.integers(0, 3, size=n)
            S = dist.build_similarity(labels)
            P = dist.p_gaussian(S, GaussianParams(1.0, float(rng.uniform(0.2, 2.0))))
            B = rng.uniform(-1, 1, size=(5, n))
            Q = dist.q_plain(B)
            assert trainer.kl_loss(P, Q) >= 0.0

    def test_zero_target_entries_contribute_nothing(self):
        labels = np.array([0, 0, 1])
        S = dist.build_similarity(labels)
        P = dist.p_raw(S)
        Q = dist.q_plain(np.array([[1.0, -1.0, 1.0]]))
        # only the two similar pairs enter the sum
        expected = 2 * 0.5 * np.log(0.5 / Q[0, 1])
        assert trainer.kl_loss(P, Q) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            trainer.kl_loss(np.zeros((3, 3)), np.zeros((4, 4)))


class TestGradLoss:
    def test_matches_finite_differences(self):
        # ten seeded instances across both Q variants; the oracle defines
        # the target for exact mode
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(10):
            n_t = int(rng.integers(3, 9))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            q_variant = "scaled" if trial % 2 else "plain"
            X, labels, model, S, P, cfg = random_instance(
                rng, n_t=n_t, d=d, k=k, q_variant=q_variant
            )
            g = trainer.grad_loss(X, model, P, S, cfg)
            g_fd = trainer.fd_oracle(X, model, P, S, cfg, step=1e-5)
            rel = np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_matches_finite_differences_raw_target(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 0, 1, 1, 2, 2])
        X = rng.standard_normal((4, 6))
        cfg = TrainConfig(grad_mode="exact", p_variant="raw", q_variant="scaled",
                          scaling=ScalingParams(3.0, 1.0))
        model = hm.init(4, 3, seed=9)
        S, P = trainer.build_target(labels, cfg)
        g = trainer.grad_loss(X, model, P, S, cfg)
        g_fd = trainer.fd_oracle(X, model, P, S, cfg, step=1e-5)
        assert np.abs(g - g_fd).max() / np.abs(g_fd).max() < 1e-4

    def test_zero_when_target_equals_code_distribution(self):
        # force P = Q by feeding Q back as the target
        rng = np.random.default_rng(1)
        X, labels, model, S, _, cfg = random_instance(rng)
        B = hm.encode_relaxed(model, X)
        Q = dist.q_scaled(B, S, cfg.resolve_scaling(model.k))
        for mode in ("paper", "exact"):
            mode_cfg = TrainConfig(grad_mode=mode, q_variant=cfg.q_variant,
                                   scaling=cfg.scaling)
            g = trainer.grad_loss(X, model, Q, S, mode_cfg)
            assert (g == 0).all()

    def test_zero_model_is_stationary(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        labels = rng.integers(0, 2, size=6)
        cfg = TrainConfig()
        model = hm.init(4, 3, scale=0.0, seed=0)
        S, P = trainer.build_target(labels, cfg)
        for mode in ("paper", "exact"):
            g = trainer.grad_loss(X, model, P, S, TrainConfig(grad_mode=mode))
            assert (g == 0).all()

    def test_row_sum_identity(self):
        # the Laplacian-like structure: the pair Laplacian's rows sum to zero
        rng = np.random.default_rng(3)
        for _ in range(20):
            X, labels, model, S, P, cfg = random_instance(rng)
            ws = trainer.build_workspace(hm.encode_relaxed(model, X), P,
                                         trainer.stage_eta(S, cfg, model.k))
            for mode in trainer.GRAD_MODES:
                rows = trainer.pair_laplacian(ws, mode) @ np.ones(S.shape[0])
                assert np.abs(rows).max() < 1e-10

    def test_workspace_invariants(self):
        rng = np.random.default_rng(4)
        X, labels, model, S, P, cfg = random_instance(rng)
        B = hm.encode_relaxed(model, X)
        ws = trainer.build_workspace(B, P, trainer.stage_eta(S, cfg, model.k))
        assert (ws.D >= 0).all() and (np.diag(ws.D) == 0).all()
        assert (ws.kernel > 0).sum() == ws.kernel.size - S.shape[0]
        assert (ws.kernel <= 1).all() and (np.diag(ws.kernel) == 0).all()
        assert ws.Q.sum() == pytest.approx(1.0, abs=1e-12)
        assert ws.B is B
        M = trainer.code_coefficients(ws, cfg.grad_mode)
        assert M.shape == B.shape

    def test_paper_mode_proportional_at_code_level_for_uniform_eta(self):
        # with p = n the exact per-pair coefficients are the published ones
        # divided by eta, so the gradients w.r.t. the codes are collinear
        rng = np.random.default_rng(5)
        eta = 2.0
        X, labels, model, S, P, cfg = random_instance(
            rng, scaling=ScalingParams(eta, eta)
        )
        ws = trainer.build_workspace(hm.encode_relaxed(model, X), P,
                                     trainer.stage_eta(S, cfg, model.k))
        g_paper_codes = ws.B @ trainer.pair_laplacian(ws, "paper")
        g_exact_codes = ws.B @ trainer.pair_laplacian(ws, "exact")
        np.testing.assert_allclose(g_paper_codes, eta * g_exact_codes, atol=1e-12)

    def test_paper_mode_w_level_deviation_recorded(self):
        # the paper-mode W-level closed form is NOT the analytic gradient
        # even for uniform eta (its tanh-derivative attaches to the partner
        # sample); quantify the deviation rather than asserting equality
        rng = np.random.default_rng(6)
        devs = []
        for _ in range(5):
            X, labels, model, S, P, _ = random_instance(
                rng, scaling=ScalingParams(1.0, 1.0)
            )
            g_paper = trainer.grad_loss(X, model, P, S, TrainConfig(
                grad_mode="paper", scaling=ScalingParams(1.0, 1.0)))
            g_exact = trainer.grad_loss(X, model, P, S, TrainConfig(
                grad_mode="exact", scaling=ScalingParams(1.0, 1.0)))
            denom = np.linalg.norm(g_exact)
            devs.append(np.linalg.norm(g_paper - g_exact) / max(denom, 1e-12))
        print(f"\npaper-vs-exact W-level relative deviation (uniform eta): {devs}")
        assert all(np.isfinite(devs))


class TestFdOracle:
    def test_central_difference_is_exact_on_quadratics(self):
        # the scheme the oracle uses has no O(step) term: on f(x) = c x^2
        # it recovers the derivative up to roundoff for any step
        f = lambda x: 3.0 * x * x
        for x0 in (0.0, 1.0, -2.5):
            for step in (1e-2, 1e-5):
                fd = (f(x0 + step) - f(x0 - step)) / (2 * step)
                assert fd == pytest.approx(6.0 * x0, abs=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X, labels, model, S, P, cfg = random_instance(rng)
        a = trainer.fd_oracle(X, model, P, S, cfg, step=1e-5)
        b = trainer.fd_oracle(X, model, P, S, cfg, step=1e-5)
        assert (a == b).all()

    def test_bad_step(self):
        rng = np.random.default_rng(9)
        X, labels, model, S, P, cfg = random_instance(rng)
        with pytest.raises(DomainError):
            trainer.fd_oracle(X, model, P, S, cfg, step=0.0)


class TestSgdStep:
    def test_zero_rate_and_zero_gradient(self):
        m = hm.init(4, 3, seed=0)
        out = trainer.sgd_step(m, np.ones_like(m.W), 0.0)
        assert (out.W == m.W).all()
        out = trainer.sgd_step(m, np.zeros_like(m.W), 0.5)
        assert (out.W == m.W).all()

    def test_small_step_decreases_loss(self):
        rng = np.random.default_rng(10)
        X, labels, model, S, P, cfg = random_instance(rng)
        g = trainer.grad_loss(X, model, P, S, cfg)
        eta = trainer.stage_eta(S, cfg, model.k)

        def loss(m):
            return trainer.kl_loss(P, trainer.build_workspace(hm.encode_relaxed(m, X), P, eta).Q)

        loss0 = loss(model)
        stepped = trainer.sgd_step(model, g, 1e-3)
        assert loss(stepped) < loss0

    def test_non_finite_gradient_rejected_model_unchanged(self):
        m = hm.init(4, 3, seed=0)
        W_before = m.W.copy()
        bad = np.zeros_like(m.W)
        bad[0, 0] = np.inf
        with pytest.raises(NumericError):
            trainer.sgd_step(m, bad, 0.1)
        assert (m.W == W_before).all()


class TestTrainStage:
    def test_inner_iters_zero_rejected_by_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(inner_iters=0).validate()

    def test_all_distinct_labels_raw_target_degenerates(self):
        X = np.random.default_rng(0).standard_normal((3, 4))
        batch = StreamingBatch(features=X, labels=np.arange(4), stage_index=1)
        model = hm.init(3, 2, seed=0)
        with pytest.raises(DegenerateDistributionError):
            trainer.train_stage(model, batch, TrainConfig(p_variant="raw"))
        # the smoothed target keeps the stage alive (uniform P)
        model2, report = trainer.train_stage(model, batch, TrainConfig(p_variant="gaussian"))
        assert np.isfinite(report.loss_after)

    def test_all_identical_labels_work_in_both_variants(self):
        X = np.random.default_rng(1).standard_normal((3, 4))
        batch = StreamingBatch(features=X, labels=np.zeros(4, dtype=int), stage_index=1)
        model = hm.init(3, 2, seed=0)
        for variant in ("raw", "gaussian"):
            _, report = trainer.train_stage(model, batch, TrainConfig(p_variant=variant))
            assert report.loss_after >= 0.0

    def test_losses_non_negative_and_mostly_improving_on_blobs(self):
        X, y = data.synth_blobs(4, 8, 100, 0.3, seed=0)
        cfg = TrainConfig(learning_rate=0.1, gaussian=GaussianParams(1.0, 0.35),
                          scaling=ScalingParams(1.0, 1.0))
        batches = data.stream(X, y, 50, seed=0)
        model = hm.init(8, 8, seed=0)
        model, reports = trainer.train_stream(model, batches, cfg)
        assert all(r.loss_before >= 0 and r.loss_after >= 0 for r in reports)
        improved = np.mean([r.loss_after <= r.loss_before for r in reports])
        assert improved >= 0.9


def reference_stage(W, batch, cfg):
    """The per-iteration W-space loop, written out: every inner step
    re-encodes the batch, forms the dense n x n diagonal of row sums and
    writes W. Returns (W, loss_before, loss_after, grad_norm)."""
    X = batch.features
    S, P = trainer.build_target(batch.labels, cfg)
    if cfg.q_variant == "scaled":
        eta = dist.scaling_matrix(S, cfg.resolve_scaling(W.shape[1]))
    else:
        eta = np.ones_like(S)

    def workspace(W):
        B = np.tanh(W.T @ X)
        gram = B.T @ B
        sq = np.diag(gram)
        D = 0.25 * (sq[:, None] + sq[None, :] - 2.0 * gram)
        np.maximum(D, 0.0, out=D)
        np.fill_diagonal(D, 0.0)
        D = D / eta
        np.fill_diagonal(D, 0.0)
        kernel = 1.0 / (1.0 + D)
        np.fill_diagonal(kernel, 0.0)
        Q = kernel / kernel.sum()
        Lmat = (P - Q) * kernel
        np.fill_diagonal(Lmat, 0.0)
        return B, Q, Lmat

    loss_before = None
    for _ in range(cfg.inner_iters):
        B, Q, Lmat = workspace(W)
        if loss_before is None:
            loss_before = trainer.kl_loss(P, Q, cfg.epsilon)
        tanh_deriv = 1.0 - B * B
        if cfg.grad_mode == "paper":
            grad = X @ (np.diag(Lmat.sum(axis=1)) - Lmat) @ (B * tanh_deriv).T
        else:
            Le = Lmat / eta
            grad = X @ ((B @ (np.diag(Le.sum(axis=1)) - Le)) * tanh_deriv).T
        grad_norm = float(np.linalg.norm(grad))
        W = W - cfg.learning_rate * grad
    _, Q, _ = workspace(W)
    return W, loss_before, trainer.kl_loss(P, Q, cfg.epsilon), grad_norm


class TestStageAgainstReference:
    @pytest.mark.parametrize("grad_mode", trainer.GRAD_MODES)
    @pytest.mark.parametrize("q_variant", trainer.Q_VARIANTS)
    @pytest.mark.parametrize("n", [9, 40])  # below and above d = 16
    def test_matches_w_space_loop(self, grad_mode, q_variant, n):
        X, y = data.synth_blobs(3, 16, 20, 0.8, seed=n)
        rng = np.random.default_rng(n)
        idx = rng.choice(y.shape[0], size=n, replace=False)
        batch = StreamingBatch(features=X[:, idx], labels=y[idx], stage_index=1)
        cfg = TrainConfig(learning_rate=0.3, gaussian=GaussianParams(1.0, 0.5),
                          scaling=ScalingParams(2.5, 0.7), grad_mode=grad_mode,
                          q_variant=q_variant)
        model = hm.init(16, 6, seed=n)
        W_ref, before, after, grad_norm = reference_stage(model.W, batch, cfg)
        out, report = trainer.train_stage(model, batch, cfg)
        assert report.loss_before == before
        np.testing.assert_allclose(out.W, W_ref, rtol=1e-10, atol=0)
        assert report.loss_after == pytest.approx(after, rel=1e-10, abs=0)
        assert report.grad_norm == pytest.approx(grad_norm, rel=1e-10, abs=0)
        assert after < before  # the stage learned something

    def test_one_encode_and_one_write_per_stage(self, monkeypatch):
        X, y = data.synth_blobs(3, 16, 10, 0.8, seed=0)
        batch = StreamingBatch(features=X, labels=y, stage_index=1)
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(trainer, "build_workspace")
        counted(trainer, "sgd_step")
        counted(hm, "encode_relaxed")
        counted(dist, "scaling_matrix")
        cfg = TrainConfig(inner_iters=4)
        trainer.train_stage(hm.init(16, 5, seed=0), batch, cfg)
        assert calls == {"build_workspace": cfg.inner_iters + 1, "sgd_step": 1,
                         "encode_relaxed": 1, "scaling_matrix": 1}

    def test_non_finite_step_raises_before_w_is_written(self, monkeypatch):
        X, y = data.synth_blobs(3, 16, 10, 0.8, seed=0)
        X[3, 4] = np.nan
        batch = StreamingBatch(features=X, labels=y, stage_index=1)
        steps = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *a: steps.append(a))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            trainer.train_stage(hm.init(16, 5, seed=0), batch, TrainConfig())
        assert steps == []


class TestTrainStream:
    def test_empty_stream_returns_model_unchanged(self):
        model = hm.init(3, 2, seed=0)
        out, reports = trainer.train_stream(model, [], TrainConfig())
        assert (out.W == model.W).all()
        assert reports == []

    def test_stage_indices_strictly_increase(self):
        X, y = data.synth_blobs(3, 5, 30, 0.3, seed=2)
        batches = data.stream(X, y, 20, seed=0)
        model = hm.init(5, 4, seed=0)
        _, reports = trainer.train_stream(model, batches, TrainConfig())
        idx = [r.stage_index for r in reports]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)

    def test_bit_identical_across_runs(self):
        X, y = data.synth_blobs(3, 5, 40, 0.3, seed=3)
        cfg = TrainConfig(seed=4)
        runs = []
        for _ in range(2):
            batches = data.stream(X, y, 25, seed=cfg.seed)
            model = hm.init(5, 6, seed=cfg.seed)
            model, _ = trainer.train_stream(model, batches, cfg)
            runs.append(model.W)
        assert (runs[0] == runs[1]).all()

    def test_numeric_error_aborts_returning_progress(self):
        X, y = data.synth_blobs(2, 4, 30, 0.3, seed=5)
        batches = data.stream(X, y, 10, seed=0)
        batches[1].features[0, 0] = np.inf  # poisons the second stage gradient
        model = hm.init(4, 3, seed=0)
        with np.errstate(invalid="ignore"):
            model, reports = trainer.train_stream(model, batches, TrainConfig())
        assert len(reports) == 1  # only the first stage completed

    def test_eval_hook_runs_after_each_stage(self):
        X, y = data.synth_blobs(3, 5, 20, 0.3, seed=6)
        batches = data.stream(X, y, 15, seed=0)
        seen = []
        model = hm.init(5, 4, seed=0)
        trainer.train_stream(model, batches, TrainConfig(),
                             eval_hook=lambda m, r: seen.append(r.stage_index))
        assert seen == [b.stage_index for b in batches]
