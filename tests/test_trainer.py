"""KL loss, gradient correctness, SGD updates and the streaming loop."""

import itertools
import logging
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from streamhash import data, distribution as dist, model as hm, trainer
from streamhash.data import StreamingBatch
from streamhash.distribution import GaussianParams
from streamhash.errors import (
    DegenerateDistributionError,
    DimensionError,
    DomainError,
    NumericError,
)
from streamhash.trainer import TrainConfig

from oracles import fd_oracle, grad_loss, reference_target
from test_data import whole
from test_distribution import code_q


def random_instance(rng, n_t=6, d=4, k=3, q_variant="scaled", p_variant="gaussian",
                    scale_p=2.5, scale_n=0.7):
    X = rng.standard_normal((d, n_t))
    labels = rng.integers(0, 3, size=n_t)
    cfg = TrainConfig(grad_mode="exact", p_variant=p_variant, q_variant=q_variant,
                      scale_p=scale_p, scale_n=scale_n)
    model = hm.init(d, k, scale=1.0, seed=int(rng.integers(1 << 30)))
    P, eta = trainer.build_target(labels, cfg, k)
    return X, labels, model, P, eta, cfg


def masked_kl(P, Q, epsilon):
    """The KL sum over the gathered pairs with P > 0, the oracle of the
    dense kl_loss."""
    mask = P > 0
    p = P[mask]
    return float(np.sum(p * np.log(p / np.maximum(Q[mask], epsilon))))


class TestKlLoss:
    def test_identity_is_zero(self):
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 0, 1])))
        assert trainer.kl_loss(P, P) == 0.0

    def test_frozen_hand_instance(self):
        # P from the smoothed [a,a,b] target, Q from the scaled hand case;
        # value frozen from direct high-precision evaluation of the sum
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 0, 1])))
        B = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0]])
        Q = code_q(B, [0, 0, 1], (2.0, 1.0))
        assert trainer.kl_loss(P, Q) == pytest.approx(0.0445705410, abs=1e-9)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            labels = rng.integers(0, 3, size=n)
            S = dist.build_similarity(labels)
            P = dist.p_gaussian(S, GaussianParams(1.0, float(rng.uniform(0.2, 2.0))))
            B = rng.uniform(-1, 1, size=(5, n))
            Q = code_q(B, labels)
            assert trainer.kl_loss(P, Q) >= 0.0

    def test_zero_target_entries_contribute_nothing(self):
        labels = np.array([0, 0, 1])
        S = dist.build_similarity(labels)
        P = dist.p_raw(S)
        Q = code_q(np.array([[1.0, -1.0, 1.0]]), labels)
        # only the two similar pairs enter the sum
        expected = 2 * 0.5 * np.log(0.5 / Q[0, 1])
        assert trainer.kl_loss(P, Q) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            trainer.kl_loss(np.zeros((3, 3)), np.zeros((4, 4)))

    @pytest.mark.parametrize("p_variant", trainer.P_VARIANTS)
    def test_dense_sum_matches_masked_gather(self, p_variant):
        # raw P has zero off-diagonal entries, Gaussian P has none
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 4, size=n)
            labels[1] = labels[0]
            cfg = TrainConfig(p_variant=p_variant,
                              gaussian=GaussianParams(1.0, float(rng.uniform(0.1, 2.0))))
            P, _ = trainer.build_target(labels, cfg, 1)
            Q = code_q(rng.uniform(-1, 1, size=(int(rng.integers(1, 9)), n)), labels)
            # some Q entries below the clamp
            Q.ravel()[rng.integers(0, n * n, size=n)] = 1e-20
            epsilon = float(rng.choice([1e-12, 1e-6]))
            assert trainer.kl_loss(P, Q, epsilon) == pytest.approx(
                masked_kl(P, Q, epsilon), rel=1e-13, abs=0)


LABELS = {
    "distinct": lambda n, rng: np.arange(n),
    "equal": lambda n, rng: np.full(n, 3),
    "mixed": lambda n, rng: rng.integers(0, 4, size=n),
}


class TestBuildTarget:
    @pytest.mark.parametrize("kind", LABELS)
    @pytest.mark.parametrize("n", [2, 50, 400])
    def test_equals_float_similarity_reference(self, n, kind):
        # P and eta from the boolean mask are float64 and equal, byte for
        # byte, those built from a float64 similarity matrix
        labels = LABELS[kind](n, np.random.default_rng(n))
        for p_variant, q_variant, scale_p, mu in itertools.product(
                trainer.P_VARIANTS, trainer.Q_VARIANTS, (None, 2.5), (0.5, 1.0)):
            cfg = TrainConfig(p_variant=p_variant, q_variant=q_variant,
                              gaussian=GaussianParams(mu, 0.35),
                              scale_p=scale_p, scale_n=0.7)
            if p_variant == "raw" and np.unique(labels).size == n:  # no similar pair
                for build in (trainer.build_target, reference_target):
                    with pytest.raises(DegenerateDistributionError):
                        build(labels, cfg, 12)
                continue
            got, want = trainer.build_target(labels, cfg, 12), reference_target(labels, cfg, 12)
            for a, b in zip(got, want):
                assert a.dtype == np.float64 and a.shape == (n, n)
                assert a.tobytes() == b.tobytes()


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
            X, labels, model, P, eta, cfg = random_instance(
                rng, n_t=n_t, d=d, k=k, q_variant=q_variant
            )
            g = grad_loss(X, model, P, eta, cfg)
            g_fd = fd_oracle(X, model, P, eta, cfg, step=1e-5)
            rel = np.abs(g - g_fd).max() / max(np.abs(g_fd).max(), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_matches_finite_differences_raw_target(self):
        rng = np.random.default_rng(7)
        labels = np.array([0, 0, 1, 1, 2, 2])
        X = rng.standard_normal((4, 6))
        cfg = TrainConfig(grad_mode="exact", p_variant="raw", q_variant="scaled",
                          scale_p=3.0, scale_n=1.0)
        model = hm.init(4, 3, seed=9)
        P, eta = trainer.build_target(labels, cfg, model.k)
        g = grad_loss(X, model, P, eta, cfg)
        g_fd = fd_oracle(X, model, P, eta, cfg, step=1e-5)
        assert np.abs(g - g_fd).max() / np.abs(g_fd).max() < 1e-4

    def test_zero_when_target_equals_code_distribution(self):
        # force P = Q by feeding Q back as the target
        rng = np.random.default_rng(1)
        X, labels, model, _, eta, cfg = random_instance(rng)
        B = hm.encode_relaxed(model, X)
        Q = code_q(B, labels, (cfg.scale_p, cfg.scale_n))
        for mode in ("paper", "exact"):
            mode_cfg = TrainConfig(grad_mode=mode, q_variant=cfg.q_variant,
                                   scale_p=cfg.scale_p, scale_n=cfg.scale_n)
            g = grad_loss(X, model, Q, eta, mode_cfg)
            assert (g == 0).all()

    def test_zero_model_is_stationary(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        labels = rng.integers(0, 2, size=6)
        cfg = TrainConfig()
        model = hm.HashModel(W=np.zeros((4, 3)))
        P, eta = trainer.build_target(labels, cfg, model.k)
        for mode in ("paper", "exact"):
            g = grad_loss(X, model, P, eta, TrainConfig(grad_mode=mode))
            assert (g == 0).all()

    def test_row_sum_identity(self):
        # translation invariance: the loss sees the codes only through their
        # differences, so the gradient with respect to the codes, B o r - B A
        # for the symmetric coefficients A with row sums r, sums to zero over
        # the batch; paper mode's C o r - C A does too
        rng = np.random.default_rng(3)
        for _ in range(20):
            X, labels, model, P, eta, cfg = random_instance(rng)
            ws = trainer.build_workspace(hm.encode_relaxed(model, X), P, eta)
            code_gradient = trainer.code_coefficients(ws, "exact") / (1.0 - ws.B * ws.B)
            assert np.abs(code_gradient.sum(axis=1)).max() < 1e-10
            assert np.abs(trainer.code_coefficients(ws, "paper").sum(axis=1)).max() < 1e-10

    def test_workspace_invariants(self):
        rng = np.random.default_rng(4)
        X, labels, model, P, eta, cfg = random_instance(rng)
        B = hm.encode_relaxed(model, X)
        ws = trainer.build_workspace(B, P, eta)
        scaled = dist.pairwise_hamming_sq(B) / eta  # the kernel's dist/eta
        assert (scaled >= 0).all() and (np.diag(scaled) == 0).all()
        expected = 1.0 / (1.0 + scaled)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(ws.kernel, expected)
        assert (ws.kernel > 0).sum() == ws.kernel.size - P.shape[0]
        assert (ws.kernel <= 1).all() and (np.diag(ws.kernel) == 0).all()
        assert ws.Q.sum() == pytest.approx(1.0, abs=1e-12)
        assert ws.B is B
        M = trainer.code_coefficients(ws, cfg.grad_mode)
        assert M.shape == B.shape

    @pytest.mark.parametrize("q_variant", trainer.Q_VARIANTS)
    def test_stage_workspaces_never_overwritten(self, q_variant, monkeypatch):
        # each step of a stage builds its own workspace, which still holds
        # its values bit for bit once every later step has been built
        X, y = data.synth_blobs(3, 16, 10, 0.8, seed=0)
        build, built = trainer.build_workspace, []

        def recorded(*args, **kwargs):
            ws = build(*args, **kwargs)
            built.append((ws, {f.name: getattr(ws, f.name).copy() for f in fields(ws)}))
            return ws
        monkeypatch.setattr(trainer, "build_workspace", recorded)
        cfg = TrainConfig(inner_iters=4, q_variant=q_variant)
        trainer.train_stage(hm.init(16, 5, seed=0), StreamingBatch(X, y, 1), cfg)
        assert len({id(ws) for ws, _ in built}) == cfg.inner_iters + 1
        for step, (ws, held) in enumerate(built):
            for name, values in held.items():
                assert np.array_equal(getattr(ws, name), values), (step, name)

    def test_workspace_is_frozen(self):
        rng = np.random.default_rng(12)
        X, labels, model, P, eta, cfg = random_instance(rng)
        ws = trainer.build_workspace(hm.encode_relaxed(model, X), P, eta)
        for f in fields(ws):
            with pytest.raises(FrozenInstanceError):
                setattr(ws, f.name, np.zeros_like(P))

    def test_paper_mode_proportional_at_code_level_for_uniform_eta(self):
        # with p = n the exact per-pair coefficients are the published ones
        # divided by eta; with codes of one magnitude the tanh derivative is
        # one number, so the two modes' code-space matrices are collinear
        rng = np.random.default_rng(5)
        eta = 2.0
        X, labels, model, P, etas, cfg = random_instance(
            rng, scale_p=eta, scale_n=eta
        )
        B = 0.6 * np.sign(hm.encode_relaxed(model, X))
        ws = trainer.build_workspace(B, P, etas)
        np.testing.assert_allclose(trainer.code_coefficients(ws, "paper"),
                                   eta * trainer.code_coefficients(ws, "exact"), atol=1e-12)

    def test_paper_mode_w_level_deviation_recorded(self):
        # the paper-mode W-level closed form is NOT the analytic gradient
        # even for uniform eta (its tanh-derivative attaches to the partner
        # sample); quantify the deviation rather than asserting equality
        rng = np.random.default_rng(6)
        devs = []
        for _ in range(5):
            X, labels, model, P, eta, _ = random_instance(
                rng, scale_p=1.0, scale_n=1.0
            )
            g_paper = grad_loss(X, model, P, eta, TrainConfig(
                grad_mode="paper", scale_p=1.0, scale_n=1.0))
            g_exact = grad_loss(X, model, P, eta, TrainConfig(
                grad_mode="exact", scale_p=1.0, scale_n=1.0))
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
        X, labels, model, P, eta, cfg = random_instance(rng)
        a = fd_oracle(X, model, P, eta, cfg, step=1e-5)
        b = fd_oracle(X, model, P, eta, cfg, step=1e-5)
        assert (a == b).all()

    def test_bad_step(self):
        rng = np.random.default_rng(9)
        X, labels, model, P, eta, cfg = random_instance(rng)
        with pytest.raises(DomainError):
            fd_oracle(X, model, P, eta, cfg, step=0.0)


class TestSgdStep:
    def test_zero_rate_and_zero_gradient(self):
        m = hm.init(4, 3, seed=0)
        out = trainer.sgd_step(m, np.ones_like(m.W), 0.0)
        assert (out.W == m.W).all()
        out = trainer.sgd_step(m, np.zeros_like(m.W), 0.5)
        assert (out.W == m.W).all()

    def test_small_step_decreases_loss(self):
        rng = np.random.default_rng(10)
        X, labels, model, P, eta, cfg = random_instance(rng)
        g = grad_loss(X, model, P, eta, cfg)

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
            TrainConfig(inner_iters=0)
        with pytest.raises(DomainError):
            replace(TrainConfig(), inner_iters=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf), ("batch_size", np.nan),
        ("inner_iters", np.nan), ("epsilon", np.nan)])
    def test_nan_and_infinite_settings_rejected_by_validation(self, field, value):
        with pytest.raises(DomainError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"gaussian": None}, "gaussian must be a GaussianParams, got None"),
        ({"scale_p": "2"}, "scale_p must be int or float or null, got '2'"),
        ({"batch_size": 2.5}, "batch_size must be int, got 2.5"),
        ({"batch_size": "3"}, "batch_size must be int, got '3'"),
        ({"inner_iters": 2.5}, "inner_iters must be int, got 2.5"),
        ({"inner_iters": np.float64(3.0)}, "inner_iters must be int, got np.float64(3.0)"),
        ({"seed": "x"}, "seed must be int, got 'x'"),
        ({"seed": None}, "seed must be int, got None"),
        ({"epsilon": "x"}, "epsilon must be int or float, got 'x'"),
        ({"epsilon": 1e-7j}, "epsilon must be int or float, got 1e-07j")],
        ids=["gaussian", "scaling", "batch_size_float", "batch_size_str", "inner_iters_float",
             "inner_iters_numpy_float", "seed_str", "seed_none", "epsilon_str", "epsilon_complex"])
    def test_parts_of_the_wrong_type_rejected_when_built(self, kwargs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            TrainConfig(**kwargs)

    def test_numpy_numbers_accepted(self):
        X, y = data.synth_blobs(3, 16, 10, 0.8, seed=0)
        batch = StreamingBatch(features=X, labels=y, stage_index=1)
        cfg = TrainConfig(learning_rate=np.float32(0.1), batch_size=np.int64(50),
                          inner_iters=np.int32(2), epsilon=np.float32(1e-7), seed=np.uint8(3))
        _, report = trainer.train_stage(hm.init(16, 5, seed=0), batch, cfg)
        assert np.isfinite(report.loss_after)

    @pytest.mark.parametrize("field", ["learning_rate", "scale_p", "scale_n", "batch_size",
                                       "inner_iters", "epsilon", "seed"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_settings_rejected_naming_the_field(self, field, value):
        kind = {"scale_p": "int or float or null", "batch_size": "int", "inner_iters": "int",
                "seed": "int"}.get(field, "int or float")
        with pytest.raises(DomainError, match=f"^{field} must be {kind}, got {value}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    def test_bool_gaussian_params_rejected_naming_the_field(self, field):
        with pytest.raises(DomainError, match=f"^{field} must be int or float, got True$"):
            GaussianParams(**{field: True})

    def test_grad_norm_is_the_applied_step_over_the_learning_rate(self):
        X, y = data.synth_blobs(3, 16, 10, 0.8, seed=0)
        batch = StreamingBatch(features=X, labels=y, stage_index=1)
        model = hm.init(16, 5, seed=0)
        cfg = TrainConfig(learning_rate=0.5, inner_iters=4)
        out, report = trainer.train_stage(model, batch, cfg)
        moved = np.linalg.norm(out.W - model.W) / cfg.learning_rate
        assert report.grad_norm == pytest.approx(moved, rel=1e-12)

    @pytest.mark.parametrize("W", [np.zeros((16, 5)), hm.init(16, 5, scale=1e6, seed=0).W],
                             ids=["zero", "saturated"])
    def test_stage_without_a_step_at_a_positive_loss_raises(self, W, monkeypatch):
        # W = 0 is a stationary point, and saturated codes have 1 - tanh^2 = 0:
        # neither stage moves W, though its loss is positive
        X, y = data.synth_blobs(3, 16, 10, 0.8, seed=0)
        batch = StreamingBatch(features=X, labels=y, stage_index=7)
        steps = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *a: steps.append(a))
        with pytest.raises(NumericError, match="^stage 7 applied no step at a positive loss$"):
            trainer.train_stage(hm.HashModel(W=W), batch, TrainConfig())
        assert steps == []

    def test_stage_without_a_step_at_zero_loss_completes(self):
        # identical instances of one label: Q is uniform, as P is
        batch = StreamingBatch(features=np.ones((4, 5)), labels=np.zeros(5, dtype=np.int64),
                               stage_index=1)
        model = hm.init(4, 3, seed=0)
        out, report = trainer.train_stage(model, batch, TrainConfig())
        assert report.loss_before == report.loss_after == report.grad_norm == 0.0
        assert np.array_equal(out.W, model.W)

    @pytest.mark.parametrize("n", [0, 1])
    def test_batch_of_fewer_than_2_instances_rejected(self, n):
        batch = StreamingBatch(features=np.ones((3, n)), labels=np.zeros(n, dtype=np.int64),
                               stage_index=1)
        with pytest.raises(DomainError, match="^similarity needs at least 2 instances$"):
            trainer.train_stage(hm.init(3, 2, seed=0), batch, TrainConfig())

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
                          scale_p=1.0, scale_n=1.0)
        batches = data.stream(whole(X, y), 50, seed=0)
        model = hm.init(8, 8, seed=0)
        reports = [report for _, report in trainer.train_stream(model, batches, cfg)]
        assert all(r.loss_before >= 0 and r.loss_after >= 0 for r in reports)
        improved = np.mean([r.loss_after <= r.loss_before for r in reports])
        assert improved >= 0.9


def reference_stage(W, batch, cfg):
    """The per-iteration W-space loop, written out: every inner step
    re-encodes the batch, forms the dense n x n diagonal of row sums and
    writes W. Returns (W, loss_before, loss_after, grad_norm), grad_norm
    the norm of the inner gradients' sum."""
    X = batch.features
    P, eta = reference_target(batch.labels, cfg, W.shape[1])

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

    loss_before, grad_sum = None, np.zeros_like(W)
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
        grad_sum += grad
        W = W - cfg.learning_rate * grad
    _, Q, _ = workspace(W)
    return W, loss_before, trainer.kl_loss(P, Q, cfg.epsilon), float(np.linalg.norm(grad_sum))


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
                          scale_p=2.5, scale_n=0.7, grad_mode=grad_mode,
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
        counted(dist, "build_similarity")
        counted(dist, "scaling_matrix")
        counted(dist, "p_gaussian")
        cfg = TrainConfig(inner_iters=4)
        trainer.train_stage(hm.init(16, 5, seed=0), batch, cfg)
        # loss_after comes from the tracked projections: no encode at all;
        # one similarity mask serves P and eta
        assert calls.get("encode_relaxed", 0) == 0
        assert calls == {"build_workspace": cfg.inner_iters + 1, "sgd_step": 1,
                         "build_similarity": 1, "scaling_matrix": 1, "p_gaussian": 1}

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
        W = model.W.copy()
        assert list(trainer.train_stream(model, [], TrainConfig())) == []
        assert (model.W == W).all()

    def test_stage_indices_strictly_increase(self):
        X, y = data.synth_blobs(3, 5, 30, 0.3, seed=2)
        batches = data.stream(whole(X, y), 20, seed=0)
        model = hm.init(5, 4, seed=0)
        idx = [r.stage_index for _, r in trainer.train_stream(model, batches, TrainConfig())]
        assert idx == sorted(idx) and len(set(idx)) == len(idx)

    def test_bit_identical_across_runs(self):
        X, y = data.synth_blobs(3, 5, 40, 0.3, seed=3)
        cfg = TrainConfig(seed=4)
        runs = []
        for _ in range(2):
            batches = data.stream(whole(X, y), 25, seed=cfg.seed)
            model = hm.init(5, 6, seed=cfg.seed)
            runs.append(list(trainer.train_stream(model, batches, cfg)))
        assert len(runs[0]) == len(runs[1]) > 0
        for (model_a, report_a), (model_b, report_b) in zip(*runs):
            assert (model_a.W == model_b.W).all()
            assert report_a == report_b

    def test_logs_each_completed_stage_at_debug(self, caplog):
        X, y = data.synth_blobs(3, 5, 30, 0.3, seed=2)
        batches = data.stream(whole(X, y), 20, seed=0)
        with caplog.at_level(logging.DEBUG, logger=trainer.__name__):
            list(trainer.train_stream(hm.init(5, 4, seed=0), batches, TrainConfig()))
        records = [r for r in caplog.records if r.name == trainer.__name__]
        assert [r.levelno for r in records] == [logging.DEBUG] * len(batches)
        for i, record in enumerate(records, 1):
            assert record.getMessage().startswith(f"stage {i} of {len(batches)}: ")

    def test_numeric_error_aborts_returning_progress(self):
        X, y = data.synth_blobs(2, 4, 30, 0.3, seed=5)
        batches = data.stream(whole(X, y), 10, seed=0)
        X[0, batches[1].idx[0]] = np.inf  # poisons the second stage gradient
        model = hm.init(4, 3, seed=0)
        done = []
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=r"^gradient contains non-finite entries; stage aborted$"):
            for item in trainer.train_stream(model, batches, TrainConfig()):
                done.append(item)
        assert len(batches) == 6
        assert [r.stage_index for _, r in done] == [1]  # only the first stage completed
        first = StreamingBatch(batches[0].features, batches[0].labels, 1)
        want, _ = trainer.train_stage(model, first, TrainConfig())
        assert (done[-1][0].W == want.W).all()  # the caller keeps stage 1's model

    def test_finished_stream_raises_nothing(self):
        X, y = data.synth_blobs(2, 4, 30, 0.3, seed=5)
        stages = list(trainer.train_stream(hm.init(4, 3, seed=0),
                                           data.stream(whole(X, y), 10, seed=0), TrainConfig()))
        assert [r.stage_index for _, r in stages] == list(range(1, 7))

    def test_eval_hook_runs_after_each_stage(self, monkeypatch):
        # the caller's loop body runs after each stage, before the next starts
        X, y = data.synth_blobs(3, 5, 20, 0.3, seed=6)
        batches = data.stream(whole(X, y), 15, seed=0)
        stages_run, seen = [], []
        real = trainer.train_stage

        def train_stage(model, batch, cfg):
            stages_run.append(batch.stage_index)
            return real(model, batch, cfg)

        monkeypatch.setattr(trainer, "train_stage", train_stage)
        for _, report in trainer.train_stream(hm.init(5, 4, seed=0), batches, TrainConfig()):
            assert stages_run == list(range(1, report.stage_index + 1))
            seen.append(report.stage_index)
        assert seen == list(range(1, len(batches) + 1))
