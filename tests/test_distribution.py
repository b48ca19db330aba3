"""Pair distributions: targets P, code-side Q, and the distance measure.

Q is the one training forms: build_workspace at the stage's divisors.
"""

import math
import re
import sys

import numpy as np
import pytest

from streamhash import distribution as dist, model as hm, trainer
from streamhash.data import StreamingBatch
from streamhash.distribution import GaussianParams
from streamhash.errors import DegenerateDistributionError, DimensionError, DomainError
from streamhash.trainer import TrainConfig

from oracles import hamming_sq


def code_q(B, labels, scales=None):
    """Q of codes B as a training stage forms it, with the divisors
    build_target gives for labels: scaled by scales = (scale_p, scale_n),
    or plain when scales is None."""
    cfg = (TrainConfig(q_variant="plain") if scales is None
           else TrainConfig(scale_p=scales[0], scale_n=scales[1]))
    P, eta = trainer.build_target(np.asarray(labels), cfg, B.shape[0])
    return trainer.build_workspace(B, P, eta).Q


def assert_pair_distribution(M):
    """The invariants every P/Q output must satisfy."""
    assert (np.diag(M) == 0).all()
    assert (M >= 0).all()
    assert abs(M.sum() - 1.0) < 1e-9


class TestBuildSimilarity:
    def test_two_classes(self):
        S = dist.build_similarity(np.array([0, 0, 1]))
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
        assert S.dtype == np.bool_
        np.testing.assert_array_equal(S, expected)

    def test_all_equal_and_all_distinct(self):
        assert dist.build_similarity(np.array([7, 7, 7])).all()
        S = dist.build_similarity(np.array([0, 1, 2]))
        assert S.sum() == 3  # diagonal only

    def test_too_few_instances(self):
        with pytest.raises(DomainError):
            dist.build_similarity(np.array([1]))


class TestPRaw:
    def test_hand_case(self):
        # labels [a,a,b]: two similar ordered pairs share all the mass
        P = dist.p_raw(dist.build_similarity(np.array([0, 0, 1])))
        assert P[0, 1] == P[1, 0] == 0.5
        assert P[0, 2] == P[2, 0] == P[1, 2] == P[2, 1] == 0.0
        assert_pair_distribution(P)

    def test_degenerate_when_all_distinct(self):
        S = dist.build_similarity(np.array([0, 1, 2]))
        with pytest.raises(DegenerateDistributionError):
            dist.p_raw(S)


class TestPGaussian:
    def test_hand_case(self):
        # frozen from direct pdf evaluation: f(1)=0.398942, f(0)=0.241971,
        # off-diagonal sum 1.765767
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 0, 1])))
        assert P[0, 1] == pytest.approx(0.2259313809, abs=1e-9)
        assert P[0, 2] == pytest.approx(0.1370343095, abs=1e-9)
        assert_pair_distribution(P)

    def test_similar_dissimilar_ratio(self):
        # normalization cancels: ratio of pdfs is exp((2 mu - 1)/(2 sigma^2))
        for mu, sigma in [(1.0, 1.0), (1.0, 0.35), (0.5, 2.0)]:
            P = dist.p_gaussian(
                dist.build_similarity(np.array([0, 0, 1])), GaussianParams(mu, sigma)
            )
            expected = math.exp((2 * mu - 1) / (2 * sigma**2))
            assert P[0, 1] / P[0, 2] == pytest.approx(expected, rel=1e-12)

    def test_all_distinct_gives_uniform(self):
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 1, 2, 3])))
        off = P[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1.0 / 12, rtol=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            labels = rng.integers(0, 4, size=rng.integers(2, 9))
            P = dist.p_gaussian(dist.build_similarity(labels))
            off = P[~np.eye(len(labels), dtype=bool)]
            assert (off > 0).all()

    @pytest.mark.parametrize("labels, mu", [
        ([0, 0, 1], 0.5),     # both pdf values underflow, their ratio is 1
        ([0, 1, 2, 3], 1.0),  # only dissimilar pairs, the lighter kind
        ([2, 2, 2], 0.0),     # only similar pairs, the lighter kind
    ])
    def test_tiny_sigma_uniform_cases(self, labels, mu):
        # at |0.5 - mu| = 0.5 the least sigma GaussianParams admits is 0.02657
        n, sigma = len(labels), 0.01 if mu == 0.5 else 0.0266
        P = dist.p_gaussian(dist.build_similarity(np.array(labels)),
                            GaussianParams(mu, sigma))
        off = P[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, 1.0 / (n * (n - 1)), rtol=1e-15)

    def test_tiny_sigma_keeps_dissimilar_mass(self):
        P = dist.p_gaussian(dist.build_similarity(np.array([0, 0, 1])),
                            GaussianParams(1.0, 0.03))
        assert P[0, 2] > 0
        assert math.log(P[0, 1]) - math.log(P[0, 2]) == pytest.approx(1 / (2 * 0.03**2),
                                                                      rel=1e-12)

    @pytest.mark.filterwarnings("error")  # numpy numbers: no overflow warning
    @pytest.mark.parametrize("mu, sigma, ratio", [
        (1.0, 0.02, "1250"), (0.0, 0.0265, "711.997"), (-2.0, 0.05, "1000"), (2.0, 1e-200, "inf"),
    ])
    def test_collapsed_target_refused(self, mu, sigma, ratio):
        # past MAX_LOG_RATIO the lighter weight is subnormal or 0, and at 0 P
        # is p_raw's while the settings still say gaussian
        for number in (float, np.float64):
            with pytest.raises(DomainError, match="^" + re.escape(
                    f"mu={mu} and sigma={sigma} collapse the Gaussian target: "
                    f"|0.5 - mu| / sigma^2 = {ratio} is above 708.396") + "$"):
                GaussianParams(number(mu), number(sigma))

    def test_least_admitted_sigma_keeps_dissimilar_mass(self):
        # -ln of the smallest normal double is the least ratio refused
        assert dist.MAX_LOG_RATIO == -math.log(sys.float_info.min)
        sigma = math.sqrt(0.5 / dist.MAX_LOG_RATIO) * (1 + 1e-12)
        S = dist.build_similarity(np.array([0, 0, 1]))
        P = dist.p_gaussian(S, GaussianParams(1.0, sigma))
        assert P[0, 1] / P[0, 2] == pytest.approx(math.exp(0.5 / sigma**2), rel=1e-9)
        assert P[0, 2] / P[0, 1] >= sys.float_info.min
        with pytest.raises(DomainError, match="collapse the Gaussian target"):
            GaussianParams(1.0, sigma * (1 - 1e-9))

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan, np.inf])
    def test_non_binary_similarity_rejected(self, value):
        # only a boolean mask holds similarities; a float matrix is refused
        # whatever it holds, by the eta builder as well as by P's (read as a
        # mask, 0.5 and nan would get the similar divisor)
        S = dist.build_similarity(np.array([0, 0, 1])).astype(np.float64)
        S[0, 2] = S[2, 0] = value
        for build in (dist.p_gaussian, dist.p_raw,
                      lambda S: dist.scaling_matrix(S, 2.0, 1.0)):
            with pytest.raises(DomainError, match="boolean similarity mask, got dtype float64"):
                build(S)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_non_boolean_mask_rejected(self, dtype):
        # a 0/1 matrix of another dtype is not a mask, even with binary values
        S = dist.build_similarity(np.array([0, 0, 1])).astype(dtype)
        for build in (dist.p_gaussian, dist.p_raw,
                      lambda S: dist.scaling_matrix(S, 2.0, 1.0)):
            with pytest.raises(DomainError, match=f"boolean similarity mask, got dtype {S.dtype}"):
                build(S)

    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            GaussianParams(sigma=0.0)

    @pytest.mark.parametrize("mu, sigma", [(1.0, np.nan), (1.0, np.inf), (np.nan, 1.0),
                                           (np.inf, 1.0)])
    def test_nan_and_infinite_params_rejected(self, mu, sigma):
        with pytest.raises(DomainError):
            GaussianParams(mu, sigma)

    @pytest.mark.parametrize("kwargs", [{"mu": None}, {"sigma": None}, {"sigma": "a"}])
    def test_non_numbers_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GaussianParams(**kwargs)


class TestHammingSq:
    def test_identical_is_zero(self):
        b = np.array([1.0, -1.0, 1.0])
        assert (dist.pairwise_hamming_sq(np.stack([b, b], axis=1)) == 0.0).all()

    def test_hand_case(self):
        D = dist.pairwise_hamming_sq(np.array([[1.0, -1.0], [1.0, -1.0]]))
        assert D[0, 1] == D[1, 0] == 2.0

    def test_equals_bit_distance_on_sign_codes(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = rng.integers(1, 17)
            B = rng.choice([-1.0, 1.0], size=(k, 2))
            assert dist.pairwise_hamming_sq(B)[0, 1] == (B[:, 0] != B[:, 1]).sum()

    def test_range_on_relaxed_codes(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = rng.integers(1, 12)
            D = dist.pairwise_hamming_sq(rng.uniform(-1, 1, size=(k, 2)))
            assert (0.0 <= D).all() and (D <= k).all()

    @pytest.mark.parametrize("n", [50, 100])
    def test_duplicate_relaxed_columns_never_negative(self, n):
        # a duplicated column's distance is 0 in exact arithmetic, but the
        # rounded sq_i + sq_j - 2 gram_ij falls just below it in about half
        # of these draws without the clamp, which keeps every distance in
        # range
        rng = np.random.default_rng(9)
        for _ in range(20):
            B = np.tanh(rng.standard_normal((64, n // 2)))[:, rng.integers(0, n // 2, size=n)]
            assert (dist.pairwise_hamming_sq(B) >= 0.0).all()

    @pytest.mark.parametrize("n", [2, 50, 400])
    @pytest.mark.parametrize("k", [1, 16, 64, 256])
    def test_diagonal_exactly_zero_on_relaxed_codes(self, n, k):
        # entry (i, i) is 0.25 * ((g + g) - 2 g) with g = gram_ii, and g + g
        # and 2 g are the same exact double, so the diagonal needs no fill;
        # the draws hold duplicated columns, as a batch of repeated instances does
        rng = np.random.default_rng(n * 1000 + k)
        for _ in range(5):
            B = np.tanh(rng.standard_normal((k, n)))[:, rng.integers(0, n, size=n)]
            D = dist.pairwise_hamming_sq(B)
            assert np.array_equal(D.diagonal(), np.zeros(n))
            assert not np.signbit(D.diagonal()).any()

    def test_length_mismatch(self):
        # the per-pair oracle the pairwise form is checked against
        with pytest.raises(DimensionError):
            hamming_sq(np.ones(3), np.ones(4))

    def test_pairwise_matches_pair_op(self):
        rng = np.random.default_rng(3)
        B = rng.uniform(-1, 1, size=(5, 7))
        D = dist.pairwise_hamming_sq(B)
        for i in range(7):
            for j in range(7):
                assert D[i, j] == pytest.approx(hamming_sq(B[:, i], B[:, j]), abs=1e-12)


class TestQPlain:
    def test_hand_case(self):
        # distances 1, 2, 1 -> kernels 1/2, 1/3, 1/2; off-diagonal sum 8/3
        B = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
        Q = code_q(B, [0, 0, 1])
        assert Q[0, 1] == pytest.approx(0.1875, abs=1e-12)
        assert Q[1, 2] == pytest.approx(0.1875, abs=1e-12)
        assert Q[0, 2] == pytest.approx(0.125, abs=1e-12)
        assert_pair_distribution(Q)

    def test_identical_columns_uniform(self):
        B = np.ones((4, 5))
        Q = code_q(B, np.arange(5))
        off = Q[~np.eye(5, dtype=bool)]
        np.testing.assert_allclose(off, 1.0 / 20, rtol=1e-12)


class TestQScaled:
    def test_hand_case(self):
        # identical similar codes, dissimilar at distance 2; p=2, n=1
        B = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0]])
        Q = code_q(B, [0, 0, 1], (2.0, 1.0))
        assert Q[0, 1] == pytest.approx(0.3, abs=1e-12)
        assert Q[0, 2] == pytest.approx(0.1, abs=1e-12)
        assert Q[1, 2] == pytest.approx(0.1, abs=1e-12)
        assert_pair_distribution(Q)

    def test_unit_scaling_reduces_to_plain(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 9)
            B = rng.uniform(-1, 1, size=(6, n))
            labels = rng.integers(0, 3, size=n)
            Q1 = code_q(B, labels, (1.0, 1.0))
            Q2 = code_q(B, labels)
            assert np.abs(Q1 - Q2).max() < 1e-12

    def test_larger_p_raises_similar_kernels(self):
        rng = np.random.default_rng(5)
        B = rng.uniform(-1, 1, size=(6, 8))
        S = dist.build_similarity(rng.integers(0, 2, size=8))
        D = dist.pairwise_hamming_sq(B)
        for p_small, p_big in [(1.0, 2.0), (2.0, 8.0)]:
            k_small = 1.0 / (1.0 + D / dist.scaling_matrix(S, p_small, 1.0))
            k_big = 1.0 / (1.0 + D / dist.scaling_matrix(S, p_big, 1.0))
            sim = S & ~np.eye(8, dtype=bool)
            assert (k_big[sim] >= k_small[sim]).all()

    def test_zero_distances_uniform_regardless_of_scaling(self):
        B = np.ones((3, 6))
        Q = code_q(B, [0, 0, 0, 1, 1, 2], (9.0, 0.25))
        off = Q[~np.eye(6, dtype=bool)]
        np.testing.assert_allclose(off, 1.0 / 30, rtol=1e-12)

    def test_shape_mismatch(self):
        # codes of 3 instances against the similarity of 4 labels
        batch = StreamingBatch(features=np.ones((2, 3)), labels=np.arange(4), stage_index=1)
        with pytest.raises(DimensionError):
            trainer.train_stage(hm.init(2, 2, seed=0), batch,
                                TrainConfig(scale_p=1.0, scale_n=1.0))

    def test_bad_params(self):
        with pytest.raises(DomainError, match="^scale_p must be above 0, got 0.0$"):
            TrainConfig(scale_p=0.0, scale_n=1.0)
        with pytest.raises(DomainError, match="^scale_n must be above 0, got 0.0$"):
            TrainConfig(scale_p=None, scale_n=0.0)

    @pytest.mark.parametrize("p, n", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                      (1.0, np.inf)])
    def test_nan_and_infinite_params_rejected(self, p, n):
        with pytest.raises(DomainError):
            TrainConfig(scale_p=p, scale_n=n)

    @pytest.mark.parametrize("kwargs", [{"scale_n": None}, {"scale_p": "a"}])
    def test_non_numbers_rejected(self, kwargs):
        with pytest.raises(DomainError):
            TrainConfig(**kwargs)

    def test_null_scale_p_is_half_the_bits(self):
        # only scale_p has a width-dependent default, which build_target
        # resolves against the code width k; scale_n stays as set
        eta = trainer.build_target(np.array([0, 0, 1]), TrainConfig(scale_n=3.0), 12)[1]
        np.testing.assert_array_equal(eta, [[6.0, 6.0, 3.0], [6.0, 6.0, 3.0], [3.0, 3.0, 6.0]])
        assert (TrainConfig().scale_p, TrainConfig().scale_n) == (None, 1.0)


class TestDistributionInvariants:
    """Normalization, symmetry and permutation equivariance on random inputs."""

    def test_invariants_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            labels = rng.integers(0, 3, size=n)
            S = dist.build_similarity(labels)
            B = rng.uniform(-1, 1, size=(4, n))
            mats = [dist.p_gaussian(S), code_q(B, labels),
                    code_q(B, labels, (3.0, 1.0))]
            if S.sum() > n:  # a similar off-diagonal pair exists
                mats.append(dist.p_raw(S))
            for M in mats:
                assert_pair_distribution(M)
                np.testing.assert_allclose(M, M.T, atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=7)
        B = rng.uniform(-1, 1, size=(5, 7))
        S = dist.build_similarity(labels)
        perm = rng.permutation(7)
        P = dist.p_gaussian(S)
        Q = code_q(B, labels, (2.0, 1.0))
        P2 = dist.p_gaussian(dist.build_similarity(labels[perm]))
        Q2 = code_q(B[:, perm], labels[perm], (2.0, 1.0))
        np.testing.assert_allclose(P2, P[np.ix_(perm, perm)], atol=1e-15)
        np.testing.assert_allclose(Q2, Q[np.ix_(perm, perm)], atol=1e-15)

    def test_imbalance_contrast(self):
        # the smoothed target keeps dissimilar mass alive; the raw one zeroes it
        labels = np.array([0, 0, 1, 2, 3, 4])
        S = dist.build_similarity(labels)
        Praw = dist.p_raw(S)
        Pg = dist.p_gaussian(S)
        off = ~np.eye(6, dtype=bool)
        dissim = off & ~S
        assert (Praw[dissim] == 0).all()
        assert (Pg[off] > 0).all()
