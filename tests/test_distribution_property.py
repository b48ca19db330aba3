"""Property tests for the pair distributions: every P and Q has an exactly
zero diagonal and unit mass, scaled Q with unit scales is plain Q, and raw
P is the similarity mask normalised by its sum, bit for bit. Q is the one
training forms: build_workspace at build_target's divisors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamhash import distribution as dist, trainer
from streamhash.distribution import GaussianParams
from streamhash.errors import DegenerateDistributionError
from streamhash.trainer import TrainConfig

from oracles import p_by_sum

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SCALE = st.floats(1e-3, 1e3)


@st.composite
def batches(draw):
    """(B, labels): relaxed or binary (k, n) codes and n labels with at
    least one similar pair, so that raw P has mass."""
    k, n = draw(st.integers(1, 16)), draw(st.integers(2, 12))
    entries = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
    B = draw(arrays(np.float64, (k, n), elements=entries))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 3)))
    labels[1] = labels[0]
    return B, labels


def check_distribution(M):
    assert (np.diag(M) == 0.0).all()
    assert (M >= 0.0).all()
    assert M.sum() == pytest.approx(1.0, rel=1e-12)


# every (mu, sigma) that GaussianParams admits
GAUSSIAN = st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 5.0)).filter(
    lambda pair: abs(0.5 - pair[0]) / pair[1] / pair[1] <= dist.MAX_LOG_RATIO)


@SETTINGS
@given(batch=batches(), gaussian=GAUSSIAN, p=SCALE, n=SCALE)
def test_zero_diagonal_and_unit_mass(batch, gaussian, p, n):
    B, labels = batch
    S = dist.build_similarity(labels)
    P = dist.p_gaussian(S, GaussianParams(*gaussian))
    Qs = [trainer.build_workspace(B, P, trainer.build_target(labels, cfg, B.shape[0])[1]).Q
          for cfg in (TrainConfig(q_variant="plain"),
                      TrainConfig(q_variant="scaled", scale_p=p, scale_n=n))]
    for M in (dist.p_raw(S), P, *Qs):
        check_distribution(M)


@SETTINGS
@given(batch=batches())
def test_unit_scales_give_plain_q(batch):
    B, labels = batch
    P = dist.p_gaussian(dist.build_similarity(labels))
    scaled, plain = (trainer.build_workspace(B, P, trainer.build_target(labels, cfg, B.shape[0])[1]).Q
                     for cfg in (TrainConfig(q_variant="scaled", scale_p=1.0, scale_n=1.0),
                                 TrainConfig(q_variant="plain")))
    assert np.array_equal(scaled, plain)


@SETTINGS
@given(S=st.integers(1, 12).flatmap(lambda n: arrays(np.bool_, (n, n))))
def test_raw_p_is_the_similarity_normalised_by_its_sum(S):
    if np.count_nonzero(S) == np.count_nonzero(S.diagonal()):
        # no similar pair off the diagonal: both have zero mass to share
        for build in (dist.p_raw, lambda S: p_by_sum(S.astype(np.float64))):
            with pytest.raises(DegenerateDistributionError):
                build(S)
    else:
        assert dist.p_raw(S).tobytes() == p_by_sum(S.astype(np.float64)).tobytes()
