"""Property tests for the pair distributions: every P and Q has an exactly
zero diagonal and unit mass, and scaled Q with unit scales is plain Q."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamhash import distribution as dist
from streamhash.distribution import GaussianParams, ScalingParams

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


@SETTINGS
@given(batch=batches(), mu=st.floats(0.0, 1.0), sigma=st.floats(1e-3, 5.0),
       p=SCALE, n=SCALE)
def test_zero_diagonal_and_unit_mass(batch, mu, sigma, p, n):
    B, labels = batch
    S = dist.build_similarity(labels)
    for M in (dist.p_raw(S), dist.p_gaussian(S, GaussianParams(mu, sigma)),
              dist.q_plain(B), dist.q_scaled(B, S, ScalingParams(p, n))):
        check_distribution(M)


@SETTINGS
@given(batch=batches())
def test_unit_scales_give_plain_q(batch):
    B, labels = batch
    S = dist.build_similarity(labels)
    assert np.array_equal(dist.q_scaled(B, S, ScalingParams(1.0, 1.0)), dist.q_plain(B))
