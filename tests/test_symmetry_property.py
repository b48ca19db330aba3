"""Metamorphic tests: exact symmetries of the method, which need no second
implementation to check against.

Bit for bit: evaluation scores under a permutation of W's columns with a
sign flip of some of them, and under an injective relabeling of the
labels; a training stage commutes with a sign flip of W's columns. To
rounding (relative 1e-12): a stage under a permutation of the bits, and
under a permutation of the instances within its batch, whose Gram sums
then run in another order.

The data are continuous, so no projection is exactly 0: encode_binary maps
a zero projection to -1, and a flipped column would map it to -1 as well,
not to +1, so a zero breaks the sign-flip symmetry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamhash import data, experiment, trainer
from streamhash import model as hm
from streamhash.data import StreamingBatch
from streamhash.distribution import DOMAINS
from streamhash.model import HashModel
from streamhash.trainer import TrainConfig

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
# label values that int64 holds at its edges, negative and large
EDGE_LABELS = [-(2**63), -(10**15), -1, 0, 10**15, 2**63 - 1]


def permuted_signed(model, order, signs):
    """The model whose bit j is bit order[j] of model, times signs[j]."""
    return HashModel(W=model.W[:, order] * signs)


@st.composite
def bit_transforms(draw, k):
    """(order, signs): a permutation of k bits and a +/-1 sign per bit."""
    order = np.array(draw(st.permutations(range(k))))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k)))
    return order, signs


@st.composite
def retrieval_cases(draw):
    """(model, retrieval, test, cutoff, r_max) over a continuous blob set."""
    classes, dim = draw(st.integers(2, 4)), draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**16))
    X, y = data.synth_blobs(classes, dim, 12, draw(st.floats(0.3, 3.0)), seed)
    _, retrieval, test = data.split(X, y, data.SplitSpec(4, 2, seed))
    model = hm.init(dim, draw(st.integers(1, 70)), seed=seed)
    # r_max at most the database size, 8 per class
    return model, retrieval, test, draw(st.integers(1, 40)), draw(st.integers(1, 16))


@SETTINGS
@given(case=retrieval_cases(), data_=st.data())
def test_scores_unchanged_by_permuting_and_flipping_bits(case, data_):
    # Hamming distances are the same for every pair when every code has
    # its bits permuted and flipped alike
    model, retrieval, test, cutoff, r_max = case
    order, signs = data_.draw(bit_transforms(model.k))
    base = experiment.evaluate_model(model, retrieval, test, cutoff, r_max)
    moved = experiment.evaluate_model(permuted_signed(model, order, signs), retrieval, test,
                                      cutoff, r_max)
    assert moved == base


@SETTINGS
@given(case=retrieval_cases(), data_=st.data())
def test_scores_unchanged_by_relabeling(case, data_):
    # relevance is label equality, which an injective map keeps
    model, retrieval, test, cutoff, r_max = case
    old = np.unique(retrieval.labels)
    values = st.sampled_from(EDGE_LABELS) | st.integers(-(2**63), 2**63 - 1)
    new = np.array(data_.draw(st.lists(values, min_size=old.size, max_size=old.size,
                                       unique=True)), dtype=np.int64)

    def relabeled(part):
        return data.Part(part.source, part.idx, new[np.searchsorted(old, part.labels)])

    base = experiment.evaluate_model(model, retrieval, test, cutoff, r_max)
    moved = experiment.evaluate_model(model, relabeled(retrieval), relabeled(test), cutoff, r_max)
    assert moved == base


CONFIGS = st.builds(TrainConfig, **{name: st.sampled_from(DOMAINS[name]["one of"])
                                     for name in ("grad_mode", "p_variant", "q_variant")},
                    inner_iters=st.integers(1, 4),
                    scale_p=st.none() | st.floats(0.5, 8.0), scale_n=st.floats(0.5, 8.0))


@st.composite
def stages(draw):
    """(model, batch, cfg): a continuous batch whose first two labels match,
    so the raw target has mass."""
    d, k, n = draw(st.integers(1, 10)), draw(st.integers(1, 12)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    labels = rng.integers(0, 3, size=n)
    labels[1] = labels[0]
    batch = StreamingBatch(rng.standard_normal((d, n)), labels, draw(st.integers(1, 99)))
    model = hm.init(d, k, scale=draw(st.floats(0.1, 3.0)), seed=int(rng.integers(2**16)))
    return model, batch, draw(CONFIGS)


def close(a, b, rel=1e-12):
    """a equals b to relative rel of b's largest magnitude."""
    return np.abs(np.asarray(a) - b).max() <= rel * np.abs(b).max()


@SETTINGS
@given(stage=stages(), data_=st.data())
def test_stage_commutes_with_a_sign_flip(stage, data_):
    # the distances, P, Q and the loss are even in each bit's sign; the
    # gradient's row for a bit is odd in it
    model, batch, cfg = stage
    signs = data_.draw(bit_transforms(model.k))[1]
    new, report = trainer.train_stage(model, batch, cfg)
    flipped, flipped_report = trainer.train_stage(HashModel(W=model.W * signs), batch, cfg)
    assert flipped.W.tobytes() == (new.W * signs).tobytes()
    assert flipped_report == report


@SETTINGS
@given(stage=stages(), data_=st.data())
def test_stage_commutes_with_a_bit_permutation(stage, data_):
    model, batch, cfg = stage
    order = data_.draw(bit_transforms(model.k))[0]
    new, report = trainer.train_stage(model, batch, cfg)
    moved, moved_report = trainer.train_stage(HashModel(W=model.W[:, order]), batch, cfg)
    assert close(moved.W, new.W[:, order])
    assert close(moved_report.loss_before, report.loss_before)
    assert close(moved_report.loss_after, report.loss_after)
    assert close(moved_report.grad_norm, report.grad_norm)


@SETTINGS
@given(stage=stages(), data_=st.data())
def test_stage_ignores_the_order_of_its_instances(stage, data_):
    model, batch, cfg = stage
    order = np.array(data_.draw(st.permutations(range(batch.size))))
    new, report = trainer.train_stage(model, batch, cfg)
    shuffled = StreamingBatch(batch.features[:, order], batch.labels[order], batch.stage_index)
    moved, moved_report = trainer.train_stage(model, shuffled, cfg)
    assert close(moved.W, new.W)
    assert close(moved_report.loss_before, report.loss_before)
    assert close(moved_report.loss_after, report.loss_after)
    assert close(moved_report.grad_norm, report.grad_norm)
