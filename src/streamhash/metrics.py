"""Retrieval evaluation: mAP, mAP@k, Precision@H2, Precision@R, curve AUC.

Relevance is exact label equality. Conventions that the literature leaves
open are pinned explicitly and recorded in every report:

* plain AP divides by the total number of relevant items in the database;
  AP@cutoff divides by the number of relevant items within the cutoff, so
  a full cutoff reproduces plain AP exactly;
* a query whose radius-2 Hamming ball is empty contributes 0 to
  Precision@H2 (not skipped);
* ranking ties are broken by ascending database index.

retrieval_scores ranks the database once per query and derives all four
ranking metrics from that one ranking; mean_ap, precision_h2 and
precision_at_r are views of it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .index import PackedCodes, hamming_to_db

CONVENTIONS = {
    "map_denominator": "relevant-in-database (plain) / relevant-within-cutoff (mAP@k)",
    "h2_empty_ball": "zero",
    "tie_break": "ascending-database-index",
}


@dataclass
class MetricReport:
    map: float
    map_at_k: float
    map_cutoff: int
    precision_h2: float
    precision_at_r: list[float]
    auc: float | None
    bits: int
    seed: int
    config_digest: str
    method: str = "trained"
    conventions: dict = field(default_factory=lambda: dict(CONVENTIONS))


# Memory budget of the ranking temporaries of one retrieval_scores call.
# Its blocks are ranked on a thread pool over the usable cores, and the
# budget is split across them: blocks of BLOCK_BYTES // (8 * db.n * cores)
# queries. Each of a block's 8-byte temporaries (the XOR of one query word
# against the database, then the int64 argsort indices) takes about
# BLOCK_BYTES / cores, so summed over the blocks in flight it stays near
# BLOCK_BYTES whatever the database size and the core count. The rest is
# one byte per entry: the distances below 256 bits, the gathered label
# codes below 256 distinct labels, the relevance flags.
# There is no setting: results are identical for any core count, and the
# pool is joined before the call returns, so no thread outlives the call.
BLOCK_BYTES = 8 << 20


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _validate(queries: PackedCodes, db: PackedCodes, cutoff: int | None,
              r_max: int | None) -> None:
    if r_max is not None and not 1 <= r_max <= db.n:
        raise DomainError(f"r_max={r_max} is outside 1..{db.n}, the database size")
    if queries.n == 0:
        raise DomainError("empty query set")
    if queries.k != db.k:
        raise DimensionError(f"query bits {queries.k} != database bits {db.k}")
    for part in (queries, db):  # labels, which relevance compares, are int64 only
        if part.labels is None or part.labels.dtype != np.int64:
            raise DomainError(f"labels must be int64, got {getattr(part.labels, 'dtype', None)}")
        if part.labels.shape != (part.n,):
            raise DimensionError(f"labels of shape {part.labels.shape} for {part.n} codes")
    if cutoff is not None and cutoff < 1:
        raise DomainError("cutoff must be at least 1")


def retrieval_scores(queries: PackedCodes, db: PackedCodes, cutoff: int | None = None,
                     r_max: int | None = None) -> dict:
    """mAP, mAP@cutoff, Precision@H2 and Precision@1..r_max, all from one
    ranking of the database per query.

    Queries are ranked a block at a time: hamming_to_db gives the block's
    distances in the smallest unsigned dtype that holds k, and one stable
    argsort per row (a radix sort on 8/16-bit keys) orders them with ties by
    ascending database index, and relevance compares the labels' dense codes
    gathered in that order. Blocks are scored on a pool of min(blocks,
    usable cores) threads, which share the packed database; numpy releases
    the GIL in the popcount, the argsort and the code gather. Each query's
    reductions run as in a query-at-a-time evaluation, and this thread adds
    the blocks' Precision@R rows in query order, so no result depends on the
    block size or the core count. The pool is joined before this returns.
    map_at_k equals map when cutoff is None; precision_at_r is empty when
    r_max is None. Every input, int64 labels included, is checked first.
    """
    _validate(queries, db, cutoff, r_max)
    stop = db.n if cutoff is None else min(cutoff, db.n)
    r_max = r_max or 0
    ranks = np.arange(1, r_max + 1)
    aps, aps_cut, ph2 = np.empty(queries.n), np.empty(queries.n), np.empty(queries.n)
    cores = _usable_cores()
    rows = max(1, BLOCK_BYTES // (8 * max(1, db.n) * cores))
    starts = range(0, queries.n, rows)
    # each label's index among both sets' distinct labels, in the smallest
    # unsigned dtype, for the blocks to gather: equal codes are equal labels
    distinct, label_codes = np.unique(np.concatenate((db.labels, queries.labels)),
                                      return_inverse=True)
    label_codes = label_codes.astype(np.min_scalar_type(distinct.size - 1))
    db_codes, query_codes = label_codes[:db.n], label_codes[db.n:]

    def score_block(start: int) -> np.ndarray:
        """Score queries start..start+rows into aps, aps_cut and ph2, and
        return their Precision@1..r_max rows."""
        block = slice(start, start + rows)
        dists = hamming_to_db(queries.words[block], db)
        in_ball = np.count_nonzero(dists <= 2, axis=1)
        ranked = db_codes[np.argsort(dists, axis=1, kind="stable")]
        ranked = ranked == query_codes[block, None]
        terms = np.zeros(db.n)
        for i, ranked_rel, ball in zip(range(start, queries.n), ranked, in_ball):
            # AP terms: the precision at each relevant rank, zero at the
            # others. An AP over the first `cut` ranks sums all `cut`
            # terms, zeros included, so numpy groups the float additions
            # the same way for both cuts.
            found = np.flatnonzero(ranked_rel)
            terms[found] = np.arange(1, found.size + 1) / (found + 1)
            for out, cut in ((aps, db.n), (aps_cut, stop)):
                total = np.searchsorted(found, cut)  # relevant items among them
                out[i] = terms[:cut].sum() / total if total else 0.0
            terms[found] = 0.0  # all zeros again for the next query
            # the radius-2 ball is the ranking's first `ball` items
            ph2[i] = np.searchsorted(found, ball) / ball if ball else 0.0
        return np.cumsum(ranked[:, :r_max], axis=1) / ranks

    p_at_r = np.zeros(r_max)
    with ThreadPoolExecutor(min(len(starts), cores)) as pool:
        for block_rows in pool.map(score_block, starts):
            for row in block_rows:
                p_at_r += row
    return {
        "map": float(np.mean(aps)),
        "map_at_k": float(np.mean(aps_cut)),
        "precision_h2": float(np.mean(ph2)),
        "precision_at_r": p_at_r / queries.n,
    }


def mean_ap(queries: PackedCodes, db: PackedCodes, cutoff: int | None = None) -> float:
    """Mean AP over all queries, optionally truncated at a rank cutoff."""
    return retrieval_scores(queries, db, cutoff=cutoff)["map_at_k"]


def precision_h2(queries: PackedCodes, db: PackedCodes) -> float:
    """Mean precision within the radius-2 Hamming ball of each query."""
    return retrieval_scores(queries, db)["precision_h2"]


def precision_at_r(queries: PackedCodes, db: PackedCodes, r_max: int) -> np.ndarray:
    """Mean precision of the top R neighbors for every R in 1..r_max."""
    return retrieval_scores(queries, db, r_max=r_max)["precision_at_r"]


def curve_auc(points) -> float:
    """Trapezoidal area under a curve of (x, y) pairs, normalized by its
    x-range; x must be strictly increasing.
    """
    xs, ys = np.array(points, dtype=float).reshape(-1, 2).T
    if xs.shape[0] < 2:
        raise DomainError("curve AUC needs at least 2 points")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("curve x values must be strictly increasing")
    return float(np.trapezoid(ys, xs) / (xs[-1] - xs[0]))
