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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import data
from .errors import DimensionError, DomainError
from .index import PackedCodes, hamming_to_db

CONVENTIONS = {
    "map_denominator": "relevant-in-database (plain) / relevant-within-cutoff (mAP@k)",
    "h2_empty_ball": "zero",
    "tie_break": "ascending-database-index",
}


@dataclass
class CurvePoint:
    """One point of the quality-vs-training-size curve."""

    x: float  # training instances seen
    y: float  # mAP at that point


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
# queries. Each of a block's largest temporaries (the XOR of one query word
# against the database, the int64 argsort indices, the gathered labels)
# takes about BLOCK_BYTES / cores, so summed over the blocks in flight it
# stays near BLOCK_BYTES whatever the database size and the core count.
# There is no setting: results are identical for any core count, and the
# pool is joined before the call returns, so a later fork pool
# (data._in_order) starts from a single-threaded process.
BLOCK_BYTES = 8 << 20


def _cut(n: int, cutoff: int | None) -> int:
    """Number of leading ranks a cutoff keeps out of n (all when None)."""
    if cutoff is None:
        return n
    if cutoff < 1:
        raise DomainError("cutoff must be at least 1")
    return min(cutoff, n)


def _ap_terms(ranked_rel: np.ndarray):
    """0-based positions of the relevant ranks of one ranking, and its AP
    terms: the precision at each relevant rank, zero at the others."""
    found = np.flatnonzero(ranked_rel)
    terms = np.zeros(ranked_rel.shape[0])
    terms[found] = np.arange(1, found.size + 1) / (found + 1)
    return found, terms


def _ap(found: np.ndarray, terms: np.ndarray, stop: int) -> float:
    """AP over the first `stop` ranks. The sum runs over all `stop` terms,
    zeros included, so numpy groups the float additions the same way for
    every caller."""
    total = np.searchsorted(found, stop)  # relevant items among them
    return float(terms[:stop].sum() / total) if total else 0.0


def average_precision(result, rel: np.ndarray, cutoff: int | None = None) -> float:
    """AP of one ranking against per-database-item relevance flags."""
    if rel.shape[0] != result.ranked_ids.shape[0]:
        raise DimensionError(
            f"relevance length {rel.shape[0]} != ranking length {result.ranked_ids.shape[0]}"
        )
    return _ap(*_ap_terms(rel[result.ranked_ids]), _cut(rel.shape[0], cutoff))


def _validate(queries: PackedCodes, db: PackedCodes, r_max: int | None) -> None:
    if r_max is not None:
        if r_max > db.n:
            raise DomainError(f"r_max={r_max} exceeds database size {db.n}")
        if r_max < 1:
            raise DomainError("r_max must be at least 1")
    if queries.n == 0:
        raise DomainError("empty query set")
    if queries.k != db.k:
        raise DimensionError(f"query bits {queries.k} != database bits {db.k}")
    if queries.labels is None or db.labels is None:
        raise DomainError("labels are required for relevance judgments")


def retrieval_scores(queries: PackedCodes, db: PackedCodes, cutoff: int | None = None,
                     r_max: int | None = None) -> dict:
    """mAP, mAP@cutoff, Precision@H2 and Precision@1..r_max, all from one
    ranking of the database per query.

    Queries are ranked a block at a time: hamming_to_db gives the block's
    distances in the smallest unsigned dtype that holds k, and one stable
    argsort per row (a radix sort on 8/16-bit keys) orders them with ties by
    ascending database index. Blocks are scored on a pool of min(blocks,
    usable cores) threads, which share the packed database; numpy releases
    the GIL in the popcount, the argsort and the label gather. Each query's
    reductions run as in a query-at-a-time evaluation, and this thread adds
    the blocks' Precision@R rows in query order, so no result depends on the
    block size or the core count. The pool is joined before this returns.
    map_at_k equals map when cutoff is None; precision_at_r is empty when
    r_max is None.
    """
    _validate(queries, db, r_max)
    stop = _cut(db.n, cutoff)
    r_max = r_max or 0
    ranks = np.arange(1, r_max + 1)
    aps, aps_cut, ph2 = np.empty(queries.n), np.empty(queries.n), np.empty(queries.n)
    cores = data._usable_cores()
    rows = max(1, BLOCK_BYTES // (8 * max(1, db.n) * cores))
    starts = range(0, queries.n, rows)

    def score_block(start: int) -> np.ndarray:
        """Score queries start..start+rows into aps, aps_cut and ph2, and
        return their Precision@1..r_max rows."""
        block = slice(start, start + rows)
        dists = hamming_to_db(queries.words[block], db)
        in_ball = np.count_nonzero(dists <= 2, axis=1)
        ranked = db.labels[np.argsort(dists, axis=1, kind="stable")]
        ranked = ranked == queries.labels[block, None]
        for i, ranked_rel, ball in zip(range(start, queries.n), ranked, in_ball):
            found, terms = _ap_terms(ranked_rel)
            aps[i] = _ap(found, terms, db.n)
            aps_cut[i] = _ap(found, terms, stop)
            # the radius-2 ball is the ranking's first `ball` items
            ph2[i] = np.searchsorted(found, ball) / ball if ball else 0.0
        return np.cumsum(ranked[:, :r_max], axis=1) / ranks

    def sum_in_order(blocks) -> np.ndarray:
        total = np.zeros(r_max)
        for block_rows in blocks:
            for row in block_rows:
                total += row
        return total

    workers = min(len(starts), cores)
    if workers < 2:
        p_at_r = sum_in_order(map(score_block, starts))
    else:
        with ThreadPoolExecutor(workers) as pool:
            p_at_r = sum_in_order(pool.map(score_block, starts))
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
    """Trapezoidal area under a curve, normalized by its x-range.

    Accepts CurvePoints or (x, y) pairs; x must be strictly increasing.
    """
    xs = np.array([p.x if isinstance(p, CurvePoint) else p[0] for p in points], dtype=float)
    ys = np.array([p.y if isinstance(p, CurvePoint) else p[1] for p in points], dtype=float)
    if xs.shape[0] < 2:
        raise DomainError("curve AUC needs at least 2 points")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("curve x values must be strictly increasing")
    return float(np.trapezoid(ys, xs) / (xs[-1] - xs[0]))
