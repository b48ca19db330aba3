"""Brute-force retrieval scores that the benchmark checks the library against.

The reference works from unpacked +/-1 codes: the Hamming distance of two
k-bit codes is (k - q.b) / 2, a query's ranking is a stable argsort of its
distances (ties by ascending database index), and AP, Precision@H2 and
Precision@R are computed per query from that ranking alone.
"""

from __future__ import annotations

import numpy as np
from streamhash import index, metrics, model as hashmodel

TOLERANCE = 1e-12


def scores(q_codes, q_labels, db_codes, db_labels, r_max: int):
    """(mAP, Precision@H2, Precision@R series) of +/-1 query codes (k, m)
    against +/-1 database codes (k, n)."""
    k = q_codes.shape[0]
    dists = np.rint((k - q_codes.T @ db_codes) / 2).astype(np.int64)
    aps, ph2 = [], []
    p_at_r = np.zeros(r_max)
    for i in range(q_codes.shape[1]):
        order = np.argsort(dists[i], kind="stable")
        rel = db_labels[order] == q_labels[i]
        hits = np.cumsum(rel)
        positions = np.flatnonzero(rel) + 1
        aps.append(float(np.sum(hits[rel] / positions) / positions.size) if positions.size else 0.0)
        ball = dists[i] <= 2
        in_ball = int(ball.sum())
        ph2.append(float(np.sum(db_labels[ball] == q_labels[i]) / in_ball) if in_ball else 0.0)
        p_at_r += hits[:r_max] / np.arange(1, r_max + 1)
    return float(np.mean(aps)), float(np.mean(ph2)), p_at_r / q_codes.shape[1]


def check_scores(model, retrieval, test, n_queries: int, rng, r_max: int) -> list[str]:
    """Score a seeded subsample of test queries with the library and with the
    reference; return a description of every disagreement."""
    (db_x, db_y), (q_x, q_y) = retrieval, test
    pick = np.sort(rng.choice(q_y.shape[0], size=min(n_queries, q_y.shape[0]), replace=False))
    db = index.pack(hashmodel.encode_binary(model, db_x), db_y)
    queries = index.pack(hashmodel.encode_binary(model, q_x[:, pick]), q_y[pick])
    problems = []
    for name, packed, x in (("database", db, db_x), ("query", queries, q_x[:, pick])):
        if not np.array_equal(index.unpack(packed), np.where(model.W.T @ x > 0.0, 1.0, -1.0)):
            problems.append(f"unpacked {name} codes differ from sgn(W^T X)")
    ref_map, ref_ph2, ref_pr = scores(index.unpack(queries), queries.labels,
                                      index.unpack(db), db.labels, r_max)
    pairs = (("mean_ap", metrics.mean_ap(queries, db), ref_map),
             ("precision_h2", metrics.precision_h2(queries, db), ref_ph2),
             ("precision_at_r", metrics.precision_at_r(queries, db, r_max), ref_pr))
    for name, got, want in pairs:
        gap = float(np.max(np.abs(np.asarray(got) - want)))
        if not gap <= TOLERANCE:
            problems.append(f"{name} differs from the brute-force reference by {gap:.3g}")
    return problems
