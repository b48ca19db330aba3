"""Retrieval metrics against independent brute-force calculators.

The brute-force oracles below re-derive each metric from first principles
with plain loops; the production implementations must match them exactly
(rank arithmetic is integer, so no tolerance).
"""

import sys
import threading

import numpy as np
import pytest

from streamhash import data, index, metrics
from streamhash.errors import DimensionError, DomainError
from streamhash.index import RetrievalResult
from streamhash.metrics import CurvePoint


# --- independent oracles -----------------------------------------------------

def bf_average_precision(ranked_rel, total_relevant):
    # per-rank precision terms land in a full-length vector (zeros at
    # non-hit ranks) so the final float sum is associativity-identical to
    # any other full-length summation of the same exact terms
    terms = np.zeros(len(ranked_rel))
    hits = 0
    for r, rel in enumerate(ranked_rel, start=1):
        if rel:
            hits += 1
            terms[r - 1] = hits / r
    return float(terms.sum() / total_relevant) if total_relevant else 0.0


def bf_rank(query_bits, db_bits):
    dists = [(int(np.sum(query_bits != db_bits[:, i])), i) for i in range(db_bits.shape[1])]
    return [i for _, i in sorted(dists)]


def bf_metrics(query_bits, q_label, db_bits, db_labels, cutoff, r_max):
    order = bf_rank(query_bits, db_bits)
    rel = [db_labels[i] == q_label for i in order]
    ap = bf_average_precision(rel, sum(db_labels == q_label))
    ap_c = bf_average_precision(rel[:cutoff], sum(rel[:cutoff]))
    ball = [db_labels[i] == q_label
            for i in range(db_bits.shape[1])
            if np.sum(query_bits != db_bits[:, i]) <= 2]
    ph2 = sum(ball) / len(ball) if ball else 0.0
    p_at_r = [sum(rel[:r]) / r for r in range(1, r_max + 1)]
    return ap, ap_c, ph2, p_at_r


def make_instance(seed, n_db=20, n_q=5, k=8):
    rng = np.random.default_rng(seed)
    db_B = rng.choice([-1.0, 1.0], size=(k, n_db))
    q_B = rng.choice([-1.0, 1.0], size=(k, n_q))
    db_labels = rng.integers(0, 3, size=n_db)
    q_labels = rng.integers(0, 3, size=n_q)
    db = index.pack(db_B, db_labels)
    queries = index.pack(q_B, q_labels)
    return db_B, q_B, db_labels, q_labels, db, queries


# --- average precision -------------------------------------------------------

class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        result = RetrievalResult(ranked_ids=np.arange(3), distances=np.array([0, 1, 2]))
        rel = np.array([True, False, False])
        assert metrics.average_precision(result, rel) == 1.0

    def test_hand_case_one_zero_one(self):
        result = RetrievalResult(ranked_ids=np.arange(3), distances=np.array([0, 1, 2]))
        rel = np.array([True, False, True])
        assert metrics.average_precision(result, rel) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_no_relevant_items(self):
        result = RetrievalResult(ranked_ids=np.arange(4), distances=np.arange(4))
        assert metrics.average_precision(result, np.zeros(4, dtype=bool)) == 0.0

    def test_all_relevant_first_is_maximal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            n_rel = int(rng.integers(1, n + 1))
            rel = np.zeros(n, dtype=bool)
            best_ids = np.arange(n)
            rel[:n_rel] = True  # relevant items occupy the top ranks
            result = RetrievalResult(ranked_ids=best_ids, distances=np.arange(n))
            assert metrics.average_precision(result, rel) == 1.0

    def test_cutoff_denominator_uses_relevant_within_cutoff(self):
        result = RetrievalResult(ranked_ids=np.arange(4), distances=np.arange(4))
        rel = np.array([True, False, False, True])
        # top-2 holds one relevant item at rank 1
        assert metrics.average_precision(result, rel, cutoff=2) == 1.0

    def test_length_mismatch(self):
        result = RetrievalResult(ranked_ids=np.arange(3), distances=np.arange(3))
        with pytest.raises(DimensionError):
            metrics.average_precision(result, np.zeros(5, dtype=bool))


class TestMeanAp:
    def test_single_query_equals_its_ap(self):
        db_B, q_B, db_labels, q_labels, db, _ = make_instance(1, n_q=1)
        queries = index.pack(q_B[:, :1], q_labels[:1])
        result = index.search(queries.words[0], db)
        rel = db_labels == q_labels[0]
        assert metrics.mean_ap(queries, db) == metrics.average_precision(result, rel)

    def test_full_cutoff_equals_plain(self):
        _, _, _, _, db, queries = make_instance(2)
        assert metrics.mean_ap(queries, db, cutoff=db.n) == metrics.mean_ap(queries, db)

    def test_matches_brute_force(self):
        for seed in range(5):
            db_B, q_B, db_labels, q_labels, db, queries = make_instance(seed)
            expected = np.mean([
                bf_metrics(q_B[:, i], q_labels[i], db_B, db_labels, 7, 10)[0]
                for i in range(q_B.shape[1])
            ])
            assert metrics.mean_ap(queries, db) == expected
            expected_c = np.mean([
                bf_metrics(q_B[:, i], q_labels[i], db_B, db_labels, 7, 10)[1]
                for i in range(q_B.shape[1])
            ])
            assert metrics.mean_ap(queries, db, cutoff=7) == expected_c

    def test_empty_query_set(self):
        _, _, _, _, db, _ = make_instance(3)
        empty = index.pack(np.ones((8, 1)), np.array([0]))
        empty.n = 0
        with pytest.raises(DomainError):
            metrics.mean_ap(empty, db)


class TestPrecisionH2:
    def test_hand_case(self):
        # three items at distance 0 (two sharing the label), one at distance 3
        k = 3
        q = index.pack(np.ones((k, 1)), np.array([0]))
        db_B = np.ones((k, 4))
        db_B[:, 3] = -1.0
        db = index.pack(db_B, np.array([0, 0, 1, 0]))
        assert metrics.precision_h2(q, db) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_all_identical(self):
        q = index.pack(np.ones((5, 1)), np.array([2]))
        db = index.pack(np.ones((5, 6)), np.full(6, 2))
        assert metrics.precision_h2(q, db) == 1.0

    def test_empty_ball_contributes_zero(self):
        q = index.pack(np.ones((8, 1)), np.array([0]))
        db = index.pack(-np.ones((8, 3)), np.zeros(3, dtype=int))
        assert metrics.precision_h2(q, db) == 0.0

    def test_matches_brute_force(self):
        for seed in range(5):
            db_B, q_B, db_labels, q_labels, db, queries = make_instance(seed, k=4)
            expected = np.mean([
                bf_metrics(q_B[:, i], q_labels[i], db_B, db_labels, 7, 10)[2]
                for i in range(q_B.shape[1])
            ])
            assert metrics.precision_h2(queries, db) == expected


class TestPrecisionAtR:
    def test_trivial_top2(self):
        q = index.pack(np.ones((4, 1)), np.array([0]))
        db_B = np.ones((4, 2))
        db_B[0, 1] = -1.0  # second item at distance 1
        db = index.pack(db_B, np.array([0, 1]))
        series = metrics.precision_at_r(q, db, 2)
        assert series[0] == 1.0
        assert series[1] == 0.5

    def test_nearest_relevant_everywhere_gives_one_at_r1(self):
        _, _, _, _, db, _ = make_instance(4)
        queries = index.pack(index.unpack(db)[:, :3], db.labels[:3])
        assert metrics.precision_at_r(queries, db, 1)[0] == 1.0

    def test_matches_brute_force(self):
        for seed in range(5):
            db_B, q_B, db_labels, q_labels, db, queries = make_instance(seed)
            expected = np.mean([
                bf_metrics(q_B[:, i], q_labels[i], db_B, db_labels, 7, 10)[3]
                for i in range(q_B.shape[1])
            ], axis=0)
            np.testing.assert_array_equal(metrics.precision_at_r(queries, db, 10), expected)

    def test_r_max_beyond_database(self):
        _, _, _, _, db, queries = make_instance(5)
        with pytest.raises(DomainError):
            metrics.precision_at_r(queries, db, db.n + 1)


def clustered_instance(seed, k, n_db=40, n_q=7):
    """Codes drawn from a few prototypes with light noise: many exact distance
    ties, and for k > 2 queries whose radius-2 ball holds nothing."""
    rng = np.random.default_rng(seed)
    protos = rng.choice([-1.0, 1.0], size=(k, 3))

    def draw(n):
        B = protos[:, rng.integers(0, 3, size=n)]
        flips = rng.random((k, n)) < min(0.5, 2.0 / k)
        return np.where(flips, -B, B), rng.integers(0, 3, size=n)

    (db_B, db_labels), (q_B, q_labels) = draw(n_db), draw(n_q)
    q_B[:, -1] = -protos[:, 0]  # far from every prototype once k > 4
    return db_B, q_B, db_labels, q_labels, index.pack(db_B, db_labels), index.pack(q_B, q_labels)


class TestBlockedPass:
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 130, 300])
    def test_matches_per_query_brute_force(self, monkeypatch, rows, k):
        db_B, q_B, db_labels, q_labels, db, queries = clustered_instance(k, k)
        # blocks of `rows` queries; 7 queries never fill the last block
        monkeypatch.setattr(metrics, "BLOCK_BYTES", rows * 8 * db.n)
        for cutoff, r_max in [(7, 10), (db.n + 5, db.n)]:
            expect = [bf_metrics(q_B[:, i], q_labels[i], db_B, db_labels, cutoff, r_max)
                      for i in range(queries.n)]
            got = metrics.retrieval_scores(queries, db, cutoff=cutoff, r_max=r_max)
            assert got["map"] == np.mean([e[0] for e in expect])
            assert got["map_at_k"] == np.mean([e[1] for e in expect])
            assert got["precision_h2"] == np.mean([e[2] for e in expect])
            np.testing.assert_array_equal(got["precision_at_r"],
                                          np.mean([e[3] for e in expect], axis=0))
            assert metrics.mean_ap(queries, db) == got["map"]
            assert metrics.mean_ap(queries, db, cutoff=cutoff) == got["map_at_k"]
            assert metrics.precision_h2(queries, db) == got["precision_h2"]
            np.testing.assert_array_equal(metrics.precision_at_r(queries, db, r_max),
                                          got["precision_at_r"])

    def test_instances_have_ties_and_empty_balls(self):
        db_B, q_B, _, _, db, queries = clustered_instance(0, 65)
        dists = index.hamming_to_db(queries.words, db)
        assert any(np.unique(row).size < db.n // 2 for row in dists)
        assert (np.count_nonzero(dists <= 2, axis=1) == 0).any()

    def test_block_size_does_not_change_results(self, monkeypatch):
        _, _, _, _, db, queries = make_instance(9, n_db=30, n_q=11)
        monkeypatch.setattr(data, "_usable_cores", lambda: 1)
        whole = metrics.retrieval_scores(queries, db, cutoff=5, r_max=30)
        real = metrics.hamming_to_db
        threads = []

        def recording(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(metrics, "hamming_to_db", recording)
        for cores in (1, 2, 3):
            monkeypatch.setattr(data, "_usable_cores", lambda: cores)
            for rows in (1, 4, 11):
                # the budget is split across the cores: blocks of `rows` queries
                monkeypatch.setattr(metrics, "BLOCK_BYTES", rows * cores * 8 * db.n)
                threads.clear()
                blocked = metrics.retrieval_scores(queries, db, cutoff=5, r_max=30)
                assert len(threads) == -(-queries.n // rows)
                pooled = cores > 1 and rows < queries.n
                assert (threading.get_ident() not in threads) == pooled
                assert blocked.keys() == whole.keys()
                for key in whole:
                    np.testing.assert_array_equal(blocked[key], whole[key])


class TestPool:
    @pytest.fixture
    def many_blocks(self, monkeypatch):
        """Two workers over one-query blocks, whatever the host has."""
        _, _, _, _, db, queries = make_instance(2, n_db=30, n_q=9)
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        monkeypatch.setattr(metrics, "BLOCK_BYTES", 2 * 8 * db.n)
        return queries, db

    def test_no_thread_outlives_the_call(self, many_blocks):
        before = threading.active_count()
        metrics.retrieval_scores(*many_blocks, cutoff=5, r_max=10)
        assert threading.active_count() == before

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # eight threads writing one-query blocks into the shared per-query
        # arrays, switched as often as the interpreter allows
        _, _, _, _, db, queries = make_instance(6, n_db=200, n_q=64)
        monkeypatch.setattr(data, "_usable_cores", lambda: 1)
        inline = metrics.retrieval_scores(queries, db, cutoff=20, r_max=50)
        monkeypatch.setattr(data, "_usable_cores", lambda: 8)
        monkeypatch.setattr(metrics, "BLOCK_BYTES", 8 * 8 * db.n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                pooled = metrics.retrieval_scores(queries, db, cutoff=20, r_max=50)
                for key in inline:
                    np.testing.assert_array_equal(pooled[key], inline[key])
        finally:
            sys.setswitchinterval(interval)

    def test_block_error_keeps_its_type_and_joins_the_pool(self, many_blocks, monkeypatch):
        class BlockFailed(Exception):
            pass

        real = metrics.hamming_to_db
        calls = []

        def fail_second(words, db):
            calls.append(words)
            if len(calls) == 2:
                raise BlockFailed("second block")
            return real(words, db)

        monkeypatch.setattr(metrics, "hamming_to_db", fail_second)
        before = threading.active_count()
        with pytest.raises(BlockFailed, match="second block"):
            metrics.retrieval_scores(*many_blocks, cutoff=5, r_max=10)
        assert threading.active_count() == before


class TestValidationBeforeRanking:
    @pytest.fixture
    def no_scans(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "hamming_to_db", lambda *a: calls.append(a))
        return calls

    def test_r_max_beyond_database_scans_nothing(self, no_scans):
        from streamhash import experiment, model as hm

        rng = np.random.default_rng(0)
        retrieval = (rng.normal(size=(6, 20)), rng.integers(0, 2, size=20))
        test = (rng.normal(size=(6, 4)), rng.integers(0, 2, size=4))
        with pytest.raises(DomainError, match="r_max"):
            experiment.evaluate_model(hm.init(6, 8, seed=0), retrieval, test,
                                      cutoff=5, r_max=21)
        assert no_scans == []

    def test_bad_inputs_scan_nothing(self, no_scans):
        _, _, _, _, db, queries = make_instance(3)
        empty = index.pack(np.ones((8, 1)), np.array([0]))
        empty.n = 0
        wide = index.pack(np.ones((9, 2)), np.array([0, 1]))
        unlabeled = index.pack(np.ones((8, 2)))
        cases = [(empty, db, {}, DomainError), (wide, db, {}, DimensionError),
                 (unlabeled, db, {}, DomainError), (queries, db, {"r_max": 0}, DomainError),
                 (queries, db, {"cutoff": 0}, DomainError)]
        for q, d, kwargs, error in cases:
            with pytest.raises(error):
                metrics.retrieval_scores(q, d, **kwargs)
        assert no_scans == []


class TestCurveAuc:
    def test_constant_curve(self):
        pts = [CurvePoint(1.0, 0.4), CurvePoint(2.0, 0.4), CurvePoint(5.0, 0.4)]
        assert metrics.curve_auc(pts) == pytest.approx(0.4, abs=1e-15)

    def test_hand_case(self):
        assert metrics.curve_auc([(0.1, 0.5), (0.2, 0.7)]) == pytest.approx(0.6, abs=1e-12)

    def test_x_rescale_invariance(self):
        rng = np.random.default_rng(6)
        xs = np.cumsum(rng.uniform(0.5, 2.0, size=8))
        ys = rng.uniform(0, 1, size=8)
        a = metrics.curve_auc(list(zip(xs, ys)))
        b = metrics.curve_auc(list(zip(xs * 37.0, ys)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            metrics.curve_auc([(1.0, 0.5)])

    def test_non_increasing_x(self):
        with pytest.raises(DomainError):
            metrics.curve_auc([(1.0, 0.5), (1.0, 0.6)])


class TestMetricRanges:
    def test_all_metrics_within_unit_interval(self):
        for seed in range(10):
            _, _, _, _, db, queries = make_instance(seed, n_db=15, n_q=4)
            vals = [metrics.mean_ap(queries, db),
                    metrics.mean_ap(queries, db, cutoff=5),
                    metrics.precision_h2(queries, db)]
            vals.extend(metrics.precision_at_r(queries, db, 10).tolist())
            assert all(0.0 <= v <= 1.0 for v in vals)
