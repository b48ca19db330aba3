"""Packed codes, popcount distances, the ranking, baseline."""

import tracemalloc

import numpy as np
import pytest

from streamhash import index, metrics
from streamhash.errors import DimensionError, DomainError

from oracles import hamming, hamming_sq


def random_codes(rng, k, n):
    return rng.choice([-1.0, 1.0], size=(k, n))


def ranked_ids(q_codes, db_codes):
    """The database ranking metrics.retrieval_scores scores for one query.
    With database item i labelled i, the query labelled i has item i as its
    only relevant item, so the first R whose Precision@R is nonzero is
    item i's rank."""
    n = db_codes.shape[1]
    db = index.pack(db_codes, np.arange(n))
    ranks = [np.argmax(metrics.precision_at_r(index.pack(q_codes, np.array([i])), db, n) > 0)
             for i in range(n)]
    return np.argsort(ranks)


class TestPack:
    def test_bit_pattern(self):
        # (+1, -1, +1, +1) -> bits 1011 -> word value 0b1101 = 13
        B = np.array([[1.0], [-1.0], [1.0], [1.0]])
        packed = index.pack(B)
        assert packed.words.shape == (1, 1)
        assert int(packed.words[0, 0]) == 0b1101

    @pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
    def test_words_match_shift_and_sum(self, k):
        # reference construction: each bit shifted to its place in its word
        B = random_codes(np.random.default_rng(k), k, 29)
        padded = np.zeros((29, 64 * ((k + 63) // 64)), dtype=np.uint64)
        padded[:, :k] = (B > 0).T
        shifts = np.arange(64, dtype=np.uint64)
        expect = (padded.reshape(29, -1, 64) << shifts).sum(axis=2, dtype=np.uint64)
        words = index.pack(B).words
        assert words.dtype == np.uint64 and words.shape == expect.shape
        assert (words == expect).all()

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for k in (1, 7, 64, 65, 128, 100):
            B = random_codes(rng, k, 13)
            assert (index.unpack(index.pack(B)) == B).all()

    def test_word_capacity(self):
        rng = np.random.default_rng(1)
        assert index.pack(random_codes(rng, 64, 3)).words.shape == (3, 1)
        assert index.pack(random_codes(rng, 65, 3)).words.shape == (3, 2)

    def test_unused_high_bits_zero(self):
        B = np.ones((3, 2))
        packed = index.pack(B)
        assert int(packed.words[0, 0]) == 0b111

    def test_non_sign_entry_rejected(self):
        for value in (0.5, 0.0, -0.0, 2.0, -2.0, np.nan, np.inf):
            with pytest.raises(DomainError, match=r"^codes must be exactly \+1 or -1$"):
                index.pack(np.array([[1.0, -1.0], [value, 1.0]]))

    def test_peak_is_the_bits_and_their_words(self):
        # the +-1 check holds one k x n bool mask at a time, and the set
        # bits are written straight into the packbits input, so the peak
        # is that (n, 64 * words) input and its packed bytes
        k, n = 64, 10_000
        B = random_codes(np.random.default_rng(0), k, n)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            index.pack(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * k * n

    @pytest.mark.parametrize("shape", [(5, 2), (5, 1), (1, 5), (4,), (6,)])
    def test_labels_not_one_per_code_rejected(self, shape):
        # 2-D labels once packed, and ranking them ended in a raw IndexError
        labels = np.arange(np.prod(shape)).reshape(shape)
        with pytest.raises(DimensionError, match=rf"labels of shape \({shape[0]}.* for 5 codes"):
            index.pack(np.ones((3, 5)), labels)


class TestHamming:
    """Pair distances as hamming_to_db gives them."""

    def test_identity(self):
        rng = np.random.default_rng(2)
        packed = index.pack(random_codes(rng, 20, 1))
        assert index.hamming_to_db(packed.words[0], packed).tolist() == [0]

    def test_hand_case(self):
        a = index.pack(np.array([[1.0], [-1.0], [1.0], [1.0]]))
        b = index.pack(np.array([[-1.0], [-1.0], [1.0], [-1.0]]))
        assert index.hamming_to_db(a.words[0], b).tolist() == [2]

    def test_equals_distance_measure_on_unpacked_codes(self):
        # defining identity: sampled pairs for every k up to 16, plus every
        # code pair exhaustively for small k
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(1, 17))
            B = random_codes(rng, k, 2)
            packed = index.pack(B)
            bit = index.hamming_to_db(packed.words[0], packed)[1]
            assert bit == hamming_sq(B[:, 0], B[:, 1])
        for k in (1, 2, 3):
            codes = np.array([[1.0 if (i >> j) & 1 else -1.0 for i in range(2**k)]
                              for j in range(k)])
            packed = index.pack(codes)
            for i in range(2**k):
                row = index.hamming_to_db(packed.words[i], packed)
                for j in range(2**k):
                    assert row[j] == hamming_sq(codes[:, i], codes[:, j])

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        B = random_codes(rng, 48, 30)
        packed = index.pack(B)
        d = index.hamming_to_db(packed.words, packed).astype(int)
        for _ in range(200):
            i, j, l = rng.integers(0, 30, size=3)
            assert d[i, j] == d[j, i]
            assert d[i, i] == 0
            assert d[i, j] <= d[i, l] + d[l, j]

    def test_shape_mismatch(self):
        db = index.pack(np.ones((70, 1)))
        with pytest.raises(DimensionError):
            index.hamming_to_db(np.zeros(1, dtype=np.uint64), db)


class TestHammingToDb:
    @pytest.mark.parametrize("k, dtype", [(1, np.uint8), (64, np.uint8), (130, np.uint8),
                                          (255, np.uint8), (256, np.uint16), (300, np.uint16)])
    def test_block_rows_match_single_queries(self, k, dtype):
        rng = np.random.default_rng(k)
        db = index.pack(random_codes(rng, k, 30))
        q = index.pack(random_codes(rng, k, 4))
        block = index.hamming_to_db(q.words, db)
        assert block.shape == (4, 30) and block.dtype == dtype
        for i in range(4):
            single = index.hamming_to_db(q.words[i], db)
            assert single.dtype == dtype
            assert single.tolist() == block[i].tolist()
            assert single.tolist() == [hamming(q.words[i], w) for w in db.words]

    def test_word_count_mismatch(self):
        rng = np.random.default_rng(0)
        db = index.pack(random_codes(rng, 70, 3))
        with pytest.raises(DimensionError):
            index.hamming_to_db(np.zeros((2, 1), dtype=np.uint64), db)


class TestSearch:
    """The ranking retrieval_scores scores: by distance, ties by index."""

    def test_single_item_database(self):
        rng = np.random.default_rng(5)
        assert ranked_ids(random_codes(rng, 8, 1), random_codes(rng, 8, 1)).tolist() == [0]

    def test_tie_broken_by_lower_index(self):
        B = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])  # items 0,1 identical
        qB = np.array([[-1.0], [-1.0]])
        ranked = ranked_ids(qB, B)
        # item 2 at distance 1; items 0 and 1 tie at distance 2, 0 first
        assert ranked.tolist() == [2, 0, 1]
        dists = index.hamming_to_db(index.pack(qB).words[0], index.pack(B))
        assert dists[ranked].tolist() == [1, 2, 2]

    def test_full_permutation_with_nondecreasing_distances(self):
        rng = np.random.default_rng(6)
        B, qB = random_codes(rng, 16, 40), random_codes(rng, 16, 1)
        ranked = ranked_ids(qB, B)
        assert sorted(ranked.tolist()) == list(range(40))
        dists = index.hamming_to_db(index.pack(qB).words[0], index.pack(B))[ranked]
        assert (np.diff(dists.astype(int)) >= 0).all()

    def test_agrees_with_naive_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 21))
            B = random_codes(rng, 12, n)
            qB = random_codes(rng, 12, 1)
            naive = sorted(
                range(n),
                key=lambda i: (hamming_sq(qB[:, 0], B[:, i]), i),
            )
            assert ranked_ids(qB, B).tolist() == naive
