"""Packed codes, popcount distances, ranked search, baseline."""

import numpy as np
import pytest

from streamhash import distribution as dist, index, model as hm
from streamhash.errors import DimensionError, DomainError, FormatError


def random_codes(rng, k, n):
    return rng.choice([-1.0, 1.0], size=(k, n))


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
        with pytest.raises(DomainError):
            index.pack(np.array([[1.0], [0.5]]))


class TestHamming:
    def test_identity(self):
        rng = np.random.default_rng(2)
        packed = index.pack(random_codes(rng, 20, 1))
        assert index.hamming(packed.words[0], packed.words[0]) == 0

    def test_hand_case(self):
        a = index.pack(np.array([[1.0], [-1.0], [1.0], [1.0]]))
        b = index.pack(np.array([[-1.0], [-1.0], [1.0], [-1.0]]))
        assert index.hamming(a.words[0], b.words[0]) == 2

    def test_equals_distance_measure_on_unpacked_codes(self):
        # defining identity: sampled pairs for every k up to 16, plus every
        # code pair exhaustively for small k
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(1, 17))
            B = random_codes(rng, k, 2)
            packed = index.pack(B)
            bit = index.hamming(packed.words[0], packed.words[1])
            assert bit == dist.hamming_sq(B[:, 0], B[:, 1])
        for k in (1, 2, 3):
            codes = np.array([[1.0 if (i >> j) & 1 else -1.0 for i in range(2**k)]
                              for j in range(k)])
            packed = index.pack(codes)
            for i in range(2**k):
                for j in range(2**k):
                    assert (index.hamming(packed.words[i], packed.words[j])
                            == dist.hamming_sq(codes[:, i], codes[:, j]))

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        B = random_codes(rng, 48, 30)
        packed = index.pack(B)
        w = packed.words
        for _ in range(200):
            i, j, l = rng.integers(0, 30, size=3)
            dij = index.hamming(w[i], w[j])
            assert dij == index.hamming(w[j], w[i])
            assert index.hamming(w[i], w[i]) == 0
            assert dij <= index.hamming(w[i], w[l]) + index.hamming(w[l], w[j])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            index.hamming(np.zeros(1, dtype=np.uint64), np.zeros(2, dtype=np.uint64))


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
            assert single.tolist() == [index.hamming(q.words[i], w) for w in db.words]

    def test_word_count_mismatch(self):
        rng = np.random.default_rng(0)
        db = index.pack(random_codes(rng, 70, 3))
        with pytest.raises(DimensionError):
            index.hamming_to_db(np.zeros((2, 1), dtype=np.uint64), db)


class TestSearch:
    def test_distances_are_int64(self):
        rng = np.random.default_rng(4)
        db = index.pack(random_codes(rng, 8, 5))
        q = index.pack(random_codes(rng, 8, 1))
        assert index.search(q.words[0], db).distances.dtype == np.int64


    def test_single_item_database(self):
        rng = np.random.default_rng(5)
        db = index.pack(random_codes(rng, 8, 1))
        q = index.pack(random_codes(rng, 8, 1))
        result = index.search(q.words[0], db)
        assert result.ranked_ids.tolist() == [0]

    def test_tie_broken_by_lower_index(self):
        B = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])  # items 0,1 identical
        db = index.pack(B)
        q = index.pack(np.array([[-1.0], [-1.0]]))
        result = index.search(q.words[0], db)
        # item 2 at distance 1; items 0 and 1 tie at distance 2, 0 first
        assert result.ranked_ids.tolist() == [2, 0, 1]
        assert result.distances.tolist() == [1, 2, 2]

    def test_full_permutation_with_nondecreasing_distances(self):
        rng = np.random.default_rng(6)
        db = index.pack(random_codes(rng, 16, 40))
        q = index.pack(random_codes(rng, 16, 1))
        result = index.search(q.words[0], db)
        assert sorted(result.ranked_ids.tolist()) == list(range(40))
        assert (np.diff(result.distances) >= 0).all()

    def test_agrees_with_naive_sort(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 21))
            B = random_codes(rng, 12, n)
            db = index.pack(B)
            qB = random_codes(rng, 12, 1)
            q = index.pack(qB)
            result = index.search(q.words[0], db)
            naive = sorted(
                range(n),
                key=lambda i: (dist.hamming_sq(qB[:, 0], B[:, i]), i),
            )
            assert result.ranked_ids.tolist() == naive


class TestLshBaseline:
    def test_identical_to_init(self):
        a = index.lsh_baseline(10, 6, seed=3)
        b = hm.init(10, 6, scale=1.0, seed=3)
        assert (a.W == b.W).all()

    def test_deterministic(self):
        assert (index.lsh_baseline(5, 4, seed=1).W == index.lsh_baseline(5, 4, seed=1).W).all()


class TestCodesFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        B = random_codes(rng, 10, 7)
        packed = index.pack(B, labels=np.arange(7))
        path = tmp_path / "codes.txt"
        index.save_codes(packed, path)
        loaded = index.load_codes(path, labels=np.arange(7))
        assert (index.unpack(loaded) == B).all()
        assert path.read_text().splitlines()[0] == "10 7"

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n012\n")
        with pytest.raises(FormatError, match="line 2 "):
            index.load_codes(path)
        path.write_text("3 3\n010\n110\n01\n")
        with pytest.raises(FormatError, match="line 4 "):
            index.load_codes(path)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"3 1\n01\xff\n")
        with pytest.raises(FormatError, match="line 2 "):
            index.load_codes(path)

    @pytest.mark.parametrize("header", ["x y", "3", "3 1 2", "3.5 1", "-3 1", "3 -1"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n010\n")
        with pytest.raises(FormatError):
            index.load_codes(path)
