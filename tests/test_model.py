"""Hash model: init, relaxed/binary encoding, checkpoint round-trip."""

import math

import numpy as np
import pytest

from streamhash import model as hm
from streamhash.errors import DimensionError, DomainError, FormatError


class TestInit:
    def test_determinism(self):
        a = hm.init(20, 8, scale=1.0, seed=5)
        b = hm.init(20, 8, scale=1.0, seed=5)
        assert (a.W == b.W).all()
        c = hm.init(20, 8, scale=1.0, seed=6)
        assert (a.W != c.W).any()

    def test_shape(self):
        m = hm.init(4096, 32, seed=0)
        assert m.W.shape == (4096, 32)
        assert m.d == 4096 and m.k == 32

    def test_zero_scale(self):
        m = hm.init(10, 4, scale=0.0, seed=0)
        assert (m.W == 0).all()

    def test_entry_std_tracks_scale_over_sqrt_d(self):
        m = hm.init(400, 64, scale=2.0, seed=1)
        assert m.W.std() == pytest.approx(2.0 / 20.0, rel=0.05)

    def test_bad_dims(self):
        with pytest.raises(DomainError):
            hm.init(0, 4)

    @pytest.mark.parametrize("scale", [-1.0, np.nan, np.inf])
    def test_bad_scale(self, scale):
        with pytest.raises(DomainError):
            hm.init(3, 2, scale=scale)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be at least 0, got -1$"):
            hm.init(3, 4, seed=-1)


class TestEncodeRelaxed:
    def test_zero_model_gives_zero_codes(self):
        m = hm.init(3, 2, scale=0.0, seed=0)
        B = hm.encode_relaxed(m, np.ones((3, 5)))
        assert (B == 0).all()

    def test_scalar_value(self):
        m = hm.HashModel(W=np.array([[1.0]]))
        B = hm.encode_relaxed(m, np.array([[0.5]]))
        assert B[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-12)

    def test_open_interval_range(self):
        # tanh saturates to exactly 1.0 in float64 for |u| beyond ~19, so
        # the strict bound is checked over the representable regime
        rng = np.random.default_rng(2)
        m = hm.init(6, 4, scale=1.0, seed=0)
        B = hm.encode_relaxed(m, rng.standard_normal((6, 200)) * 2)
        assert (np.abs(B) < 1.0).all()

    def test_dimension_mismatch(self):
        m = hm.init(4, 2, seed=0)
        with pytest.raises(DimensionError):
            hm.encode_relaxed(m, np.ones((5, 3)))


class TestEncodeBinary:
    def test_zero_projection_maps_to_minus_one(self):
        m = hm.init(3, 2, scale=0.0, seed=0)
        B = hm.encode_binary(m, np.ones((3, 4)))
        assert (B == -1.0).all()

    def test_sign_consistency_with_relaxed(self):
        rng = np.random.default_rng(3)
        m = hm.init(5, 6, seed=1)
        X = rng.standard_normal((5, 40))
        relaxed = hm.encode_relaxed(m, X)
        binary = hm.encode_binary(m, X)
        nonzero = relaxed != 0
        assert (np.sign(relaxed[nonzero]) == binary[nonzero]).all()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        m = hm.init(5, 6, seed=2)
        X = rng.standard_normal((5, 30))
        for c in (0.01, 3.0, 250.0):
            scaled = hm.HashModel(W=c * m.W)
            assert (hm.encode_binary(scaled, X) == hm.encode_binary(m, X)).all()

    def test_negating_one_column_flips_that_row(self):
        rng = np.random.default_rng(5)
        m = hm.init(5, 4, seed=3)
        X = rng.standard_normal((5, 20))
        B = hm.encode_binary(m, X)
        W2 = m.W.copy()
        W2[:, 2] *= -1
        B2 = hm.encode_binary(hm.HashModel(W=W2), X)
        # projections are continuous random values, so no exact zeros
        assert (B2[2] == -B[2]).all()
        others = [0, 1, 3]
        assert (B2[others] == B[others]).all()

    def test_codes_shape(self):
        m = hm.init(7, 3, seed=0)
        assert hm.encode_binary(m, np.ones((7, 9))).shape == (3, 9)

    def test_bytes_equal_the_where_reference(self):
        # the codes are written over the projections: same dtype, shape and
        # bytes as a fresh np.where, with zero (of either sign) and nan at -1
        rng = np.random.default_rng(6)
        m = hm.init(5, 7, seed=4)
        X = rng.standard_normal((5, 30))
        X[:, [0, 9, 29]] = 0.0
        X[:, 4] = -0.0
        X[:, 17] = np.nan
        want = np.where(m.W.T @ X > 0.0, 1.0, -1.0)
        assert (m.W.T @ X[:, [0, 4, 9, 29]] == 0.0).all()
        got = hm.encode_binary(m, X)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        m = hm.init(13, 5, scale=0.7, seed=8)
        path = tmp_path / "model.txt"
        hm.save_checkpoint(m, path)
        m2 = hm.load_checkpoint(path)
        assert (m.W == m2.W).all()

    def test_header(self, tmp_path):
        m = hm.init(3, 2, seed=0)
        path = tmp_path / "model.txt"
        hm.save_checkpoint(m, path)
        assert path.read_text().splitlines()[0] == "3 2"

    def test_corrupt_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(FormatError):
            hm.load_checkpoint(path)

    @pytest.mark.parametrize("tail, line", [("1 2\n", 4), ("\n\ngarbage\n", 6), ("x", 4)])
    def test_text_after_row_d_is_a_format_error(self, tmp_path, tail, line):
        path = tmp_path / "model.txt"
        path.write_text("2 2\n1.0 2.0\n3.0 4.0\n" + tail)
        with pytest.raises(FormatError, match=f"line {line}: text after the last declared line"):
            hm.load_checkpoint(path)

    @pytest.mark.parametrize("tail", ["", "\n", "\n \n\t\n"])
    def test_trailing_blank_lines_load(self, tmp_path, tail):
        path = tmp_path / "model.txt"
        path.write_text("2 2\n1.0 2.0\n3.0 4.0\n" + tail)
        assert hm.load_checkpoint(path).W.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("W", [np.ones((2, 2), dtype=bool), np.ones((2, 2), dtype=complex),
                                   np.ones((2, 2)).astype(object), np.full((2, 2), "1")],
                             ids=["bool", "complex", "object", "str_"])
    def test_non_real_W_refused(self, W):
        # a checkpoint holds float64 text: a complex W would lose its imaginary part
        with pytest.raises(DomainError, match=f"W must hold real numbers, got {W.dtype}"):
            hm.HashModel(W=W)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint64, np.float16, np.float32])
    def test_real_W_saved_as_its_float64_values(self, tmp_path, dtype):
        W = (np.arange(6).reshape(2, 3) * 7.25).astype(dtype)
        path = tmp_path / "model.txt"
        hm.save_checkpoint(hm.HashModel(W=W), path)
        assert hm.load_checkpoint(path).W.tobytes() == W.astype(np.float64).tobytes()
