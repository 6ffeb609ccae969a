"""Tests for the dense kernels: covariance, symmetric eigensolver, reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import base_layer, linalg
from shtc.errors import AllZero, BadSize, InsufficientData, NotSymmetric


class TestCovariance:
    def test_two_rows_hand_computed(self):
        s = linalg.covariance(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(s, [[2.0, 2.0], [2.0, 2.0]])

    def test_constant_column_zero_row(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        s = linalg.covariance(x)
        assert np.all(s[0, :] == 0.0)
        assert np.all(s[:, 0] == 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        s = linalg.covariance(rng.normal(size=(50, 7)))
        assert np.abs(s - s.T).max() <= 1e-12

    def test_recovers_generating_covariance(self):
        # AR-style correlated 3-channel source with known covariance.
        rng = np.random.default_rng(42)
        true = np.array([[2.0, 1.2, 0.5], [1.2, 1.5, 0.8], [0.5, 0.8, 1.0]])
        chol = np.linalg.cholesky(true)
        x = rng.normal(size=(1000, 3)) @ chol.T
        s = linalg.covariance(x)
        rel = np.linalg.norm(s - true) / np.linalg.norm(true)
        assert rel < 0.10

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientData):
            linalg.covariance(np.ones((1, 3)))


class TestSymEig:
    def test_identity(self):
        evals, v = linalg.sym_eig(np.eye(3))
        assert np.allclose(evals, 1.0)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-10)

    def test_diagonal_sorted(self):
        evals, v = linalg.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(evals, [3.0, 2.0, 1.0])
        # signed permutation: one +-1 entry per column
        assert np.allclose(np.abs(v).sum(axis=0), 1.0)

    def test_2x2_closed_form(self):
        evals, v = linalg.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(evals, [3.0, 1.0], atol=1e-12)
        root = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(v[:, 0]), [root, root], atol=1e-12)
        assert np.allclose(np.abs(v[:, 1]), [root, root], atol=1e-12)
        # sign convention: first max-magnitude entry positive
        assert v[0, 0] > 0 and v[0, 1] > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_600_column_klt_is_orthonormal(self):
        # a stream may have up to 65535 columns: the KLT of a 600-column
        # table has no size cap below that
        x = np.random.default_rng(600).normal(size=(700, 600))
        klt = base_layer.fit_klt(x, 600)
        assert klt.basis.shape == (600, 600)
        assert np.abs(klt.basis.T @ klt.basis - np.eye(600)).max() < 1e-10

    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        s = a + a.T
        evals, v = linalg.sym_eig(s)
        recon = v @ np.diag(evals) @ v.T
        assert np.linalg.norm(recon - s) <= 1e-8 * np.linalg.norm(s)
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(evals) <= 1e-12)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 20))
        s = a + a.T
        evals, _ = linalg.sym_eig(s)
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.allclose(evals, ref, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(12, 12))
        s = a + a.T
        e1, v1 = linalg.sym_eig(s)
        e2, v2 = linalg.sym_eig(s)
        assert np.array_equal(e1, e2) and np.array_equal(v1, v2)


class TestPearsonAbs:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=100)
        c = linalg.pearson_abs(np.column_stack([col, 2.0 * col]))
        assert c[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_columns_small(self):
        rng = np.random.default_rng(1)
        c = linalg.pearson_abs(rng.normal(size=(10000, 4)))
        off = c - np.diag(np.diag(c))
        assert off.max() < 0.1

    def test_constant_column_convention(self):
        x = np.column_stack([np.ones(20), np.arange(20.0)])
        c = linalg.pearson_abs(x)
        assert c[0, 1] == 0.0 and c[1, 0] == 0.0
        assert c[0, 0] == 1.0 and c[1, 1] == 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=-5.0, max_value=5.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, 3))
        y = x.copy()
        y[:, 1] = scale * y[:, 1] + shift
        assert np.allclose(linalg.pearson_abs(x), linalg.pearson_abs(y), atol=1e-9)


class TestEnergy:
    def test_single_row(self):
        e = linalg.energy_per_channel(np.array([[3.0, 4.0]]))
        assert np.allclose(e, [9.0 / 25.0, 16.0 / 25.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        e = linalg.energy_per_channel(rng.normal(size=(30, 6)))
        assert abs(e.sum() - 1.0) <= 1e-12

    def test_all_zero(self):
        with pytest.raises(AllZero):
            linalg.energy_per_channel(np.zeros((4, 3)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 5))
        perm = rng.permutation(5)
        assert np.allclose(
            linalg.energy_per_channel(x)[perm], linalg.energy_per_channel(x[:, perm])
        )


class TestFixedBases:
    def test_dct_size_one(self):
        assert np.array_equal(linalg.dct_matrix(1), [[1.0]])

    def test_haar_two(self):
        root = 1.0 / np.sqrt(2.0)
        assert np.allclose(linalg.haar_matrix(2), [[root, root], [root, -root]])

    @pytest.mark.parametrize("builder", [linalg.dct_matrix, linalg.haar_matrix])
    def test_orthonormal_n8(self, builder):
        m = builder(8)
        assert np.abs(m.T @ m - np.eye(8)).max() <= 1e-12

    @pytest.mark.parametrize("builder", [linalg.dct_matrix, linalg.haar_matrix])
    def test_leading_rows_built_alone(self, builder):
        # a fixed-basis stream builds only the rank rows it keeps, bit for bit
        for rows in (1, 3, 4, 5, 8):
            assert np.array_equal(builder(8, rows), builder(8)[:rows])

    def test_haar_even_supported_odd_rejected(self):
        m = linalg.haar_matrix(6)
        assert np.abs(m.T @ m - np.eye(6)).max() <= 1e-12
        with pytest.raises(BadSize):
            linalg.haar_matrix(7)

    def test_haar_lowpass_then_highpass(self):
        m = linalg.haar_matrix(4)
        # lowpass rows sum to sqrt(2), highpass rows sum to 0
        assert np.allclose(m[:2].sum(axis=1), np.sqrt(2.0))
        assert np.allclose(m[2:].sum(axis=1), 0.0)
