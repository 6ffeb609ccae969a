"""Base-layer (fitted transform + truncation) tests."""

import numpy as np
import pytest

from shtc import base_layer, codec, linalg
from shtc.errors import DimMismatch


def spectrum(x):
    """Eigenvalues of the table's covariance, descending: the variances of its
    KLT coefficients."""
    return linalg.sym_eig(linalg.covariance(x))[0]


@pytest.fixture(scope="module")
def correlated_table():
    rng = np.random.default_rng(11)
    mix = rng.normal(size=(6, 6))
    return rng.normal(size=(5000, 6)) @ mix.T + rng.normal(size=6)


class TestFit:
    def test_iid_normal_flat_spectrum(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5000, 4))
        model = base_layer.fit_klt(x, 4)
        coeffs = base_layer.analyze_base(x, model)
        assert np.allclose(coeffs.var(axis=0, ddof=1), 1.0, atol=0.2)

    def test_duplicated_column_rank_deficit(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=500)
        x = np.column_stack([col, col])
        coeffs = base_layer.analyze_base(x, base_layer.fit_klt(x, 2))
        assert coeffs[:, 1].var() == pytest.approx(0.0, abs=1e-10)

    def test_refit_in_own_basis_is_identity_like(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 6)
        coeffs = base_layer.analyze_base(correlated_table, model)
        refit = base_layer.fit_klt(coeffs, 6)
        # coefficients are already decorrelated: the new basis is a signed
        # permutation (identity here, since the spectrum is non-degenerate)
        cross = np.abs(model.basis.T @ model.basis @ refit.basis)
        assert np.allclose(cross, np.eye(6), atol=1e-6)

    def test_orthonormal_basis(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 3)
        assert model.basis.shape == (6, 3) and model.rank == 3
        assert np.abs(model.basis.T @ model.basis - np.eye(3)).max() <= 1e-10


class TestAnalyzeSynthesize:
    def test_mean_maps_to_zero(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 4)
        assert np.allclose(base_layer.analyze_base(model.mean, model), 0.0, atol=1e-9)

    def test_identity_basis_truncation(self):
        model = base_layer.KltModel(mean=np.zeros(3), basis=np.eye(3)[:, :2])
        assert np.allclose(base_layer.analyze_base(np.array([5.0, 7.0, 9.0]), model), [5.0, 7.0])

    def test_full_rank_round_trip(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 6)
        f = correlated_table[17]
        rec = base_layer.synthesize_base(base_layer.analyze_base(f, model), model)
        assert np.abs(rec - f).max() < 1e-9

    def test_zero_coefficients_give_mean(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 4)
        assert np.allclose(base_layer.synthesize_base(np.zeros(4), model), model.mean)

    def test_truncation_mse_equals_discarded_eigenvalue_mass(self, correlated_table):
        n = correlated_table.shape[0]
        model = base_layer.fit_klt(correlated_table, 2)
        rec = base_layer.synthesize_base(base_layer.analyze_base(correlated_table, model), model)
        mse_row = float(np.mean(np.sum((correlated_table - rec) ** 2, axis=1)))
        tail = spectrum(correlated_table)[2:].sum() * (n - 1) / n
        assert mse_row == pytest.approx(tail, rel=1e-9)

    def test_dim_mismatch(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 4)
        with pytest.raises(DimMismatch):
            base_layer.analyze_base(np.zeros(5), model)
        with pytest.raises(DimMismatch):
            base_layer.synthesize_base(np.zeros(3), model)

    def test_float32_stays_float32(self, correlated_table):
        # the float64 model is cast to the input's precision, so a float32
        # table (a training batch) is analysed and synthesized in float32
        model = base_layer.fit_klt(correlated_table, 4)
        f = correlated_table[:300]
        theta = base_layer.analyze_base(f.astype(np.float32), model)
        back = base_layer.synthesize_base(theta, model)
        assert theta.dtype == back.dtype == np.float32
        scale = np.abs(f).max()
        np.testing.assert_allclose(theta, base_layer.analyze_base(f, model), rtol=0.0, atol=1e-5 * scale)
        np.testing.assert_allclose(back, base_layer.synthesize_base(theta.astype(np.float64), model),
                                   rtol=0.0, atol=1e-5 * scale)

    def test_other_input_runs_in_float64(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 4)
        f = np.rint(correlated_table[:10]).astype(np.int64)
        assert np.array_equal(base_layer.analyze_base(f, model), base_layer.analyze_base(f.astype(np.float64), model))
        assert base_layer.synthesize_base(np.zeros((2, 4), np.float16), model).dtype == np.float64


class TestResidual:
    """The truncation residual, as ``codec.split_base`` defines it for the
    codec and the trainer alike."""

    def test_full_rank_residual_zero(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 6)
        theta, r = codec.split_base(correlated_table[3], model)
        assert np.array_equal(theta, base_layer.analyze_base(correlated_table[3], model))
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_mean_input_residual_zero(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 4)
        assert np.allclose(codec.split_base(model.mean, model)[1], 0.0, atol=1e-9)

    def test_residual_orthogonal_to_retained_basis(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 3)
        f = correlated_table[:100]
        theta, r = codec.split_base(f, model)
        assert np.array_equal(r, f - base_layer.synthesize_base(theta, model))
        assert np.abs(r @ model.basis).max() < 1e-9

    def test_shape_mismatch(self, correlated_table):
        with pytest.raises(DimMismatch):
            codec.split_base(np.zeros(4), base_layer.fit_klt(correlated_table, 3))


class TestDecorrelationAndCompaction:
    def test_coefficients_decorrelated(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 6)
        coeffs = base_layer.analyze_base(correlated_table, model)
        corr = linalg.pearson_abs(coeffs)
        off = corr - np.diag(np.diag(corr))
        assert off.max() < 1e-6

    def test_energy_nonincreasing(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 6)
        coeffs = base_layer.analyze_base(correlated_table, model)
        energy = linalg.energy_per_channel(coeffs)
        assert np.all(np.diff(energy) <= 1e-12)

    def test_energy_proportional_to_eigenvalues(self, correlated_table):
        model = base_layer.fit_klt(correlated_table, 6)
        coeffs = base_layer.analyze_base(correlated_table, model)
        energy = linalg.energy_per_channel(coeffs)
        expected = spectrum(correlated_table) / spectrum(correlated_table).sum()
        assert np.allclose(energy, expected, rtol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_klt_compaction_dominates_fixed_bases(self, m):
        rng = np.random.default_rng(23)
        mix = rng.normal(size=(8, 8))
        x = rng.normal(size=(4000, 8)) @ mix.T
        model = base_layer.fit_klt(x, 8)
        centered = x - x.mean(axis=0)

        def top_fraction(coeffs):
            e = linalg.energy_per_channel(coeffs)
            return np.sort(e)[::-1][:m].sum()

        klt_frac = top_fraction(base_layer.analyze_base(x, model))
        dct_frac = top_fraction(centered @ linalg.dct_matrix(8).T)
        haar_frac = top_fraction(centered @ linalg.haar_matrix(8).T)
        assert klt_frac >= dct_frac - 1e-12
        assert klt_frac >= haar_frac - 1e-12
