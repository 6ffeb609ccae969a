"""Bench tests: synthetic sources, BD-rate arithmetic, reports."""

import csv
import hashlib
import os

import numpy as np
import pytest

from shtc import base_layer, bench, linalg
from shtc.bench import RdCurve, RdPoint, SyntheticSpec, bd_rate, synth_source
from shtc.errors import ConfigError, NoOverlap
from shtc.trainer import TrainConfig

from .test_acceptance import STANDARD_SOURCE


def curve_from(rates, dists, method="m"):
    points = [
        RdPoint(lam=0.0, bits=r, distortion_db=d, l1=0.0, model_bytes=0, payload_bytes=0)
        for r, d in zip(rates, dists)
    ]
    return RdCurve(method=method, points=points)


class TestSynthSource:
    def test_seed_reproducible(self):
        spec = SyntheticSpec(n_rows=100, dim=10, rank=4, sparsity=2, seed=5)
        assert np.array_equal(synth_source(spec), synth_source(spec))

    def test_minimal_two_rows(self):
        spec = SyntheticSpec(n_rows=2, dim=4, rank=2, sparsity=1, seed=0)
        assert synth_source(spec).shape == (2, 4)

    def test_flat_spectrum_no_spikes_near_white(self):
        spec = SyntheticSpec(
            n_rows=20000, dim=8, rank=8, spectrum_exp=0.0, spectrum_scale=1.0,
            sparsity=0, noise=0.0, seed=1,
        )
        x = synth_source(spec)
        corr = linalg.pearson_abs(x)
        off = corr - np.diag(np.diag(corr))
        assert off.max() < 0.05

    def test_spectrum_matches_spec_within_10pct(self):
        spec = SyntheticSpec(
            n_rows=20000, dim=12, rank=5, spectrum_exp=1.5, spectrum_scale=4.0,
            sparsity=0, noise=0.0, seed=2,
        )
        x = synth_source(spec)
        evals, _ = linalg.sym_eig(linalg.covariance(x))
        target = 4.0 * (np.arange(5) + 1.0) ** -1.5
        assert np.all(np.abs(evals[:5] - target) <= 0.10 * target)

    def test_sparsity_count(self):
        spec = SyntheticSpec(
            n_rows=50, dim=10, rank=2, sparsity=3, spike_scale=100.0, noise=0.0, seed=3,
        )
        x = synth_source(spec)
        big = np.abs(x) > 10.0
        assert np.all(big.sum(axis=1) <= 3)
        assert big.sum() > 0

    def test_smooth_basis_favors_dct(self):
        spec = SyntheticSpec(
            n_rows=8000, dim=16, rank=6, sparsity=0, noise=0.01, seed=4, basis="smooth",
        )
        x = synth_source(spec)
        centered = x - x.mean(axis=0)
        dct_coeffs = centered @ linalg.dct_matrix(16).T

        def top_frac(c, m=6):
            return np.sort(linalg.energy_per_channel(c))[::-1][:m].sum()

        assert top_frac(dct_coeffs) > top_frac(centered) + 0.05


class TestSourcePins:
    """The sources the benchmark and the R-D criteria run on, pinned by the
    sha256 of their float64 bytes."""

    @pytest.mark.parametrize("spec, digest", [
        (dict(seed=1), "b8540f3a153f9451c7929086e00e62f862b098d318e5ee70670ca2292d6b6eb0"),
        (dict(STANDARD_SOURCE, seed=0), "7f258d2f2467212ebcbfc539d4472e66ec532e42158e0e115a44c286e2bb4f3b"),
        (dict(STANDARD_SOURCE, seed=1), "6986e3c3687191c5ab99eb02eca28cec37c1b41beaa8b3f943fd32c8c2858e78"),
        (dict(STANDARD_SOURCE, seed=2), "cfa57d0789dc51c06a1848c403991891a4994e8848bd6110a45150a8099a3603"),
    ], ids=["benchmark", "criteria-seed0", "criteria-seed1", "criteria-seed2"])
    def test_source_bytes(self, spec, digest):
        x = synth_source(SyntheticSpec(**spec))
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest


class TestBdRate:
    def test_self_comparison_zero(self):
        c = curve_from([1e4, 3e4, 9e4, 2e5], [30.0, 33.0, 36.0, 39.0])
        assert bd_rate(c, c) == 0.0

    def test_half_rate_is_minus_fifty(self):
        dists = [30.0, 33.0, 36.0, 39.0]
        rates = [1e4, 3e4, 9e4, 2e5]
        full = curve_from(rates, dists)
        half = curve_from([r / 2 for r in rates], dists)
        assert bd_rate(half, full) == pytest.approx(-50.0, abs=1e-9)

    def test_double_rate_is_plus_hundred(self):
        dists = [30.0, 33.0, 36.0, 39.0]
        rates = [1e4, 3e4, 9e4, 2e5]
        assert bd_rate(curve_from([2 * r for r in rates], dists), curve_from(rates, dists)) == pytest.approx(100.0, abs=1e-9)

    def test_antisymmetry_sign(self):
        a = curve_from([1e4, 2e4, 5e4, 1e5], [30.0, 32.0, 34.0, 36.0])
        b = curve_from([2e4, 4e4, 8e4, 1.6e5], [30.5, 32.5, 34.5, 36.5])
        x, y = bd_rate(a, b), bd_rate(b, a)
        assert np.sign(x) == -np.sign(y) != 0

    def test_needs_four_points(self):
        short = curve_from([1e4, 2e4, 4e4], [30.0, 33.0, 36.0])
        good = curve_from([1e4, 2e4, 4e4, 8e4], [30.0, 33.0, 36.0, 39.0])
        with pytest.raises(NoOverlap):
            bd_rate(short, good)

    def test_no_overlap(self):
        lo = curve_from([1e4, 2e4, 4e4, 8e4], [10.0, 12.0, 14.0, 16.0])
        hi = curve_from([1e4, 2e4, 4e4, 8e4], [30.0, 33.0, 36.0, 39.0])
        with pytest.raises(NoOverlap):
            bd_rate(lo, hi)


class TestDistortionDb:
    def test_half_rmse_gains_six_db(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 4))
        err = rng.normal(size=(100, 4))
        d1 = bench.distortion_db(x, x + 0.2 * err)
        d2 = bench.distortion_db(x, x + 0.1 * err)
        assert d2 - d1 == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)


class TestAnalysisReport:
    def test_emits_expected_files(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 8)) @ rng.normal(size=(8, 8))
        klt = base_layer.fit_klt(x, 8)
        paths = bench.analysis_report(x, klt, tmp_path)
        for key in ("correlation_raw", "correlation_dct", "correlation_haar", "correlation_klt", "energy"):
            assert key in paths and os.path.exists(paths[key])

    def test_klt_block_near_diagonal_and_energy_rows_sum_to_one(self, tmp_path):
        spec = SyntheticSpec(n_rows=4000, dim=8, rank=4, sparsity=0, noise=0.05, seed=9, basis="smooth")
        x = synth_source(spec)
        klt = base_layer.fit_klt(x, 8)
        paths = bench.analysis_report(x, klt, tmp_path)
        corr_klt = np.loadtxt(paths["correlation_klt"], delimiter=",")
        off_klt = corr_klt - np.diag(np.diag(corr_klt))
        assert off_klt.max() < 1e-6
        corr_dct = np.loadtxt(paths["correlation_dct"], delimiter=",")
        off_dct = corr_dct - np.diag(np.diag(corr_dct))
        assert off_dct.max() > off_klt.max()
        with open(paths["energy"]) as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["raw", "dct", "haar", "klt"]
        for row in rows[1:]:
            assert sum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-9)


class TestParetoWarning:
    def test_violating_curve_warns(self):
        import warnings as warnings_mod

        pts = [
            RdPoint(lam=0.002, bits=2e5, distortion_db=35.0, l1=0, model_bytes=0, payload_bytes=0),
            RdPoint(lam=0.004, bits=3e5, distortion_db=30.0, l1=0, model_bytes=0, payload_bytes=0),
        ]
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            bench._pareto_check(RdCurve(method="m", points=pts))
        assert any("higher rate and higher" in str(w.message) for w in caught)


class TestRdPlumbing:
    def test_rd_point_counts_model_and_payload(self):
        x = synth_source(SyntheticSpec(n_rows=400, dim=6, rank=3, sparsity=1, seed=11))
        p = bench.rd_point(x, "klt-trunc", 0.01, seed=0, iters=60, batch=64, rank=3)
        assert p.bits == pytest.approx((p.model_bytes + p.payload_bytes) * 8, abs=2000)
        assert p.bits > 0 and np.isfinite(p.distortion_db)

    def test_rd_point_passes_only_the_settings_it_is_given(self, monkeypatch):
        # a setting not given keeps the default of TrainConfig or default_configs
        seen = []

        class Stop(Exception):
            pass

        def train(x, configs, tc):
            seen.append(tc)
            raise Stop

        monkeypatch.setattr(bench, "default_configs", lambda dim, **kw: seen.append(kw) or [])
        monkeypatch.setattr(bench, "train", train)
        with pytest.raises(Stop):
            bench.rd_point(np.zeros((4, 6)), "dct", 0.01, seed=3, iters=40, n_layers=2)
        assert seen == [{"transform": "dct", "n_layers": 2}, TrainConfig(lam=0.01, seed=3, iters=40)]
        with pytest.raises(TypeError, match="n_atoms"):
            bench.rd_point(np.zeros((4, 6)), "dct", 0.01, seed=3, n_atoms=4)

    @pytest.mark.parametrize("method, lambdas", [("foo", (0.004,)), ("dct", (0.004, -0.01))], ids=["method", "lambda"])
    def test_a_bad_setting_fails_the_sweep(self, method, lambdas):
        # a bad setting is no point's own failure: it raises, not warns and skips
        x = synth_source(SyntheticSpec(n_rows=100, dim=6, rank=3, sparsity=1, seed=12))
        with pytest.raises(ConfigError):
            bench.baseline_rd(x, method, lambdas, seed=0, iters=5, batch=16)

    def test_curve_has_grid_points_and_csvs(self, tmp_path):
        x = synth_source(SyntheticSpec(n_rows=300, dim=6, rank=3, sparsity=1, seed=12))
        lambdas = (0.002, 0.004, 0.008, 0.015)
        curves = [
            bench.baseline_rd(x, m, lambdas, seed=0, iters=40, batch=64)
            for m in ("none", "klt-trunc")
        ]
        assert all(len(c.points) == 4 for c in curves)
        rd_path = tmp_path / "rd.csv"
        bench.write_rd_csv(curves, rd_path)
        with open(rd_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 8
        bd_path = tmp_path / "bd.csv"
        bench.write_bd_csv(curves, bd_path)
        assert os.path.exists(bd_path)
