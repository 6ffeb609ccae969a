"""Acceptance suite: one test per criterion, each printing a PASS line.

The R-D ordering tests (5 and 6) train full sweeps and dominate the
runtime; everything else is fast. Criteria reference the default lambda
grid {0.002, 0.004, 0.008, 0.015}.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from shtc import base_layer, bench, bitstream, codec, entropy, linalg, quantizer, refinement, trainer

from .oracles import ista_solve, operator_sq_norm, top_m_energy_fraction, untiled

# Standard low-rank + sparse-residual source for the R-D ordering criteria.
# Row count matches the method's intended regime (>= 1e5 records), where the
# transmitted transform amortizes the way the MDL argument assumes.
STANDARD_SOURCE = dict(
    n_rows=100_000, dim=50, rank=15, spectrum_exp=1.5, spectrum_scale=12.0,
    sparsity=5, spike_scale=1.8, noise=0.01,
)
SWEEP_SEEDS = (0, 1, 2)
SWEEP_ITERS = 3000
SWEEP_BATCH = 256


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE PASS [{criterion}]: {detail}")


class TestCriterion1KltOptimality:
    def test_energy_compaction_and_decorrelation(self):
        start = time.time()
        spec = bench.SyntheticSpec(
            n_rows=20000, dim=50, rank=50, spectrum_exp=1.5, spectrum_scale=3.0,
            sparsity=0, noise=0.0, seed=0, basis="smooth",
        )
        x = bench.synth_source(spec)
        model = base_layer.fit_klt(x, 50)
        centered = x - x.mean(axis=0)
        klt_frac = top_m_energy_fraction(base_layer.analyze_base(x, model), 15)
        dct_frac = top_m_energy_fraction(centered @ linalg.dct_matrix(50).T, 15)
        raw_frac = top_m_energy_fraction(centered, 15)
        assert klt_frac >= dct_frac >= raw_frac
        coeffs = (x - model.mean) @ model.basis
        corr = linalg.pearson_abs(coeffs)
        off_max = float((corr - np.diag(np.diag(corr))).max())
        assert off_max < 1e-6
        elapsed = time.time() - start
        assert elapsed < 30.0
        report(
            "1 KLT optimality",
            f"top-15 energy: klt {klt_frac:.4f} >= dct {dct_frac:.4f} >= raw {raw_frac:.4f}; "
            f"max off-diag |pearson| {off_max:.2e}; {elapsed:.1f}s",
        )


class TestCriterion2UnfoldingEquivalence:
    def test_tied_unfolding_matches_ista(self):
        start = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0
        cases = 0
        for n_layers in (1, 3, 6):
            for _ in range(100):
                n_meas = int(rng.integers(2, 8))
                dim = int(rng.integers(n_meas + 1, 16))
                a = rng.normal(size=(n_meas, dim))
                d = rng.normal(size=(dim, dim))
                lip = operator_sq_norm(a, d)
                eta = 0.9 / lip
                gamma = float(rng.uniform(0.0, 0.2))
                y = rng.normal(size=n_meas)
                tau = eta * gamma
                b_raw = np.log(np.expm1(tau)) if tau > 0 else -745.0
                model = refinement.RefinementModel(
                    measure=a,
                    dictionary=d,
                    step_raw=np.full((n_layers, dim), np.log(eta)),
                    thresh_raw=np.full((n_layers, dim), b_raw),
                )
                ours = untiled(refinement.unfold_synthesize, y, model)
                oracle = d @ ista_solve(y, a, d, gamma=gamma, eta=eta, iters=n_layers)
                worst = max(worst, float(np.abs(ours - oracle).max()))
                cases += 1
        assert worst <= 1e-12
        elapsed = time.time() - start
        assert elapsed < 5.0
        report("2 unfolding equivalence", f"{cases} instances, max |diff| {worst:.2e}; {elapsed:.1f}s")


class TestCriterion3GradientCorrectness:
    def test_full_pipeline_gradients(self):
        from tests.test_trainer import _kink_margins, toy_setup

        start = time.time()
        h = 1e-5
        probes_checked = 0
        probe = 0
        worst_rel = 0.0
        while probes_checked < 50 and probe < 120:
            probe += 1
            x, bundle, params, tc = toy_setup(seed=1000 + probe)
            batch = x[:12]
            if _kink_margins(batch, bundle, params, tc, probe) < 1e-4:
                continue
            fwd, _ = trainer.loss(batch, bundle, params, tc, np.random.default_rng(probe))
            grads = params.views(trainer.backward(fwd, params))

            def value():
                return trainer.loss(batch, bundle, params, tc, np.random.default_rng(probe))[0].value

            for name, p in params.items():
                gf = grads[name].reshape(-1)
                flat = p.reshape(-1)
                i = int(np.argmax(np.abs(gf)))
                orig = flat[i]
                flat[i] = orig + h
                up = value()
                flat[i] = orig - h
                dn = value()
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                denom = max(abs(fd), abs(gf[i]), 1e-8)
                rel = abs(fd - gf[i]) / denom
                worst_rel = max(worst_rel, rel)
                assert rel < 1e-4, (name, fd, gf[i])
            probes_checked += 1
        assert probes_checked == 50
        elapsed = time.time() - start
        assert elapsed < 60.0
        report("3 gradient correctness", f"50 probes, worst rel err {worst_rel:.2e}; {elapsed:.1f}s")


class TestCriterion4EntropyCoder:
    def test_lossless_and_tracks_estimate(self):
        start = time.time()
        rng = np.random.default_rng(0)
        # 1000 random sequences, arbitrary symbols incl. escapes
        for case in range(1000):
            n = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 12))
            model = entropy.GaussianEntropyModel(
                mu=rng.normal(size=n), sigma=np.exp(rng.normal(size=n))
            )
            sched = quantizer.channel_schedule(float(rng.uniform(0.1, 2.0)), 0.0, n)
            spread = int(rng.integers(1, 20000))
            sym = rng.integers(-spread, spread + 1, size=(rows, n))
            blob = entropy.encode_symbols(sym, model, sched)
            back = entropy.decode_symbols(blob, sym.size, model, sched)
            assert np.array_equal(back, sym), f"case {case} not lossless"
        # measured payload vs estimate on matched-model symbols
        n_rows = 25000
        model = entropy.GaussianEntropyModel(mu=np.zeros(4), sigma=np.ones(4))
        sched = quantizer.channel_schedule(1.0, 0.0, 4)
        sym = quantizer.quantize(rng.normal(size=(n_rows, 4)), sched)
        blob = entropy.encode_symbols(sym, model, sched)
        est_bytes = entropy.rate_bits(quantizer.dequantize(sym, sched), model, sched) / 8.0
        slack = max(2.0, 0.01 * est_bytes)
        assert len(blob) <= est_bytes + slack
        elapsed = time.time() - start
        assert elapsed < 30.0
        report(
            "4 entropy coder",
            f"1000 sequences lossless; payload {len(blob)}B vs estimate {est_bytes:.1f}B "
            f"(+{len(blob) - est_bytes:.1f}B <= {slack:.1f}B); {elapsed:.1f}s",
        )


@pytest.fixture(scope="module")
def rd_sweeps():
    """Criterion 5/6 sweeps: 4 methods x 4 lambdas x 3 seeds."""
    start = time.time()
    results = {}
    for seed in SWEEP_SEEDS:
        x = bench.synth_source(bench.SyntheticSpec(seed=seed, **STANDARD_SOURCE))
        curves = {}
        for method, rank, name in (
            ("shtc-full", None, "full"),
            ("klt-trunc", None, "base"),
            ("none", None, "none"),
            ("klt-trunc", 50, "allcoeff"),
        ):
            curves[name] = bench.baseline_rd(
                x, method, bench.DEFAULT_LAMBDAS, seed=seed, iters=SWEEP_ITERS, batch=SWEEP_BATCH, rank=rank
            )
        results[seed] = curves
    return results, time.time() - start


class TestCriterion5RdOrdering:
    @pytest.mark.slow
    def test_hierarchy_orders_strictly(self, rd_sweeps):
        results, elapsed = rd_sweeps
        lines = []
        for seed, curves in results.items():
            bd_full = bench.bd_rate(curves["full"], curves["base"])
            bd_base = bench.bd_rate(curves["base"], curves["none"])
            assert bd_full < 0.0, f"seed {seed}: bd(full, base) = {bd_full:.2f}%"
            assert bd_base < 0.0, f"seed {seed}: bd(base, none) = {bd_base:.2f}%"
            lines.append(f"seed {seed}: bd(full,base) {bd_full:.1f}%, bd(base,none) {bd_base:.1f}%")
        assert elapsed < 900.0
        report("5 R-D ordering", "; ".join(lines) + f"; sweeps took {elapsed:.0f}s")


class TestCriterion6NoTruncationAblation:
    @pytest.mark.slow
    def test_all_coefficients_do_not_beat_full(self, rd_sweeps):
        results, _ = rd_sweeps
        lines = []
        for seed, curves in results.items():
            value = bench.bd_rate(curves["allcoeff"], curves["full"])
            assert value >= 0.0, f"seed {seed}: bd(all-coeff, full) = {value:.2f}%"
            lines.append(f"seed {seed}: bd(all-coeff, full) {value:.1f}%")
        report("6 no-truncation ablation", "; ".join(lines))


class TestCriterion7ParameterAccounting:
    def test_default_refinement_count(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 50))
        configs = codec.default_configs(50)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng))
        sm = bundle.streams[0]
        count = refinement.param_count(sm.refine)
        assert count == 15 * 50 + 50 * 50 + 2 * 6 * 50 == 3850
        assert count < 10000
        base_only = dataclasses.replace(sm, refine=None, refine_sched=None, refine_entropy=None)
        refine_bytes = (
            len(bitstream._model_content(sm))
            - len(bitstream._model_content(base_only))
            - 4 * (2 + 2 * sm.config.n_meas)
        )
        assert refine_bytes == 4 * count
        import struct

        declared = struct.unpack(bitstream._DIMS_FMT, bitstream._dims_content(sm))[-1]
        assert declared == count
        report("7 parameter accounting", f"refinement params {count} == bytes/4, < 10000")


class TestCriterion8YcbcrMetric:
    def test_weights_and_self_loss(self):
        from shtc import imagemetric as im

        w = im.DEFAULT_WEIGHTS
        assert (w["l1_y"], w["l1_cb"], w["l1_cr"], w["l1_laplacian_y"], w["tv_cb"], w["tv_cr"]) == (1.0, 0.6, 0.6, 0.15, 0.1, 0.1)
        rng = np.random.default_rng(1)
        ramp = np.zeros((8, 10, 3))
        ramp[..., 0] = np.linspace(0, 1, 10)
        ramp[..., 1] = 0.5
        ramp[..., 2] = np.linspace(1, 0, 10)[None, :]
        checker = (np.indices((8, 10)).sum(axis=0) % 2).astype(float)
        fixtures = [ramp, np.stack([checker, 1 - checker, checker], axis=-1), rng.random((8, 10, 3))]
        for i, img in enumerate(fixtures):
            total = im.ycbcr_components(img, img)["total"]
            ycc = im.rgb_to_ycbcr(im.as_image(img))
            expected = 0.1 * (im.tv(ycc[..., 1]) + im.tv(ycc[..., 2]))
            assert total == pytest.approx(expected, abs=1e-15), f"fixture {i}"
        report("8 YCbCr metric", "weights (1, 0.6, 0.6, 0.15, 0.1, 0.1); self-loss == 0.1*(TV(Cb)+TV(Cr)) on 3 fixtures")


class TestCriterion9Determinism:
    def test_cli_fit_encode_byte_identical(self, tmp_path, capsys):
        import json

        from shtc import cli

        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 8)) @ rng.normal(size=(8, 8)) * 0.4
        table = tmp_path / "t.csv"
        cli.save_table(table, x)
        cfg = tmp_path / "f.cfg"
        cfg.write_text("lambda = 0.008\niters = 80\nbatch = 32\nrank = 3\nn_meas = 3\nn_layers = 2\n")
        blobs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert cli.main(["fit", str(table), "--config", str(cfg), "--seed", "7",
                             "--out", str(out), "--threads", "1"]) == 0
            fit_info = json.loads(capsys.readouterr().out)
            assert cli.main(["encode", str(table), fit_info["bundle"], "--out", str(out)]) == 0
            enc_info = json.loads(capsys.readouterr().out)
            blobs.append(Path(enc_info["encoded"]).read_bytes())
        assert blobs[0] == blobs[1]
        report("9 determinism", f"two fit+encode runs byte-identical ({len(blobs[0])} bytes)")


class TestCriterion10BdRateSelfTest:
    def test_identity_and_half_rate(self):
        from tests.test_bench import curve_from

        rates = [1.2e4, 4.1e4, 8.9e4, 2.3e5]
        dists = [30.0, 33.5, 36.0, 40.0]
        c = curve_from(rates, dists)
        assert bench.bd_rate(c, c) == 0.0
        halved = curve_from([r / 2 for r in rates], dists)
        value = bench.bd_rate(halved, c)
        assert value == pytest.approx(-50.0, abs=1e-9)
        report("10 BD-rate self-test", f"bd(c,c)=0; half-rate {value:.12f}%")
