"""Cross-module pipeline invariants: rate fidelity, lambda direction,
two-stream attribute layout."""

import time

import numpy as np
import pytest

from shtc import bench, bitstream, codec, entropy, quantizer, trainer
from shtc.base_layer import analyze_base, synthesize_base
from shtc.refinement import analyze_refine
from shtc.trainer import TrainConfig


@pytest.fixture(scope="module")
def trained_small():
    x = bench.synth_source(
        bench.SyntheticSpec(n_rows=3000, dim=12, rank=4, sparsity=2, spike_scale=0.8, seed=21)
    )
    configs = codec.default_configs(12, transform="shtc-full", rank=4, n_meas=4, n_layers=3)
    bundle, log = trainer.train(x, configs, TrainConfig(lam=0.006, iters=600, batch=128, seed=21))
    return x, bundle, log


class TestRateEstimateFidelity:
    def test_payload_within_5pct_plus_64_bytes_of_estimate(self, trained_small):
        x, bundle, _ = trained_small
        payload, _ = codec.encode_table(bundle, x)
        sm = bundle.streams[0]
        theta = analyze_base(x, sm.klt)
        sym_b = quantizer.quantize(theta, sm.base_sched)
        est_bits = entropy.rate_bits(quantizer.dequantize(sym_b, sm.base_sched), sm.base_entropy, sm.base_sched)
        r = x - synthesize_base(theta, sm.klt)
        y = analyze_refine(r, sm.refine)
        sym_y = quantizer.quantize(y, sm.refine_sched)
        est_bits += entropy.rate_bits(
            quantizer.dequantize(sym_y, sm.refine_sched), sm.refine_entropy, sm.refine_sched
        )
        actual_bytes = len(payload.data)
        assert actual_bytes <= est_bits / 8.0 * 1.05 + 64.0

    def test_loss_components_nonnegative_in_log(self, trained_small):
        _, _, log = trained_small
        for row in log:
            for key in ("loss", "bits_base", "bits_refine", "l1_total", "l1_residual"):
                assert row[key] >= 0.0


class TestLambdaDirection:
    def test_higher_lambda_never_costs_more_bits(self):
        x = bench.synth_source(
            bench.SyntheticSpec(n_rows=2000, dim=10, rank=4, sparsity=1, spike_scale=0.6, seed=31)
        )
        bits = []
        for lam in (0.002, 0.004, 0.008, 0.015):
            configs = codec.default_configs(10, transform="klt-trunc", rank=4)
            bundle, _ = trainer.train(x, configs, TrainConfig(lam=lam, iters=400, batch=128, seed=31))
            payload, _ = codec.encode_table(bundle, x)
            data, _ = bitstream.serialize(bundle, payload)
            bits.append(len(data) * 8)
        assert all(b2 <= b1 for b1, b2 in zip(bits, bits[1:])), bits


class TestTwoStreamLayout:
    def test_feature_plus_scaling_streams(self):
        # 50-channel feature block + 6-channel scaling block, mirroring the
        # attribute layout the codec is built for
        rng = np.random.default_rng(41)
        feat = bench.synth_source(
            bench.SyntheticSpec(n_rows=1500, dim=50, rank=15, sparsity=5, spike_scale=1.0, seed=41)
        )
        mix = rng.normal(size=(3, 6))
        scale_block = rng.normal(size=(1500, 3)) @ mix + 0.05 * rng.normal(size=(1500, 6))
        x = np.hstack([feat, scale_block])
        configs = codec.default_configs(56, scaling_cols=6)
        assert [c.name for c in configs] == ["feat", "scale"]
        assert configs[0].rank == 15 and configs[0].n_meas == 15
        assert configs[1].rank == 6 and not configs[1].has_refinement
        bundle, _ = trainer.train(x, configs, TrainConfig(lam=0.008, iters=300, batch=128, seed=41))
        payload, recon = codec.encode_table(bundle, x)
        data, counts = bitstream.serialize(bundle, payload)
        b2, p2 = bitstream.deserialize(data)
        assert np.array_equal(codec.decode_table(b2, p2), recon)
        # scaling stream spends far fewer model bytes (no basis-50, no refinement)
        sizes = {sm.config.name: len(bitstream._model_content(sm)) for sm in bundle.streams}
        assert sizes["scale"] < sizes["feat"] / 10

    def test_fit_under_ten_seconds_on_toy(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(100, 8)) @ rng.normal(size=(8, 8)) * 0.3
        configs = codec.default_configs(8, rank=3, n_meas=3, n_layers=2)
        start = time.time()
        trainer.train(x, configs, TrainConfig(lam=0.004, iters=500, batch=64, seed=51))
        assert time.time() - start < 10.0
