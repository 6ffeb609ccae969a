"""Trainer tests: loss identities, gradients vs finite differences, Adam."""

import hashlib

import numpy as np
import pytest

from shtc import bench, bitstream, codec, trainer
from shtc.errors import ConfigError, InsufficientData
from shtc.trainer import AdamState, TrainConfig


def toy_table(seed=0, n=64, d=8, rank=3, spikes=2):
    rng = np.random.default_rng(seed)
    mix = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = 2.0 * (np.arange(rank) + 1.0) ** -1.2
    x = (rng.normal(size=(n, rank)) * np.sqrt(lam)) @ mix[:, :rank].T
    cols = np.argsort(rng.random((n, d)), axis=1)[:, :spikes]
    np.put_along_axis(x, cols, np.take_along_axis(x, cols, axis=1) + rng.normal(0, 0.5, cols.shape), axis=1)
    return x + 0.01 * rng.normal(size=(n, d))


def toy_setup(seed=0, transform="shtc-full", scaling_cols=0):
    x = toy_table(seed)
    configs = codec.default_configs(
        8, transform=transform, rank=3, n_meas=3, n_layers=2, scaling_cols=scaling_cols
    )
    rng = np.random.default_rng(seed)
    bundle = codec.fit_bundle(x, configs, rng)
    params = trainer.make_params(bundle)
    tc = TrainConfig(lam=0.01, iters=10, batch=16, seed=seed)
    return x, bundle, params, tc


class TestConfig:
    def test_lambda_r_rule(self):
        assert TrainConfig(lam=0.016).lambda_r == pytest.approx(0.004)
        assert TrainConfig(lam=0.002).lambda_r == pytest.approx(0.001)
        assert TrainConfig(lam=0.0005).lambda_r == pytest.approx(0.001)

    def test_default_weights(self):
        tc = TrainConfig()
        assert tc.lambda_e == pytest.approx(0.03)

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        bad = [
            *({"lam": v} for v in (0.0, nan, inf)),
            *({"lambda_e": v} for v in (-1.0, nan, inf)),
            {"seed": -1},
            {"batch": 0},
            {"batch": -5},
            {"log_every": 0},
            {"iters": -3},
            *({"lr": v} for v in (-1.0, 0.0, nan, inf)),
            *({"grad_clip": v} for v in (-1.0, nan, inf)),
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                TrainConfig(**kw)

    def test_edge_values_accepted(self):
        TrainConfig(iters=0, batch=1, grad_clip=0.0, log_every=1)


class TestLoss:
    def test_identity_configuration_zero_distortion(self):
        # full-rank base, steps of 1e-12 so the quantization noise is ~0:
        # distortion terms vanish
        x = toy_table(1)
        configs = codec.default_configs(8, transform="klt-trunc", rank=8)
        bundle = codec.fit_bundle(x, configs, np.random.default_rng(1))
        params = trainer.make_params(bundle)
        params["feat.base.log_qs"][...] = np.log(1e-12)
        tc = TrainConfig(lam=0.01)
        _, comps = trainer.loss(x[:32], bundle, params, tc, np.random.default_rng(0))
        assert comps["l1_total"] < 1e-9
        assert comps["loss"] == pytest.approx(tc.lam * comps["bits_base"], rel=1e-6)

    def test_components_nonnegative(self):
        x, bundle, params, tc = toy_setup(2)
        _, comps = trainer.loss(x[:16], bundle, params, tc, np.random.default_rng(0))
        for key, val in comps.items():
            assert val >= 0.0, key

    def test_empty_batch_rejected(self):
        x, bundle, params, tc = toy_setup(3)
        with pytest.raises(InsufficientData):
            trainer.loss(x[:0], bundle, params, tc, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        x, bundle, params, tc = toy_setup(4)
        l1, c1 = trainer.loss(x[:16], bundle, params, tc, np.random.default_rng(9))
        l2, c2 = trainer.loss(x[:16], bundle, params, tc, np.random.default_rng(9))
        assert l1.value == l2.value
        assert c1 == c2


def _kink_margins(x, bundle, params, tc, rng_seed):
    """Smallest distance to any nondifferentiable point in the forward pass.

    Spies on the shared forward helpers the loss runs, through their modules:
    every soft-threshold layer of ``refinement.unfold_code`` and every bin
    mass of ``entropy.bin_bits`` against the probability floor. The l1 kinks,
    f - f_hat and r - r_hat, come from the intermediates the loss keeps.
    """
    from shtc import entropy, refinement

    margins = [np.inf]
    orig_unfold = refinement.unfold_code
    orig_bits = entropy.bin_bits

    def unfold_spy(y, model, record=None):
        layers = [] if record is None else record
        beta = orig_unfold(y, model, record=layers)
        taus = model.thresholds()
        for k, (_, _, pre) in enumerate(layers):
            margins.append(np.abs(np.abs(pre) - taus[k]).min())
        return beta

    def bits_spy(*args):
        out = orig_bits(*args)
        margins.append(np.abs(out[1] - entropy._PROB_FLOOR).min())
        return out

    refinement.unfold_code = unfold_spy
    entropy.bin_bits = bits_spy
    try:
        fwd, _ = trainer.loss(x, bundle, params, tc, np.random.default_rng(rng_seed))
    finally:
        refinement.unfold_code = orig_unfold
        entropy.bin_bits = orig_bits
    for s in fwd.streams:
        margins.append(np.abs(s.err).min())
        if s.resid_err is not None:
            margins.append(np.abs(s.resid_err).min())
    return min(margins)


# toy_setup keywords
PIPELINE_CASES = {
    "one-stream": {},
    "two-streams": {"scaling_cols": 2},
}


class TestFullPipelineGradients:
    @pytest.mark.parametrize("case", list(PIPELINE_CASES))
    def test_gradients_match_finite_differences(self, case):
        # noise-mode quantization keeps the pipeline differentiable a.e.;
        # probes landing near a kink are resampled
        setup = PIPELINE_CASES[case]
        h = 1e-5
        checked = 0
        probe = 0
        while checked < 5 and probe < 25:
            probe += 1
            x, bundle, params, tc = toy_setup(seed=100 + probe, **setup)
            batch = x[:16]
            if _kink_margins(batch, bundle, params, tc, probe) < 1e-4:
                continue
            fwd, _ = trainer.loss(batch, bundle, params, tc, np.random.default_rng(probe))
            grads = params.views(trainer.backward(fwd, params))

            def value():
                return trainer.loss(batch, bundle, params, tc, np.random.default_rng(probe))[0].value

            for name, p in params.items():
                flat = p.reshape(-1)
                gf = grads[name].reshape(-1)
                idx = np.argsort(-np.abs(gf))[:3]  # largest entries per parameter
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + h
                    up = value()
                    flat[i] = orig - h
                    dn = value()
                    flat[i] = orig
                    fd = (up - dn) / (2 * h)
                    denom = max(abs(fd), abs(gf[i]), 1e-8)
                    assert abs(fd - gf[i]) / denom < 1e-4, (name, i, fd, gf[i])
            checked += 1
        assert checked == 5


class TestAdam:
    def test_bias_corrected_first_step(self):
        w = np.array([1.0])
        trainer.adam_step(w, np.array([0.5]), AdamState(), lr=0.1)
        # first step moves by ~lr regardless of gradient scale
        assert w[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_zero_gradient_fixed_point(self):
        w = np.array([3.0])
        trainer.adam_step(w, np.array([0.0]), AdamState(), lr=0.1)
        assert w[0] == pytest.approx(3.0, abs=1e-9)

    def test_converges_on_quadratic(self):
        w = np.array([5.0, -3.0])
        state = AdamState()
        for _ in range(800):
            trainer.adam_step(w, 2.0 * w, state, lr=0.05)
        assert np.abs(w).max() < 1e-3

    def test_updates_named_views_in_place(self):
        params = trainer.Params({"a": 1.0, "b": np.array([[2.0, -2.0]])})
        a, b = params["a"], params["b"]
        trainer.adam_step(params.flat, np.array([1.0, -1.0, 1.0]), AdamState(), lr=0.1)
        assert params["a"] is a and params["b"] is b
        assert a == pytest.approx(0.9) and b == pytest.approx(np.array([[2.1, -2.1]]))

    def test_clip_gradients(self):
        grad = np.array([30.0, 40.0])
        norm = trainer.clip_gradients(grad, 10.0)
        assert norm == pytest.approx(50.0)
        assert np.linalg.norm(grad) == pytest.approx(10.0)


class TestTrain:
    def test_constant_source_near_zero_rate_and_distortion(self):
        x = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (512, 1))
        x += 1e-9 * np.random.default_rng(0).normal(size=x.shape)  # covariance needs spread
        configs = codec.default_configs(4, transform="klt-trunc", rank=4)
        bundle, log = trainer.train(x, configs, TrainConfig(lam=0.01, iters=500, batch=32, seed=0))
        payload, recon = codec.encode_table(bundle, x)
        from shtc.bitstream import serialize

        _, counts = serialize(bundle, payload)
        assert counts["payload_bytes"] * 8.0 / x.shape[0] < 1.0
        assert np.abs(x - recon).mean() < 1e-3

    def test_reproducible_bitwise(self):
        x = toy_table(7)
        configs = codec.default_configs(8, transform="shtc-full", rank=3, n_meas=3, n_layers=2)
        tc = TrainConfig(lam=0.008, iters=40, batch=16, seed=123)
        b1, log1 = trainer.train(x, configs, tc)
        b2, log2 = trainer.train(x, configs, tc)
        from shtc.bitstream import serialize

        assert serialize(b1)[0] == serialize(b2)[0]
        assert log1 == log2

    def test_lambda_e_reduces_residual_error(self):
        x = toy_table(8, n=256)
        configs = codec.default_configs(8, transform="shtc-full", rank=3, n_meas=3, n_layers=2)
        results = {}
        for le in (0.03, 0.6):
            tc = TrainConfig(lam=0.01, lambda_e=le, iters=400, batch=64, seed=5)
            _, log = trainer.train(x, configs, tc)
            results[le] = log[-1]["l1_residual"]
        assert results[0.6] <= results[0.03] * 1.05  # weakly decreasing, same seed

    def test_log_schema(self):
        x, bundle, params, tc = toy_setup(9)
        configs = codec.default_configs(8, transform="shtc-full", rank=3, n_meas=3, n_layers=2)
        _, log = trainer.train(x, configs, TrainConfig(lam=0.01, iters=25, batch=16, seed=1, log_every=10))
        assert [row["iter"] for row in log] == [1, 10, 20]
        for key in ("loss", "bits_base", "bits_refine", "l1_total", "l1_residual", "grad_norm", "lr"):
            assert key in log[0]
        assert all(row["grad_norm"] > 0.0 for row in log)
        # lr decays exponentially from lr at iteration 1 to lr * _LR_DECAY at the last
        assert log[0]["lr"] == pytest.approx(0.01)
        assert log[0]["lr"] > log[1]["lr"] > log[2]["lr"] > 0.01 * trainer._LR_DECAY

    def test_full_rank_stream_has_no_refinement(self):
        # rank == dim leaves a zero truncation residual; a refinement layer
        # would only drive its latents under the probability floor (40 bits each)
        x = np.random.default_rng(0).normal(size=(300, 8))
        configs = codec.default_configs(8)
        assert configs[0].rank == configs[0].dim == 8
        assert not configs[0].has_refinement
        bundle, log = trainer.train(x, configs, TrainConfig(lam=0.01, iters=120))
        assert bundle.streams[0].refine is None
        assert [row["iter"] for row in log] == [1, 100]
        assert all(row["bits_refine"] == 0.0 for row in log)
        assert log[-1]["loss"] <= log[0]["loss"]


class TestTrainedBytes:
    """sha256 of a trained bundle's file and of its training log: a change to
    the training path that moves any trained float shows here (re-pinned at
    bitstream v6, where only the container changed: the v5 files, reframed,
    are these bytes, and the logs did not move)."""

    # default_configs keywords -> (bundle file, log)
    CASES = {
        "shtc-full": {},
        "scaling_cols=2": {"scaling_cols": 2},
        "klt-trunc": {"transform": "klt-trunc"},
        "dct": {"transform": "dct"},
    }
    PINNED = {
        "shtc-full": (
            "de006f83efce8c349905d58caf7ec0c116d44c27024e1c3d5f0f0fdd5d49109c",
            "d716485348c915f0aa950cc4cdb3dbaef3a2d6255408d575fd1ac5e2fd10c240",
        ),
        "scaling_cols=2": (
            "3d5e2a0dc520ff24ed7f7f3afb31603eb4b8bd4e3ff4318a5c2248cab7203daa",
            "28d68d1b1f44b129dd981e2a844ff8b02c44ea7ab3ea6ead2d5cbe521d5f623d",
        ),
        "klt-trunc": (
            "a98c88f77ea2a27ff844dfa6546501ce0ad4a5144ff26fa938004100caa5dc35",
            "9bebdf436e2fc4cf1136fc98d8e5b0027ac1360c6ee9c925454a767cba980b3b",
        ),
        "dct": (
            "b786101b55822a9ae49bf987a3f68a3d101725a20a4af6ce592be54fe1404345",
            "f8f2422a041a359475a2b428b3a92d76f2c4bc2517dfaa13ed04f2dccb109a0b",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_trained_bytes_pinned(self, case):
        configs = codec.default_configs(8, rank=3, n_meas=3, n_layers=2, **self.CASES[case])
        tc = TrainConfig(lam=0.01, iters=40, batch=16, seed=6, log_every=10)
        bundle, log = trainer.train(toy_table(11), configs, tc)
        got = (
            hashlib.sha256(bitstream.serialize(bundle)[0]).hexdigest(),
            hashlib.sha256(repr(log).encode()).hexdigest(),
        )
        assert got == self.PINNED[case]

    def test_trained_bytes_default_architecture(self):
        """The default architecture at full 256-row batches (dim 50, rank 15,
        n_meas 15, 6 layers): the shapes of a real fit, where BLAS takes
        other kernels than at the toy shapes above."""
        x = bench.synth_source(bench.SyntheticSpec(n_rows=600, seed=3))
        configs = codec.default_configs(50, rank=15, n_meas=15, n_layers=6)
        tc = TrainConfig(lam=0.004, iters=20, batch=256, seed=6, log_every=5)
        bundle, log = trainer.train(x, configs, tc)
        assert hashlib.sha256(bitstream.serialize(bundle)[0]).hexdigest() == (
            "90afff21376235981140b1565bd0291b757667e6f9a558d27c2f17726fa8c160"
        )
        assert hashlib.sha256(repr(log).encode()).hexdigest() == (
            "7b642f7c908fb4bf109f3aa511d41ef1e1f90b7d17918d2eda2a79f66b6a6631"
        )
