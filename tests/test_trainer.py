"""Trainer tests: loss identities, gradients vs finite differences, Adam."""

import numpy as np
import pytest

from shtc import codec, trainer
from shtc.autodiff import Var
from shtc.errors import ConfigError, InsufficientData
from shtc.trainer import AdamState, TrainConfig, adam_step


def toy_table(seed=0, n=64, d=8, rank=3, spikes=2):
    rng = np.random.default_rng(seed)
    mix = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = 2.0 * (np.arange(rank) + 1.0) ** -1.2
    x = (rng.normal(size=(n, rank)) * np.sqrt(lam)) @ mix[:, :rank].T
    cols = np.argsort(rng.random((n, d)), axis=1)[:, :spikes]
    np.put_along_axis(x, cols, np.take_along_axis(x, cols, axis=1) + rng.normal(0, 0.5, cols.shape), axis=1)
    return x + 0.01 * rng.normal(size=(n, d))


def toy_setup(seed=0, transform="shtc-full", quant_mode="noise"):
    x = toy_table(seed)
    configs = codec.default_configs(8, transform=transform, rank=3, n_meas=3, n_layers=2)
    rng = np.random.default_rng(seed)
    bundle = codec.fit_bundle(x, configs, rng)
    params = trainer.make_params(bundle)
    tc = TrainConfig(lam=0.01, iters=10, batch=16, seed=seed, quant_mode=quant_mode)
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
        with pytest.raises(ConfigError):
            TrainConfig(lam=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(quant_mode="bogus")


class TestLoss:
    def test_identity_configuration_zero_distortion(self):
        # full-rank base, no quantization: distortion terms vanish
        x = toy_table(1)
        configs = codec.default_configs(8, transform="klt-trunc", rank=8)
        bundle = codec.fit_bundle(x, configs, np.random.default_rng(1))
        params = trainer.make_params(bundle)
        tc = TrainConfig(lam=0.01, quant_mode="none")
        loss_var, comps = trainer.loss(x[:32], bundle, params, tc, np.random.default_rng(0))
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
        assert float(l1.data) == float(l2.data)
        assert c1 == c2


def _kink_margins(x, bundle, params, tc, rng_seed):
    """Smallest distance to any nondifferentiable point in the forward pass.

    Spies on the shared forward helpers the fused tape nodes run: every
    soft-threshold layer of ``refinement.unfold_code``, every bin mass of
    ``entropy.bin_bits`` against the probability floor, and every ``ad.vabs``.
    """
    import shtc.autodiff as ad
    from shtc import entropy, refinement

    margins = [np.inf]
    orig_unfold = refinement.unfold_code
    orig_bits = entropy.bin_bits
    orig_abs = ad.vabs

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

    def abs_spy(a):
        margins.append(np.abs(a.data).min())
        return orig_abs(a)

    refinement.unfold_code = unfold_spy
    entropy.bin_bits = bits_spy
    ad.vabs = abs_spy
    # the trainer and the fused nodes look these up through their modules
    try:
        trainer.loss(x, bundle, params, tc, np.random.default_rng(rng_seed))
    finally:
        refinement.unfold_code = orig_unfold
        entropy.bin_bits = orig_bits
        ad.vabs = orig_abs
    return min(margins)


class TestFullPipelineGradients:
    def test_gradients_match_finite_differences(self):
        # noise-mode quantization keeps the pipeline differentiable a.e.;
        # probes landing near a kink are resampled
        h = 1e-5
        checked = 0
        probe = 0
        while checked < 5 and probe < 25:
            probe += 1
            x, bundle, params, tc = toy_setup(seed=100 + probe)
            batch = x[:16]
            if _kink_margins(batch, bundle, params, tc, probe) < 1e-4:
                continue
            loss_var, _ = trainer.loss(batch, bundle, params, tc, np.random.default_rng(probe))
            grads = trainer.backward(loss_var, params)

            def value():
                lv, _ = trainer.loss(batch, bundle, params, tc, np.random.default_rng(probe))
                return float(lv.data)

            for name, p in params.items():
                g = grads.get(name)
                if g is None:
                    continue
                flat = p.data.reshape(-1)
                gf = np.asarray(g).reshape(-1)
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
    def test_simple_quadratic_gradient(self):
        v = Var(np.array([1.0, 2.0]), requires_grad=True)
        (v * v).sum().backward()
        assert np.allclose(v.grad, [2.0, 4.0])

    def test_bias_corrected_first_step(self):
        params = {"w": Var(np.array([1.0]), requires_grad=True)}
        state = AdamState()
        adam_step(params, {"w": np.array([0.5])}, state, lr=0.1)
        # first step moves by ~lr regardless of gradient scale
        assert params["w"].data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_zero_gradient_fixed_point(self):
        params = {"w": Var(np.array([3.0]), requires_grad=True)}
        state = AdamState()
        adam_step(params, {"w": np.array([0.0])}, state, lr=0.1)
        assert params["w"].data[0] == pytest.approx(3.0, abs=1e-9)

    def test_converges_on_quadratic(self):
        params = {"w": Var(np.array([5.0, -3.0]), requires_grad=True)}
        state = AdamState()
        for _ in range(800):
            g = 2.0 * params["w"].data
            adam_step(params, {"w": g}, state, lr=0.05)
        assert np.abs(params["w"].data).max() < 1e-3

    def test_clip_gradients(self):
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}
        norm = trainer.clip_gradients(grads, 10.0)
        assert norm == pytest.approx(50.0)
        assert np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())) == pytest.approx(10.0)


class TestTrain:
    def test_constant_source_near_zero_rate_and_distortion(self):
        x = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (512, 1))
        x += 1e-9 * np.random.default_rng(0).normal(size=x.shape)  # covariance needs spread
        configs = codec.default_configs(4, transform="klt-trunc", rank=4)
        bundle, log = trainer.train(x, configs, TrainConfig(lam=0.01, iters=500, batch=32, seed=0))
        payloads, recon = codec.encode_table(bundle, x)
        from shtc.bitstream import serialize

        _, counts = serialize(bundle, payloads)
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
        # lr decays exponentially from lr at iteration 1 to lr * lr_decay at the last
        assert log[0]["lr"] == pytest.approx(0.01)
        assert log[0]["lr"] > log[1]["lr"] > log[2]["lr"] > 0.01 * 0.05

    def test_joint_mode_runs_and_helps_distortion(self):
        x = toy_table(10, n=128)
        configs = codec.default_configs(8, transform="klt-trunc", rank=3)
        fixed_tc = TrainConfig(lam=0.01, iters=150, batch=32, seed=3, refit_period=50)
        joint_tc = TrainConfig(lam=0.01, iters=150, batch=32, seed=3, joint=True, refit_period=50)
        b_fixed, log_fixed = trainer.train(x, configs, fixed_tc)
        b_joint, log_joint = trainer.train(x, configs, joint_tc)
        assert np.isfinite(log_joint[-1]["loss"])
        # joint mode can only do better on the training objective
        assert log_joint[-1]["loss"] <= log_fixed[-1]["loss"] * 1.2
