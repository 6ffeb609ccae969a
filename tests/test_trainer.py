"""Trainer tests: loss identities, gradients vs finite differences, Adam."""

import hashlib
import warnings

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

    def unfold_spy(y, prepared, record=None):
        layers = [] if record is None else record
        beta = orig_unfold(y, prepared, record=layers)
        taus = prepared.taus[:, : prepared.n_atoms]  # each layer's untiled thresholds
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


def precision_case(name):
    """(table, batch rows, bundle, config) of a precision check: the toy
    two-stream bundle, or the default architecture at full 256-row batches."""
    if name == "toy":
        x = toy_table(5)
        configs = codec.default_configs(8, rank=3, n_meas=3, n_layers=2, scaling_cols=2)
        return x, 16, codec.fit_bundle(x, configs, np.random.default_rng(5)), TrainConfig(lam=0.01)
    x = bench.synth_source(bench.SyntheticSpec(n_rows=600, seed=3))
    bundle = codec.fit_bundle(x, codec.default_configs(50), np.random.default_rng(3))
    return x, 256, bundle, TrainConfig(lam=0.004)


class _Recording(np.ndarray):
    """A gradient view that records the dtype of everything added into it."""

    added: list = []

    def __iadd__(self, other):
        _Recording.added.append(np.asarray(other).dtype)
        return super().__iadd__(other)


class TestPrecision:
    """``loss`` and ``backward`` compute in the precision of their batch;
    the gradient they return is float64 either way."""

    # (loss value, sha256 of the gradient) of a float64 batch, taken when
    # the trainer ran in float64 only
    PINNED_F64 = {
        "toy": (0.31728050913375244, "d578f7583946089a4a060a2effe129235b8a54b00f297ccc8136af8efe041143"),
        "default": (0.3871564123032754, "d065299b2089984c91f312c91927a6e63849db4c6489fa9db296ec8f6b92970a"),
    }

    @pytest.mark.parametrize("case", list(PINNED_F64))
    def test_float64_batch_unchanged(self, case):
        x, rows, bundle, tc = precision_case(case)
        batch = x[:rows]
        params = trainer.make_params(bundle)
        fwd, _ = trainer.loss(batch, bundle, params, tc, np.random.default_rng(7))
        grad = trainer.backward(fwd, params)
        assert grad.dtype == np.float64
        assert (fwd.value, hashlib.sha256(grad.tobytes()).hexdigest()) == self.PINNED_F64[case]

    @pytest.mark.parametrize("case", list(PINNED_F64))
    def test_float32_batch_stays_float32(self, case, monkeypatch):
        # no float64 constant, index vector or draw promotes a float32 pass
        # (NEP 50): every intermediate of the shared helpers and every piece
        # added into the float64 gradient is float32
        from shtc import entropy, refinement

        x, rows, bundle, tc = precision_case(case)
        batch = x[:rows]
        params = trainer.make_params(bundle)
        seen = []

        def spy(module, name, arrays_of):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = orig(*args, **kwargs)
                seen.extend((name, a.dtype) for a in arrays_of(args, kwargs, out))
                return out

            monkeypatch.setattr(module, name, wrapper)

        spy(entropy, "bin_bits", lambda args, kw, out: [*args[:1], *out])
        spy(trainer, "_rate_grad", lambda args, kw, out: out)
        spy(refinement, "unfold_code",
            lambda args, kw, out: [args[0], out, *(a for layer in kw["record"] for a in layer)])
        spy(trainer, "_unfold_grad", lambda args, kw, out: out)
        fwd, _ = trainer.loss(batch.astype(np.float32), bundle, params, tc, np.random.default_rng(7))

        plain_views = params.views
        monkeypatch.setattr(params, "views", lambda flat: {
            k: v.view(_Recording) for k, v in plain_views(flat).items()})
        _Recording.added = []
        grad = trainer.backward(fwd, params)

        assert {name for name, _ in seen} == {"bin_bits", "_rate_grad", "unfold_code", "_unfold_grad"}
        assert [(n, d) for n, d in seen if d != np.float32] == []
        assert len(_Recording.added) >= len(params) and set(_Recording.added) == {np.dtype(np.float32)}
        assert grad.dtype == np.float64

    def test_float32_close_to_float64(self):
        # the same params, batch and draws: float32 rounding moves the loss
        # by under 1e-5 relative and the gradient by under 1e-2 of its norm
        x, rows, bundle, tc = precision_case("default")
        params = trainer.make_params(bundle)
        for seed in range(5):
            batch = x[np.random.default_rng(seed).integers(0, x.shape[0], rows)]
            out = {}
            for dt in (np.float64, np.float32):
                fwd, _ = trainer.loss(batch.astype(dt), bundle, params, tc, np.random.default_rng(seed))
                out[dt] = fwd.value, trainer.backward(fwd, params)
            (v64, g64), (v32, g32) = out[np.float64], out[np.float32]
            assert abs(v32 - v64) <= 1e-5 * abs(v64)
            assert np.linalg.norm(g32 - g64) <= 1e-2 * np.linalg.norm(g64)


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
        # the log's keys are the columns shtc fit writes
        assert all(sorted(row) == sorted(trainer.LOG_COLUMNS) for row in log)
        assert all(row["grad_norm"] > 0.0 for row in log)
        # lr decays exponentially from lr at iteration 1 to lr * _LR_DECAY at the last
        assert log[0]["lr"] == pytest.approx(0.01)
        assert log[0]["lr"] > log[1]["lr"] > log[2]["lr"] > 0.01 * trainer._LR_DECAY

    @pytest.mark.parametrize("scale", [1e4, 1e30])
    def test_large_valued_table_round_trips(self, scale):
        # a residual spread above ~1420 once overflowed the initial threshold
        # (expm1) into a non-finite model; float32 training holds up to 1e38
        x = np.random.default_rng(0).normal(0.0, scale, size=(400, 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle, _ = trainer.train(x, codec.default_configs(20), TrainConfig(iters=30))
            payload, recon = codec.encode_table(bundle, x)
            back_bundle, back_payload = bitstream.deserialize(bitstream.serialize(bundle, payload)[0])
            assert np.array_equal(codec.decode_table(back_bundle, back_payload), recon)
        assert bundle.streams[0].refine is not None
        assert np.abs(x - recon).mean() < 0.5 * scale

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
    the training path that moves any trained float shows here. Re-pinned
    when training moved to float32 batches: every log moved, and so did the
    files of the two refinement cases; the klt-trunc and dct files kept
    their bytes, since their learned schedules round to the same binary32.
    Re-pinned at bitstream v7: each file differs from v6 only in its
    version and CRC."""

    # default_configs keywords -> (bundle file, log)
    CASES = {
        "shtc-full": {},
        "scaling_cols=2": {"scaling_cols": 2},
        "klt-trunc": {"transform": "klt-trunc"},
        "dct": {"transform": "dct"},
    }
    PINNED = {
        "shtc-full": (
            "7775a628b221258574ad67c098b6d58433ba25dea541f93c2162b76a067813c2",
            "dc5e2aac7a2d76a4457e6e713c65c847b098ff8daf1ccfa069ff7e463e033617",
        ),
        "scaling_cols=2": (
            "47ae595ecb6b4ac3f45e94121d94411c30370abe36d5920704afaa70faaf4da2",
            "bd85dbee71f090e4dc726f0b381f2e9afff92cd3e465ba74056beac6b828b8aa",
        ),
        "klt-trunc": (
            "ff74c62e057353755b7c396ae142c13a254f722c32947c5c209fa2c9b0eba172",
            "47c164534e50eaba44d23fa19e4dd23d66f3d2c5537e05ff3e07613a607e41d1",
        ),
        "dct": (
            "82cd4010823ec49b5d40834a4831228907cdd5369663efe5bd4bbc731411a163",
            "de2a92e94f249835a1bc929a380b0bd9940f91bd265023d1fb4d0f92c7c68279",
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
            "628aeac6eede911eb9bbcaa7dbc41a6bf644f6dd078020c5308b9d6d24c2ac64"
        )
        assert hashlib.sha256(repr(log).encode()).hexdigest() == (
            "27e9e4c35ce38a9d8f697f223803972427f72998dc3b583f0231e4ad9e6fead0"
        )
