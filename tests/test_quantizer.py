"""Quantizer and channel-schedule tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import quantizer, trainer
from shtc.autodiff import Var
from shtc.errors import BadStep, DimMismatch, Overflow


class TestSchedule:
    def test_alpha_zero_constant(self):
        sched = quantizer.channel_schedule(0.5, 0.0, 4)
        assert np.allclose(sched.steps, 0.5)

    def test_exponential_growth(self):
        sched = quantizer.channel_schedule(0.1, np.log(2.0), 3)
        assert np.allclose(sched.steps, [0.1, 0.2, 0.4])

    def test_nondecreasing_iff_alpha_nonneg(self):
        up = quantizer.channel_schedule(1.0, 0.3, 5)
        down = quantizer.channel_schedule(1.0, -0.3, 5)
        assert np.all(np.diff(up.steps) >= 0)
        assert np.all(np.diff(down.steps) < 0)

    def test_bad_step(self):
        with pytest.raises(BadStep):
            quantizer.channel_schedule(0.0, 0.0, 3)
        with pytest.raises(BadStep):
            quantizer.channel_schedule(-1.0, 0.0, 3)

    def test_alpha_sensitivity_matches_finite_difference(self):
        # d steps[i] / d alpha = i * steps[i]
        q_s, alpha, n, h = 0.3, 0.2, 6, 1e-7
        base = quantizer.channel_schedule(q_s, alpha, n).steps
        up = quantizer.channel_schedule(q_s, alpha + h, n).steps
        dn = quantizer.channel_schedule(q_s, alpha - h, n).steps
        fd = (up - dn) / (2 * h)
        analytic = np.arange(n) * base
        assert np.allclose(fd, analytic, rtol=1e-6, atol=1e-9)


class TestQuantize:
    def test_round_half_away(self):
        sched = quantizer.channel_schedule(1.0, 0.0, 2)
        assert np.array_equal(quantizer.quantize(np.array([0.9, -0.9]), sched), [1, -1])
        one = quantizer.channel_schedule(1.0, 0.0, 1)
        assert quantizer.quantize(np.array([0.5]), one)[0] == 1
        assert quantizer.quantize(np.array([-0.5]), one)[0] == -1
        assert quantizer.quantize(np.array([1.5]), one)[0] == 2

    def test_overflow(self):
        sched = quantizer.channel_schedule(1e-9, 0.0, 1)
        with pytest.raises(Overflow):
            quantizer.quantize(np.array([1e10]), sched)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            quantizer.quantize(np.zeros(3), quantizer.channel_schedule(1.0, 0.0, 2))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_round_trip_within_half_step(self, seed):
        rng = np.random.default_rng(seed)
        sched = quantizer.channel_schedule(0.2, 0.1, 5)
        x = rng.normal(size=(8, 5)) * 3.0
        back = quantizer.dequantize(quantizer.quantize(x, sched), sched)
        assert np.all(np.abs(back - x) <= sched.steps / 2 + 1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        sched = quantizer.channel_schedule(0.37, 0.05, 4)
        x = rng.normal(size=(100, 4))
        assert np.array_equal(quantizer.quantize(x, sched), quantizer.quantize(x.copy(), sched))


class TestDequantize:
    def test_zero_symbols(self):
        sched = quantizer.channel_schedule(0.3, 0.0, 3)
        assert np.allclose(quantizer.dequantize(np.zeros(3, dtype=np.int64), sched), 0.0)

    def test_linearity_in_schedule(self):
        sched1 = quantizer.channel_schedule(0.2, 0.1, 4)
        sched3 = quantizer.channel_schedule(0.6, 0.1, 4)
        sym = np.array([1, -2, 5, 0])
        assert np.allclose(
            quantizer.dequantize(sym, sched3), 3.0 * quantizer.dequantize(sym, sched1)
        )


class TestNoiseProxy:
    """The trainer's stand-in for quantization: x + U(-step/2, step/2) per channel."""

    @staticmethod
    def noise(x, sched, rng):
        return trainer._noise_proxy(Var(x), Var(sched.steps), rng).data - x

    def test_mean_near_zero(self):
        rng = np.random.default_rng(0)
        sched = quantizer.channel_schedule(0.5, 0.0, 1)
        noise = self.noise(np.zeros((1_000_000, 1)), sched, rng)
        assert abs(noise.mean()) < 1e-3 * 0.5

    def test_variance_step_sq_over_12(self):
        rng = np.random.default_rng(1)
        sched = quantizer.channel_schedule(0.8, 0.0, 1)
        noise = self.noise(np.zeros((1_000_000, 1)), sched, rng)
        expected = 0.8**2 / 12.0
        assert noise.var() == pytest.approx(expected, rel=0.02)

    def test_bounded_by_half_step(self):
        rng = np.random.default_rng(2)
        sched = quantizer.channel_schedule(0.1, 0.2, 6)
        x = rng.normal(size=(100, 6))
        noise = self.noise(x, sched, rng)
        assert np.all(np.abs(noise) <= sched.steps / 2)

    def test_tiny_steps_limit(self):
        rng = np.random.default_rng(3)
        sched = quantizer.channel_schedule(1e-300, 0.0, 2)
        x = np.ones((5, 2))
        assert np.allclose(trainer._noise_proxy(Var(x), Var(sched.steps), rng).data, x)
