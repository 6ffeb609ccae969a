"""Gradient checks for the reverse-mode tape and its fused nodes."""

import numpy as np
import pytest

from shtc import autodiff as ad
from shtc import entropy, refinement
from shtc.autodiff import Var
from shtc.entropy import GaussianEntropyModel
from shtc.quantizer import channel_schedule


def finite_diff(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    xf = x0.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        up = fn(x0)
        xf[i] = orig - h
        dn = fn(x0)
        xf[i] = orig
        flat[i] = (up - dn) / (2 * h)
    return grad


def check(build, x0, rtol=1e-6, atol=1e-9):
    """build(Var) -> scalar Var; compares tape gradient to central differences."""
    x0 = np.asarray(x0, dtype=np.float64)

    def value(arr):
        return float(build(Var(arr)).data)

    v = Var(x0.copy(), requires_grad=True)
    out = build(v)
    out.backward()
    fd = finite_diff(value, x0.copy())
    assert np.allclose(v.grad, fd, rtol=rtol, atol=atol), f"{v.grad} vs {fd}"


class TestBasicOps:
    def test_sum_of_squares(self):
        v = Var(np.array([1.0, 2.0]), requires_grad=True)
        (v * v).sum().backward()
        assert np.allclose(v.grad, [2.0, 4.0])

    def test_add_mul_chain(self):
        check(lambda v: ((v + 2.0) * v).sum(), np.array([0.3, -1.2, 4.0]))

    def test_matmul_both_sides(self):
        a0 = np.arange(6.0).reshape(2, 3)
        b0 = np.arange(12.0).reshape(3, 4) / 7.0
        check(lambda v: (v @ Var(b0)).sum(), a0)
        check(lambda v: (Var(a0) @ v).sum(), b0)

    def test_transpose(self):
        check(lambda v: (v.T @ Var(np.ones((2, 2)))).sum(), np.ones((2, 3)))

    def test_broadcast_row_vector(self):
        x = np.ones((4, 3))
        check(lambda v: (Var(x) * v).sum(), np.array([1.0, 2.0, 3.0]))
        check(lambda v: (Var(x) + v).sum(), np.array([1.0, 2.0, 3.0]))

    def test_exp(self):
        check(lambda v: ad.vexp(v).sum(), np.array([0.1, -0.5]))

    def test_abs_away_from_zero(self):
        check(lambda v: ad.vabs(v).sum(), np.array([-1.5, 2.0, 0.25]))


def check_every_input(node, inputs, weight=None, rtol=1e-6, atol=1e-9):
    """Gradient of sum(weight * node(*inputs)) to each input vs central differences."""
    inputs = [np.asarray(a, dtype=np.float64) for a in inputs]
    for i in range(len(inputs)):

        def build(v, i=i):
            args = [v if j == i else Var(a) for j, a in enumerate(inputs)]
            out = node(*args)
            return (out * Var(weight)).sum() if weight is not None else out

        check(build, inputs[i].copy(), rtol=rtol, atol=atol)


def leaves(*arrays):
    return [Var(np.asarray(a, dtype=np.float64).copy(), requires_grad=True) for a in arrays]


class TestRateNode:
    """``ad.rate_bits``: entropy.bin_bits summed, as one node."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.sched = channel_schedule(0.4, 0.2, 3)
        self.model = GaussianEntropyModel(mu=np.array([0.1, -0.3, 0.0]), sigma=np.array([0.8, 1.5, 0.6]))
        self.x = rng.normal(0.0, 1.0, (5, 3))

    def inputs(self):
        return [self.x, self.model.mu, self.model.sigma, self.sched.steps]

    def test_forward_equals_entropy_rate_bits(self):
        node = ad.rate_bits(*[Var(a) for a in self.inputs()])
        assert float(node.data) == entropy.rate_bits(self.x, self.model, self.sched)

    def test_gradient_every_input(self):
        check_every_input(ad.rate_bits, self.inputs(), rtol=1e-6, atol=1e-8)

    def test_floor_side_gets_no_gradient(self):
        # the second row sits 8 sigma out: its bin mass is under the floor,
        # while the pdf at the bin edges is not yet zero
        self.x[1] = self.model.mu + 8.0 * self.model.sigma
        _, p, _, _ = entropy.bin_bits(self.x, self.model.mu, self.model.sigma, self.sched.steps)
        assert np.all(p[1] < entropy._PROB_FLOOR) and np.all(p[1] > 0.0)
        x, mu, sigma, steps = leaves(*self.inputs())
        ad.rate_bits(x, mu, sigma, steps).backward()
        assert np.all(x.grad[1] == 0.0)
        assert np.all(x.grad[[0, 2, 3, 4]] != 0.0)
        # mu, sigma and steps see only the live rows
        kept = leaves(*self.inputs()[1:])
        ad.rate_bits(Var(np.delete(self.x, 1, axis=0)), *kept).backward()
        for full, live in zip((mu, sigma, steps), kept):
            assert np.allclose(full.grad, live.grad, rtol=1e-12, atol=0.0)


class TestUnfoldNode:
    """``ad.unfold``: refinement.unfold_code then D beta, as one node."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.model = refinement.init_refinement(5, 3, 5, 3, rng, step_init=0.6, thresh_init=0.1)
        self.model.step_raw += 0.1 * rng.normal(size=self.model.step_raw.shape)
        self.model.thresh_raw += 0.1 * rng.normal(size=self.model.thresh_raw.shape)
        self.y = rng.normal(0.0, 1.0, (4, 3))
        self.weight = rng.normal(0.0, 1.0, (4, 5))

    def inputs(self):
        m = self.model
        return [self.y, m.measure, m.dictionary, m.step_raw, m.thresh_raw]

    def test_forward_equals_unfold_synthesize(self):
        node = ad.unfold(*[Var(a) for a in self.inputs()])
        assert np.array_equal(node.data, refinement.unfold_synthesize(self.y, self.model))

    def test_gradient_every_input(self):
        # differences are only valid away from the soft-threshold kinks; the
        # draw has live and dead-zone entries in every layer
        layers = []
        refinement.unfold_code(self.y, self.model, record=layers)
        taus = self.model.thresholds()
        for k, (_, _, pre) in enumerate(layers):
            live = np.abs(pre) > taus[k]
            assert live.any() and not live.all()
            assert np.abs(np.abs(pre) - taus[k]).min() > 1e-3
        check_every_input(ad.unfold, self.inputs(), weight=self.weight)

    def test_dead_zone_zero_gradient(self):
        # one layer whose every pre-activation sits inside the dead zone
        self.model.step_raw = self.model.step_raw[:1]
        self.model.thresh_raw = np.full_like(self.model.thresh_raw[:1], 50.0)
        vars_ = leaves(*self.inputs())
        out = ad.unfold(*vars_)
        assert np.all(out.data == 0.0)
        (out * Var(self.weight)).sum().backward()
        for v in vars_:
            assert np.all(v.grad == 0.0)


class TestGather:
    def test_take_rows_scatter_add(self):
        x = Var(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 2, 0])
        ad.take_rows(x, idx).sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        assert np.allclose(x.grad, expected)

    def test_slice_cols(self):
        x = Var(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ad.slice_cols(x, 1, 3).sum().backward()
        expected = np.zeros((3, 4))
        expected[:, 1:3] = 1.0
        assert np.allclose(x.grad, expected)


class TestGraph:
    def test_shared_node_accumulates(self):
        x = Var(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        ((y * y) + y).sum().backward()
        # d/dx (9x^2 + 3x) = 18x + 3
        assert np.allclose(x.grad, 39.0)

    def test_constant_subgraph_pruned(self):
        const = Var(np.ones(3))
        x = Var(np.ones(3), requires_grad=True)
        (x * const).sum().backward()
        assert const.grad is None

    def test_backward_needs_scalar(self):
        x = Var(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_deep_chain(self):
        x = Var(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(300):
            y = y * 1.01
        y.sum().backward()
        assert np.allclose(x.grad, 1.01**300)
