"""Central-difference checks of the trainer's two hand-written backwards:
the rate term over ``entropy.bin_bits`` and the unfolded-ISTA decoder over
``refinement.unfold_code``."""

import numpy as np

from shtc import entropy, refinement, trainer
from shtc.entropy import GaussianEntropyModel
from shtc.quantizer import channel_schedule

from .oracles import untiled


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


def check_every_input(value, grads, inputs, rtol=1e-6, atol=1e-9):
    """``grads`` (one per input) against central differences of the scalar
    ``value(*inputs)`` in each input."""
    inputs = [np.asarray(a, dtype=np.float64).copy() for a in inputs]
    for i, grad in enumerate(grads):

        def at(arr, i=i):
            return value(*[arr if j == i else a for j, a in enumerate(inputs)])

        fd = finite_diff(at, inputs[i].copy())
        assert np.allclose(grad, fd, rtol=rtol, atol=atol), f"input {i}: {grad} vs {fd}"


def rate_value(x, mu, sigma, steps):
    return float(entropy.bin_bits(x, mu, sigma, steps)[0].sum())


def rate_grads(x, mu, sigma, steps):
    _, p, z_lo, z_hi = entropy.bin_bits(x, mu, sigma, steps)
    return trainer._rate_grad(1.0, p, z_lo, z_hi, sigma)


class TestRateNode:
    """``trainer._rate_grad``: the backward of entropy.bin_bits summed."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.sched = channel_schedule(0.4, 0.2, 3)
        self.model = GaussianEntropyModel(mu=np.array([0.1, -0.3, 0.0]), sigma=np.array([0.8, 1.5, 0.6]))
        self.x = rng.normal(0.0, 1.0, (5, 3))

    def inputs(self):
        return [self.x, self.model.mu, self.model.sigma, self.sched.steps]

    def test_forward_equals_entropy_rate_bits(self):
        assert rate_value(*self.inputs()) == entropy.rate_bits(self.x, self.model, self.sched)

    def test_gradient_every_input(self):
        check_every_input(rate_value, rate_grads(*self.inputs()), self.inputs(), rtol=1e-6, atol=1e-8)

    def test_floor_side_gets_no_gradient(self):
        # the second row sits 8 sigma out: its bin mass is under the floor,
        # while the pdf at the bin edges is not yet zero
        self.x[1] = self.model.mu + 8.0 * self.model.sigma
        _, p, _, _ = entropy.bin_bits(self.x, self.model.mu, self.model.sigma, self.sched.steps)
        assert np.all(p[1] < entropy._PROB_FLOOR) and np.all(p[1] > 0.0)
        dx, *full = rate_grads(*self.inputs())
        assert np.all(dx[1] == 0.0)
        assert np.all(dx[[0, 2, 3, 4]] != 0.0)
        # mu, sigma and steps see only the live rows
        _, *live = rate_grads(np.delete(self.x, 1, axis=0), *self.inputs()[1:])
        for a, b in zip(full, live):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def unfold_value(weight):
    def value(y, measure, dictionary, step_raw, thresh_raw):
        model = refinement.RefinementModel(measure, dictionary, step_raw, thresh_raw)
        return float((weight * untiled(refinement.unfold_synthesize, y, model)).sum())

    return value


def unfold_grads(weight, y, model):
    prepared = refinement.prepare(model, y.dtype)
    layers = []
    beta = refinement.unfold_code(y, prepared, record=layers)
    return trainer._unfold_grad(weight, y, model, prepared, beta, layers)


class TestUnfoldNode:
    """``trainer._unfold_grad``: the backward of refinement.unfold_code then D beta."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.model = refinement.init_refinement(5, 3, 5, 3, rng, thresh_init=0.1)
        self.model.step_raw[:] = np.log(0.6)
        self.model.step_raw += 0.1 * rng.normal(size=self.model.step_raw.shape)
        self.model.thresh_raw += 0.1 * rng.normal(size=self.model.thresh_raw.shape)
        self.y = rng.normal(0.0, 1.0, (4, 3))
        self.weight = rng.normal(0.0, 1.0, (4, 5))

    def inputs(self):
        m = self.model
        return [self.y, m.measure, m.dictionary, m.step_raw, m.thresh_raw]

    def test_forward_equals_unfold_synthesize(self):
        beta = untiled(refinement.unfold_code, self.y, self.model, record=[])
        assert np.array_equal(beta @ self.model.dictionary.T, untiled(refinement.unfold_synthesize, self.y, self.model))

    def test_gradient_every_input(self):
        # differences are only valid away from the soft-threshold kinks; the
        # draw has live and dead-zone entries in every layer
        layers = []
        untiled(refinement.unfold_code, self.y, self.model, record=layers)
        g, etas, taus = self.model.measure @ self.model.dictionary, self.model.steps(), self.model.thresholds()
        for k, (beta_k, resid) in enumerate(layers):
            pre = beta_k - etas[k] * (resid @ g)  # the layer's pre-activation
            live = np.abs(pre) > taus[k]
            assert live.any() and not live.all()
            assert np.abs(np.abs(pre) - taus[k]).min() > 1e-3
        grads = unfold_grads(self.weight, self.y, self.model)
        check_every_input(unfold_value(self.weight), grads, self.inputs())

    def test_dead_zone_edges(self):
        """The backward reads layer k's dead zone and sign from the next
        layer's code: beta_k+1 != 0 exactly where |pre_k| > tau_k, with the
        sign of pre_k there. One layer with A = D = I and step 1 has pre = y,
        so entries can sit exactly on the edges +-tau, and at tau = 0."""
        n = 5
        thresh_raw = np.array([[np.log(np.expm1(0.25)), np.log(np.expm1(1.5)), -800.0, -800.0, 0.0]])
        model = refinement.RefinementModel(np.eye(n), np.eye(n), np.zeros((1, n)), thresh_raw)
        taus = model.thresholds()[0]
        assert taus[2] == taus[3] == 0.0 and np.all(taus[[0, 1, 4]] > 0)
        edge, above = taus, np.nextafter(taus, np.inf)
        y = np.stack([edge, -edge, above, -above, 0.5 * edge, np.zeros(n), -np.zeros(n)])
        y = np.concatenate([y, np.full((1, n), 5e-324), np.random.default_rng(4).normal(size=(4, n))])
        layers = []
        beta = untiled(refinement.unfold_code, y, model, record=layers)
        ((beta_0, resid),) = layers
        pre = beta_0 - model.steps()[0] * (resid @ (model.measure @ model.dictionary))
        assert np.array_equal(pre, y)
        live = np.abs(pre) > taus
        assert live.any() and not live.all()
        assert np.array_equal(beta != 0, live)
        assert np.array_equal(np.sign(beta[live]), np.sign(pre[live]))
        # d y = g on live entries and zero on the edges and inside
        weight = np.random.default_rng(5).normal(size=y.shape)
        with np.errstate(over="raise"):
            d_y, _, _, _, d_thresh = unfold_grads(weight, y, model)
        with np.errstate(over="ignore"):  # softplus'(-800) = 1 / (1 + exp(800)) = 0
            want = -(weight * np.sign(y) * live).sum(axis=0) / (1.0 + np.exp(-thresh_raw[0]))
        assert np.array_equal(d_y, np.where(live, weight, 0.0))
        np.testing.assert_allclose(d_thresh[0], want, rtol=1e-12, atol=0.0)

    def test_dead_zone_zero_gradient(self):
        # one layer whose every pre-activation sits inside the dead zone
        self.model.step_raw = self.model.step_raw[:1]
        self.model.thresh_raw = np.full_like(self.model.thresh_raw[:1], 50.0)
        assert np.all(untiled(refinement.unfold_synthesize, self.y, self.model) == 0.0)
        for grad in unfold_grads(self.weight, self.y, self.model):
            assert np.all(grad == 0.0)
