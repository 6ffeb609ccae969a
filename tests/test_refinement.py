"""Refinement layer tests: ISTA oracle, unfolding equivalence, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import refinement
from shtc.errors import BadThreshold, DimMismatch, StepTooLarge
from shtc.refinement import RefinementModel


def tied_model(a, dictionary, eta, gamma, n_layers):
    """Unfolded model with every layer tied to scalar (eta, tau=eta*gamma)."""
    n_atoms = dictionary.shape[1]
    tau = eta * gamma
    # softplus(b) = tau
    b = np.log(np.expm1(tau)) if tau > 0 else -745.0
    return RefinementModel(
        measure=a,
        dictionary=dictionary,
        step_raw=np.full((n_layers, n_atoms), np.log(eta)),
        thresh_raw=np.full((n_layers, n_atoms), b),
    )


class TestSoftThreshold:
    def test_formula(self):
        assert refinement.soft_threshold(np.array([1.2]), np.array([0.5]))[0] == pytest.approx(0.7)

    def test_dead_zone(self):
        assert refinement.soft_threshold(np.array([-0.3]), np.array([0.5]))[0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    def test_zero_threshold_identity(self, values):
        z = np.array(values)
        assert np.array_equal(refinement.soft_threshold(z, np.zeros_like(z)), z)

    def test_negative_threshold_rejected(self):
        with pytest.raises(BadThreshold):
            refinement.soft_threshold(np.ones(2), np.array([0.1, -0.1]))


class TestAnalyze:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        model = refinement.init_refinement(6, 3, 6, 2, rng)
        assert np.allclose(refinement.analyze_refine(np.zeros(6), model), 0.0)

    def test_identity_rows(self):
        model = refinement.init_refinement(3, 2, 3, 1, np.random.default_rng(0))
        model.measure = np.eye(3)[:2]
        assert np.allclose(
            refinement.analyze_refine(np.array([4.0, 5.0, 6.0]), model), [4.0, 5.0]
        )

    def test_norm_bound(self):
        rng = np.random.default_rng(1)
        model = refinement.init_refinement(8, 4, 8, 2, rng)
        for _ in range(20):
            r = rng.normal(size=8)
            y = refinement.analyze_refine(r, model)
            assert np.linalg.norm(y) <= np.linalg.norm(model.measure) * np.linalg.norm(r) + 1e-12

    def test_dim_mismatch(self):
        model = refinement.init_refinement(6, 3, 6, 2, np.random.default_rng(0))
        with pytest.raises(DimMismatch):
            refinement.analyze_refine(np.zeros(5), model)


class TestIstaSolve:
    def test_zero_measurements_fixed_point(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 6))
        d = rng.normal(size=(6, 6))
        beta = refinement.ista_solve(np.zeros(3), a, d, gamma=0.1, eta=0.05, iters=50)
        assert np.array_equal(beta, np.zeros(6))

    def test_gamma_zero_converges_to_solve(self):
        rng = np.random.default_rng(3)
        a = np.eye(4)
        d = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        y = rng.normal(size=4)
        lip = refinement.operator_sq_norm(a, d)
        beta = refinement.ista_solve(y, a, d, gamma=0.0, eta=1.0 / lip, iters=10000)
        assert np.linalg.norm(a @ d @ beta - y) < 1e-6
        assert np.allclose(beta, np.linalg.solve(a @ d, y), atol=1e-5)

    def test_one_sparse_support_recovery(self):
        rng = np.random.default_rng(4)
        n_meas, dim = 8, 16
        a = rng.normal(size=(n_meas, dim))
        a /= np.linalg.norm(a, axis=0)  # unit columns: l1 bias is exactly gamma
        d = np.eye(dim)
        truth = np.zeros(dim)
        truth[5] = 1.3
        y = a @ truth
        gamma = 1e-3
        lip = refinement.operator_sq_norm(a, d)
        beta = refinement.ista_solve(y, a, d, gamma=gamma, eta=1.0 / lip, iters=5000)
        # oracle: best single-column least-squares fit over all 16 supports
        errs = [np.linalg.norm(y - a[:, j] * (a[:, j] @ y)) for j in range(dim)]
        assert int(np.argmin(errs)) == 5
        assert int(np.argmax(np.abs(beta))) == 5
        assert np.abs(np.delete(beta, 5)).max() < 1e-3
        assert beta[5] == pytest.approx(1.3, abs=gamma + 1e-9)
        # analytic lasso solution on the recovered support
        assert beta[5] == pytest.approx(1.3 - gamma, abs=1e-9)

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 10))
        d = rng.normal(size=(10, 10))
        y = rng.normal(size=4)
        gamma, lip = 0.05, refinement.operator_sq_norm(a, d)
        eta = 1.0 / lip
        g = a @ d

        def objective(beta):
            return 0.5 * np.sum((y - g @ beta) ** 2) + gamma * np.abs(beta).sum()

        prev = objective(np.zeros(10))
        for iters in range(1, 30):
            beta = refinement.ista_solve(y, a, d, gamma=gamma, eta=eta, iters=iters)
            cur = objective(beta)
            assert cur <= prev + 1e-12
            prev = cur

    def test_step_too_large(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 6))
        d = rng.normal(size=(6, 6))
        lip = refinement.operator_sq_norm(a, d)
        with pytest.raises(StepTooLarge):
            refinement.ista_solve(np.ones(3), a, d, gamma=0.0, eta=2.1 / lip, iters=5)


class TestUnfold:
    def test_zero_in_zero_out(self):
        model = refinement.init_refinement(10, 4, 10, 3, np.random.default_rng(7))
        assert np.array_equal(refinement.unfold_synthesize(np.zeros(4), model), np.zeros(10))

    @pytest.mark.parametrize("n_layers", [1, 3, 6])
    def test_tied_parameters_reproduce_ista(self, n_layers):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(4, 9))
            d = rng.normal(size=(9, 9))
            lip = refinement.operator_sq_norm(a, d)
            eta, gamma = 0.9 / lip, 0.05
            y = rng.normal(size=4)
            model = tied_model(a, d, eta, gamma, n_layers)
            ours = refinement.unfold_synthesize(y, model)
            oracle = d @ refinement.ista_solve(y, a, d, gamma=gamma, eta=eta, iters=n_layers)
            assert np.abs(ours - oracle).max() <= 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        model = refinement.init_refinement(12, 5, 12, 4, rng)
        ys = rng.normal(size=(7, 5))
        batch = refinement.unfold_synthesize(ys, model)
        for i in range(7):
            assert np.allclose(batch[i], refinement.unfold_synthesize(ys[i], model))

    def test_lipschitz_continuity(self):
        rng = np.random.default_rng(10)
        model = refinement.init_refinement(10, 4, 10, 3, rng)
        g = model.measure @ model.dictionary
        gnorm = np.linalg.norm(g, 2)
        dnorm = np.linalg.norm(model.dictionary, 2)
        eta_max = model.steps().max()
        bound = dnorm * np.prod([1.0 + eta_max * gnorm * gnorm for _ in range(3)])
        for _ in range(30):
            y = rng.normal(size=4)
            delta = 1e-4 * rng.normal(size=4)
            d_out = refinement.unfold_synthesize(y + delta, model) - refinement.unfold_synthesize(y, model)
            assert np.linalg.norm(d_out) <= bound * np.linalg.norm(delta) + 1e-12


def reference_unfold(y, model):
    """The unfolded layers from their definition, one whole-input layer at a
    time: beta_0 = 0, pre_k = beta_k - eta_k G^T (G beta_k - y), beta_k+1 =
    soft(pre_k, tau_k). Returns the code and each layer's (beta, resid, pre)."""
    g = model.measure @ model.dictionary
    etas, taus = model.steps(), model.thresholds()
    beta = np.zeros(y.shape[:-1] + (model.n_atoms,))
    layers = []
    for k in range(model.n_layers):
        resid = beta @ g.T - y
        pre = beta - etas[k] * (resid @ g)
        layers.append((beta, resid, pre))
        beta = np.sign(pre) * np.maximum(np.abs(pre) - taus[k], 0.0)
    return beta, layers


# a 1-D vector, one row, and row counts on both sides of the 1024-row blocks
BLOCK_CASES = [None, 1, 1023, 1024, 1025, 2049]


class TestBlockedLoop:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.model = refinement.init_refinement(12, 5, 12, 4, rng, step_init=0.6, thresh_init=0.3)
        self.model.step_raw += 0.1 * rng.normal(size=self.model.step_raw.shape)
        self.model.thresh_raw += 0.1 * rng.normal(size=self.model.thresh_raw.shape)

    def measurements(self, rows):
        rng = np.random.default_rng(rows or 0)
        return rng.normal(size=(5,) if rows is None else (rows, 5))

    @pytest.mark.parametrize("rows", BLOCK_CASES)
    def test_synthesis_matches_reference_loop(self, rows):
        y = self.measurements(rows)
        beta, layers = reference_unfold(y, self.model)
        got = refinement.unfold_synthesize(y, self.model)
        assert got.shape == y.shape[:-1] + (12,)
        np.testing.assert_allclose(got, beta @ self.model.dictionary.T, rtol=1e-12, atol=0.0)
        if rows and rows > 1:  # every layer has live and dead-zone entries
            for k, (_, _, pre) in enumerate(layers):
                live = np.abs(pre) > self.model.thresholds()[k]
                assert live.any() and not live.all()

    @pytest.mark.parametrize("rows", BLOCK_CASES)
    def test_record_covers_every_row(self, rows):
        y = self.measurements(rows)
        layers = []
        beta = refinement.unfold_code(y, self.model, record=layers)
        assert np.array_equal(beta, refinement.unfold_code(y, self.model))
        _, ref_layers = reference_unfold(y.reshape(-1, 5), self.model)
        assert len(layers) == self.model.n_layers
        for got, want in zip(layers, ref_layers):
            for a, b in zip(got, want):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


class TestParamCount:
    def test_default_arithmetic(self):
        model = refinement.init_refinement(50, 15, 50, 6, np.random.default_rng(0))
        assert refinement.param_count(model) == 15 * 50 + 50 * 50 + 2 * 6 * 50 == 3850

    def test_no_layers(self):
        model = refinement.init_refinement(50, 15, 50, 0, np.random.default_rng(0))
        assert refinement.param_count(model) == 3250


class TestSparsityPriorPaysOff:
    def test_trained_unfolding_beats_linear_decoder_of_same_budget(self):
        """On a 5-sparse residual source, the unfolded decoder reconstructs
        strictly better than a generic two-matrix linear decoder with the
        same parameter budget and optimizer budget."""
        import shtc.autodiff as ad
        from shtc.autodiff import Var
        from shtc.trainer import AdamState, adam_step, clip_gradients

        dim, n_meas, k, n_rows, iters = 50, 15, 5, 20000, 1500
        rng = np.random.default_rng(0)
        r = np.zeros((n_rows, dim))
        cols = np.argsort(rng.random((n_rows, dim)), axis=1)[:, :k]
        np.put_along_axis(r, cols, rng.normal(0.0, 1.0, cols.shape), axis=1)

        def train(params, forward, seed):
            rng_t = np.random.default_rng(seed)
            state = AdamState()
            for it in range(iters):
                idx = rng_t.integers(0, n_rows, 128)
                batch = Var(r[idx])
                loss = ad.vabs(batch - forward(batch, params)).sum() * (1.0 / batch.data.size)
                loss.backward()
                grads = {k_: p.grad for k_, p in params.items() if p.grad is not None}
                for p in params.values():
                    p.grad = None
                clip_gradients(grads, 10.0)
                adam_step(params, grads, state, 0.01 * 0.05 ** (it / iters))
            return params

        # unfolded decoder at the default architecture
        init = refinement.init_refinement(dim, n_meas, dim, 6, np.random.default_rng(1), thresh_init=0.15)
        unfold_params = {
            "A": Var(init.measure, requires_grad=True),
            "D": Var(init.dictionary, requires_grad=True),
            "a": Var(init.step_raw, requires_grad=True),
            "b": Var(init.thresh_raw, requires_grad=True),
        }
        unfold_params = train(
            unfold_params,
            lambda batch, p: ad.unfold(batch @ p["A"].T, p["A"], p["D"], p["a"], p["b"]),
            seed=2,
        )
        model = refinement.RefinementModel(
            unfold_params["A"].data, unfold_params["D"].data,
            unfold_params["a"].data, unfold_params["b"].data,
        )
        unfold_err = np.abs(r - refinement.unfold_synthesize(refinement.analyze_refine(r, model), model)).mean()

        # two-matrix linear decoder with a matching parameter budget:
        # decoder params D*N_d + 2*N_u*N_d = 3100 -> hidden 47 (3055 params)
        hidden = (dim * dim + 2 * 6 * dim) // (n_meas + dim)
        rng_l = np.random.default_rng(1)
        lin_params = {
            "A": Var(rng_l.normal(0, 1 / np.sqrt(dim), (n_meas, dim)), requires_grad=True),
            "W1": Var(rng_l.normal(0, 1 / np.sqrt(n_meas), (n_meas, hidden)), requires_grad=True),
            "W2": Var(rng_l.normal(0, 1 / np.sqrt(hidden), (hidden, dim)), requires_grad=True),
        }
        lin_params = train(
            lin_params,
            lambda batch, p: ((batch @ p["A"].T) @ p["W1"]) @ p["W2"],
            seed=2,
        )
        lin_err = np.abs(
            r - ((r @ lin_params["A"].data.T) @ lin_params["W1"].data) @ lin_params["W2"].data
        ).mean()

        assert unfold_err < lin_err, (unfold_err, lin_err)
