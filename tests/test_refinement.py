"""Refinement layer tests: ISTA oracle, unfolding equivalence, gradients."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import codec, refinement
from shtc.errors import DimMismatch
from shtc.refinement import RefinementModel

from .oracles import BadThreshold, StepTooLarge, ista_solve, operator_sq_norm, soft_threshold, untiled
from .test_entropy import fit_std_bundle


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
        assert soft_threshold(np.array([1.2]), np.array([0.5]))[0] == pytest.approx(0.7)

    def test_dead_zone(self):
        assert soft_threshold(np.array([-0.3]), np.array([0.5]))[0] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    def test_zero_threshold_identity(self, values):
        z = np.array(values)
        assert np.array_equal(soft_threshold(z, np.zeros_like(z)), z)

    def test_negative_threshold_rejected(self):
        with pytest.raises(BadThreshold):
            soft_threshold(np.ones(2), np.array([0.1, -0.1]))


class TestAnalyze:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        model = refinement.init_refinement(6, 3, 6, 2, rng, thresh_init=0.05)
        assert np.allclose(refinement.analyze_refine(np.zeros(6), model), 0.0)

    def test_identity_rows(self):
        model = refinement.init_refinement(3, 2, 3, 1, np.random.default_rng(0), thresh_init=0.05)
        model.measure = np.eye(3)[:2]
        assert np.allclose(
            refinement.analyze_refine(np.array([4.0, 5.0, 6.0]), model), [4.0, 5.0]
        )

    def test_norm_bound(self):
        rng = np.random.default_rng(1)
        model = refinement.init_refinement(8, 4, 8, 2, rng, thresh_init=0.05)
        for _ in range(20):
            r = rng.normal(size=8)
            y = refinement.analyze_refine(r, model)
            assert np.linalg.norm(y) <= np.linalg.norm(model.measure) * np.linalg.norm(r) + 1e-12

    def test_dim_mismatch(self):
        model = refinement.init_refinement(6, 3, 6, 2, np.random.default_rng(0), thresh_init=0.05)
        with pytest.raises(DimMismatch):
            refinement.analyze_refine(np.zeros(5), model)


class TestIstaSolve:
    def test_zero_measurements_fixed_point(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 6))
        d = rng.normal(size=(6, 6))
        beta = ista_solve(np.zeros(3), a, d, gamma=0.1, eta=0.05, iters=50)
        assert np.array_equal(beta, np.zeros(6))

    def test_gamma_zero_converges_to_solve(self):
        rng = np.random.default_rng(3)
        a = np.eye(4)
        d = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        y = rng.normal(size=4)
        lip = operator_sq_norm(a, d)
        beta = ista_solve(y, a, d, gamma=0.0, eta=1.0 / lip, iters=10000)
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
        lip = operator_sq_norm(a, d)
        beta = ista_solve(y, a, d, gamma=gamma, eta=1.0 / lip, iters=5000)
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
        gamma, lip = 0.05, operator_sq_norm(a, d)
        eta = 1.0 / lip
        g = a @ d

        def objective(beta):
            return 0.5 * np.sum((y - g @ beta) ** 2) + gamma * np.abs(beta).sum()

        prev = objective(np.zeros(10))
        for iters in range(1, 30):
            beta = ista_solve(y, a, d, gamma=gamma, eta=eta, iters=iters)
            cur = objective(beta)
            assert cur <= prev + 1e-12
            prev = cur

    def test_step_too_large(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 6))
        d = rng.normal(size=(6, 6))
        lip = operator_sq_norm(a, d)
        with pytest.raises(StepTooLarge):
            ista_solve(np.ones(3), a, d, gamma=0.0, eta=2.1 / lip, iters=5)


class TestUnfold:
    def test_zero_in_zero_out(self):
        model = refinement.init_refinement(10, 4, 10, 3, np.random.default_rng(7), thresh_init=0.05)
        assert np.array_equal(untiled(refinement.unfold_synthesize, np.zeros(4), model), np.zeros(10))

    @pytest.mark.parametrize("n_layers", [1, 3, 6])
    def test_tied_parameters_reproduce_ista(self, n_layers):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(4, 9))
            d = rng.normal(size=(9, 9))
            lip = operator_sq_norm(a, d)
            eta, gamma = 0.9 / lip, 0.05
            y = rng.normal(size=4)
            model = tied_model(a, d, eta, gamma, n_layers)
            ours = untiled(refinement.unfold_synthesize, y, model)
            oracle = d @ ista_solve(y, a, d, gamma=gamma, eta=eta, iters=n_layers)
            assert np.abs(ours - oracle).max() <= 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        model = refinement.init_refinement(12, 5, 12, 4, rng, thresh_init=0.05)
        ys = rng.normal(size=(7, 5))
        batch = untiled(refinement.unfold_synthesize, ys, model)
        for i in range(7):
            assert np.allclose(batch[i], untiled(refinement.unfold_synthesize, ys[i], model))

    def test_lipschitz_continuity(self):
        rng = np.random.default_rng(10)
        model = refinement.init_refinement(10, 4, 10, 3, rng, thresh_init=0.05)
        g = model.measure @ model.dictionary
        gnorm = np.linalg.norm(g, 2)
        dnorm = np.linalg.norm(model.dictionary, 2)
        eta_max = model.steps().max()
        bound = dnorm * np.prod([1.0 + eta_max * gnorm * gnorm for _ in range(3)])
        for _ in range(30):
            y = rng.normal(size=4)
            delta = 1e-4 * rng.normal(size=4)
            d_out = (untiled(refinement.unfold_synthesize, y + delta, model)
                     - untiled(refinement.unfold_synthesize, y, model))
            assert np.linalg.norm(d_out) <= bound * np.linalg.norm(delta) + 1e-12


def reference_unfold(y, model):
    """The unfolded layers from their definition, one whole-input layer at a
    time, in the precision of ``y``: beta_0 = 0, pre_k = beta_k - eta_k G^T
    (G beta_k - y), beta_k+1 = soft(pre_k, tau_k). Returns the code and each
    layer's (beta, resid, pre). G^T is a contiguous copy, as in the layers:
    BLAS can round the transposed view differently at a few rows."""
    g = (model.measure @ model.dictionary).astype(y.dtype)
    g_t = np.ascontiguousarray(g.T)
    etas, taus = model.steps().astype(y.dtype), model.thresholds().astype(y.dtype)
    beta = np.zeros(y.shape[:-1] + (model.n_atoms,), y.dtype)
    layers = []
    for k in range(model.n_layers):
        resid = beta @ g_t - y
        pre = beta - etas[k] * (resid @ g)
        layers.append((beta, resid, pre))
        beta = np.sign(pre) * np.maximum(np.abs(pre) - taus[k], 0.0)
    return beta, layers


# a 1-D vector, one row, and row counts on both sides of the codec's synthesis block edges
_B = codec._BLOCK_ROWS
BLOCK_CASES = [None, 1, _B - 1, _B, _B + 1, 2 * _B + 1]


def blocked_model():
    """A 12-dim, 5-measurement, 4-layer model with per-channel steps and
    thresholds, whose layers have live and dead-zone entries."""
    rng = np.random.default_rng(11)
    model = refinement.init_refinement(12, 5, 12, 4, rng, thresh_init=0.3)
    model.step_raw[:] = np.log(0.6)
    model.step_raw += 0.1 * rng.normal(size=model.step_raw.shape)
    model.thresh_raw += 0.1 * rng.normal(size=model.thresh_raw.shape)
    return model


def block_measurements(rows):
    rng = np.random.default_rng(rows or 0)
    return rng.normal(size=(5,) if rows is None else (rows, 5))


class TestBlockedLoop:
    def setup_method(self):
        self.model = blocked_model()

    def measurements(self, rows):
        return block_measurements(rows)

    @pytest.mark.parametrize("rows", BLOCK_CASES)
    def test_synthesis_matches_reference_loop(self, rows):
        y = self.measurements(rows)
        beta, layers = reference_unfold(y, self.model)
        got = untiled(refinement.unfold_synthesize, y, self.model)
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
        beta = untiled(refinement.unfold_code, y, self.model, record=layers)
        assert np.array_equal(beta, untiled(refinement.unfold_code, y, self.model))
        _, ref_layers = reference_unfold(y.reshape(-1, 5), self.model)
        assert len(layers) == self.model.n_layers
        for got, (beta_k, resid, _) in zip(layers, ref_layers):
            for a, b in zip(got, (beta_k, resid)):
                assert a.shape == b.shape
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


class TestWorkingPrecision:
    """Prepared in the working precision of their input (``untiled``), the
    unfolded layers compute in it: float32 measurements (the codec's
    synthesis) stay float32 through every layer, and any other input runs
    in float64."""

    # sha256 of the float64 output on blocked_model(), taken when the layers
    # ran in float64 only
    PINNED_F64 = {
        None: "0efa9b0da8317c46b2ff24ab4be33677c6a9a949a955fdd732e542ff5faa0a44",
        1: "70606f4194d097480101e6653008c8306ba7aa6f82c442bdb8c7beb90564cbdd",
        _B - 1: "ca8d95397683b3f9a4d27dd4654c0c48afd95a4bb1afa3d1466a681f942a0bd9",
        _B: "f6591b1b58101395ebbab64cddc360c3f4cbb8727deb6b93dda39191c040d84c",
        _B + 1: "3a9ffdd7f23857785c1b4e64f5369022a602a65c4ba4a9c4d720adf364bf9bbb",
        2 * _B + 1: "d9461505997bbd0c7ee84ce73d9adf0ec69c7d9d8ae46f446769250494c1eb5d",
    }

    @pytest.mark.parametrize("rows", BLOCK_CASES)
    def test_float64_values_unchanged(self, rows):
        got = untiled(refinement.unfold_synthesize, block_measurements(rows), blocked_model())
        assert got.dtype == np.float64
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.PINNED_F64[rows]

    @pytest.mark.parametrize("rows", BLOCK_CASES)
    def test_float32_stays_float32(self, rows):
        # no float64 parameter or scalar promotes a layer's arrays (NEP 50)
        model = blocked_model()
        y = block_measurements(rows).astype(np.float32)
        got = untiled(refinement.unfold_synthesize, y, model)
        assert got.dtype == np.float32 and got.shape == y.shape[:-1] + (12,)
        layers = []
        beta = untiled(refinement.unfold_code, y, model, record=layers)
        assert [a.dtype for layer in layers for a in layer] == [np.float32] * (2 * model.n_layers)
        # bit for bit the definition with float32 operands: a step or
        # threshold left in float64 rounds a layer through float64 and shows
        # here
        assert np.array_equal(beta, reference_unfold(y, model)[0])
        want = untiled(refinement.unfold_synthesize, y.astype(np.float64), model)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-5 * np.abs(want).max())

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_other_input_runs_in_float64(self, dtype):
        model = blocked_model()
        y = (4 * block_measurements(9)).astype(dtype)
        got = untiled(refinement.unfold_synthesize, y, model)
        assert got.dtype == np.float64
        assert np.array_equal(got, untiled(refinement.unfold_synthesize, y.astype(np.float64), model))


# row counts on both sides of every tile and block edge of the codec's
# synthesis; 544 is the last block of a 20000-row table
_T = codec._TILE_ROWS
TILE_CASES = [1, 2, _T - 1, _T, _T + 1, 544, _B - 1, _B, _B + 1, 2 * _B + 1]


@pytest.fixture(scope="module")
def fit_std_refine():
    """The seed-1 ``fit-std`` refinement model and measurements of its
    table's truncation residual."""
    bundle, x = fit_std_bundle()
    sm = bundle.streams[0]
    return sm.refine, refinement.analyze_refine(codec.split_base(x, sm.klt)[1], sm.refine)


class TestPreparedLoop:
    """``prepare`` casts and tiles the layers once; the tiled loop gives the
    reference loop's bits at every row count, tiled or not."""

    def measurements(self, name, rows, fit_std_refine):
        if name == "blocked":
            return blocked_model(), block_measurements(rows)
        model, y = fit_std_refine
        return model, y[:rows]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", TILE_CASES)
    @pytest.mark.parametrize("name", ["blocked", "fit-std"])
    def test_bits_equal_reference_loop(self, name, rows, dtype, fit_std_refine):
        model, y = self.measurements(name, rows, fit_std_refine)
        y = y.astype(dtype)
        want = reference_unfold(y, model)[0]
        for tile in (1, _T):
            prepared = refinement.prepare(model, dtype, tile)
            assert prepared.tile == tile and prepared.dtype == dtype
            beta = refinement.unfold_code(y, prepared)
            assert beta.dtype == dtype and np.array_equal(beta, want)
            got = refinement.unfold_synthesize(y, prepared)
            assert np.array_equal(got, untiled(refinement.unfold_synthesize, y, model))

    def test_tiles_hold_each_layers_parameters(self):
        model = blocked_model()
        prepared = refinement.prepare(model, np.float32, 4)
        n = model.n_atoms
        assert prepared.etas.shape == (model.n_layers, 4 * n)
        for tiled, want in ((prepared.etas, model.steps()), (prepared.taus, model.thresholds()),
                            (prepared.neg_taus, -model.thresholds())):
            assert tiled.dtype == np.float32 and tiled.flags.c_contiguous
            assert np.array_equal(tiled, np.tile(want.astype(np.float32), (1, 4)))
        assert prepared.g_t.flags.c_contiguous and np.array_equal(prepared.g_t, prepared.g.T)

    @pytest.mark.parametrize("n_atoms, n_layers, tile", [
        (50, 6, 256),  # the default stream: 3 * 6 * 12800 floats of tiles
        (64, 8, 256),  # 2^14 floats in a row, 2^17 in a kind
        (65, 6, 128),  # a row of 256 tiles would exceed 2^14
        (50, 11, 128),  # 11 layers of 256 tiles would exceed 2^17
        (600, 40, 4),
        (1 << 14, 1, 1),
        ((1 << 14) + 1, 1, 1),
        (1, 1 << 17, 1),
    ])
    def test_tile_rule_bounds_the_tiles(self, n_atoms, n_layers, tile):
        model = RefinementModel(np.zeros((1, 1)), np.zeros((1, n_atoms)),
                                np.zeros((n_layers, n_atoms)), np.zeros((n_layers, n_atoms)))
        prepared = refinement.prepare(model, np.float32, 256)
        assert prepared.tile == tile
        kept = sum(a.nbytes for a in (prepared.etas, prepared.taus, prepared.neg_taus))
        # 1.5 * tile times the step_raw and thresh_raw floats, at most 3 * 2^17 floats
        assert kept == 1.5 * tile * (model.step_raw.size + model.thresh_raw.size) * 4
        assert kept <= 3 * (1 << 17) * 4


class TestInitialThreshold:
    """``init_refinement`` inverts the softplus for any finite threshold."""

    @pytest.mark.parametrize("tau", [0.05, 5.0, 700.0])
    def test_where_expm1_is_finite_the_plain_inverse(self, tau):
        model = refinement.init_refinement(4, 2, 4, 3, np.random.default_rng(0), thresh_init=tau)
        assert np.all(model.thresh_raw == np.log(np.expm1(tau)))

    @pytest.mark.parametrize("tau", [709.78, 710.0, 1e4, 1e30, 1e300])
    def test_large_thresholds_stay_finite(self, tau):
        # expm1 overflows above ~709.78; the truncation residual of a table
        # with a spread above ~1420 asks for such a threshold
        with np.errstate(all="raise"):
            model = refinement.init_refinement(4, 2, 4, 3, np.random.default_rng(0), thresh_init=tau)
        assert np.all(np.isfinite(model.thresh_raw))
        np.testing.assert_allclose(model.thresholds(), tau, rtol=1e-15)


class TestParamCount:
    def test_default_arithmetic(self):
        model = refinement.init_refinement(50, 15, 50, 6, np.random.default_rng(0), thresh_init=0.05)
        assert refinement.param_count(model) == 15 * 50 + 50 * 50 + 2 * 6 * 50 == 3850

    def test_no_layers(self):
        model = refinement.init_refinement(50, 15, 50, 0, np.random.default_rng(0), thresh_init=0.05)
        assert refinement.param_count(model) == 3250

    def test_no_layers_decode_to_zero(self):
        model = refinement.init_refinement(6, 3, 6, 0, np.random.default_rng(0), thresh_init=0.05)
        y = np.random.default_rng(1).normal(size=(4, 3))
        for decode in (refinement.unfold_code, refinement.unfold_synthesize):
            np.full((4, 6), 7.0)  # a freed buffer that an unwritten output of this size would reuse
            assert np.array_equal(untiled(decode, y, model), np.zeros((4, 6)))


class TestSparsityPriorPaysOff:
    def test_trained_unfolding_beats_linear_decoder_of_same_budget(self):
        """On a 5-sparse residual source, the unfolded decoder reconstructs
        strictly better than a generic two-matrix linear decoder with the
        same parameter budget and optimizer budget."""
        from shtc.trainer import AdamState, Params, _unfold_grad, adam_step, clip_gradients

        dim, n_meas, k, n_rows, iters = 50, 15, 5, 20000, 1500
        rng = np.random.default_rng(0)
        r = np.zeros((n_rows, dim))
        cols = np.argsort(rng.random((n_rows, dim)), axis=1)[:, :k]
        np.put_along_axis(r, cols, rng.normal(0.0, 1.0, cols.shape), axis=1)

        def train(params, add_grads, seed):
            """Adam on the mean l1 error, whose gradient at a batch
            ``add_grads(batch, params, grads)`` adds into the named views ``grads``."""
            rng_t = np.random.default_rng(seed)
            state = AdamState()
            for it in range(iters):
                idx = rng_t.integers(0, n_rows, 128)
                batch = r[idx]
                grad = np.zeros_like(params.flat)
                add_grads(batch, params, params.views(grad))
                clip_gradients(grad, 10.0)
                adam_step(params.flat, grad, state, 0.01 * 0.05 ** (it / iters))
            return params

        def l1_grad(batch, decoded):
            # d mean|batch - decoded| / d decoded
            return -np.sign(batch - decoded) * (1.0 / batch.size)

        def unfold_grads(batch, p, grads):
            model = refinement.RefinementModel(p["A"], p["D"], p["a"], p["b"])
            y = batch @ p["A"].T
            prepared = refinement.prepare(model, y.dtype)
            layers = []
            beta = refinement.unfold_code(y, prepared, record=layers)
            g = l1_grad(batch, beta @ p["D"].T)
            d_y, d_a, d_d, d_step, d_thresh = _unfold_grad(g, y, model, prepared, beta, layers)
            grads["A"] += d_a + d_y.T @ batch
            grads["D"] += d_d
            grads["a"] += d_step
            grads["b"] += d_thresh

        # unfolded decoder at the default architecture
        init = refinement.init_refinement(dim, n_meas, dim, 6, np.random.default_rng(1), thresh_init=0.15)
        unfold_params = train(
            Params({"A": init.measure, "D": init.dictionary, "a": init.step_raw, "b": init.thresh_raw}),
            unfold_grads,
            seed=2,
        )
        model = refinement.RefinementModel(
            unfold_params["A"], unfold_params["D"], unfold_params["a"], unfold_params["b"]
        )
        decoded = untiled(refinement.unfold_synthesize, refinement.analyze_refine(r, model), model)
        unfold_err = np.abs(r - decoded).mean()

        # two-matrix linear decoder with a matching parameter budget:
        # decoder params D*N_d + 2*N_u*N_d = 3100 -> hidden 47 (3055 params)
        hidden = (dim * dim + 2 * 6 * dim) // (n_meas + dim)
        rng_l = np.random.default_rng(1)

        def linear_grads(batch, p, grads):
            h1 = batch @ p["A"].T
            h2 = h1 @ p["W1"]
            g = l1_grad(batch, h2 @ p["W2"])
            grads["W2"] += h2.T @ g
            g_h2 = g @ p["W2"].T
            grads["W1"] += h1.T @ g_h2
            grads["A"] += (g_h2 @ p["W1"].T).T @ batch

        lin_params = train(
            Params({
                "A": rng_l.normal(0, 1 / np.sqrt(dim), (n_meas, dim)),
                "W1": rng_l.normal(0, 1 / np.sqrt(n_meas), (n_meas, hidden)),
                "W2": rng_l.normal(0, 1 / np.sqrt(hidden), (hidden, dim)),
            }),
            linear_grads,
            seed=2,
        )
        lin_err = np.abs(r - ((r @ lin_params["A"].T) @ lin_params["W1"]) @ lin_params["W2"]).mean()

        assert unfold_err < lin_err, (unfold_err, lin_err)
