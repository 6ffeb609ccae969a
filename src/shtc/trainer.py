"""Joint rate-distortion training of the codec parameters.

The objective per batch is

    l1(f, f_hat) + lam * bits(base latents) + lambda_e * l1(r, r_hat)
                 + lambda_r * bits(refinement latents)

with l1 terms as mean absolute error per element and rate terms as estimated
bits per row. During training, quantization is replaced by additive uniform
noise on both the rate and distortion paths (one shared draw per latent), so
the learnable steps get distortion feedback too. The fitted basis is a
constant during training, not differentiated through, since
eigendecomposition gradients are ill-conditioned near degenerate
eigenvalues. The table is a constant too: training sees, and finalizes
with, the rows ``shtc encode`` codes. A stream is analyzed by the codec's
``codec.split_base``, so training optimizes the transform the codec ships.
Training ends in one finalization pass, ``_finalize``: the learned schedules
and refinement weights are written back, each entropy model is fitted to the
latents it will code, and ``bitstream.finalize_bundle`` returns the model a
decoder reads back from the container.

The objective is one fixed function with one forward, ``loss``, and one
hand-written backward, ``backward``, which walks the intermediates ``loss``
keeps in reverse. Its two costly parts run the codec's own forward helpers:
the rate term ``entropy.bin_bits`` (backward ``_rate_grad``; a bin mass on
the floor side of the clamp gets no gradient) and the unfolded-ISTA decoder
``refinement.unfold_code`` (backward ``_unfold_grad``; zero inside each
soft-threshold dead zone, which it reads from the next layer's code: the
soft threshold is nonzero exactly outside it). |x| has subgradient 0 at
x = 0. The learnable parameters are named views into one flat vector, so
gradient clipping and Adam are whole-vector updates.

Precision: float32 work arrays, float64 master weights (mixed-precision
training, Micikevicius et al., ICLR 2018). ``loss`` and ``backward`` compute
in the precision of the batch they are given (``linalg.working``): ``loss``
reads a copy of the weights in that precision, the transforms cast their
float64 model to it, and ``backward`` adds its pieces into a float64
gradient. ``train`` passes float32 batches, which costs about a third less
per iteration than float64 and rounds far below the coding error. The
parameter vector, the gradient, clipping and Adam stay float64, and so does
``_finalize``: the entropy models are fitted in float64 to the float64 table.
A float64 batch runs everything in float64, as the finite-difference checks
do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import base_layer, bitstream, entropy, linalg, refinement
from .codec import CodecBundle, StreamConfig, StreamModel, fit_bundle, split_base
from .entropy import GaussianEntropyModel
from .errors import ConfigError, Diverged, InsufficientData
from .quantizer import channel_schedule
from .refinement import RefinementModel

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)  # Python floats do not promote float32
_LN2 = float(np.log(2.0))
_LR_DECAY = 0.05  # final lr fraction, exponential over the run
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
# a training log row's keys, in the order ``shtc fit`` writes them: the
# iteration, ``loss``'s components, then the step's gradient norm and rate
LOG_COLUMNS = ("iter", "loss", "bits_base", "bits_refine", "l1_total", "l1_residual", "grad_norm", "lr")


@dataclass
class TrainConfig:
    lam: float = 0.004
    lambda_e: float = 0.03
    lr: float = 0.01
    iters: int = 3000
    batch: int = 256
    seed: int = 0
    grad_clip: float = 10.0
    log_every: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError("lam must be finite and positive")
        if not (math.isfinite(self.lambda_e) and self.lambda_e >= 0):
            raise ConfigError("lambda_e must be finite and nonnegative")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be finite and positive")
        if self.iters < 0:
            raise ConfigError("iters must be nonnegative")
        if self.batch < 1:
            raise ConfigError("batch must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ConfigError("grad_clip must be finite and nonnegative")
        if self.log_every < 1:
            raise ConfigError("log_every must be at least 1")

    @property
    def lambda_r(self) -> float:
        return max(self.lam / 4.0, 0.001)


class Params(dict):
    """Learnable arrays by name, each a view into the one flat vector ``flat``."""

    def __init__(self, arrays: dict):
        self._shapes = {name: np.shape(a) for name, a in arrays.items()}
        self.flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
        super().__init__(self.views(self.flat))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat``, a vector laid out like ``self.flat``, as named views."""
        out, start = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            out[name] = flat[start : start + size].reshape(shape)
            start += size
        return out


def _latent_arrays(key: str, sched, model: GaussianEntropyModel) -> dict:
    return {
        f"{key}.log_qs": np.log(sched.q_s),
        f"{key}.alpha": sched.alpha,
        f"{key}.mu": model.mu,
        f"{key}.log_sigma": np.log(model.sigma),
    }


_REFINE_FIELDS = tuple(f.name for f in fields(RefinementModel))


def _refine_model(arrays: dict, key: str) -> RefinementModel:
    """The refinement weights named ``{key}.{field}`` in ``arrays``, as a
    model of views (of the parameters, or of their gradient)."""
    return RefinementModel(**{name: arrays[f"{key}.{name}"] for name in _REFINE_FIELDS})


def make_params(bundle: CodecBundle) -> Params:
    """Learnable leaves: schedules, entropy parameters and refinement weights
    (``{stream}.ref.{field}``, one per ``RefinementModel`` field)."""
    arrays = {}
    for sm in bundle.streams:
        p = sm.config.name
        arrays.update(_latent_arrays(f"{p}.base", sm.base_sched, sm.base_entropy))
        if sm.refine is not None:
            arrays.update({f"{p}.ref.{name}": getattr(sm.refine, name) for name in _REFINE_FIELDS})
            arrays.update(_latent_arrays(f"{p}.ref", sm.refine_sched, sm.refine_entropy))
    return Params(arrays)


def _rate_grad(g, p, z_lo, z_hi, sigma):
    """Gradient of ``g * sum(entropy.bin_bits(x, mu, sigma, steps)[0])`` with
    respect to x, mu, sigma and steps, from the forward's unfloored bin mass
    ``p`` and standardized bin edges.

    The mass is floored at ``entropy._PROB_FLOOR``; an element on the floor
    side gets no gradient. Elsewhere d(-log2 p) = -dp / (p ln 2), with dp from
    the Gaussian pdf at both bin edges, (x - mu +- step/2) / sigma.
    """
    pdf_lo = np.exp(-0.5 * z_lo * z_lo) * _INV_SQRT_2PI
    pdf_hi = np.exp(-0.5 * z_hi * z_hi) * _INV_SQRT_2PI
    floor = entropy._PROB_FLOOR
    gp = (p > floor) * (-g / (np.maximum(p, floor) * _LN2)) / sigma
    dx = gp * (pdf_hi - pdf_lo)
    d_sigma = -(gp * (z_hi * pdf_hi - z_lo * pdf_lo)).sum(axis=0)
    d_steps = (0.5 * gp * (pdf_hi + pdf_lo)).sum(axis=0)
    return dx, -dx.sum(axis=0), d_sigma, d_steps


def _unfold_grad(g, y, model: RefinementModel, prepared: refinement.Prepared, beta, layers):
    """Gradient of ``sum(g * (beta @ D.T))``, beta = ``refinement.unfold_code``
    of ``y`` through ``prepared`` (``model`` prepared in the precision of
    ``y``, untiled) with ``record=layers``, with respect to y, the
    measurement, the dictionary, step_raw and thresh_raw. G, G^T and the
    steps are read from ``prepared``: the forward's, not derived again.

    Walks the recorded layers in reverse. Subgradient: zero inside each
    soft-threshold dead zone (|pre| <= tau), for the pre-activation and the
    threshold alike. Layer k's dead zone and sign are read from the next
    layer's code: ``beta_k+1 = pre - clip(pre, -tau, tau)`` is nonzero exactly
    where |pre| > tau, with the sign of pre there, so s = sign(beta_k+1) is
    the mask and the sign at once.
    """
    a, d = model.measure, model.dictionary
    gmat, gmat_t, etas = prepared.g, prepared.g_t, prepared.etas
    d_g = np.zeros_like(gmat)
    d_y = np.zeros_like(y)
    d_step = np.zeros_like(model.step_raw)
    d_thresh = np.zeros_like(model.thresh_raw)
    d_dict = g.T @ beta
    g_beta = g @ d
    codes = [layer[0] for layer in layers[1:]] + [beta]
    # softplus'(t) = 1 / (1 + exp(-t)); exp overflows to inf below t = -709,
    # which gives the exact limit 0
    with np.errstate(over="ignore"):
        softplus_den = 1.0 + np.exp(-model.thresh_raw)
    for k in range(len(layers) - 1, -1, -1):
        # pre = beta_k - eta_k * (resid @ G),  resid = beta_k @ G.T - y
        beta_k, resid, _ = layers[k]
        s = np.sign(codes[k])
        g_sign = g_beta * s
        g_pre = g_sign * s
        d_thresh[k] = -g_sign.sum(axis=0) / softplus_den[k]
        r_g = resid.T @ g_pre
        d_step[k] = -(r_g * gmat).sum(axis=0) * etas[k]
        d_g -= r_g * etas[k]
        g_y = (g_pre * etas[k]) @ gmat_t  # at y; the gradient at resid is -g_y
        d_y += g_y
        if k > 0:  # layer 0 starts from a constant zero code
            d_g -= g_y.T @ beta_k
            g_beta = g_pre - g_y @ gmat
    return d_y, d_g @ d.T, d_dict + a.T @ d_g, d_step, d_thresh


@dataclass
class _Latent:
    """One latent on the noise path, ``x_hat = x + steps * u``, priced by
    ``entropy.bin_bits``: what its backward needs."""

    key: str
    x_hat: np.ndarray
    u: np.ndarray
    steps: np.ndarray
    sigma: np.ndarray
    bits: float
    p: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray


def _noise_proxy(x: np.ndarray, steps: np.ndarray, rng: np.random.Generator):
    """The noise proxy of quantizing one latent, x + U(-step/2, step/2) per
    channel: one draw that both the rate and the distortion path see.
    Returns the noisy latent and the unit draw, in the precision of ``x``
    (drawn in float64, so the generator's stream does not depend on it)."""
    u = rng.uniform(-0.5, 0.5, size=x.shape).astype(x.dtype, copy=False)
    return x + steps * u, u


def _latent(x: np.ndarray, weights: dict, key: str, rng: np.random.Generator) -> _Latent:
    """Latent ``x`` through the noise proxy, priced by the schedule and
    entropy model under ``key`` in ``weights``, of the precision of ``x``."""
    channel = np.arange(x.shape[1], dtype=x.dtype)
    steps = np.exp(weights[f"{key}.log_qs"] + weights[f"{key}.alpha"] * channel)
    sigma = np.exp(weights[f"{key}.log_sigma"])
    x_hat, u = _noise_proxy(x, steps, rng)
    bits, p, z_lo, z_hi = entropy.bin_bits(x_hat, weights[f"{key}.mu"], sigma, steps)
    return _Latent(key, x_hat, u, steps, sigma, float(bits.sum()), p, z_lo, z_hi)


def _latent_grad(lat: _Latent, g_x_hat: np.ndarray, weight: float, grads: dict) -> np.ndarray:
    """Backward through one latent: ``g_x_hat`` reaches x_hat from the
    distortion path and ``weight`` scales its bits. Accumulates the schedule
    and entropy gradients into ``grads``; returns the gradient at x."""
    dx, d_mu, d_sigma, d_steps = _rate_grad(weight, lat.p, lat.z_lo, lat.z_hi, lat.sigma)
    g = g_x_hat + dx
    g_log_steps = (d_steps + (g * lat.u).sum(axis=0)) * lat.steps
    grads[f"{lat.key}.log_qs"] += g_log_steps.sum()
    grads[f"{lat.key}.alpha"] += g_log_steps @ np.arange(g_log_steps.size, dtype=g_log_steps.dtype)
    grads[f"{lat.key}.mu"] += d_mu
    grads[f"{lat.key}.log_sigma"] += d_sigma * lat.sigma
    return g


@dataclass
class _StreamPass:
    """One stream's intermediates; the refinement fields stay None without
    a refinement layer."""

    sm: StreamModel
    base: _Latent
    err: np.ndarray | None = None  # f - f_hat
    refine: _Latent | None = None
    r: np.ndarray | None = None  # truncation residual
    resid_err: np.ndarray | None = None  # r - r_hat
    unfold: tuple | None = None  # (model, its prepared layers, beta, recorded layers)


@dataclass
class Forward:
    """A loss value and what ``backward`` needs of the pass that made it."""

    parents = ()  # perfbench's tracer walks this as the root of a tape
    value: float
    streams: list
    weights: tuple  # of l1(f, f_hat), l1(r, r_hat), base bits, refinement bits


def loss(
    batch: np.ndarray,
    bundle: CodecBundle,
    params: Params,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[Forward, dict]:
    """One forward pass over the rows ``batch``, in their precision
    (``linalg.working``) with ``params`` cast to it; returns the loss with its
    intermediates and the logged components."""
    batch = linalg.working(batch)
    weights = params.views(params.flat.astype(batch.dtype, copy=False))
    n_rows = batch.shape[0]
    if n_rows == 0:
        raise InsufficientData("empty batch")
    inv_rows = 1.0 / n_rows
    streams = []
    total_abs = resid_abs = bits_base = bits_refine = 0.0
    total_elems = resid_elems = 0

    for sm, cols in zip(bundle.streams, bundle.columns):
        p = sm.config.name
        f = batch[:, cols]
        theta, r = split_base(f, sm.klt)
        s = _StreamPass(sm, _latent(theta, weights, f"{p}.base", rng))
        bits_base += s.base.bits
        f_hat = base_layer.synthesize_base(s.base.x_hat, sm.klt)

        if sm.refine is not None:
            model = _refine_model(weights, f"{p}.ref")
            s.r = r
            s.refine = _latent(refinement.analyze_refine(r, model), weights, f"{p}.ref", rng)
            bits_refine += s.refine.bits
            prepared = refinement.prepare(model, s.refine.x_hat.dtype)
            layers: list = []
            beta = refinement.unfold_code(s.refine.x_hat, prepared, record=layers)
            s.unfold = (model, prepared, beta, layers)
            r_hat = beta @ model.dictionary.T
            f_hat = f_hat + r_hat
            s.resid_err = s.r - r_hat
            resid_abs += np.abs(s.resid_err).sum()
            resid_elems += f.size

        s.err = f - f_hat
        total_abs += np.abs(s.err).sum()
        total_elems += f.size
        streams.append(s)

    weights = (
        1.0 / total_elems,
        config.lambda_e * (1.0 / resid_elems) if resid_elems else 0.0,
        config.lam * inv_rows,
        config.lambda_r * inv_rows,
    )
    l1_total = total_abs / total_elems
    bits_base_row = bits_base * inv_rows
    value = l1_total + config.lam * bits_base_row
    l1_resid = bits_refine_row = 0.0
    if resid_elems:
        l1_resid = resid_abs / resid_elems
        bits_refine_row = bits_refine * inv_rows
        value = value + config.lambda_e * l1_resid + config.lambda_r * bits_refine_row
    components = {
        "loss": float(value),
        "bits_base": float(bits_base_row),
        "bits_refine": float(bits_refine_row),
        "l1_total": float(l1_total),
        "l1_residual": float(l1_resid),
    }
    return Forward(float(value), streams, weights), components


def backward(fwd: Forward, params: Params) -> np.ndarray:
    """The gradient of ``fwd``'s loss, laid out like ``params.flat``: float64,
    whatever the precision of the pass."""
    grad = np.zeros_like(params.flat)
    grads = params.views(grad)
    w_l1, w_resid, w_base, w_refine = fwd.weights
    for s in fwd.streams:
        g_f_hat = -w_l1 * np.sign(s.err)
        _latent_grad(s.base, g_f_hat @ s.sm.klt.basis.astype(g_f_hat.dtype, copy=False), w_base, grads)
        if s.refine is not None:
            model, prepared, beta, layers = s.unfold
            g_r_hat = g_f_hat - w_resid * np.sign(s.resid_err)
            d_y, d_measure, d_dict, d_step, d_thresh = _unfold_grad(
                g_r_hat, s.refine.x_hat, model, prepared, beta, layers
            )
            g_y = _latent_grad(s.refine, d_y, w_refine, grads)
            g_model = _refine_model(grads, f"{s.sm.config.name}.ref")
            g_model.measure += d_measure + g_y.T @ s.r  # y = r @ A.T
            g_model.dictionary += d_dict
            g_model.step_raw += d_step
            g_model.thresh_raw += d_thresh
    return grad


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale ``grad`` in place to at most ``max_norm`` (0: no clipping);
    returns its norm before."""
    total = float(np.sqrt(grad @ grad))
    if max_norm > 0 and total > max_norm:
        grad *= max_norm / total
    return total


@dataclass
class AdamState:
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """In-place Adam update of the vector ``theta``, with bias correction."""
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
    state.t += 1
    b1, b2 = _ADAM_BETAS
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    theta -= lr * (m / (1.0 - b1**state.t)) / (np.sqrt(v / (1.0 - b2**state.t)) + _ADAM_EPS)


def _schedule(params: Params, key: str, n: int):
    return channel_schedule(float(np.exp(params[f"{key}.log_qs"])), float(params[f"{key}.alpha"]), n)


def _fit_entropy(values: np.ndarray) -> GaussianEntropyModel:
    """Per-channel mean and spread of the latents a model will code. The
    learned (mu, sigma) price the rate term only: they drift in channels
    whose rate signal is pure noise (degenerate sources)."""
    return GaussianEntropyModel(mu=values.mean(axis=0), sigma=np.maximum(values.std(axis=0), 1e-9))


def _finalize(bundle: CodecBundle, params: Params, x: np.ndarray) -> CodecBundle:
    """The trained bundle, each entropy model fitted to the latents of ``x``."""
    streams = []
    for sm, cols in zip(bundle.streams, bundle.columns):
        cfg = sm.config
        p = cfg.name
        theta, r = split_base(x[:, cols], sm.klt)
        new = StreamModel(cfg, sm.klt, _schedule(params, f"{p}.base", cfg.rank), _fit_entropy(theta))
        if sm.refine is not None:
            new.refine = _refine_model(params, f"{p}.ref")
            new.refine_sched = _schedule(params, f"{p}.ref", cfg.n_meas)
            new.refine_entropy = _fit_entropy(refinement.analyze_refine(r, new.refine))
        streams.append(new)
    return bitstream.finalize_bundle(CodecBundle(streams=streams))


def train(
    x: np.ndarray,
    configs: list[StreamConfig],
    config: TrainConfig,
) -> tuple[CodecBundle, list[dict]]:
    """Fit, jointly optimize, and finalize a codec bundle for ``x``.

    Returns the finalized bundle (the model a decoder reads back from the
    container) plus the training log (one row per ``log_every`` iterations).
    Bitwise reproducible for a fixed seed in single-thread mode.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientData("training table needs >= 2 rows")
    n = x.shape[0]
    batch_size = min(config.batch, n)
    rng = np.random.default_rng(config.seed)
    bundle = fit_bundle(x, configs, rng)
    params = make_params(bundle)
    state = AdamState()
    log: list[dict] = []
    for it in range(config.iters):
        idx = rng.integers(0, n, size=batch_size)
        # one batch at a time in float32: never a float32 copy of the whole table
        fwd, comps = loss(x[idx].astype(np.float32), bundle, params, config, rng)
        if not np.isfinite(fwd.value):
            raise Diverged(f"non-finite loss at iteration {it}: {comps}")
        grad = backward(fwd, params)
        grad_norm = clip_gradients(grad, config.grad_clip)
        lr = config.lr * _LR_DECAY ** (it / max(config.iters - 1, 1))
        adam_step(params.flat, grad, state, lr)
        if (it + 1) % config.log_every == 0 or it == 0:
            comps["iter"] = it + 1
            comps["grad_norm"] = grad_norm
            comps["lr"] = lr
            log.append(comps)
    return _finalize(bundle, params, x), log
