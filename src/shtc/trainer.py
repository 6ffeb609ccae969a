"""Joint rate-distortion training of the codec parameters.

The objective per batch is

    l1(f, f_hat) + lam * bits(base latents) + lambda_e * l1(r, r_hat)
                 + lambda_r * bits(refinement latents)

with l1 terms as mean absolute error per element and rate terms as estimated
bits per row. During training, quantization is replaced by additive uniform
noise on both the rate and distortion paths (one shared draw per latent), so
the learnable steps get distortion feedback too. The fitted basis is a
constant during training; in joint mode (learnable table) it is refit every
``refit_period`` iterations rather than differentiated through, since
eigendecomposition gradients are ill-conditioned near degenerate
eigenvalues. The trained bundle is finalized by ``bitstream.finalize_bundle``:
what the container's reader makes of its written model, so it is the model a
decoder runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import base_layer, bitstream, refinement
from .autodiff import Var
from .codec import CodecBundle, StreamConfig, StreamModel, fit_bundle
from .entropy import GaussianEntropyModel
from .errors import ConfigError, Diverged, InsufficientData
from .quantizer import channel_schedule
from .refinement import RefinementModel


@dataclass
class TrainConfig:
    lam: float = 0.004
    lambda_e: float = 0.03
    lr: float = 0.01
    iters: int = 3000
    batch: int = 256
    seed: int = 0
    refit_period: int = 500
    grad_clip: float = 10.0
    joint: bool = False
    log_every: int = 100
    lr_decay: float = 0.05  # final lr fraction, exponential over the run

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError("lam must be positive")
        if self.lambda_e < 0:
            raise ConfigError("lambda_e must be nonnegative")

    @property
    def lambda_r(self) -> float:
        return max(self.lam / 4.0, 0.001)


def make_params(bundle: CodecBundle) -> dict[str, Var]:
    """Learnable leaves: schedules, entropy parameters, refinement weights."""
    params: dict[str, Var] = {}
    for sm in bundle.streams:
        p = sm.config.name
        params[f"{p}.base.log_qs"] = Var(np.log(sm.base_sched.q_s), requires_grad=True)
        params[f"{p}.base.alpha"] = Var(float(sm.base_sched.alpha), requires_grad=True)
        params[f"{p}.base.mu"] = Var(sm.base_entropy.mu.copy(), requires_grad=True)
        params[f"{p}.base.log_sigma"] = Var(np.log(sm.base_entropy.sigma), requires_grad=True)
        if sm.refine is not None:
            params[f"{p}.ref.measure"] = Var(sm.refine.measure.copy(), requires_grad=True)
            params[f"{p}.ref.dict"] = Var(sm.refine.dictionary.copy(), requires_grad=True)
            params[f"{p}.ref.step_raw"] = Var(sm.refine.step_raw.copy(), requires_grad=True)
            params[f"{p}.ref.thresh_raw"] = Var(sm.refine.thresh_raw.copy(), requires_grad=True)
            params[f"{p}.ref.log_qs"] = Var(np.log(sm.refine_sched.q_s), requires_grad=True)
            params[f"{p}.ref.alpha"] = Var(float(sm.refine_sched.alpha), requires_grad=True)
            params[f"{p}.ref.mu"] = Var(sm.refine_entropy.mu.copy(), requires_grad=True)
            params[f"{p}.ref.log_sigma"] = Var(np.log(sm.refine_entropy.sigma), requires_grad=True)
    return params


def _schedule_var(params: dict, key: str, n: int) -> Var:
    idx = Var(np.arange(n, dtype=np.float64))
    return ad.vexp(params[f"{key}.log_qs"] + params[f"{key}.alpha"] * idx)


def _noise_proxy(x: Var, steps: Var, rng: np.random.Generator) -> Var:
    """The noise proxy of quantizing one latent, x + U(-step/2, step/2) per
    channel: one draw that both the rate and the distortion path see."""
    return x + steps * Var(rng.uniform(-0.5, 0.5, size=x.shape))


def loss(
    batch: np.ndarray,
    bundle: CodecBundle,
    params: dict[str, Var],
    config: TrainConfig,
    rng: np.random.Generator,
    batch_var: Var | None = None,
) -> tuple[Var, dict]:
    """One forward pass; returns the scalar loss node and logged components.

    ``batch`` holds the original rows (the distortion anchor). ``batch_var``
    optionally supplies learnable current rows (joint mode).
    """
    n_rows = batch.shape[0]
    if n_rows == 0:
        raise InsufficientData("empty batch")
    inv_rows = 1.0 / n_rows
    total_abs: Var | None = None
    total_elems = 0
    resid_abs: Var | None = None
    resid_elems = 0
    bits_base: Var | None = None
    bits_refine: Var | None = None

    for sm in bundle.streams:
        cfg = sm.config
        p = cfg.name
        f_orig = Var(batch[:, cfg.col_start : cfg.col_end])
        f = ad.slice_cols(batch_var, cfg.col_start, cfg.col_end) if batch_var is not None else f_orig
        v_m = Var(sm.klt.basis[:, : cfg.rank])
        mean = Var(sm.klt.mean)
        theta = (f - mean) @ v_m

        steps_b = _schedule_var(params, f"{p}.base", cfg.rank)
        sigma_b = ad.vexp(params[f"{p}.base.log_sigma"])
        theta_hat = _noise_proxy(theta, steps_b, rng)
        bb = ad.rate_bits(theta_hat, params[f"{p}.base.mu"], sigma_b, steps_b)
        bits_base = bb if bits_base is None else bits_base + bb

        f_base = theta_hat @ v_m.T + mean

        if sm.refine is not None:
            a = params[f"{p}.ref.measure"]
            # truncation residual: independent of the base quantization path
            r = f - (theta @ v_m.T + mean)
            y = r @ a.T
            steps_r = _schedule_var(params, f"{p}.ref", cfg.n_meas)
            sigma_r = ad.vexp(params[f"{p}.ref.log_sigma"])
            y_hat = _noise_proxy(y, steps_r, rng)
            br = ad.rate_bits(y_hat, params[f"{p}.ref.mu"], sigma_r, steps_r)
            bits_refine = br if bits_refine is None else bits_refine + br
            r_hat = ad.unfold(
                y_hat, a, params[f"{p}.ref.dict"],
                params[f"{p}.ref.step_raw"], params[f"{p}.ref.thresh_raw"],
            )
            f_hat = f_base + r_hat
            ra = ad.vabs(r - r_hat).sum()
            resid_abs = ra if resid_abs is None else resid_abs + ra
            resid_elems += n_rows * cfg.dim
        else:
            f_hat = f_base

        err = ad.vabs(f_orig - f_hat).sum()
        total_abs = err if total_abs is None else total_abs + err
        total_elems += n_rows * cfg.dim

    l1_total = total_abs * (1.0 / total_elems)
    bits_base_row = bits_base * inv_rows
    out = l1_total + config.lam * bits_base_row
    l1_resid_val = 0.0
    bits_refine_val = 0.0
    if resid_abs is not None:
        l1_resid = resid_abs * (1.0 / resid_elems)
        bits_refine_row = bits_refine * inv_rows
        out = out + config.lambda_e * l1_resid + config.lambda_r * bits_refine_row
        l1_resid_val = float(l1_resid.data)
        bits_refine_val = float(bits_refine_row.data)
    components = {
        "loss": float(out.data),
        "bits_base": float(bits_base_row.data),
        "bits_refine": bits_refine_val,
        "l1_total": float(l1_total.data),
        "l1_residual": l1_resid_val,
    }
    return out, components


def backward(loss_var: Var, params: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients for every learnable leaf; clears leaf grads afterwards."""
    loss_var.backward()
    grads = {}
    for name, p in params.items():
        if p.grad is not None:
            grads[name] = p.grad
            p.grad = None
    return grads


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, Var],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
):
    """In-place Adam update with bias correction."""
    state.t += 1
    b1, b2 = betas
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + eps)


def apply_params(bundle: CodecBundle, params: dict[str, Var]) -> CodecBundle:
    """Bundle with the learned parameter values written back."""
    streams = []
    for sm in bundle.streams:
        p = sm.config.name
        new = StreamModel(
            config=sm.config,
            klt=sm.klt,
            base_sched=channel_schedule(
                float(np.exp(params[f"{p}.base.log_qs"].data)),
                float(params[f"{p}.base.alpha"].data),
                sm.config.rank,
            ),
            base_entropy=GaussianEntropyModel(
                mu=params[f"{p}.base.mu"].data.copy(),
                sigma=np.exp(params[f"{p}.base.log_sigma"].data),
            ),
        )
        if sm.refine is not None:
            new.refine = RefinementModel(
                measure=params[f"{p}.ref.measure"].data.copy(),
                dictionary=params[f"{p}.ref.dict"].data.copy(),
                step_raw=params[f"{p}.ref.step_raw"].data.copy(),
                thresh_raw=params[f"{p}.ref.thresh_raw"].data.copy(),
            )
            new.refine_sched = channel_schedule(
                float(np.exp(params[f"{p}.ref.log_qs"].data)),
                float(params[f"{p}.ref.alpha"].data),
                sm.config.n_meas,
            )
            new.refine_entropy = GaussianEntropyModel(
                mu=params[f"{p}.ref.mu"].data.copy(),
                sigma=np.exp(params[f"{p}.ref.log_sigma"].data),
            )
        streams.append(new)
    return CodecBundle(streams=streams)


def _recalibrate_entropy(bundle: CodecBundle, x: np.ndarray) -> CodecBundle:
    """Snap the per-channel (mu, sigma) to the final latent statistics.

    The jointly learned values can drift in channels whose rate signal is
    pure noise (degenerate sources); the coder only needs the model to
    describe the latents it actually sees, so a final descriptive refit
    strictly helps matched-model coding.
    """
    for sm in bundle.streams:
        cfg = sm.config
        xs = x[:, cfg.col_start : cfg.col_end]
        theta = base_layer.analyze_base(xs, sm.klt)
        sm.base_entropy = GaussianEntropyModel(
            mu=theta.mean(axis=0), sigma=np.maximum(theta.std(axis=0), 1e-9)
        )
        if sm.refine is not None:
            f_trunc = base_layer.synthesize_base(theta, sm.klt)
            y = refinement.analyze_refine(xs - f_trunc, sm.refine)
            sm.refine_entropy = GaussianEntropyModel(
                mu=y.mean(axis=0), sigma=np.maximum(y.std(axis=0), 1e-9)
            )
    return bundle


def _refit_bases(x: np.ndarray, bundle: CodecBundle) -> CodecBundle:
    streams = []
    for sm in bundle.streams:
        cfg = sm.config
        if cfg.stores_basis:
            sm = replace(sm, klt=base_layer.fit_klt(x[:, cfg.col_start : cfg.col_end], cfg.rank))
        streams.append(sm)
    return CodecBundle(streams=streams)


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
    if config.joint:
        params["table"] = Var(x.copy(), requires_grad=True)
    state = AdamState()
    log: list[dict] = []
    for it in range(config.iters):
        idx = rng.integers(0, n, size=batch_size)
        batch_var = ad.take_rows(params["table"], idx) if config.joint else None
        loss_var, comps = loss(x[idx], bundle, params, config, rng, batch_var=batch_var)
        if not np.isfinite(loss_var.data):
            raise Diverged(f"non-finite loss at iteration {it}: {comps}")
        grads = backward(loss_var, params)
        grad_norm = clip_gradients(grads, config.grad_clip)
        lr = config.lr * config.lr_decay ** (it / max(config.iters - 1, 1))
        adam_step(params, grads, state, lr)
        if (it + 1) % config.log_every == 0 or it == 0:
            comps["iter"] = it + 1
            comps["grad_norm"] = float(grad_norm)
            comps["lr"] = lr
            log.append(comps)
        if (
            config.joint
            and config.refit_period > 0
            and (it + 1) % config.refit_period == 0
            and it + 1 < config.iters
        ):
            bundle = _refit_bases(params["table"].data, bundle)
    if config.joint:
        bundle = _refit_bases(params["table"].data, bundle)
    bundle = apply_params(bundle, params)
    bundle = _recalibrate_entropy(bundle, params["table"].data if config.joint else x)
    return bitstream.finalize_bundle(bundle), log
