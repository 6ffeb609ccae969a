"""Stream configuration, codec bundle, and the deterministic encode/decode
paths that tie the transforms, quantizer, and entropy coder together.

A table is compressed as one or more column streams. Each stream has a base
layer (fitted KLT or a fixed orthonormal basis, truncated to ``rank``
coefficients) and, for the full hierarchy, a refinement layer coding the
base-layer residual. A finalized bundle (``bitstream.finalize_bundle``) is
the model a decoder reads back from the container, so encoder- and
decoder-side reconstructions are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import base_layer, linalg, quantizer, refinement
from .base_layer import KltModel
from .entropy import GaussianEntropyModel, decode_latents, encode_latents
from .entropy import decode_symbols, encode_symbols  # read by the benchmark's tracer; no codec path calls them
from .errors import ConfigError, DecodeError, DimMismatch
from .quantizer import QuantSchedule, channel_schedule
from .refinement import RefinementModel

TRANSFORMS = ("none", "dct", "haar", "klt-trunc", "shtc-full")

# Transform kinds whose basis must be transmitted (data-dependent).
_STORED_BASIS = ("klt-trunc", "shtc-full")


@dataclass
class StreamConfig:
    """One column range of the table and how to transform it."""

    name: str
    col_start: int
    col_end: int
    transform: str = "shtc-full"
    rank: int = 15
    n_meas: int = 15
    n_atoms: int = 0  # 0 means "same as stream dim"
    n_layers: int = 6

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise ConfigError(f"unknown transform {self.transform!r}")
        if not self.name.isascii() or len(self.name) > 8:
            raise ConfigError("stream name must be ascii, at most 8 chars")
        if self.col_end <= self.col_start:
            raise ConfigError("empty column range")
        if not 1 <= self.rank <= self.dim:
            raise ConfigError(f"rank must be in [1, {self.dim}]")

    @property
    def dim(self) -> int:
        return self.col_end - self.col_start

    @property
    def has_refinement(self) -> bool:
        # at full rank the truncation residual is zero: nothing to refine
        return self.transform == "shtc-full" and self.rank < self.dim

    @property
    def stores_basis(self) -> bool:
        return self.transform in _STORED_BASIS

    @property
    def atoms(self) -> int:
        return self.n_atoms if self.n_atoms else self.dim


def default_configs(
    dim: int,
    transform: str = "shtc-full",
    rank: int | None = None,
    n_meas: int = 15,
    n_atoms: int = 0,
    n_layers: int = 6,
    scaling_cols: int = 0,
) -> list[StreamConfig]:
    """Feature stream over the leading columns, plus an optional base-only
    stream with full rank over the trailing ``scaling_cols`` columns.

    ``rank=None`` picks the transform default: 15 retained coefficients for
    the learned bases, all of them for the fixed ones.
    """
    feat_dim = dim - scaling_cols
    if feat_dim < 1:
        raise ConfigError("scaling_cols leaves no feature columns")
    if rank is None:
        rank = feat_dim if transform in ("none", "dct", "haar") else min(15, feat_dim)
    rank = min(rank, feat_dim)
    n_meas = min(n_meas, feat_dim)
    configs = [
        StreamConfig(
            name="feat",
            col_start=0,
            col_end=feat_dim,
            transform=transform,
            rank=rank,
            n_meas=n_meas,
            n_atoms=n_atoms,
            n_layers=n_layers,
        )
    ]
    if scaling_cols:
        configs.append(
            StreamConfig(
                name="scale",
                col_start=feat_dim,
                col_end=dim,
                transform="klt-trunc",
                rank=scaling_cols,
            )
        )
    return configs


@dataclass
class StreamModel:
    """Everything needed to decode one stream (the transmitted model)."""

    config: StreamConfig
    klt: KltModel
    base_sched: QuantSchedule
    base_entropy: GaussianEntropyModel
    refine: RefinementModel | None = None
    refine_sched: QuantSchedule | None = None
    refine_entropy: GaussianEntropyModel | None = None


@dataclass
class CodecBundle:
    streams: list[StreamModel] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return max(s.config.col_end for s in self.streams)


def _fixed_basis(kind: str, dim: int) -> np.ndarray:
    if kind == "none":
        return np.eye(dim)
    if kind == "dct":
        return linalg.dct_matrix(dim).T
    if kind == "haar":
        return linalg.haar_matrix(dim).T
    raise ConfigError(f"no fixed basis for {kind!r}")


_STEP_FRAC = 0.3
_SD_FLOOR = 1e-4


def _coeff_stats(values: np.ndarray) -> np.ndarray:
    return np.maximum(values.std(axis=0), _SD_FLOOR)


def fit_stream(x: np.ndarray, cfg: StreamConfig, rng: np.random.Generator) -> StreamModel:
    xs = x[:, cfg.col_start : cfg.col_end]
    if cfg.stores_basis:
        klt = base_layer.fit_klt(xs, cfg.rank)
    else:
        mean = xs.mean(axis=0)
        basis = _fixed_basis(cfg.transform, cfg.dim)
        coeffs = (xs - mean) @ basis
        klt = KltModel(mean=mean, basis=basis, eigenvalues=coeffs.var(axis=0), rank=cfg.rank)
    theta_p = base_layer.analyze_base(xs, klt)
    sd = _coeff_stats(theta_p)
    sm = StreamModel(
        config=cfg,
        klt=klt,
        base_sched=channel_schedule(_STEP_FRAC * float(np.median(sd)), 0.0, cfg.rank),
        base_entropy=GaussianEntropyModel(mu=np.zeros(cfg.rank), sigma=sd),
    )
    if cfg.has_refinement:
        r0 = xs - base_layer.synthesize_base(theta_p, klt)
        sm.refine = refinement.init_refinement(
            cfg.dim, cfg.n_meas, cfg.atoms, cfg.n_layers, rng,
            thresh_init=max(0.5 * float(r0.std()), 1e-3),
        )
        sdy = _coeff_stats(refinement.analyze_refine(r0, sm.refine))
        sm.refine_sched = channel_schedule(_STEP_FRAC * float(np.median(sdy)), 0.0, cfg.n_meas)
        sm.refine_entropy = GaussianEntropyModel(mu=np.zeros(cfg.n_meas), sigma=sdy)
    return sm


def fit_bundle(x: np.ndarray, configs: list[StreamConfig], rng: np.random.Generator) -> CodecBundle:
    x = np.asarray(x, dtype=np.float64)
    if configs and max(c.col_end for c in configs) != x.shape[1]:
        raise DimMismatch("stream configs do not cover the table columns")
    return CodecBundle(streams=[fit_stream(x, c, rng) for c in configs])


@dataclass
class StreamPayload:
    """Entropy-coded latents of one stream: (symbol_count, coded_bytes)."""

    latents: list[tuple[int, bytes]]


def _latent_models(sm: StreamModel) -> list[tuple[GaussianEntropyModel, QuantSchedule]]:
    """Entropy model and step schedule of each coded latent: base, then refinement."""
    models = [(sm.base_entropy, sm.base_sched)]
    if sm.refine is not None:
        models.append((sm.refine_entropy, sm.refine_sched))
    return models


def _stream_symbols(sm: StreamModel, xs: np.ndarray) -> list[np.ndarray]:
    """Quantized latents of one stream, in the order of :func:`_latent_models`."""
    theta_p = base_layer.analyze_base(xs, sm.klt)
    symbols = [quantizer.quantize(theta_p, sm.base_sched)]
    if sm.refine is not None:
        # Measurements take the truncation residual (unquantized base
        # synthesis): the refinement codes what truncation discarded, not the
        # base layer's quantization error.
        f_trunc = base_layer.synthesize_base(theta_p, sm.klt)
        y = refinement.analyze_refine(base_layer.residual(xs, f_trunc), sm.refine)
        symbols.append(quantizer.quantize(y, sm.refine_sched))
    return symbols


def _reconstruct_stream(sm: StreamModel, sym_base: np.ndarray, sym_refine=None) -> np.ndarray:
    theta_hat = quantizer.dequantize(sym_base, sm.base_sched)
    f_base = base_layer.synthesize_base(theta_hat, sm.klt)
    if sm.refine is None:
        return f_base
    y_hat = quantizer.dequantize(sym_refine, sm.refine_sched)
    return f_base + refinement.unfold_synthesize(y_hat, sm.refine)


def encode_table(bundle: CodecBundle, x: np.ndarray) -> tuple[list[StreamPayload], np.ndarray]:
    """Quantize and entropy-code every stream; also return the decoder-side
    reconstruction (computed from the coded symbols). Every latent of the
    table is coded in one ``encode_latents`` loop."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] != bundle.dim:
        raise DimMismatch(f"table has {x.shape[1]} columns, bundle expects {bundle.dim}")
    recon = np.zeros_like(x)
    symbols = []
    for sm in bundle.streams:
        cols = slice(sm.config.col_start, sm.config.col_end)
        syms = _stream_symbols(sm, x[:, cols])
        recon[:, cols] = _reconstruct_stream(sm, *syms)
        symbols.append(syms)
    coded = iter(encode_latents([
        (sym, *model)
        for sm, syms in zip(bundle.streams, symbols)
        for sym, model in zip(syms, _latent_models(sm))
    ]))
    payloads = [StreamPayload(latents=[(sym.size, next(coded)) for sym in syms]) for syms in symbols]
    return payloads, recon


def decode_table(bundle: CodecBundle, payloads: list[StreamPayload]) -> np.ndarray:
    """The table a file decodes to. Every latent of the file is decoded in one
    ``decode_latents`` loop, which first checks that all of them have one row
    count."""
    if len(payloads) != len(bundle.streams):
        raise DimMismatch("payload count does not match stream count")
    if not bundle.streams:
        raise DecodeError("no streams to decode")
    latents = []
    for sm, payload in zip(bundle.streams, payloads):
        models = _latent_models(sm)
        if len(payload.latents) != len(models):
            raise DecodeError(f"stream {sm.config.name!r} carries {len(payload.latents)} coded latents")
        latents += [(data, count, *model) for (count, data), model in zip(payload.latents, models)]
    decoded = decode_latents(latents)
    out = np.zeros((decoded[0].shape[0], bundle.dim))
    symbols = iter(decoded)
    for sm in bundle.streams:
        rec = _reconstruct_stream(sm, *(next(symbols) for _ in _latent_models(sm)))
        if not np.isfinite(rec).all():
            raise DecodeError(f"stream {sm.config.name!r} decodes to non-finite values")
        out[:, sm.config.col_start : sm.config.col_end] = rec
    return out
