"""Stream configuration, codec bundle, and the deterministic encode/decode
paths that tie the transforms, quantizer, and entropy coder together.

A table is compressed as one or more column streams, laid side by side in
order (``side_by_side``): a stream states only its width, ``dim``, and takes
the next ``dim`` columns. Each stream has a base layer (fitted KLT or a fixed
orthonormal basis, truncated to ``rank`` coefficients) and, for the full
hierarchy, a refinement layer coding the base-layer residual. A finalized bundle
(``bitstream.finalize_bundle``) is the model a decoder reads back from the
container, so encoder- and decoder-side reconstructions are bit-identical.

A file's payload is one latent of every stream's channels, coded under one
entropy model (``_file_model``): the streams in order, each with its base
channels before its refinement channels. Both directions walk each stream
one block of ``_BLOCK_ROWS`` rows at a time (``_row_blocks``), so their
working memory does not grow with the row count. The encoder analyses each
stream (``_stream_symbols``) into its columns of one symbol table, which the
coder codes in one loop.

There is one synthesis loop (``_reconstruct``, stream by stream in
``_reconstruct_stream``). The decoder runs it on the decoded symbols, and
the encoder runs it on its own symbols before the coder, so the encoder's
reconstruction and the decoder's agree bit for bit. It prepares a stream's
refinement layers once per table (``refinement.prepare``), tiled
``_TILE_ROWS`` = 256 times when the table has at least one full block. With
the tiles, a block's per-channel terms (a layer's step and its clip to the
threshold) run as a few long numpy loops, not one loop of n_atoms per row,
and give the same bits. A smaller table runs untiled, since tiles built for
few rows cost more than they save; a short last block runs untiled when its
rows are not a multiple of the tile.

Reconstruction is not part of the bytes. The base layer is synthesized in
float64 and the refinement in float32, whose rounding is orders of magnitude
below the coding error, and the float32 residual is added into the float64
table. A block that is not finite is refused in that one loop: the encoder
raises ``Overflow`` before it codes a payload, and the decoder raises
``DecodeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import base_layer, entropy, linalg, quantizer, refinement
from .base_layer import KltModel
from .entropy import GaussianEntropyModel
from .entropy import decode_symbols, encode_symbols  # read by the benchmark's tracer; no codec path calls them
from .errors import ConfigError, DataError, DecodeError, DimMismatch, Overflow
from .quantizer import QuantSchedule, channel_schedule
from .refinement import RefinementModel

TRANSFORMS = ("none", "dct", "haar", "klt-trunc", "shtc-full")

# Transform kinds whose basis must be transmitted (data-dependent).
_STORED_BASIS = ("klt-trunc", "shtc-full")

_U16 = 1 << 16  # a file's dims store dim, rank, n_meas, n_atoms and n_layers as u16

_F32_MAX = float(np.finfo(np.float32).max)  # largest table entry a bundle can be fitted to

_BLOCK_ROWS = 1024  # rows per analysis and synthesis block; not part of the format
_TILE_ROWS = 256  # tile of a refinement's per-channel terms in a table with a full block


@dataclass
class StreamConfig:
    """One stream: its width, the next ``dim`` columns of the table, and how
    to transform them."""

    name: str
    dim: int
    transform: str = "shtc-full"
    rank: int = 15
    n_meas: int = 15
    n_atoms: int = 0  # 0 means "same as stream dim"
    n_layers: int = 6

    def __post_init__(self):
        """The one definition of a valid stream: a configuration and a file's
        dims (``bitstream._read_stream``) both pass through it."""
        if self.transform not in TRANSFORMS:
            raise ConfigError(f"unknown transform {self.transform!r}")
        if not self.name.isascii() or len(self.name) > 8:
            raise ConfigError("stream name must be ascii, at most 8 chars")
        for key in ("dim", "rank", "n_meas", "n_atoms", "n_layers"):
            if not 0 <= getattr(self, key) < _U16:
                raise ConfigError(f"{key} = {getattr(self, key)} does not fit a u16")
        if not 1 <= self.rank <= self.dim:
            raise ConfigError(f"rank {self.rank} outside [1, {self.dim}]")
        if self.n_meas < 1 or self.n_layers < 1:
            raise ConfigError(f"n_meas {self.n_meas} and n_layers {self.n_layers} must be at least 1")
        if self.transform == "haar" and self.dim > 1 and self.dim % 2:
            raise ConfigError(f"haar needs an even size, got dim {self.dim}")

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
        rank = min(15, feat_dim) if transform in _STORED_BASIS else feat_dim
    rank = min(rank, feat_dim)
    n_meas = min(n_meas, feat_dim)
    configs = [StreamConfig("feat", feat_dim, transform, rank, n_meas, n_atoms, n_layers)]
    if scaling_cols:
        configs.append(StreamConfig("scale", scaling_cols, "klt-trunc", rank=scaling_cols))
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


def side_by_side(widths) -> list[slice]:
    """Consecutive ranges of the given widths from 0, in order: the streams'
    columns of the table (``CodecBundle.columns``), or their columns of the
    file's symbol table (``_file_model``)."""
    slices, end = [], 0
    for width in widths:
        slices.append(slice(end, end + width))
        end += width
    return slices


@dataclass
class CodecBundle:
    streams: list[StreamModel]

    @property
    def dim(self) -> int:
        """The table's column count: the streams' widths summed."""
        return sum(s.config.dim for s in self.streams)

    @property
    def columns(self) -> list[slice]:
        """Each stream's columns of the table."""
        return side_by_side(s.config.dim for s in self.streams)


def _fixed_basis(kind: str, dim: int, rank: int) -> np.ndarray:
    """The ``rank`` leading columns of a fixed orthonormal basis, built
    without the columns a stream drops."""
    if kind == "none":
        return np.eye(dim, rank)
    if kind == "dct":
        return linalg.dct_matrix(dim, rank).T
    if kind == "haar":
        return linalg.haar_matrix(dim, rank).T
    raise ConfigError(f"no fixed basis for {kind!r}")


def split_base(xs: np.ndarray, klt: KltModel) -> tuple[np.ndarray, np.ndarray]:
    """A stream's analysis, for the codec and the trainer alike: the retained
    coefficients theta of ``xs`` and the truncation residual that the
    refinement layer measures, ``xs - synthesize_base(theta)``. Unquantized:
    refinement codes what truncation discarded, not quantization error."""
    theta = base_layer.analyze_base(xs, klt)
    return theta, xs - base_layer.synthesize_base(theta, klt)


_STEP_FRAC = 0.3
_SD_FLOOR = 1e-4


def _initial_latent(values: np.ndarray) -> tuple[QuantSchedule, GaussianEntropyModel]:
    """Starting step schedule and entropy model of a latent: a zero-mean
    Gaussian at each channel's spread, and a flat step of a fraction of the
    median spread."""
    sd = np.maximum(values.std(axis=0), _SD_FLOOR)
    sched = channel_schedule(_STEP_FRAC * float(np.median(sd)), 0.0, sd.size)
    return sched, GaussianEntropyModel(mu=np.zeros(sd.size), sigma=sd)


def fit_stream(xs: np.ndarray, cfg: StreamConfig, rng: np.random.Generator) -> StreamModel:
    """A stream's initial model, fitted to ``xs``, its columns of the table."""
    if cfg.stores_basis:
        klt = base_layer.fit_klt(xs, cfg.rank)
    else:
        klt = KltModel(mean=xs.mean(axis=0), basis=_fixed_basis(cfg.transform, cfg.dim, cfg.rank))
    theta, r = split_base(xs, klt)
    sm = StreamModel(cfg, klt, *_initial_latent(theta))
    if cfg.has_refinement:
        sm.refine = refinement.init_refinement(
            cfg.dim, cfg.n_meas, cfg.atoms, cfg.n_layers, rng,
            thresh_init=max(0.5 * float(r.std()), 1e-3),
        )
        sm.refine_sched, sm.refine_entropy = _initial_latent(refinement.analyze_refine(r, sm.refine))
    return sm


def fit_bundle(x: np.ndarray, configs: list[StreamConfig], rng: np.random.Generator) -> CodecBundle:
    """The initial bundle of ``configs`` over ``x``. Stream names must differ:
    the trainer keys each stream's parameters by its name. Every entry must
    be finite and within binary32's range: the trainer computes in float32,
    and the file stores each stream's mean in binary32."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("table has non-finite entries")
    if np.abs(x).max(initial=0.0) > _F32_MAX:
        raise DataError(f"table has entries beyond binary32's range (magnitude above {_F32_MAX:.7g})")
    if not configs:
        raise ConfigError("need at least one stream config")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"stream names must differ, got {names}")
    if sum(c.dim for c in configs) != x.shape[1]:
        raise DimMismatch("stream widths do not sum to the table's columns")
    cols = side_by_side(c.dim for c in configs)
    return CodecBundle(streams=[fit_stream(x[:, col], c, rng) for c, col in zip(configs, cols)])


@dataclass
class Payload:
    """A file's coded bytes: one latent of every stream's channels over ``rows`` rows."""

    data: bytes
    rows: int


def _file_model(bundle: CodecBundle) -> tuple[GaussianEntropyModel, np.ndarray, list[slice]]:
    """The file's one latent: its entropy model, its quantizer steps and each
    stream's columns of it. The channels are the streams' in order, each
    stream's base channels before its refinement channels."""
    latents, widths = [], []
    for sm in bundle.streams:
        own = [(sm.base_entropy, sm.base_sched)]
        if sm.refine is not None:
            own.append((sm.refine_entropy, sm.refine_sched))
        latents += own
        widths.append(sum(sched.n for _, sched in own))
    models, scheds = zip(*latents)
    model = GaussianEntropyModel(mu=np.concatenate([m.mu for m in models]),
                                 sigma=np.concatenate([m.sigma for m in models]))
    return model, np.concatenate([sched.steps for sched in scheds]), side_by_side(widths)


def _stream_symbols(sm: StreamModel, xs: np.ndarray, out: np.ndarray) -> None:
    """Quantize the stream's latents of its columns ``xs`` into ``out``, its
    columns of the file's symbol table, one block of ``_BLOCK_ROWS`` rows at
    a time: the base channels, then the refinement channels."""
    k = sm.base_sched.n
    for rows in _row_blocks(xs.shape[0]):
        theta, r = split_base(xs[rows], sm.klt)
        out[rows, :k] = quantizer.quantize(theta, sm.base_sched)
        if sm.refine is not None:
            out[rows, k:] = quantizer.quantize(refinement.analyze_refine(r, sm.refine), sm.refine_sched)


def _row_blocks(n: int) -> list[slice]:
    """The blocks of ``_BLOCK_ROWS`` rows, in order, that cover ``n`` rows."""
    return [slice(s, s + _BLOCK_ROWS) for s in range(0, n, _BLOCK_ROWS)]


def _reconstruct_stream(sm: StreamModel, out: np.ndarray, sym: np.ndarray, refuse) -> None:
    """Write the stream's reconstruction from ``sym``, its columns of the
    file's symbol table, into ``out``, one block of ``_BLOCK_ROWS`` rows at a
    time: dequantize, base synthesis, the unfolded refinement, and their sum
    straight into the block's rows. The refinement layers are prepared once
    for the table: float32, tiled ``_TILE_ROWS`` times when the table has a
    full block, untiled otherwise. The base layer runs in float64 and the
    refinement in float32, from symbols dequantized straight to float32. A
    block that is not finite raises ``refuse``, the caller's error; numpy
    warns of nothing on the way, since the block is refused."""
    k = sm.base_sched.n
    with np.errstate(all="ignore"):
        if sm.refine is not None:
            layers = refinement.prepare(sm.refine, np.float32, _TILE_ROWS if out.shape[0] >= _BLOCK_ROWS else 1)
            refine_steps = sm.refine_sched.steps.astype(np.float32)
        for rows in _row_blocks(out.shape[0]):
            f_base = base_layer.synthesize_base(quantizer.dequantize(sym[rows, :k], sm.base_sched), sm.klt)
            if sm.refine is None:
                out[rows] = f_base
            else:
                y_hat = np.multiply(sym[rows, k:], refine_steps, dtype=np.float32)
                np.add(f_base, refinement.unfold_synthesize(y_hat, layers), out=out[rows])
            if not np.isfinite(out[rows]).all():
                raise refuse(f"stream {sm.config.name!r} decodes to non-finite values")


def _reconstruct(bundle: CodecBundle, sym: np.ndarray, spans: list[slice], refuse) -> np.ndarray:
    """The table the file's symbol table ``sym`` decodes to, stream by
    stream, each from its ``spans`` columns of ``sym``; a stream that is not
    finite raises ``refuse``. The decoder's one synthesis, which the encoder
    runs on its own symbols."""
    out = np.empty((sym.shape[0], bundle.dim))
    for sm, cols, span in zip(bundle.streams, bundle.columns, spans):
        _reconstruct_stream(sm, out[:, cols], sym[:, span], refuse)
    return out


def encode_table(bundle: CodecBundle, x: np.ndarray) -> tuple[Payload, np.ndarray]:
    """Quantize and entropy-code every stream; also return the decoder-side
    reconstruction, synthesized from the symbols by the decoder's loop before
    the coder runs, so a model that does not decode to finite values codes no
    payload."""
    if not bundle.streams:
        raise ConfigError("no streams to encode")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != bundle.dim:
        raise DimMismatch(f"table of shape {x.shape} is not one of {bundle.dim} columns")
    model, steps, spans = _file_model(bundle)
    sym = np.empty((x.shape[0], steps.size), dtype=np.int64)
    for sm, cols, span in zip(bundle.streams, bundle.columns, spans):
        _stream_symbols(sm, x[:, cols], sym[:, span])
    recon = _reconstruct(bundle, sym, spans, Overflow)
    return Payload(entropy.encode(sym, model, steps), x.shape[0]), recon


def decode_table(bundle: CodecBundle, payload: Payload) -> np.ndarray:
    """The table a file decodes to; a file of 0 rows, bundle-only or not,
    decodes to a (0, dim) table."""
    if not bundle.streams:
        raise DecodeError("no streams to decode")
    model, steps, spans = _file_model(bundle)
    return _reconstruct(bundle, entropy.decode(payload.rows, payload.data, model, steps), spans, DecodeError)
