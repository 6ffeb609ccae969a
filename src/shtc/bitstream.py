"""Container format: transmitted models (the L(M) side of the description
length) plus the entropy-coded payload (L(D|M)).

Layout (all ints little-endian, floats 32-bit LE; full byte map in
``docs/format.md``):

    header:  magic "SHTC" | version u16 | stream count u16 | rows u32
             | crc32 of the 12 preceding bytes
    stream:  dims block, model block
    file:    header, stream*, payload block (the one coded latent)
    block:   content length u32 | content | crc32(content)
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .base_layer import KltModel
from .codec import CodecBundle, Payload, StreamConfig, StreamModel, TRANSFORMS, _fixed_basis, check_tiling
from .entropy import GaussianEntropyModel
from .errors import BadMagic, ChecksumError, ConfigError, DecodeError, VersionUnsupported
from .quantizer import QuantSchedule, channel_schedule
from .refinement import RefinementModel, param_count

MAGIC = b"SHTC"
VERSION = 5

_HEAD_FMT = "<4sHHI"
_DIMS_FMT = "<8sBHHHHHHI"


def _f32_bytes(*arrays) -> bytes:
    out = bytearray()
    for a in arrays:
        out += np.asarray(a, dtype="<f4").tobytes()
    return bytes(out)


def _block(content: bytes) -> bytes:
    return struct.pack("<I", len(content)) + content + struct.pack("<I", zlib.crc32(content))


def _dims_content(sm: StreamModel) -> bytes:
    cfg = sm.config
    refine_floats = param_count(sm.refine) if sm.refine is not None else 0
    return struct.pack(
        _DIMS_FMT,
        cfg.name.encode("ascii"),
        TRANSFORMS.index(cfg.transform),
        cfg.col_start,
        cfg.col_end,
        cfg.rank,
        cfg.n_meas,
        cfg.atoms,
        cfg.n_layers,
        refine_floats,
    )


def _model_content(sm: StreamModel) -> bytes:
    parts = [sm.klt.mean]
    if sm.config.stores_basis:
        parts.append(sm.klt.basis)
    parts += [
        [sm.base_sched.q_s, sm.base_sched.alpha],
        sm.base_entropy.mu,
        sm.base_entropy.sigma,
    ]
    if sm.refine is not None:
        parts += [
            sm.refine.measure,
            sm.refine.dictionary,
            sm.refine.step_raw,
            sm.refine.thresh_raw,
            [sm.refine_sched.q_s, sm.refine_sched.alpha],
            sm.refine_entropy.mu,
            sm.refine_entropy.sigma,
        ]
    return _f32_bytes(*parts)


def serialize(bundle: CodecBundle, payload: Payload | None = None) -> tuple[bytes, dict]:
    """Serialize to bytes; returns (data, {"model_bytes", "payload_bytes"}).
    Without a payload the file is bundle-only: 0 rows, an empty payload."""
    if payload is None:
        payload = Payload(b"", 0)
    head = struct.pack(_HEAD_FMT, MAGIC, VERSION, len(bundle.streams), payload.rows)
    out = bytearray(head + struct.pack("<I", zlib.crc32(head)))
    model_bytes = 0
    for sm in bundle.streams:
        dims = _dims_content(sm)
        model = _model_content(sm)
        model_bytes += len(dims) + len(model)
        out += _block(dims) + _block(model)
    out += _block(payload.data)
    return bytes(out), {"model_bytes": model_bytes, "payload_bytes": len(payload.data)}


def write(bundle: CodecBundle, payload: Payload | None, path) -> dict:
    data, counts = serialize(bundle, payload)
    with open(path, "wb") as fh:
        fh.write(data)
    return counts


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def block(self) -> bytes:
        (length,) = struct.unpack("<I", self.take(4))
        content = self.take(length)
        (crc,) = struct.unpack("<I", self.take(4))
        if zlib.crc32(content) != crc:
            raise ChecksumError("block crc mismatch")
        return content


def _f32_reader(content: bytes):
    if len(content) % 4:
        raise DecodeError("model block is not a whole number of floats")
    arr = np.frombuffer(content, dtype="<f4").astype(np.float64)
    if not np.isfinite(arr).all():
        raise DecodeError("model block holds a non-finite float")
    pos = [0]

    def take(shape) -> np.ndarray:
        n = shape if isinstance(shape, int) else math.prod(shape)
        if pos[0] + n > arr.size:
            raise DecodeError("model block too short")
        chunk = arr[pos[0] : pos[0] + n].reshape(shape)
        pos[0] += n
        return chunk.copy()

    return take, lambda: pos[0] == arr.size


def _latent_model(take, n: int) -> tuple[QuantSchedule, GaussianEntropyModel]:
    """One latent's step schedule and entropy model; every step and sigma must be positive."""
    (qs, alpha), mu, sigma = take(2), take(n), take(n)
    if not (qs > 0 and np.all(sigma > 0)):
        raise DecodeError("model block holds a step or an entropy sigma that is not positive")
    sched = channel_schedule(float(qs), float(alpha), n)
    if not np.all(np.isfinite(sched.steps) & (sched.steps > 0)):
        raise DecodeError("channel step schedule leaves the float range")
    return sched, GaussianEntropyModel(mu=mu, sigma=sigma)


def _read_stream(dims: bytes, model: bytes) -> StreamModel:
    """One stream's config and transmitted model from its dims and model block
    contents. The only parser of both: ``deserialize`` reads files with it and
    ``finalize_bundle`` reads back what the writer makes of a fitted model."""
    if len(dims) != struct.calcsize(_DIMS_FMT):
        raise DecodeError("dims block has the wrong length")
    name, kind, cs, ce, rank, n_meas, n_atoms, n_layers, ref_floats = struct.unpack(_DIMS_FMT, dims)
    name = name.rstrip(b"\x00")
    if not name.isascii():
        raise DecodeError("stream name is not ascii")
    if kind >= len(TRANSFORMS):
        raise DecodeError(f"unknown transform kind {kind}")
    try:
        cfg = StreamConfig(name.decode("ascii"), cs, ce, TRANSFORMS[kind], rank, n_meas, n_atoms, n_layers)
    except ConfigError as exc:
        raise DecodeError(f"dims block: {exc}") from exc
    dim = cfg.dim
    take, exhausted = _f32_reader(model)
    mean = take(dim)
    basis = take((dim, rank)) if cfg.stores_basis else _fixed_basis(cfg.transform, dim, rank)
    sm = StreamModel(cfg, KltModel(mean=mean, basis=basis), *_latent_model(take, rank))
    if cfg.has_refinement:  # a shtc-full stream below full rank
        shapes = ((n_meas, dim), (dim, cfg.atoms), (n_layers, cfg.atoms), (n_layers, cfg.atoms))
        sm.refine = RefinementModel(*(take(shape) for shape in shapes))
        if param_count(sm.refine) != ref_floats:
            raise DecodeError("declared refinement parameter count mismatch")
        sm.refine_sched, sm.refine_entropy = _latent_model(take, n_meas)
    if not exhausted():
        raise DecodeError("model block has trailing floats")
    return sm


def finalize_bundle(bundle: CodecBundle) -> CodecBundle:
    """The bundle a decoder reads back: each stream written as its dims and
    model blocks and parsed by ``deserialize``'s own reader, so the in-process
    reconstruction matches a decode from file bit-exactly."""
    streams = [_read_stream(_dims_content(sm), _model_content(sm)) for sm in bundle.streams]
    return CodecBundle(streams=streams)


def deserialize(data: bytes) -> tuple[CodecBundle, Payload]:
    rd = _Reader(data)
    head = rd.take(12)
    magic, version, n_streams, rows = struct.unpack(_HEAD_FMT, head)
    (crc,) = struct.unpack("<I", rd.take(4))
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if zlib.crc32(head) != crc:
        raise ChecksumError("header crc mismatch")
    if version != VERSION:
        raise VersionUnsupported(f"version {version} unsupported (reader knows {VERSION})")
    streams = [_read_stream(rd.block(), rd.block()) for _ in range(n_streams)]  # dims, then model block
    payload = Payload(rd.block(), rows)
    if rd.pos != len(rd.data):
        raise DecodeError("file has trailing bytes")
    try:
        check_tiling(sm.config for sm in streams)
    except ConfigError as exc:
        raise DecodeError(f"dims blocks: {exc}") from exc
    return CodecBundle(streams=streams), payload


def read(path) -> tuple[CodecBundle, Payload]:
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def mdl_report(path) -> dict:
    """Model bytes per stream, payload bytes per file, and the container
    overhead left over, from a written file."""
    with open(path, "rb") as fh:
        data = fh.read()
    bundle, payload = deserialize(data)
    per_stream = [
        {"stream": sm.config.name, "model_bytes": len(_dims_content(sm)) + len(_model_content(sm))}
        for sm in bundle.streams
    ]
    model_total = sum(s["model_bytes"] for s in per_stream)
    return {
        "streams": per_stream,
        "model_bytes": model_total,
        "payload_bytes": len(payload.data),
        "file_bytes": len(data),
        "container_overhead": len(data) - model_total - len(payload.data),
        "rows": payload.rows,
        "bits_per_row": (len(data) * 8.0 / payload.rows) if payload.rows else None,
    }
