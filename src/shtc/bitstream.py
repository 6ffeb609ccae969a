"""Container format: transmitted models (the L(M) side of the description
length) plus entropy-coded payloads (L(D|M)).

Layout (all ints little-endian, floats 32-bit LE; full byte map in
``docs/format.md``):

    header:  magic "SHTC" | version u16 | stream count u16 | rows u32
             | crc32 of the 12 preceding bytes
    stream:  dims block, model block, payload block
    block:   content length u32 | content | crc32(content)
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .base_layer import KltModel
from .codec import CodecBundle, StreamConfig, StreamModel, StreamPayload, TRANSFORMS, _fixed_basis
from .entropy import GaussianEntropyModel
from .errors import BadMagic, ChecksumError, ConfigError, DecodeError, DimMismatch, VersionUnsupported
from .quantizer import QuantSchedule, channel_schedule
from .refinement import RefinementModel, param_count

MAGIC = b"SHTC"
VERSION = 4

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


def _payload_content(payload: StreamPayload) -> bytes:
    out = bytearray(struct.pack("<I", len(payload.latents)))
    for data in payload.latents:
        out += struct.pack("<I", len(data)) + data
    return bytes(out)


def serialize(bundle: CodecBundle, payloads: list[StreamPayload] | None = None) -> tuple[bytes, dict]:
    """Serialize to bytes; returns (data, {"model_bytes", "payload_bytes"}).
    Without payloads the file is bundle-only: 0 rows, no latents."""
    if payloads is None:
        payloads = [StreamPayload([], 0)] * len(bundle.streams)
    if len(payloads) != len(bundle.streams):
        raise DimMismatch("payload list does not match stream count")
    rows = {p.rows for p in payloads} or {0}
    if len(rows) > 1:
        raise DimMismatch(f"the payloads of one file differ in row count: {sorted(rows)}")
    head = struct.pack(_HEAD_FMT, MAGIC, VERSION, len(bundle.streams), rows.pop())
    out = bytearray(head + struct.pack("<I", zlib.crc32(head)))
    model_bytes = 0
    payload_bytes = 0
    for sm, payload in zip(bundle.streams, payloads):
        dims = _dims_content(sm)
        model = _model_content(sm)
        model_bytes += len(dims) + len(model)
        payload_bytes += sum(map(len, payload.latents))
        out += _block(dims) + _block(model) + _block(_payload_content(payload))
    return bytes(out), {"model_bytes": model_bytes, "payload_bytes": payload_bytes}


def write(bundle: CodecBundle, payloads: list[StreamPayload] | None, path) -> dict:
    data, counts = serialize(bundle, payloads)
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
        n = int(np.prod(shape))
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


def deserialize(data: bytes) -> tuple[CodecBundle, list[StreamPayload]]:
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
    streams = []
    payloads = []
    for _ in range(n_streams):
        streams.append(_read_stream(rd.block(), rd.block()))  # dims block, then model block
        pay = _Reader(rd.block())
        (n_latents,) = struct.unpack("<I", pay.take(4))
        latents = []
        for _ in range(n_latents):
            (nbytes,) = struct.unpack("<I", pay.take(4))
            latents.append(pay.take(nbytes))
        if pay.pos != len(pay.data):
            raise DecodeError("payload block has trailing bytes")
        payloads.append(StreamPayload(latents, rows))
    if rd.pos != len(rd.data):
        raise DecodeError("file has trailing bytes")
    return CodecBundle(streams=streams), payloads


def read(path) -> tuple[CodecBundle, list[StreamPayload]]:
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def mdl_report(path) -> dict:
    """Per-stream and total description-length split, from a written file."""
    with open(path, "rb") as fh:
        data = fh.read()
    bundle, payloads = deserialize(data)
    rows = struct.unpack_from(_HEAD_FMT, data)[3]
    per_stream = []
    model_total = 0
    payload_total = 0
    for sm, payload in zip(bundle.streams, payloads):
        m = len(_dims_content(sm)) + len(_model_content(sm))
        p = sum(map(len, payload.latents))
        per_stream.append(
            {"stream": sm.config.name, "model_bytes": m, "payload_bytes": p}
        )
        model_total += m
        payload_total += p
    report = {
        "streams": per_stream,
        "model_bytes": model_total,
        "payload_bytes": payload_total,
        "file_bytes": len(data),
        "container_overhead": len(data) - model_total - payload_total,
        "rows": rows,
        "bits_per_row": (len(data) * 8.0 / rows) if rows else None,
    }
    return report
