"""Container format: transmitted models (the L(M) side of the description
length) plus the entropy-coded payload (L(D|M)).

Layout (all ints little-endian, floats 32-bit LE; full byte map in
``docs/format.md``):

    file:    header | (dims | model floats)* | payload | crc32 of all before it
    header:  magic "SHTC" | version u16 | stream count u16 | rows u32
    dims:    23 bytes (``_DIMS_FMT``), which size the model floats after them
    payload: the one coded latent: every byte between the last model and the CRC

A file sends no length that a reader can compute from other fields.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from . import entropy
from .base_layer import KltModel
from .codec import CodecBundle, Payload, StreamConfig, StreamModel, TRANSFORMS, _file_model, _fixed_basis
from .entropy import GaussianEntropyModel
from .errors import BadMagic, ChecksumError, ConfigError, DecodeError, VersionUnsupported
from .quantizer import QuantSchedule, channel_schedule
from .refinement import RefinementModel, param_count

MAGIC = b"SHTC"
VERSION = 7

_HEAD_FMT = "<4sHHI"
_HEAD_SIZE = struct.calcsize(_HEAD_FMT)
_DIMS_FMT = "<8sBHHHHHI"  # name, transform, dim, rank, n_meas, n_atoms, n_layers, refinement floats
_DIMS_SIZE = struct.calcsize(_DIMS_FMT)


def _f32_bytes(*arrays) -> bytes:
    out = bytearray()
    for a in arrays:
        out += np.asarray(a, dtype="<f4").tobytes()
    return bytes(out)


def _dims_content(sm: StreamModel) -> bytes:
    cfg = sm.config
    refine_floats = param_count(sm.refine) if sm.refine is not None else 0
    return struct.pack(
        _DIMS_FMT,
        cfg.name.encode("ascii"),
        TRANSFORMS.index(cfg.transform),
        cfg.dim,
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
    out = bytearray(struct.pack(_HEAD_FMT, MAGIC, VERSION, len(bundle.streams), payload.rows))
    for sm in bundle.streams:
        out += _dims_content(sm) + _model_content(sm)
    model_bytes = len(out) - _HEAD_SIZE
    out += payload.data
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out), {"model_bytes": model_bytes, "payload_bytes": len(payload.data)}


def write(bundle: CodecBundle, payload: Payload | None, path) -> dict:
    data, counts = serialize(bundle, payload)
    with open(path, "wb") as fh:
        fh.write(data)
    return counts


class _Reader:
    """A cursor over a file's bytes before its CRC."""

    def __init__(self, data, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int):
        if self.pos + n > len(self.data):
            raise DecodeError("truncated file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def floats(self, *shapes) -> list[np.ndarray]:
        """The next float32s as one float64 array per shape, converted and
        checked finite in one pass."""
        sizes = [shape if isinstance(shape, int) else math.prod(shape) for shape in shapes]
        arr = np.frombuffer(self.take(4 * sum(sizes)), dtype="<f4").astype(np.float64)
        if not np.isfinite(arr).all():
            raise DecodeError("model holds a non-finite float")
        out, at = [], 0
        for shape, n in zip(shapes, sizes):
            out.append(arr[at : at + n].reshape(shape))
            at += n
        return out


def _latent_model(qa, mu, sigma) -> tuple[QuantSchedule, GaussianEntropyModel]:
    """One latent's step schedule (``qa`` = q_s, alpha) and entropy model;
    every step and sigma must be positive."""
    qs, alpha = qa
    if not (qs > 0 and np.all(sigma > 0)):
        raise DecodeError("model holds a step or an entropy sigma that is not positive")
    sched = channel_schedule(float(qs), float(alpha), mu.size)
    if not np.all(np.isfinite(sched.steps) & (sched.steps > 0)):
        raise DecodeError("channel step schedule leaves the float range")
    return sched, GaussianEntropyModel(mu=mu, sigma=sigma)


def _read_stream(rd: _Reader) -> StreamModel:
    """One stream's config and transmitted model at ``rd``: its dims, then
    the model floats they size. The only parser of both: ``deserialize``
    reads files with it and ``finalize_bundle`` reads back what the writer
    makes of a fitted model."""
    fields = struct.unpack(_DIMS_FMT, rd.take(_DIMS_SIZE))
    name, kind, dim, rank, n_meas, n_atoms, n_layers, ref_floats = fields
    name = name.rstrip(b"\x00")
    if not name.isascii():
        raise DecodeError("stream name is not ascii")
    if kind >= len(TRANSFORMS):
        raise DecodeError(f"unknown transform kind {kind}")
    try:
        cfg = StreamConfig(name.decode("ascii"), dim, TRANSFORMS[kind], rank, n_meas, n_atoms, n_layers)
    except ConfigError as exc:
        raise DecodeError(f"stream dims: {exc}") from exc
    basis = [(dim, rank)] if cfg.stores_basis else []
    mean, *basis, qa, mu, sigma = rd.floats(dim, *basis, 2, rank, rank)
    klt = KltModel(mean=mean, basis=basis[0] if basis else _fixed_basis(cfg.transform, dim, rank))
    sm = StreamModel(cfg, klt, *_latent_model(qa, mu, sigma))
    if cfg.has_refinement:  # a shtc-full stream below full rank
        atoms = cfg.atoms
        *parts, qa, mu, sigma = rd.floats((n_meas, dim), (dim, atoms), (n_layers, atoms), (n_layers, atoms),
                                          2, n_meas, n_meas)
        sm.refine = RefinementModel(*parts)
        sm.refine_sched, sm.refine_entropy = _latent_model(qa, mu, sigma)
    if (param_count(sm.refine) if sm.refine is not None else 0) != ref_floats:
        raise DecodeError("declared refinement parameter count mismatch")
    return sm


def finalize_bundle(bundle: CodecBundle) -> CodecBundle:
    """The bundle a decoder reads back: ``bundle``'s bundle-only file, parsed
    by ``deserialize``, so the in-process reconstruction matches a decode from
    file bit-exactly. The reader must consume exactly what the writer wrote:
    a model with more floats than its dims size leaves bytes after the model
    of a 0-row file, and one with fewer truncates the file."""
    return deserialize(serialize(bundle)[0])[0]


def deserialize(data: bytes) -> tuple[CodecBundle, Payload]:
    """The bundle and payload of a file. Magic, then version, then the CRC:
    a file of another version is ``VersionUnsupported`` whatever its layout."""
    if len(data) < _HEAD_SIZE + 4:
        raise DecodeError("truncated file")
    magic, version, n_streams, rows = struct.unpack_from(_HEAD_FMT, data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionUnsupported(f"version {version} unsupported (reader knows {VERSION})")
    rd = _Reader(memoryview(data)[:-4], _HEAD_SIZE)
    if zlib.crc32(rd.data) != struct.unpack_from("<I", data, len(data) - 4)[0]:
        raise ChecksumError("file crc mismatch")
    streams = [_read_stream(rd) for _ in range(n_streams)]
    payload = Payload(bytes(rd.data[rd.pos :]), rows)
    if not rows and payload.data:
        raise DecodeError("a file of 0 rows has bytes after its model")
    return CodecBundle(streams=streams), payload


def read(path) -> tuple[CodecBundle, Payload]:
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def mdl_report(bundle: CodecBundle, payload: Payload) -> dict:
    """The description-length split of the file ``serialize(bundle, payload)``
    makes, from the parsed file alone: model bytes per stream, payload bytes,
    and the container overhead, a constant 16 bytes. Also the payload's lane
    layout: the coded channels (the symbols one row codes: channel pairs and
    channels coded alone) and the lanes, 0 for a payload of 0 rows."""
    per_stream = [
        {"stream": sm.config.name, "model_bytes": len(_dims_content(sm)) + len(_model_content(sm))}
        for sm in bundle.streams
    ]
    model_total = sum(s["model_bytes"] for s in per_stream)
    overhead = _HEAD_SIZE + 4  # the header and the CRC
    file_bytes = overhead + model_total + len(payload.data)
    coded = lanes = 0
    if bundle.streams:
        model, steps, _ = _file_model(bundle)
        coded = entropy.pairing(model, steps).size
        if payload.rows:
            lanes = coded * entropy.lane_grid(payload.rows, coded < model.n)[0]
    return {
        "streams": per_stream,
        "model_bytes": model_total,
        "payload_bytes": len(payload.data),
        "file_bytes": file_bytes,
        "container_overhead": overhead,
        "rows": payload.rows,
        "bits_per_row": (file_bytes * 8.0 / payload.rows) if payload.rows else None,
        "coded_channels": coded,
        "lanes": lanes,
    }
