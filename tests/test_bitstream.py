"""Container format tests: round trips, golden sizes, corruption handling."""

import dataclasses
import functools
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import bitstream, codec
from shtc.base_layer import KltModel
from shtc.codec import StreamConfig, default_configs
from shtc.entropy import GaussianEntropyModel
from shtc.errors import BadMagic, ChecksumError, DecodeError, VersionUnsupported
from shtc.quantizer import channel_schedule


def minimal_bundle():
    """D=2, rank 1, no refinement: the golden-size fixture."""
    x = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.7], [0.2, 0.1]])
    configs = [StreamConfig(name="feat", col_start=0, col_end=2, transform="klt-trunc", rank=1)]
    bundle = codec.fit_bundle(x, configs, np.random.default_rng(0))
    return bitstream.finalize_bundle(bundle)


def fitted_bundle(seed=0, n=200, d=6, transform="shtc-full"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    configs = default_configs(d, transform=transform, rank=3, n_meas=3, n_layers=2)
    return bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng)), x


class TestGoldenLayout:
    def test_minimal_bundle_byte_count(self):
        # header 16 | dims block 8+25 | model block 8+8*4 | payload block 8+4
        data, counts = bitstream.serialize(minimal_bundle())
        assert counts == {"model_bytes": 25 + 32, "payload_bytes": 0}
        assert len(data) == 16 + (8 + 25) + (8 + 32) + (8 + 4) == 101

    def test_basis_cost_for_50_channels(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 50))
        configs = [StreamConfig(name="feat", col_start=0, col_end=50, transform="klt-trunc", rank=15)]
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng))
        # mean, the 15 retained basis columns, schedule, entropy model
        assert len(bitstream._model_content(bundle.streams[0])) == 4 * (50 + 50 * 15 + 2 + 2 * 15)

    def test_magic_prefix(self):
        data, _ = bitstream.serialize(minimal_bundle())
        assert data[:4] == b"SHTC"


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_bundle_round_trip_bit_exact(self, seed):
        bundle, x = fitted_bundle(seed)
        payloads, recon = codec.encode_table(bundle, x)
        data, _ = bitstream.serialize(bundle, payloads)
        b2, p2 = bitstream.deserialize(data)
        data2, _ = bitstream.serialize(b2, p2)
        assert data == data2
        assert np.array_equal(codec.decode_table(b2, p2), recon)

    def test_bundle_only_round_trip(self, tmp_path):
        bundle, _ = fitted_bundle(3)
        path = tmp_path / "b.shtc"
        counts = bitstream.write(bundle, None, path)
        b2, payloads = bitstream.read(path)
        assert all(p.latents == [] for p in payloads)
        data1, _ = bitstream.serialize(bundle)
        data2, _ = bitstream.serialize(b2)
        assert data1 == data2
        assert struct.unpack_from("<I", data1, 8) == (0,)  # no rows
        assert counts["payload_bytes"] == 0

    def test_random_bundles_many(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 9))
            transform = ["none", "dct", "klt-trunc", "shtc-full"][seed % 4]
            x = rng.normal(size=(50, d))
            configs = default_configs(
                d, transform=transform, rank=max(1, d // 2), n_meas=max(1, d // 2), n_layers=2
            )
            bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng))
            data, _ = bitstream.serialize(bundle)
            b2, _ = bitstream.deserialize(data)
            assert bitstream.serialize(b2)[0] == data


class TestCorruption:
    def test_payload_byte_flip_detected(self):
        bundle, x = fitted_bundle(4)
        payloads, _ = codec.encode_table(bundle, x)
        data, _ = bitstream.serialize(bundle, payloads)
        corrupt = bytearray(data)
        corrupt[-20] ^= 0xFF  # inside the last payload block
        with pytest.raises(ChecksumError):
            bitstream.deserialize(bytes(corrupt))

    def test_bad_magic(self):
        data, _ = bitstream.serialize(minimal_bundle())
        with pytest.raises(BadMagic):
            bitstream.deserialize(b"XXXX" + data[4:])

    def test_version_bump_rejected(self):
        # v1 files carry range-coded payloads, v2 files eigenvalues, a full
        # basis and per-latent symbol counts, v3 files 64-bit lane states;
        # this reader reads v4
        data, _ = bitstream.serialize(minimal_bundle())
        assert struct.unpack("<H", data[4:6]) == (bitstream.VERSION,) == (4,)
        for version in (1, 2, 3, 5):
            head = struct.pack("<4sHHI", b"SHTC", version, 1, 0)
            patched = head + struct.pack("<I", zlib.crc32(head)) + data[16:]
            with pytest.raises(VersionUnsupported):
                bitstream.deserialize(patched)

    def test_forged_rows_rejected_before_allocation(self):
        data = bytearray(fuzz_file(1))
        assert struct.unpack_from("<I", data, 8) == (120,)  # the header's row count
        struct.pack_into("<I", data, 8, 2**32 - 1)
        start = time.perf_counter()
        with pytest.raises(DecodeError):
            codec.decode_table(*bitstream.deserialize(reseal(bytes(data))))
        assert time.perf_counter() - start < 1.0

    def test_truncated_rejected(self):
        data, _ = bitstream.serialize(minimal_bundle())
        with pytest.raises(DecodeError):
            bitstream.deserialize(data[:-3])

    def test_trailing_garbage_rejected(self):
        data, _ = bitstream.serialize(minimal_bundle())
        with pytest.raises(DecodeError):
            bitstream.deserialize(data + b"\x00")


def model_floats(sm):
    """Offset and length of each named section of a stream's model block, in
    floats (the order of ``docs/format.md``)."""
    d, rank, n_meas, atoms, layers = (
        sm.config.dim, sm.config.rank, sm.config.n_meas, sm.config.atoms, sm.config.n_layers
    )
    sizes = [("mean", d), ("basis", d * rank), ("base.q_s", 1), ("base.alpha", 1),
             ("base.mu", rank), ("base.sigma", rank), ("measure", n_meas * d), ("dictionary", d * atoms),
             ("step_raw", layers * atoms), ("thresh_raw", layers * atoms), ("refine.q_s", 1),
             ("refine.alpha", 1), ("refine.mu", n_meas), ("refine.sigma", n_meas)]
    offsets, at = {}, 0
    for name, n in sizes:
        offsets[name] = (at, n)
        at += n
    return offsets


def forge_model_float(data: bytes, index: int, value: float) -> bytes:
    """Overwrite float ``index`` of the first stream's model block and reseal
    the block's CRC, so only the model checks can reject the file."""
    (dims_len,) = struct.unpack_from("<I", data, 16)
    at = 16 + 4 + dims_len + 4
    (length,) = struct.unpack_from("<I", data, at)
    content = bytearray(data[at + 4 : at + 4 + length])
    struct.pack_into("<f", content, 4 * index, value)
    return data[: at + 4] + bytes(content) + struct.pack("<I", zlib.crc32(content)) + data[at + 8 + length :]


class TestHostileModelBlock:
    """Every float of the model block is checked before a model is built:
    a forged value ends as ``DecodeError``, never as another exception."""

    def setup_method(self):
        self.bundle, x = fitted_bundle(9)
        payloads, _ = codec.encode_table(self.bundle, x)
        self.data, _ = bitstream.serialize(self.bundle, payloads)
        self.offsets = model_floats(self.bundle.streams[0])

    def decode(self, data):
        codec.decode_table(*bitstream.deserialize(data))

    @pytest.mark.parametrize("section", ["base.sigma", "refine.sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_sigma(self, section, value):
        at, n = self.offsets[section]
        for index in (at, at + n - 1):
            with pytest.raises(DecodeError):
                self.decode(forge_model_float(self.data, index, value))

    @pytest.mark.parametrize("section", ["base.q_s", "refine.q_s"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -0.5])
    def test_bad_step(self, section, value):
        with pytest.raises(DecodeError):
            self.decode(forge_model_float(self.data, self.offsets[section][0], value))

    @pytest.mark.parametrize("section", ["mean", "basis", "measure", "dictionary", "step_raw", "base.mu"])
    def test_nan_anywhere(self, section):
        with pytest.raises(DecodeError):
            self.decode(forge_model_float(self.data, self.offsets[section][0], np.nan))

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @pytest.mark.parametrize("alpha", [1e4, -1e4])
    def test_step_schedule_leaving_float_range(self, alpha):
        with pytest.raises(DecodeError, match="float range"):
            self.decode(forge_model_float(self.data, self.offsets["refine.alpha"][0], alpha))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_reconstruction(self):
        # exp(1e30) overflows the first refinement step: every float is finite
        # and in range, but the stream decodes to inf/nan
        with pytest.raises(DecodeError, match="non-finite"):
            self.decode(forge_model_float(self.data, self.offsets["step_raw"][0], 1e30))

    def test_offsets_cover_the_block(self):
        # the forged offsets above hit the floats they name
        sm = self.bundle.streams[0]
        at, n = self.offsets["refine.sigma"]
        assert (at + n) * 4 == len(bitstream._model_content(sm))
        b2, _ = bitstream.deserialize(forge_model_float(self.data, at, 0.125))
        assert b2.streams[0].refine_entropy.sigma[0] == 0.125
        assert np.array_equal(b2.streams[0].refine_entropy.sigma[1:], sm.refine_entropy.sigma[1:])


DIMS_FIELDS = ("name", "kind", "col_start", "col_end", "rank", "n_meas", "n_atoms", "n_layers", "ref_floats")


def reseal_dims(data: bytes, content: bytes) -> bytes:
    """Replace the first stream's dims block content and reseal its CRC."""
    (length,) = struct.unpack_from("<I", data, 16)
    block = struct.pack("<I", len(content)) + content + struct.pack("<I", zlib.crc32(content))
    return data[:16] + block + data[24 + length :]


def block_spans(data: bytes) -> list[tuple[int, int]]:
    """(offset, length) of each block's content, in file order: dims, model
    and payload of each stream. Stops at the first block that does not fit."""
    spans, at = [], 16
    while at + 8 <= len(data):
        (length,) = struct.unpack_from("<I", data, at)
        if at + 8 + length > len(data):
            break
        spans.append((at + 4, length))
        at += 8 + length
    return spans


def reseal(data: bytes) -> bytes:
    """Recompute the header CRC and the CRC of every block that fits, so a
    forged byte reaches the parser behind the checksums."""
    out = bytearray(data)
    if len(out) >= 16:
        struct.pack_into("<I", out, 12, zlib.crc32(out[:12]))
    for at, length in block_spans(out):
        struct.pack_into("<I", out, at + length, zlib.crc32(out[at : at + length]))
    return bytes(out)


def forge_dims(data: bytes, stream: int = 0, dim: int | None = None, **fields) -> bytes:
    """Overwrite named fields of a stream's dims block (CRCs resealed), so
    only the dims checks can reject the file. A forged ``dim`` moves
    ``col_end``: the block states a stream's dim as ``col_end - col_start``."""
    at, length = block_spans(data)[3 * stream]
    values = dict(zip(DIMS_FIELDS, struct.unpack(bitstream._DIMS_FMT, data[at : at + length])))
    values.update(fields)
    if dim is not None:
        values["col_end"] = values["col_start"] + dim
    return reseal(data[:at] + struct.pack(bitstream._DIMS_FMT, *values.values()) + data[at + length :])


class TestHostileDimsBlock:
    """A forged dims block ends as ``DecodeError``, never as another exception."""

    def setup_method(self):
        self.bundle, x = fitted_bundle(9)  # dim 6, rank 3, 3 measurements
        self.payloads, _ = codec.encode_table(self.bundle, x)
        self.data, _ = bitstream.serialize(self.bundle, self.payloads)

    def decode(self, data):
        codec.decode_table(*bitstream.deserialize(data))

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": len(codec.TRANSFORMS)},
            {"kind": 255},
            {"name": b"f\xe9at"},
            {"rank": 0},
            {"rank": 7},
            {"col_end": 0},
            {"col_start": 6},
            {"col_end": 7},
            {"dim": 5},
            {"dim": 7},
            {"n_meas": 0},
            {"n_layers": 0},
            {"kind": 3},  # klt-trunc, the refinement section kept
        ],
        ids=lambda f: ",".join(f"{k}={v!r}" for k, v in f.items()),
    )
    def test_forged_field(self, fields):
        with pytest.raises(DecodeError):
            self.decode(forge_dims(self.data, **fields))

    def test_forge_helper_keeps_a_valid_block(self):
        assert forge_dims(self.data) == self.data

    def test_short_block(self):
        (length,) = struct.unpack_from("<I", self.data, 16)
        with pytest.raises(DecodeError):
            self.decode(reseal_dims(self.data, self.data[20 : 20 + length - 2]))

    def forged_file(self, sm, **config):
        """An encoded file whose stream is ``sm`` with ``config`` fields set
        past ``StreamConfig``'s checks, as a forger's writer would."""
        cfg = dataclasses.replace(sm.config)
        for key, value in config.items():
            setattr(cfg, key, value)
        return bitstream.serialize(codec.CodecBundle([dataclasses.replace(sm, config=cfg)]), self.payloads)[0]

    def test_refinement_without_measurements(self):
        # a self-consistent file whose refinement latent has no channels
        sm = self.bundle.streams[0]
        empty = dataclasses.replace(
            sm,
            refine=dataclasses.replace(sm.refine, measure=np.zeros((0, sm.config.dim))),
            refine_sched=dataclasses.replace(sm.refine_sched, n=0),
            refine_entropy=codec.GaussianEntropyModel(mu=np.zeros(0), sigma=np.zeros(0)),
        )
        with pytest.raises(DecodeError, match="n_meas"):
            self.decode(self.forged_file(empty, n_meas=0))

    def test_refinement_without_layers(self):
        # a self-consistent file whose unfolded decoder has no layers: its
        # synthesis would read a buffer no layer wrote
        sm = self.bundle.streams[0]
        r = sm.refine
        no_layers = dataclasses.replace(
            sm, refine=dataclasses.replace(r, step_raw=r.step_raw[:0], thresh_raw=r.thresh_raw[:0])
        )
        with pytest.raises(DecodeError, match="n_layers"):
            self.decode(self.forged_file(no_layers, n_layers=0))

    def test_refinement_without_atoms(self):
        # a self-consistent file whose dictionary has no atoms (0 atoms reads
        # as dim atoms, so the model block is too short for it)
        sm = self.bundle.streams[0]
        r = sm.refine
        no_atoms = dataclasses.replace(
            sm, refine=dataclasses.replace(r, dictionary=r.dictionary[:, :0], step_raw=r.step_raw[:, :0],
                                           thresh_raw=r.thresh_raw[:, :0])
        )
        with pytest.raises(DecodeError):
            self.decode(forge_dims(self.forged_file(no_atoms), n_atoms=0))


@functools.cache
def fuzz_file(streams: int) -> bytes:
    """An encoded 120-row file: one shtc-full stream, or that plus a base-only
    scaling stream."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(120, 9)) @ rng.normal(size=(9, 9))
    configs = default_configs(9, rank=3, n_meas=3, n_layers=2, scaling_cols=3 * (streams - 1))
    bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng))
    return bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])[0]


def forge_u32(data: bytearray, at: int, value):
    """Overwrite the u32 at ``at`` with ``value``, or with the true value
    stepped by ``value[0]`` when ``value`` is a 1-tuple."""
    if isinstance(value, tuple):
        value = (struct.unpack_from("<I", data, at)[0] + value[0]) % 2**32
    struct.pack_into("<I", data, at, value)


def decode_or_decode_error(data: bytes):
    start = time.perf_counter()
    try:
        codec.decode_table(*bitstream.deserialize(data))
    except DecodeError:
        pass
    assert time.perf_counter() - start < 2.0


class TestHostileBlockShapes:
    """Cases the file fuzz below found: each raised outside ``DecodeError``."""

    def test_model_block_not_whole_floats(self):
        data = fuzz_file(1)
        at, length = block_spans(data)[1]
        content = data[at : at + length - 1]
        forged = data[: at - 4] + struct.pack("<I", len(content)) + content + bytes(4) + data[at + length + 4 :]
        with pytest.raises(DecodeError, match="whole number of floats"):
            bitstream.deserialize(reseal(forged))

    def test_haar_stream_of_odd_dim(self):
        with pytest.raises(DecodeError, match="even size"):
            bitstream.deserialize(forge_dims(fuzz_file(1), kind=2))

    def test_fixed_basis_reader_memory(self):
        # a 16 KB bundle-only file of one dct stream: the reader builds the
        # rank columns the stream keeps (8 * dim * rank bytes), not dim x dim
        dim, rank = 2000, 1000
        cfg = StreamConfig("feat", 0, dim, transform="dct", rank=rank)
        klt = KltModel(mean=np.zeros(dim), basis=np.zeros((dim, rank)))  # the writer sends no dct basis
        entropy = GaussianEntropyModel(np.zeros(rank), np.ones(rank))
        sm = codec.StreamModel(cfg, klt, channel_schedule(1.0, 0.0, rank), entropy)
        data = bitstream.serialize(codec.CodecBundle([sm]))[0]
        assert len(data) < 17_000
        tracemalloc.start()
        try:
            bundle, _ = bitstream.deserialize(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.streams[0].klt.basis.shape == (dim, rank)
        assert peak <= 2 * 8 * dim * rank


U32 = st.one_of(st.integers(0, 16), st.integers(0, 2**32 - 1))
DIMS_VALUES = {
    "name": st.binary(min_size=8, max_size=8),
    "kind": st.integers(0, 255),
    "ref_floats": U32,
    **{f: st.one_of(st.integers(0, 16), st.integers(0, 2**16 - 1))
       for f in ("col_start", "col_end", "rank", "n_meas", "n_atoms", "n_layers")},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("streams", [1, 2])
class TestFileFuzz:
    """Forged files, CRCs resealed so each forgery reaches the parser: only
    ``DecodeError``-family exceptions come out of ``deserialize`` +
    ``decode_table``, each within a time bound."""

    @settings(max_examples=120, deadline=None)
    @given(
        cut=st.one_of(st.just(0), st.integers(1, 2**16)),
        flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=4),
    )
    def test_truncations_and_flips(self, streams, cut, flips):
        data = bytearray(fuzz_file(streams))
        for pos, mask in flips:
            data[pos % len(data)] ^= mask
        data = reseal(bytes(data))
        decode_or_decode_error(data[: len(data) - cut % (len(data) + 1)])

    @settings(max_examples=120, deadline=None)
    @given(
        stream=st.integers(0, 1),
        latent=st.integers(0, 1),
        value=st.one_of(U32, st.tuples(st.integers(-64, 64))),
    )
    def test_forged_latent_fields(self, streams, stream, latent, value):
        data = bytearray(fuzz_file(streams))
        at, _ = block_spans(data)[3 * (stream % streams) + 2]
        (n_latents,) = struct.unpack_from("<I", data, at)
        at += 4
        for _ in range(latent % n_latents):
            at += 4 + struct.unpack_from("<I", data, at)[0]
        forge_u32(data, at, value)  # the latent's byte_len
        decode_or_decode_error(reseal(bytes(data)))

    @settings(max_examples=120, deadline=None)
    @given(value=st.one_of(U32, st.integers(2**32 - 2**16, 2**32 - 1), st.tuples(st.integers(-64, 64))))
    def test_forged_rows(self, streams, value):
        data = bytearray(fuzz_file(streams))
        forge_u32(data, 8, value)  # the header's row count
        decode_or_decode_error(reseal(bytes(data)))

    @settings(max_examples=120, deadline=None)
    @given(stream=st.integers(0, 1), fields=st.fixed_dictionaries({}, optional=DIMS_VALUES).filter(bool))
    def test_forged_dims_fields(self, streams, stream, fields):
        decode_or_decode_error(forge_dims(fuzz_file(streams), stream % streams, **fields))

    def test_unforged_file_decodes(self, streams):
        data = fuzz_file(streams)
        assert reseal(data) == data
        assert codec.decode_table(*bitstream.deserialize(data)).shape == (120, 9)


class TestMdlReport:
    def test_split_accounts_for_file(self, tmp_path):
        bundle, x = fitted_bundle(5)
        payloads, _ = codec.encode_table(bundle, x)
        path = tmp_path / "f.shtc"
        counts = bitstream.write(bundle, payloads, path)
        report = bitstream.mdl_report(path)
        assert report["model_bytes"] == counts["model_bytes"]
        assert report["payload_bytes"] == counts["payload_bytes"]
        assert (
            report["model_bytes"] + report["payload_bytes"] + report["container_overhead"]
            == report["file_bytes"]
        )
        assert report["rows"] == x.shape[0]
        assert report["bits_per_row"] == pytest.approx(report["file_bytes"] * 8 / x.shape[0])

    def test_base_only_bundle_has_no_refinement_bytes(self, tmp_path):
        bundle, x = fitted_bundle(6, transform="klt-trunc")
        payloads, _ = codec.encode_table(bundle, x)
        path = tmp_path / "b.shtc"
        bitstream.write(bundle, payloads, path)
        report = bitstream.mdl_report(path)
        sm = bundle.streams[0]
        d, rank = sm.config.dim, sm.config.rank
        expected_model = 25 + 4 * (d + d * rank + 2 + 2 * rank)
        assert report["streams"][0]["model_bytes"] == expected_model

    def test_stable_across_reads(self, tmp_path):
        bundle, x = fitted_bundle(7)
        payloads, _ = codec.encode_table(bundle, x)
        path = tmp_path / "s.shtc"
        bitstream.write(bundle, payloads, path)
        assert bitstream.mdl_report(path) == bitstream.mdl_report(path)


class TestParamAccounting:
    def test_refine_param_count_in_dims_matches_bytes(self):
        bundle, _ = fitted_bundle(8)
        sm = bundle.streams[0]
        from shtc.refinement import param_count

        dims = bitstream._dims_content(sm)
        declared = struct.unpack(bitstream._DIMS_FMT, dims)[-1]
        assert declared == param_count(sm.refine)
        # serialized refinement floats == param_count (4 bytes each)
        base_only = dataclasses.replace(sm, refine=None, refine_sched=None, refine_entropy=None)
        refine_bytes = (
            len(bitstream._model_content(sm))
            - len(bitstream._model_content(base_only))
            - 4 * (2 + 2 * sm.config.n_meas)  # refine schedule + entropy params
        )
        assert refine_bytes == 4 * param_count(sm.refine)
