"""Container format tests: round trips, golden sizes, corruption handling."""

import dataclasses
import functools
import itertools
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import bitstream, codec, entropy
from shtc.base_layer import KltModel
from shtc.codec import StreamConfig, default_configs
from shtc.entropy import GaussianEntropyModel
from shtc.errors import BadMagic, ChecksumError, DecodeError, VersionUnsupported
from shtc.quantizer import channel_schedule

from .test_entropy import decoded_alike


def minimal_bundle():
    """D=2, rank 1, no refinement: the golden-size fixture."""
    x = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.7], [0.2, 0.1]])
    configs = [StreamConfig(name="feat", dim=2, transform="klt-trunc", rank=1)]
    bundle = codec.fit_bundle(x, configs, np.random.default_rng(0))
    return bitstream.finalize_bundle(bundle)


def fitted_bundle(seed=0, n=200, d=6, transform="shtc-full"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    configs = default_configs(d, transform=transform, rank=3, n_meas=3, n_layers=2)
    return bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng)), x


class TestGoldenLayout:
    def test_minimal_bundle_byte_count(self):
        # header 12 | dims 23 | model 8 floats | empty payload | crc 4
        data, counts = bitstream.serialize(minimal_bundle())
        assert counts == {"model_bytes": 23 + 32, "payload_bytes": 0}
        assert len(data) == 12 + 23 + 32 + 4 == 71

    def test_basis_cost_for_50_channels(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 50))
        configs = [StreamConfig(name="feat", dim=50, transform="klt-trunc", rank=15)]
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
        payload, recon = codec.encode_table(bundle, x)
        data, _ = bitstream.serialize(bundle, payload)
        b2, p2 = bitstream.deserialize(data)
        data2, _ = bitstream.serialize(b2, p2)
        assert data == data2
        assert np.array_equal(codec.decode_table(b2, p2), recon)

    def test_bundle_only_round_trip(self, tmp_path):
        bundle, _ = fitted_bundle(3)
        path = tmp_path / "b.shtc"
        counts = bitstream.write(bundle, None, path)
        b2, payload = bitstream.read(path)
        assert payload == codec.Payload(b"", 0)
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


LAYOUT = st.lists(
    st.tuples(st.integers(1, 6), st.sampled_from(codec.TRANSFORMS), st.floats(0, 1)), min_size=1, max_size=3
)


class TestAnyLayout:
    @settings(max_examples=40, deadline=None)
    @given(layout=LAYOUT, rows=st.integers(0, 40), seed=st.integers(0, 2**16))
    def test_round_trip_and_length(self, layout, rows, seed):
        # 1-3 streams of any width and transform side by side: the file is
        # the 16 bytes of header and CRC, each stream's 23 bytes of dims and
        # its model floats, and the payload; nothing else
        configs = [
            StreamConfig(f"s{i}", 2 * dim if kind == "haar" else dim, transform=kind,
                         rank=max(1, round(frac * dim)), n_meas=2, n_layers=2)
            for i, (dim, kind, frac) in enumerate(layout)
        ]
        width = sum(cfg.dim for cfg in configs)
        rng = np.random.default_rng(seed)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(rng.normal(size=(30, width)), configs, rng))
        payload, recon = codec.encode_table(bundle, rng.normal(size=(rows, width)))
        data, counts = bitstream.serialize(bundle, payload)
        models = sum(23 + len(bitstream._model_content(sm)) for sm in bundle.streams)
        assert len(data) == 16 + models + len(payload.data)
        assert counts == {"model_bytes": models, "payload_bytes": len(payload.data)}
        b2, p2 = bitstream.deserialize(data)
        assert p2 == payload and bitstream.serialize(b2, p2)[0] == data
        assert np.array_equal(codec.decode_table(b2, p2), recon)


# A version-5 file of ``minimal_bundle``, as the last v5 writer wrote it.
V5_FILE = bytes.fromhex(
    "5348544305000100000000000872e788190000006665617400000000030000020001000f00020006000000000029b3c3"
    "de200000009a99d93e6666e63ef19226bfeb64423f6dc51b3e000000000000000030cf013fff11030d0000000000000000"
)


# A version-6 file of ``minimal_bundle`` and a 4-row payload of its training
# table, as the last v6 writer wrote it.
V6_FILE = bytes.fromhex(
    "534854430600010004000000666561740000000003020001000f0002000600000000009a99d93e6666e63ef19226bfeb"
    "64423f6dc51b3e000000000000000030cf013fceefdd007413d7003758da33"
)

class TestCorruption:
    def test_payload_byte_flip_detected(self):
        bundle, x = fitted_bundle(4)
        payload, _ = codec.encode_table(bundle, x)
        data, _ = bitstream.serialize(bundle, payload)
        corrupt = bytearray(data)
        corrupt[-20] ^= 0xFF  # inside the payload
        with pytest.raises(ChecksumError):
            bitstream.deserialize(bytes(corrupt))

    def test_bad_magic(self):
        data, _ = bitstream.serialize(minimal_bundle())
        with pytest.raises(BadMagic):
            bitstream.deserialize(b"XXXX" + data[4:])

    def test_version_bump_rejected(self):
        # v1 files carry range-coded payloads, v2 files eigenvalues, a full
        # basis and per-latent symbol counts, v3 files 64-bit lane states, v4
        # files a payload block per stream and a word area per latent, v5
        # files stream column ranges, lengths and a CRC per block, v6 files
        # one symbol per channel; this reader reads v7. The version is read
        # before the CRC, which covers other bytes in other versions
        data, _ = bitstream.serialize(minimal_bundle())
        assert struct.unpack("<H", data[4:6]) == (bitstream.VERSION,) == (7,)
        for version in (1, 2, 3, 4, 5, 6, 8):
            with pytest.raises(VersionUnsupported):
                bitstream.deserialize(data[:4] + struct.pack("<H", version) + data[6:])

    def test_v5_file_rejected(self):
        with pytest.raises(VersionUnsupported, match="version 5"):
            bitstream.deserialize(V5_FILE)

    def test_v6_file_rejected(self):
        # a v6 payload codes every channel alone; its CRC is valid
        with pytest.raises(VersionUnsupported, match="version 6"):
            bitstream.deserialize(V6_FILE)
        assert zlib.crc32(V6_FILE[:-4]) == struct.unpack("<I", V6_FILE[-4:])[0]

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

    def test_shorter_than_the_container(self):
        # a file holds at least its 12-byte header and 4-byte CRC
        data, _ = bitstream.serialize(minimal_bundle())
        for n in range(16):
            with pytest.raises(DecodeError):
                bitstream.deserialize(data[:n])

    def test_trailing_garbage_rejected(self):
        data, _ = bitstream.serialize(minimal_bundle())
        with pytest.raises(ChecksumError):
            bitstream.deserialize(data + b"\x00")

    @pytest.mark.parametrize("extra", [1, 2, 4])
    def test_bytes_after_a_zero_row_model_rejected(self, extra):
        # a file of 0 rows has an empty payload: bytes after its model, CRC
        # resealed, fail in deserialize
        data, _ = bitstream.serialize(fitted_bundle(4)[0])
        with pytest.raises(DecodeError, match="0 rows"):
            bitstream.deserialize(reseal(data[:-4] + bytes(extra) + data[-4:]))

    @pytest.mark.parametrize("extra", [1, 2, 4])
    def test_bytes_after_a_payload_rejected(self, extra):
        # in a file with rows, trailing bytes are payload bytes, and the coder
        # requires its words and escapes to fill the payload exactly
        bundle, x = fitted_bundle(4)
        data, _ = bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])
        forged = reseal(data[:-4] + bytes(extra) + data[-4:])
        b2, payload = bitstream.deserialize(forged)
        assert len(payload.data) == len(bitstream.deserialize(data)[1].data) + extra
        with pytest.raises(DecodeError, match="payload"):
            codec.decode_table(b2, payload)


def model_floats(sm):
    """Offset and length of each named section of a stream's model floats, in
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


def reseal(data: bytes) -> bytes:
    """Recompute the file's CRC over all but its last 4 bytes, so a forged
    byte reaches the parser behind the checksum."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4])) if len(data) >= 4 else data


def offsets(bundle) -> list[int]:
    """Where each stream's dims start in a file of ``bundle``, then where its
    payload starts: from the lengths the writer gives dims and model floats."""
    at = [bitstream._HEAD_SIZE]
    for sm in bundle.streams:
        at.append(at[-1] + len(bitstream._dims_content(sm)) + len(bitstream._model_content(sm)))
    return at


def forge_model_float(data: bytes, index: int, value: float) -> bytes:
    """Overwrite float ``index`` of the first stream's model and reseal the
    file's CRC, so only the model checks can reject the file."""
    out = bytearray(data)
    struct.pack_into("<f", out, bitstream._HEAD_SIZE + bitstream._DIMS_SIZE + 4 * index, value)
    return reseal(bytes(out))


class TestHostileModelBlock:
    """Every model float is checked before a model is built:
    a forged value ends as ``DecodeError``, never as another exception."""

    def setup_method(self):
        self.bundle, x = fitted_bundle(9)
        payload, _ = codec.encode_table(self.bundle, x)
        self.data, _ = bitstream.serialize(self.bundle, payload)
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


DIMS_FIELDS = ("name", "kind", "dim", "rank", "n_meas", "n_atoms", "n_layers", "ref_floats")


def forge_dims(data: bytes, at: int = bitstream._HEAD_SIZE, **fields) -> bytes:
    """Overwrite named fields of the dims at ``at`` (by default the first
    stream's) and reseal the CRC, so only the dims checks can reject the file."""
    values = dict(zip(DIMS_FIELDS, struct.unpack_from(bitstream._DIMS_FMT, data, at)))
    values.update(fields)
    return reseal(data[:at] + struct.pack(bitstream._DIMS_FMT, *values.values()) + data[at + bitstream._DIMS_SIZE :])


class TestHostileDimsBlock:
    """Forged dims end as ``DecodeError``, never as another exception."""

    def setup_method(self):
        self.bundle, x = fitted_bundle(9)  # dim 6, rank 3, 3 measurements
        self.payload, _ = codec.encode_table(self.bundle, x)
        self.data, _ = bitstream.serialize(self.bundle, self.payload)

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
            {"dim": 0},
            {"dim": 5},
            {"dim": 7},
            {"n_meas": 0},
            {"n_layers": 0},
            {"kind": 3},  # klt-trunc, the refinement section kept
            {"ref_floats": 0},
            {"ref_floats": 2**32 - 1},
        ],
        ids=lambda f: ",".join(f"{k}={v!r}" for k, v in f.items()),
    )
    def test_forged_field(self, fields):
        with pytest.raises(DecodeError):
            self.decode(forge_dims(self.data, **fields))

    def test_forge_helper_keeps_a_valid_block(self):
        assert forge_dims(self.data) == self.data

    def test_short_block(self):
        # a file that ends inside its first stream's dims, CRC resealed
        with pytest.raises(DecodeError, match="truncated"):
            self.decode(reseal(self.data[: bitstream._HEAD_SIZE + bitstream._DIMS_SIZE - 2] + bytes(4)))

    @pytest.mark.parametrize("rank, error", [(2, "0 rows"), (4, "truncated")])
    def test_finalize_reads_what_was_written(self, rank, error):
        # a rank-3 model under dims of another rank: the reader takes fewer
        # floats than were written, or more
        bundle, _ = fitted_bundle(9, transform="klt-trunc")
        sm = bundle.streams[0]
        forged = dataclasses.replace(sm, config=dataclasses.replace(sm.config, rank=rank))
        with pytest.raises(DecodeError, match=error):
            bitstream.finalize_bundle(codec.CodecBundle([forged]))

    def test_base_only_stream_declares_no_refinement_floats(self):
        # dims of a klt-trunc stream that declare refinement floats it has not
        bundle, x = fitted_bundle(9, transform="klt-trunc")
        data = bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])[0]
        assert codec.decode_table(*bitstream.deserialize(forge_dims(data, ref_floats=0))).shape == x.shape
        with pytest.raises(DecodeError, match="parameter count"):
            bitstream.deserialize(forge_dims(data, ref_floats=1))

    def forged_file(self, sm, **config):
        """An encoded file whose stream is ``sm`` with ``config`` fields set
        past ``StreamConfig``'s checks, as a forger's writer would."""
        cfg = dataclasses.replace(sm.config)
        for key, value in config.items():
            setattr(cfg, key, value)
        return bitstream.serialize(codec.CodecBundle([dataclasses.replace(sm, config=cfg)]), self.payload)[0]

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
        # as dim atoms, so the model floats run short of it)
        sm = self.bundle.streams[0]
        r = sm.refine
        no_atoms = dataclasses.replace(
            sm, refine=dataclasses.replace(r, dictionary=r.dictionary[:, :0], step_raw=r.step_raw[:, :0],
                                           thresh_raw=r.thresh_raw[:, :0])
        )
        with pytest.raises(DecodeError):
            self.decode(forge_dims(self.forged_file(no_atoms), n_atoms=0))


@functools.cache
def fuzz_bundle(streams: int) -> tuple[codec.CodecBundle, bytes]:
    """A bundle and its encoded 120-row file: one shtc-full stream, or that
    plus a base-only scaling stream."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(120, 9)) @ rng.normal(size=(9, 9))
    configs = default_configs(9, rank=3, n_meas=3, n_layers=2, scaling_cols=3 * (streams - 1))
    bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng))
    return bundle, bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])[0]


def fuzz_file(streams: int) -> bytes:
    return fuzz_bundle(streams)[1]


def forge_u32(data: bytearray, at: int, value):
    """Overwrite the u32 at ``at`` with ``value``, or with the true value
    stepped by ``value[0]`` when ``value`` is a 1-tuple."""
    if isinstance(value, tuple):
        value = (struct.unpack_from("<I", data, at)[0] + value[0]) % 2**32
    struct.pack_into("<I", data, at, value)


def decode_or_decode_error(data: bytes):
    decoded_alike(lambda: codec.decode_table(*bitstream.deserialize(data)))


class TestHostileBlockShapes:
    """Cases the file fuzz below found: each raised outside ``DecodeError``."""

    @pytest.mark.parametrize("field", ["n_meas", "n_layers", "n_atoms"])
    def test_model_past_the_end_of_the_file(self, field):
        # dims that size more model floats than the file holds: the reader
        # stops at the CRC before it converts or allocates them
        bundle, _ = fuzz_bundle(1)
        data = bitstream.serialize(bundle)[0]
        with pytest.raises(DecodeError, match="truncated"):
            bitstream.deserialize(forge_dims(data, **{field: 2**16 - 1}))

    def test_haar_stream_of_odd_dim(self):
        with pytest.raises(DecodeError, match="even size"):
            bitstream.deserialize(forge_dims(fuzz_file(1), kind=2))

    def test_fixed_basis_reader_memory(self):
        # a 16 KB bundle-only file of one dct stream: the reader builds the
        # rank columns the stream keeps (8 * dim * rank bytes), not dim x dim
        dim, rank = 2000, 1000
        cfg = StreamConfig("feat", dim, transform="dct", rank=rank)
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
       for f in ("dim", "rank", "n_meas", "n_atoms", "n_layers")},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("streams", [1, 2])
class TestFileFuzz:
    """Forged files, CRCs resealed so each forgery reaches the parser: only
    ``DecodeError``-family exceptions come out of ``deserialize`` +
    ``decode_table``, each within a time bound, and alike under
    ``entropy.decode`` and under ``reference_decode``."""

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
        field=st.one_of(st.integers(0, 17), st.integers(0, 2**16)),
        value=st.one_of(U32, st.tuples(st.integers(-64, 64))),
    )
    def test_forged_latent_fields(self, streams, field, value):
        # a u32 of the one coded latent: one of its lane states (2 per
        # channel, 12 or 18 here), two of its words, or an escape
        bundle, data = fuzz_bundle(streams)
        data = bytearray(data)
        at = offsets(bundle)[-1]
        length = len(data) - 4 - at
        assert length > 4 * 18
        forge_u32(data, at + 4 * (field % (length // 4)), value)
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
        bundle, data = fuzz_bundle(streams)
        decode_or_decode_error(forge_dims(data, offsets(bundle)[stream % streams], **fields))

    def test_unforged_file_decodes(self, streams):
        data = fuzz_file(streams)
        assert reseal(data) == data
        assert codec.decode_table(*bitstream.deserialize(data)).shape == (120, 9)


def layout_bundle(streams: int):
    """A bundle of the first ``streams`` of a fixed-basis, a stored-basis and a
    refined stream, and its 80-row table."""
    configs = [
        StreamConfig(name="fixed", dim=4, transform="dct", rank=3),
        StreamConfig(name="stored", dim=3, transform="klt-trunc", rank=2),
        StreamConfig(name="refined", dim=5, transform="shtc-full", rank=2, n_meas=2, n_layers=2),
    ][:streams]
    d = sum(cfg.dim for cfg in configs)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, d)) @ rng.normal(size=(d, d))
    return bitstream.finalize_bundle(codec.fit_bundle(x, configs, rng)), x


class TestMdlReport:
    def test_split_accounts_for_file(self, tmp_path):
        for streams, rows in itertools.product((1, 2, 3), (False, True)):
            bundle, x = layout_bundle(streams)
            payload = codec.encode_table(bundle, x)[0] if rows else codec.Payload(b"", 0)
            path = tmp_path / f"{streams}-{rows}.shtc"
            counts = bitstream.write(bundle, payload, path)
            report = bitstream.mdl_report(*bitstream.read(path))
            assert report == bitstream.mdl_report(bundle, payload)
            assert [s["stream"] for s in report["streams"]] == ["fixed", "stored", "refined"][:streams]
            assert sum(s["model_bytes"] for s in report["streams"]) == report["model_bytes"]
            assert report["model_bytes"] == counts["model_bytes"]
            assert report["payload_bytes"] == counts["payload_bytes"] == len(payload.data)
            # the 12-byte header and the 4-byte CRC
            assert report["container_overhead"] == 16
            assert (
                report["model_bytes"] + report["payload_bytes"] + report["container_overhead"]
                == report["file_bytes"]
                == path.stat().st_size
            )
            assert report["rows"] == payload.rows == (x.shape[0] if rows else 0)
            if rows:
                assert report["bits_per_row"] == pytest.approx(report["file_bytes"] * 8 / x.shape[0])
            else:
                assert report["bits_per_row"] is None

    @pytest.mark.parametrize("coarse", [1.0, 8.0])
    @pytest.mark.parametrize("streams", [1, 2, 3])
    def test_lane_layout(self, streams, coarse):
        # coded_channels counts the pairs and the channels coded alone; steps
        # 8 times as wide make tables small enough to pair. The payload opens
        # with one u32 state per lane, so a payload cut inside the states
        # does not decode, and the decoder names as many lanes
        bundle, x = layout_bundle(streams)
        for sm in bundle.streams:
            for role in ("base_sched", "refine_sched"):
                if (sched := getattr(sm, role)) is not None:
                    setattr(sm, role, channel_schedule(sched.q_s * coarse, sched.alpha, sched.n))
        bundle = bitstream.finalize_bundle(bundle)
        model, steps, _ = codec._file_model(bundle)
        coded = entropy.build_tables(model, steps).start.size
        assert (coded < model.n) == (coarse > 1)
        for rows in (0, 1, 80, 4096, 8192):
            payload = codec.encode_table(bundle, np.resize(x, (rows, x.shape[1])))[0]
            report = bitstream.mdl_report(bundle, payload)
            lanes = coded * (4 if coded < model.n else 2) * max(1, rows // 4096) if rows else 0
            assert (report["coded_channels"], report["lanes"]) == (coded, lanes)
            assert report == bitstream.mdl_report(*bitstream.deserialize(bitstream.serialize(bundle, payload)[0]))
            if rows:
                with pytest.raises(DecodeError, match=f"does not fit {lanes} lane states"):
                    entropy.decode(rows, payload.data[: 4 * lanes - 2], model, steps)

    def test_base_only_bundle_has_no_refinement_bytes(self, tmp_path):
        bundle, x = fitted_bundle(6, transform="klt-trunc")
        payload, _ = codec.encode_table(bundle, x)
        path = tmp_path / "b.shtc"
        bitstream.write(bundle, payload, path)
        report = bitstream.mdl_report(*bitstream.read(path))
        sm = bundle.streams[0]
        d, rank = sm.config.dim, sm.config.rank
        expected_model = 23 + 4 * (d + d * rank + 2 + 2 * rank)
        assert report["streams"][0]["model_bytes"] == expected_model

    def test_stable_across_reads(self, tmp_path):
        bundle, x = fitted_bundle(7)
        payload, _ = codec.encode_table(bundle, x)
        path = tmp_path / "s.shtc"
        bitstream.write(bundle, payload, path)
        assert bitstream.mdl_report(*bitstream.read(path)) == bitstream.mdl_report(*bitstream.read(path))


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
