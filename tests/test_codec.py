"""Codec pipeline tests: stream configs, encode/decode determinism."""

import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from shtc import base_layer, bench, bitstream, codec, entropy, quantizer, refinement, trainer
from shtc.codec import StreamConfig, default_configs
from shtc.errors import CodecError, ConfigError, DataError, DecodeError, DimMismatch

from .oracles import untiled


def source(seed=0, n=300, d=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) * 0.5


class TestConfigs:
    def test_unknown_transform(self):
        with pytest.raises(ConfigError):
            StreamConfig(name="x", dim=4, transform="wavelet")

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            StreamConfig(name="x", dim=4, rank=5)

    def test_default_rank_by_transform(self):
        full = default_configs(50)[0]
        assert full.rank == 15 and full.n_meas == 15 and full.n_layers == 6
        raw = default_configs(50, transform="none")[0]
        assert raw.rank == 50

    def test_scaling_stream_split(self):
        configs = default_configs(56, scaling_cols=6)
        assert len(configs) == 2
        feat, scale = configs
        assert (feat.dim, scale.dim) == (50, 6)
        assert codec.side_by_side([feat.dim, scale.dim]) == [slice(0, 50), slice(50, 56)]
        assert scale.transform == "klt-trunc" and scale.rank == 6
        assert not scale.has_refinement

    def test_small_tables_clamp(self):
        cfg = default_configs(4)[0]
        assert cfg.rank == 4 and cfg.n_meas == 4

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_meas": 0},
            {"n_layers": 0},
            {"n_layers": -2},
            {"n_atoms": -1},
            {"n_atoms": 70000},
            {"n_layers": 2**16},
            {"dim": -1},
            {"dim": 0},
            {"dim": 2**16},
            {"transform": "haar", "dim": 7},
        ],
        ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()),
    )
    def test_invalid_stream_rejected(self, fields):
        with pytest.raises(ConfigError):
            StreamConfig(**{"name": "x", "dim": 8, "rank": 4, **fields})

    def test_edge_values_accepted(self):
        for fields in (
            {"n_meas": 1, "n_layers": 1, "n_atoms": 0},
            {"n_atoms": 2**16 - 1, "n_layers": 2**16 - 1, "n_meas": 2**16 - 1},
            {"dim": 2**16 - 1},
            {"transform": "haar"},
            {"transform": "haar", "dim": 1, "rank": 1},
        ):
            StreamConfig(**{"name": "x", "dim": 8, "rank": 4, **fields})

    @pytest.mark.parametrize("ranks", [(2, 2), (2, 3)], ids=["equal-ranks", "unequal-ranks"])
    def test_duplicate_stream_names_rejected(self, ranks):
        # the trainer keys each stream's parameters by its name: at equal
        # ranks two "s" streams would train one shared schedule, at unequal
        # ranks the fit would fail in a numpy broadcast
        configs = [StreamConfig("s", 6, transform="shtc-full", rank=r, n_meas=2, n_layers=2) for r in ranks]
        with pytest.raises(ConfigError, match="names must differ"):
            codec.fit_bundle(source(1, d=12), configs, np.random.default_rng(1))
        with pytest.raises(ConfigError, match="names must differ"):
            trainer.train(source(1, d=12), configs, trainer.TrainConfig(iters=2, batch=16))

    def test_no_stream_configs_rejected(self):
        # a codec of no streams codes nothing: a config error, before any fit
        with pytest.raises(ConfigError, match="at least one stream"):
            trainer.train(source(1), [], trainer.TrainConfig(iters=2, batch=16))

    @pytest.mark.parametrize("big", [1e39, -1e39, 1e300])
    def test_table_beyond_binary32_rejected(self, big):
        # the trainer computes in float32: an entry it cannot hold is a data
        # error up front, not a failed fit
        x = source(1)
        x[5, 2] = big
        with pytest.raises(DataError, match="binary32"):
            codec.fit_bundle(x, default_configs(8), np.random.default_rng(1))
        with pytest.raises(DataError, match="binary32"):
            trainer.train(x, default_configs(8), trainer.TrainConfig(iters=2, batch=16))
        x[5, 2] = -float(np.finfo(np.float32).max)  # the largest magnitude it holds
        codec.fit_bundle(x, default_configs(8), np.random.default_rng(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_rejected(self, bad):
        # fit_bundle and the trainer that calls it reject the table before
        # the eigensolver sees it
        x = source(1)
        x[5, 2] = bad
        with pytest.raises(DataError, match="non-finite"):
            codec.fit_bundle(x, default_configs(8), np.random.default_rng(1))
        with pytest.raises(DataError, match="non-finite"):
            trainer.train(x, default_configs(8), trainer.TrainConfig(iters=2, batch=16))

    def test_streams_lie_side_by_side(self):
        # a stream states only its width: stream i takes the dim columns
        # after the streams before it
        configs = [StreamConfig(f"s{i}", d, transform="klt-trunc", rank=1) for i, d in enumerate((3, 1, 4))]
        bundle = codec.fit_bundle(source(1, d=8), configs, np.random.default_rng(1))
        assert bundle.dim == 8
        assert bundle.columns == [slice(0, 3), slice(3, 4), slice(4, 8)]
        with pytest.raises(DimMismatch):
            codec.fit_bundle(source(1, d=9), configs, np.random.default_rng(1))

    def test_default_configs_reject_what_a_stream_rejects(self):
        # before these were ConfigErrors they failed later: an IndexError in
        # training, a ValueError, a struct.error at serialize, a BadSize
        for kw in ({"n_layers": 0}, {"n_meas": 0}, {"n_atoms": 70000}):
            with pytest.raises(ConfigError):
                default_configs(8, rank=4, **kw)
        with pytest.raises(ConfigError, match="even size"):
            default_configs(7, transform="haar")


class TestEncodeDecode:
    @pytest.mark.parametrize("transform", ["none", "dct", "haar", "klt-trunc", "shtc-full"])
    def test_decode_equals_inprocess_reconstruction(self, transform):
        x = source(1)
        configs = default_configs(8, transform=transform, rank=4, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(1)))
        payload, recon = codec.encode_table(bundle, x)
        decoded = codec.decode_table(*bitstream.deserialize(bitstream.serialize(bundle, payload)[0]))
        assert np.array_equal(decoded, recon)

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    def test_file_round_trip_across_unfold_blocks(self, rows):
        # a stream is synthesized in blocks of codec._BLOCK_ROWS = 1024 rows;
        # every row count decodes from file to the encoder's reconstruction
        # bit for bit
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(3), configs, np.random.default_rng(3)))
        x = source(4, n=rows)
        payload, recon = codec.encode_table(bundle, x)
        decoded = codec.decode_table(*bitstream.deserialize(bitstream.serialize(bundle, payload)[0]))
        assert np.array_equal(decoded, recon)
        sm = bundle.streams[0]
        base_only = dataclasses.replace(sm, refine=None, refine_sched=None, refine_entropy=None)
        base_recon = codec.encode_table(codec.CodecBundle([base_only]), x)[1]
        assert np.any(recon[-1] != base_recon[-1])  # the refinement reaches the last row

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    def test_two_stream_file_across_synthesis_blocks(self, rows):
        # a shtc-full stream and a klt-trunc stream, each synthesized block by
        # block into its own columns of one table
        configs = default_configs(10, rank=3, n_meas=3, n_layers=2, scaling_cols=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(3, d=10), configs, np.random.default_rng(3)))
        x = source(4, n=rows, d=10)
        payload, recon = codec.encode_table(bundle, x)
        decoded = codec.decode_table(*bitstream.deserialize(bitstream.serialize(bundle, payload)[0]))
        assert np.array_equal(decoded, recon)

    ANALYSIS_PINNED = {
        80: "8805548c7e6b38b1515ff3b9cfd111e6211d4ccc3c988898e36a27b6eb75703e",
        81: "4da5725879f52a8a77bdf3857f43018cc1f70cd5a12ef60f3e3bf3eddc23af1f",
        1025: "e4264a5e8f6506d5a161f7512be29fb537e78b1fec617ade5888195999fb089d",
        1104: "b8d118370ada218e2d001e27106d620e8872144f855fc72d0dde7d5c04905fbd",
        2049: "67c830a70e1582916ff40bb142f6ec33bed3ff93a449c0eadbd754bddfd455fe",
    }

    @pytest.mark.parametrize("rows", [80, 81, 1025, 1104, 2049])
    def test_two_stream_bytes_across_analysis_blocks(self, rows):
        # each stream is analysed in blocks of codec._BLOCK_ROWS rows, down to
        # a last block of 1 or 80 rows; the files keep the bytes (sha256) that
        # a whole-table analysis gave, and decode to the encoder's table
        configs = default_configs(10, rank=3, n_meas=3, n_layers=2, scaling_cols=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(3, d=10), configs, np.random.default_rng(3)))
        payload, recon = codec.encode_table(bundle, source(5, n=rows, d=10))
        data = bitstream.serialize(bundle, payload)[0]
        assert hashlib.sha256(data).hexdigest() == self.ANALYSIS_PINNED[rows]
        assert np.array_equal(codec.decode_table(*bitstream.deserialize(data)), recon)

    def test_synthesis_memory_does_not_grow_with_rows(self):
        # _reconstruct_stream works one block at a time into the caller's
        # table: its tracemalloc peak is that of a block at any row count
        rng = np.random.default_rng(13)
        x = rng.normal(size=(16384, 50)) @ rng.normal(size=(50, 50)) * 0.2
        fitted = codec.fit_bundle(x[:4096], default_configs(50), np.random.default_rng(13))
        sm = bitstream.finalize_bundle(fitted).streams[0]
        assert sm.refine is not None
        peaks = {}
        for rows in (2048, 16384):
            sym = np.empty((rows, sm.base_sched.n + sm.refine_sched.n), dtype=np.int64)
            codec._stream_symbols(sm, x[:rows], sym)
            out = np.empty((rows, 50))
            tracemalloc.start()
            try:
                codec._reconstruct_stream(sm, codec._synthesis(sm, rows), out, sym)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # less than one 1024-row block of float64 at dim 50 between them
        assert abs(peaks[16384] - peaks[2048]) < 8 * 1024 * 50, peaks

    def test_prepared_layers_add_at_most_their_stated_bytes(self, monkeypatch):
        """A many-layer, many-atom stream: the tiles ``decode_table``
        prepares for a table with a full block raise its tracemalloc peak by
        at most what ``refinement.prepare`` states, 1.5 * tile times the
        stream's step and threshold floats and at most 3 * 2^17 floats.
        Tiling each of its 40 layers of 600 atoms 256 times would keep
        74 MB."""
        x = source(5, n=2048)
        configs = default_configs(8, rank=2, n_meas=4, n_atoms=600, n_layers=40)
        fitted = codec.fit_bundle(x, configs, np.random.default_rng(5))
        fitted.streams[0].refine.step_raw[:] = np.log(1e-3)  # a synthesis that stays finite
        bundle = bitstream.finalize_bundle(fitted)
        payload, recon = codec.encode_table(bundle, x)
        refine = bundle.streams[0].refine
        tile = codec._synthesis(bundle.streams[0], x.shape[0]).tile
        stated = 1.5 * tile * (refine.step_raw.size + refine.thresh_raw.size) * 4
        assert tile == 4 and stated <= 3 * (1 << 17) * 4
        peaks = {}
        for tile_rows in (1, codec._TILE_ROWS):
            monkeypatch.setattr(codec, "_TILE_ROWS", tile_rows)
            codec.decode_table(bundle, payload)  # the coder's tables are cached before tracing
            tracemalloc.start()
            try:
                out = codec.decode_table(bundle, payload)
                peaks[tile_rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(out, recon)
        assert peaks[codec._TILE_ROWS] <= peaks[1] + stated, peaks

    def test_encoder_memory_grows_only_with_its_outputs(self):
        """Between 2048 and 16384 rows at dim 50, the tracemalloc peak of
        ``encode_table`` grows by at most its outputs' growth (the float64
        reconstruction and the int64 symbol table) plus 11 bytes per symbol
        added: the coder's int32 entry table (4), its u16 words (2) and bool
        emit flags (1), and the u64 freq, cum, limit and gap of one chunk of
        ``entropy._CHUNK`` = 256 steps, which at 8192 rows or more is at most
        an eighth of the steps (32 / 8 = 4). The bool escape mask (1) is
        freed before the chunks are gathered. The analysis and synthesis run
        in blocks of rows, so they add nothing that grows with the table."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(16384, 50)) @ rng.normal(size=(50, 50)) * 0.2
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x[:4096], default_configs(50), np.random.default_rng(13)))
        channels = codec._file_model(bundle)[1].size
        assert channels == 30 and entropy._CHUNK == 256
        peaks = {}
        for rows in (2048, 16384):
            codec.encode_table(bundle, x[:rows])  # the coder's tables are cached before tracing
            tracemalloc.start()
            try:
                codec.encode_table(bundle, x[:rows])
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        added = 16384 - 2048
        outputs = 8 * added * (50 + channels)
        assert peaks[16384] - peaks[2048] <= outputs + 11 * added * channels, peaks

    def test_two_stream_layout(self):
        # one latent of the channels of feat's base, feat's refinement and
        # scale's base, in that order
        x = source(2, d=10)
        configs = default_configs(10, scaling_cols=4, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(2)))
        payload, recon = codec.encode_table(bundle, x)
        feat, scale = bundle.streams
        theta, r = codec.split_base(x[:, :6], feat.klt)
        latents = [
            (theta, feat.base_entropy, feat.base_sched),
            (refinement.analyze_refine(r, feat.refine), feat.refine_entropy, feat.refine_sched),
            (codec.split_base(x[:, 6:], scale.klt)[0], scale.base_entropy, scale.base_sched),
        ]
        latents = [(quantizer.quantize(v, sched), model, sched) for v, model, sched in latents]
        assert [sym.shape[1] for sym, *_ in latents] == [3, 3, 4]
        model, steps, spans = codec._file_model(bundle)
        assert spans == [slice(0, 6), slice(6, 10)]
        assert np.array_equal(model.mu, np.concatenate([m.mu for _, m, _ in latents]))
        assert np.array_equal(model.sigma, np.concatenate([m.sigma for _, m, _ in latents]))
        assert np.array_equal(steps, np.concatenate([sched.steps for *_, sched in latents]))
        sym = np.hstack([sym for sym, *_ in latents])
        assert payload == codec.Payload(entropy.encode(sym, model, steps), 300)
        assert len(payload.data) == sum(len(entropy.encode_symbols(*latent)) for latent in latents)
        assert np.array_equal(codec.decode_table(bundle, payload), recon)

    def test_quantization_bounds_reconstruction(self):
        x = source(3)
        configs = default_configs(8, transform="klt-trunc", rank=8)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(3)))
        _, recon = codec.encode_table(bundle, x)
        # full-rank orthonormal transform: error bounded by step/2 per channel
        worst = np.abs(bundle.streams[0].base_sched.steps).sum() / 2
        assert np.abs(x - recon).max() <= worst + 1e-9

    def test_wrong_width_rejected(self):
        x = source(4)
        configs = default_configs(8, transform="klt-trunc")
        bundle = codec.fit_bundle(x, configs, np.random.default_rng(4))
        with pytest.raises(DimMismatch):
            codec.encode_table(bundle, x[:, :5])

    def test_table_must_be_2d(self):
        # a row and a flat table have no column count; a (rows, 8, 1) stack
        # has the bundle's 8 in its second axis but is no table
        x = source(4)
        bundle = codec.fit_bundle(x, default_configs(8, transform="klt-trunc"), np.random.default_rng(4))
        for bad in (x[0], x.reshape(-1), x[:, :, None]):
            with pytest.raises(DimMismatch):
                codec.encode_table(bundle, bad)

    def test_latent_count_must_match_stream(self):
        # an empty payload, one coding the base latent only, and one coding an
        # extra latent do not decode as the stream's base and refinement
        x = source(7)
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(7)))
        sm = bundle.streams[0]
        model, steps, _ = codec._file_model(bundle)
        sym = np.empty((x.shape[0], steps.size), dtype=np.int64)
        codec._stream_symbols(sm, x, sym)
        assert codec.encode_table(bundle, x)[0].data == entropy.encode(sym, model, steps)
        twice = entropy.GaussianEntropyModel(np.tile(model.mu, 2), np.tile(model.sigma, 2))
        forgeries = (
            b"",
            entropy.encode_symbols(sym[:, :3], sm.base_entropy, sm.base_sched),
            entropy.encode(np.hstack([sym, sym]), twice, np.tile(steps, 2)),
        )
        for forged in forgeries:
            with pytest.raises(DecodeError):
                codec.decode_table(bundle, codec.Payload(forged, x.shape[0]))

    @pytest.mark.parametrize("scaling_cols", [0, 4])
    def test_zero_row_files_decode_to_empty_tables(self, scaling_cols):
        # bundle-only or encoded, a file of 0 rows decodes to a (0, dim) table
        configs = default_configs(10, rank=3, n_meas=3, n_layers=2, scaling_cols=scaling_cols)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(7, d=10), configs, np.random.default_rng(7)))
        encoded = bitstream.serialize(bundle, codec.encode_table(bundle, np.zeros((0, 10)))[0])[0]
        assert encoded == bitstream.serialize(bundle)[0]
        assert codec.decode_table(*bitstream.deserialize(encoded)).shape == (0, 10)

    def test_param_float_accounting(self):
        x = source(5, d=8)
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = codec.fit_bundle(x, configs, np.random.default_rng(5))
        sm = bundle.streams[0]
        expected = 8 + 8 * 3 + 2 + 3 + 3  # mean, retained basis columns, sched, mu, sigma
        expected += 3 * 8 + 8 * 8 + 2 * 2 * 8 + 2 + 3 + 3  # refinement + its sched/entropy
        assert len(bitstream._model_content(sm)) == 4 * expected

    def test_finalize_idempotent(self):
        x = source(6)
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(6)))
        once = bitstream.serialize(bundle)[0]
        twice = bitstream.serialize(bitstream.finalize_bundle(bundle))[0]
        assert once == twice


def lane_edge_table(rows, scaling_cols):
    """A fitted 10-column bundle and a ``rows``-row table whose first and last
    lane of the first step, and whose last row, hold outliers: each latent
    escapes there."""
    configs = default_configs(10, rank=3, n_meas=3, n_layers=2, scaling_cols=scaling_cols)
    bundle = bitstream.finalize_bundle(codec.fit_bundle(source(11, d=10), configs, np.random.default_rng(11)))
    x = source(12, n=rows, d=10)
    x[[0, last_lane_row(bundle, rows), rows - 1][: 3 if rows else 0]] *= 1e4
    return bundle, x


def last_lane_row(bundle, rows):
    """The row whose last coded channel the first step's last lane codes (or
    the last row, when the lanes outnumber the rows)."""
    model, steps, _ = codec._file_model(bundle)
    paired = entropy.pairing(model, steps).size < model.n
    return min(entropy.lane_grid(rows, paired)[0], rows) - 1


class TestOneLoopPerFile:
    """A file's latents are coded as one latent in one lane loop: sha256 of
    files at the lane edges (re-pinned at bitstream v7, whose payloads code
    channel pairs and decode to the v6 files' symbols and tables; the
    outlier row moves with the lane grid)."""

    PINNED = {
        (0, 0): "88c7e2fcc605786b5510b65bad759bc7c5fb5f564aa0ca660bf080a4bc7b99a0",
        (1, 0): "d12e9fef1bd1c0ffdae89e2a89884f20f9dde6ff434122ce69bd8c0a5467e68b",
        (4095, 0): "45dc0ed7d8859159505be32ef0f1c0939547d1b4bc50deb573f3147510eba4a6",
        (4096, 0): "06e4e9f55486704a74c101b0f12b77c613f3a383395a06080dc794d7adda518b",
        (8193, 0): "d965ca3e8e5740939e47e9d9d74cf25b2e969bbb6350f9795446ebd5b1e30ddb",
        (12289, 0): "a6e54fa10c6f7864ba612df01a346a3d9d005f2efc4b6d72c4a232a51b4001f2",
        (0, 4): "099ed877b26638ad00a4928d3485617d6c27dd6c5486c383d58f7e08e06f412c",
        (1, 4): "41a14e34009183d917c9430243b3b615e05d8719327b52ab83cac458754a50af",
        (4095, 4): "7bd55d0cfdc67ade3ddacdac4f4d0186e486e1f09211d14c1e9278747e4851d2",
        (4096, 4): "6590af2c5ed5aef662ae60f197fe49c88edc21d995c6e9965c21125be10ec42b",
        (8193, 4): "f96c47d9248236bac84d38465cae8eca9fe6e537868514f80ccca8da8280b593",
        (12289, 4): "ea13e0e9755ea4136f5731fe70ba78c3296286ee0eb5d7ae160be0a5e8783453",
    }

    @pytest.mark.parametrize("scaling_cols", [0, 4])
    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 8193, 12289])
    def test_file_bytes_pinned(self, rows, scaling_cols):
        bundle, x = lane_edge_table(rows, scaling_cols)
        payload, recon = codec.encode_table(bundle, x)
        data = bitstream.serialize(bundle, payload)[0]
        assert hashlib.sha256(data).hexdigest() == self.PINNED[rows, scaling_cols]
        assert np.array_equal(codec.decode_table(*bitstream.deserialize(data)), recon)
        if rows:
            model, steps, _ = codec._file_model(bundle)
            sym = entropy.decode(rows, payload.data, model, steps)
            tables = entropy.build_tables(model, steps)
            escaped = (sym < tables.lo) | (sym >= tables.lo + tables.size)
            scheds = [sched for sm in bundle.streams for sched in (sm.base_sched, sm.refine_sched) if sched is not None]
            ends = np.cumsum([sched.n for sched in scheds])
            for a, b in zip([0, *ends[:-1]], ends):  # each latent's columns
                assert escaped[0, a] and escaped[last_lane_row(bundle, rows), b - 1] and escaped[-1, b - 1]


class TestOneRowCount:
    """A file states one row count, in its header (``docs/format.md``): a
    payload coded over other rows does not decode."""

    def test_streams_rows_differ(self):
        # a two-stream payload of 100 rows in a file that claims 300
        configs = default_configs(10, scaling_cols=4, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(8, d=10), configs, np.random.default_rng(8)))
        payload, recon = codec.encode_table(bundle, source(9, n=100, d=10))
        assert np.array_equal(codec.decode_table(bundle, payload), recon)
        for rows in (99, 101, 300):
            data = bitstream.serialize(bundle, codec.Payload(payload.data, rows))[0]
            with pytest.raises(DecodeError):
                codec.decode_table(*bitstream.deserialize(data))

    def test_no_streams(self):
        data = bitstream.serialize(codec.CodecBundle([]))[0]
        with pytest.raises(DecodeError):
            codec.decode_table(*bitstream.deserialize(data))

    def test_encode_no_streams_rejected(self):
        with pytest.raises(ConfigError, match="no streams"):
            codec.encode_table(codec.CodecBundle([]), source(1)[:, :0])


class TestCoderCache:
    """The coder keeps the tables of the last models coded, keyed by their
    content: a file of the same models builds nothing, and a file of other
    models, also in the same objects, never reads stale tables."""

    @staticmethod
    def bundle(seed=21):
        configs = default_configs(10, rank=3, n_meas=3, n_layers=2, scaling_cols=4)
        return bitstream.finalize_bundle(codec.fit_bundle(source(seed, d=10), configs, np.random.default_rng(seed)))

    def test_model_changed_in_place_rebuilds(self, monkeypatch):
        bundle, x = self.bundle(), source(22, n=200, d=10)
        first = codec.encode_table(bundle, x)[0]
        bundle.streams[0].base_entropy.sigma *= 3.0
        second = codec.encode_table(bundle, x)[0]
        assert second.data != first.data
        monkeypatch.setattr(entropy, "_coder_cache", (None, None))  # a cold cache
        assert second == codec.encode_table(bundle, x)[0]

    def test_one_build_for_two_files(self, monkeypatch):
        calls = []
        build = entropy.build_tables

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(entropy, "build_tables", counted)
        monkeypatch.setattr(entropy, "_coder_cache", (None, None))
        bundle = self.bundle()
        files = []
        for seed in (23, 24):
            x = source(seed, n=128, d=10)
            payload, recon = codec.encode_table(bundle, x)
            files.append((bitstream.serialize(bundle, payload)[0], recon))
        for data, recon in files:  # each file parses to models of its own
            assert np.array_equal(codec.decode_table(*bitstream.deserialize(data)), recon)
        assert len(calls) == 1
        other = self.bundle(27)
        payload, recon = codec.encode_table(other, source(23, n=128, d=10))
        assert np.array_equal(codec.decode_table(other, payload), recon)
        assert len(calls) == 2  # a file of other models builds theirs

    def test_hostile_file_between_good_files(self):
        # the hostile file's model is read into the objects the good files
        # use, so only the content of the model tells the files apart
        bundle = self.bundle()
        (good1, recon1), (good2, recon2) = (codec.encode_table(bundle, source(s, n=200, d=10)) for s in (25, 26))
        assert np.array_equal(codec.decode_table(bundle, good1), recon1)
        sigma = bundle.streams[0].base_entropy.sigma
        kept = sigma.copy()
        sigma *= 0.25
        with pytest.raises(DecodeError):
            codec.decode_table(bundle, good2)
        sigma[:] = kept
        assert np.array_equal(codec.decode_table(bundle, good2), recon2)


def overflowing(bundle, step_raw):
    """A copy of ``bundle`` whose first refinement layer steps by exp(step_raw)."""
    forged = bitstream.deserialize(bitstream.serialize(bundle)[0])[0]
    forged.streams[0].refine.step_raw[0] = step_raw
    return forged


# exp overflows binary64 above 709.8 and binary32 above 88.7: at 100 the
# steps are finite in float64 but not in the float32 synthesis
OVERFLOW_STEPS = [800.0, 100.0]


class TestNonFiniteReconstruction:
    """A model whose synthesis overflows is refused in the one block loop
    that both directions run: the encoder before any payload exists, the
    decoder when it reads the file. numpy warns of nothing on the way."""

    def setup_method(self):
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        self.x = source(3)
        self.bundle = bitstream.finalize_bundle(codec.fit_bundle(self.x, configs, np.random.default_rng(3)))

    @pytest.mark.parametrize("step_raw", OVERFLOW_STEPS)
    def test_encoder_refuses(self, step_raw, monkeypatch):
        forged = overflowing(self.bundle, step_raw)
        coded = []
        monkeypatch.setattr(entropy, "encode", lambda *args: coded.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError, match="stream 'feat' decodes to non-finite values") as info:
                codec.encode_table(forged, self.x)
        assert not isinstance(info.value, DecodeError) and not coded  # no payload was coded

    @pytest.mark.parametrize("step_raw", OVERFLOW_STEPS)
    def test_decoder_refuses(self, step_raw):
        payload, _ = codec.encode_table(self.bundle, self.x)
        data = bitstream.serialize(overflowing(self.bundle, step_raw), payload)[0]
        bundle, payload = bitstream.deserialize(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecodeError, match="stream 'feat' decodes to non-finite values"):
                codec.decode_table(bundle, payload)


class TestFloat32Synthesis:
    """The refinement is synthesized in float32 from symbols dequantized to
    float32, and added into the float64 table; the base layer stays float64.
    Reconstruction is not part of the bytes, which do not change."""

    @pytest.fixture(scope="class")
    def trained(self):
        x = bench.synth_source(bench.SyntheticSpec(seed=1))  # fit-std's seed-1 table
        config = trainer.TrainConfig(lam=0.004, iters=300, seed=0)
        return trainer.train(x, default_configs(x.shape[1]), config)[0], x

    def test_synthesis_runs_in_float32(self, trained, monkeypatch):
        bundle, x = trained
        seen = []
        real_synthesize = refinement.unfold_synthesize

        def spy(y, layers):
            out = real_synthesize(y, layers)
            seen.append((y.dtype, layers.dtype, out.dtype))
            return out

        monkeypatch.setattr(refinement, "unfold_synthesize", spy)
        payload, recon = codec.encode_table(bundle, x)
        assert recon.dtype == codec.decode_table(bundle, payload).dtype == np.float64
        assert seen == [(np.float32, np.float32, np.float32)] * (2 * len(codec._row_blocks(x.shape[0])))

    def test_reconstruction_bits_pinned(self, trained):
        # sha256 of the seed-1 fit-std reconstruction, taken before the
        # refinement's per-channel terms were tiled
        bundle, x = trained
        payload, recon = codec.encode_table(bundle, x)
        assert hashlib.sha256(recon.tobytes()).hexdigest() == (
            "717a8a6b801081b8ff779f61c559aa9c29e3152838452610c2efed965cd1dd9f")
        assert np.array_equal(codec.decode_table(bundle, payload), recon)

    def test_close_to_float64_synthesis(self, trained):
        bundle, x = trained
        payload, recon = codec.encode_table(bundle, x)
        sm = bundle.streams[0]
        model, steps, _ = codec._file_model(bundle)
        sym = entropy.decode(x.shape[0], payload.data, model, steps)
        k = sm.base_sched.n
        f_base = base_layer.synthesize_base(quantizer.dequantize(sym[:, :k], sm.base_sched), sm.klt)
        y_hat = quantizer.dequantize(sym[:, k:], sm.refine_sched)
        assert y_hat.dtype == np.float64 and np.any(y_hat)
        want = f_base + untiled(refinement.unfold_synthesize, y_hat, sm.refine)
        assert np.abs(recon - want).max() <= 1e-5 * (x.max() - x.min())
        assert abs(bench.distortion_db(x, recon) - bench.distortion_db(x, want)) <= 1e-6
