"""Codec pipeline tests: stream configs, encode/decode determinism."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from shtc import bitstream, codec, entropy, quantizer, refinement
from shtc.codec import StreamConfig, default_configs
from shtc.errors import ConfigError, DecodeError, DimMismatch


def source(seed=0, n=300, d=8):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) * 0.5


class TestConfigs:
    def test_unknown_transform(self):
        with pytest.raises(ConfigError):
            StreamConfig(name="x", col_start=0, col_end=4, transform="wavelet")

    def test_rank_bounds(self):
        with pytest.raises(ConfigError):
            StreamConfig(name="x", col_start=0, col_end=4, rank=5)

    def test_default_rank_by_transform(self):
        full = default_configs(50)[0]
        assert full.rank == 15 and full.n_meas == 15 and full.n_layers == 6
        raw = default_configs(50, transform="none")[0]
        assert raw.rank == 50

    def test_scaling_stream_split(self):
        configs = default_configs(56, scaling_cols=6)
        assert len(configs) == 2
        feat, scale = configs
        assert (feat.col_start, feat.col_end) == (0, 50)
        assert (scale.col_start, scale.col_end) == (50, 56)
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
            {"col_start": -1},
            {"col_end": 2**16},
            {"transform": "haar", "col_end": 7},
        ],
        ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items()),
    )
    def test_invalid_stream_rejected(self, fields):
        with pytest.raises(ConfigError):
            StreamConfig(**{"name": "x", "col_start": 0, "col_end": 8, "rank": 4, **fields})

    def test_edge_values_accepted(self):
        for fields in (
            {"n_meas": 1, "n_layers": 1, "n_atoms": 0},
            {"n_atoms": 2**16 - 1, "n_layers": 2**16 - 1, "n_meas": 2**16 - 1},
            {"col_start": 2**16 - 9, "col_end": 2**16 - 1},
            {"transform": "haar"},
            {"transform": "haar", "col_end": 1, "rank": 1},
        ):
            StreamConfig(**{"name": "x", "col_start": 0, "col_end": 8, "rank": 4, **fields})

    @pytest.mark.parametrize(
        "ranges",
        [[(0, 8), (4, 12)], [(0, 4), (8, 12)], [(4, 12)], [(4, 12), (0, 4)]],
        ids=["overlap", "gap", "late-start", "out-of-order"],
    )
    def test_streams_must_tile_the_columns(self, ranges):
        # stream 0 starts at column 0, each later stream at the previous col_end
        configs = [StreamConfig(f"s{i}", a, b, transform="klt-trunc", rank=2) for i, (a, b) in enumerate(ranges)]
        with pytest.raises(ConfigError, match="tile"):
            codec.fit_bundle(source(1, d=12), configs, np.random.default_rng(1))

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
                codec._reconstruct_stream(sm, out, sym)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # less than one 1024-row block of float64 at dim 50 between them
        assert abs(peaks[16384] - peaks[2048]) < 8 * 1024 * 50, peaks

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
    x[[0, last_lane_row(rows), rows - 1][: 3 if rows else 0]] *= 1e4
    return bundle, x


def last_lane_row(rows):
    """The row whose last channel the first step's last lane codes (or the
    last row, when the lanes outnumber the rows)."""
    return min(entropy.lane_grid(rows)[0], rows) - 1


class TestOneLoopPerFile:
    """A file's latents are coded as one latent in one lane loop: sha256 of
    files at the lane edges (re-pinned at bitstream v5, whose one latent
    decodes to the symbols and reconstructions of v4's latents, with a
    payload as long as theirs together)."""

    PINNED = {
        (0, 0): "82d886f16ffe3d6036effc4aa00ffe08c0531a41af7e31724435a4b806c1f1f1",
        (1, 0): "13f403f8c8616f84e616d7f4890bb6ce91f02854b47556cafbd9deb688c7478f",
        (4095, 0): "984d0182798a5ebbed6357a2c2906916414b1251070afa8820826a8f16c67991",
        (4096, 0): "ba92b3d43d9a6b80ff5451be37e6503b86416fae22f99551d35480ebd3be76a6",
        (8193, 0): "743da63e2ebe66f3ec74fdbd90ea916a85cab29f5179004938b7020407f985ed",
        (12289, 0): "cd92b6aa27586c51406eeac6ddb615689946979a1d2a16817ebc8135331b8cd8",
        (0, 4): "51457f24f262198dcddbf66db72edcded89ec65a2d75c46789d725669223394f",
        (1, 4): "e850b3882b662a238110d2cad6d730cc284475928d0c4a239a448600e53401e6",
        (4095, 4): "97c7c2336c6e9a61c680bc31cd85dbb1413cb98d725110f2ceeeb4529487560c",
        (4096, 4): "f69c01aa05b1dd68950029d637b1d236033582e27bb6045e3d494cc6556fedf0",
        (8193, 4): "7e49b214538c13a75f3f8891256687e30b21575d1b284785a8de7a1fd076e167",
        (12289, 4): "213c540fb3322c814d417b61558496bad1b385610ffd1f7b3d8e8caf4fb0d008",
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
                assert escaped[0, a] and escaped[last_lane_row(rows), b - 1] and escaped[-1, b - 1]


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
