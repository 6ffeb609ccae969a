"""Codec pipeline tests: stream configs, encode/decode determinism."""

import dataclasses
import hashlib

import numpy as np
import pytest

from shtc import bitstream, codec, entropy
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
        payloads, recon = codec.encode_table(bundle, x)
        decoded = codec.decode_table(*bitstream.deserialize(bitstream.serialize(bundle, payloads)[0]))
        assert np.array_equal(decoded, recon)

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    def test_file_round_trip_across_unfold_blocks(self, rows):
        # the unfolded decoder runs in blocks of 1024 rows; every row count
        # decodes from file to the encoder's reconstruction bit for bit
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(3), configs, np.random.default_rng(3)))
        x = source(4, n=rows)
        payloads, recon = codec.encode_table(bundle, x)
        decoded = codec.decode_table(*bitstream.deserialize(bitstream.serialize(bundle, payloads)[0]))
        assert np.array_equal(decoded, recon)
        sm = bundle.streams[0]
        base_only = dataclasses.replace(sm, refine=None, refine_sched=None, refine_entropy=None)
        base_recon = codec.encode_table(codec.CodecBundle([base_only]), x)[1]
        assert np.any(recon[-1] != base_recon[-1])  # the refinement reaches the last row

    def test_two_stream_layout(self):
        x = source(2, d=10)
        configs = default_configs(10, scaling_cols=4, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(2)))
        payloads, recon = codec.encode_table(bundle, x)
        assert len(payloads) == 2
        assert len(payloads[0].latents) == 2  # base + refinement
        assert len(payloads[1].latents) == 1  # base only
        assert np.array_equal(codec.decode_table(bundle, payloads), recon)

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
        # a bundle-only file, a missing refinement latent, an extra latent
        x = source(7)
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(x, configs, np.random.default_rng(7)))
        latents = codec.encode_table(bundle, x)[0][0].latents
        for forged in ([], latents[:1], latents * 2):
            with pytest.raises(DecodeError, match="coded latents"):
                codec.decode_table(bundle, [codec.StreamPayload(forged, x.shape[0])])

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
    """A file's latents are coded in one lane loop, with the bytes of coding
    each latent alone: sha256 of files whose latents are those made when every
    latent had its own loop (re-pinned at bitstream v4, whose lanes changed the
    latent bytes but not the decoded symbols)."""

    PINNED = {
        (0, 0): "f37ba85887dc683683a15964dc8822e094aae191845d8b49beb5257e338792e3",
        (1, 0): "418f5e3a3f5e1af42911563ca1a5529362cfd32270bc980085f43da0955559a8",
        (4095, 0): "86352b0b8a9a8e19c1c4eba91734bb9b260de46cd4a5169a39955260f3ffc2fd",
        (4096, 0): "ef245527c71cebfb0b6d05e9dc12bffd54b0f9e69d63e2c140be37334da8ab4a",
        (8193, 0): "3ec2bcfac484fdef34d527a7f6bb21105ae0276f9f25a04b6f6c297d1bae32cd",
        (12289, 0): "f2e5da07786c1912e0ef64d9b7956b7396e3c39139823861f747dab4ee3d15a1",
        (0, 4): "19ab605dd87093d433b8d1f775ca81ee18f5d3e8c6a94840aeb6a515ec84e5f3",
        (1, 4): "1c72d889c141d35f50db7edf68fd8d3e45af6d816b5178bfcc9145c3f05cc270",
        (4095, 4): "ec3a10b0011296b87f48da7fe18018dd1e462f19160790e95962210259cdd2be",
        (4096, 4): "4fe64f6a16ea454ec4e367cd5c9a0e29728f40451b76193028156b7c8569c13a",
        (8193, 4): "191b3678d8ab1ab6188f3c86bb88a095dbd21a6bc3dc983fb60e1524a54793d6",
        (12289, 4): "36f1c9b5f3c384f88c7b2b8f088b67b980e6ccf2670705e82ee4af1403276e9a",
    }

    @pytest.mark.parametrize("scaling_cols", [0, 4])
    @pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 8193, 12289])
    def test_file_bytes_pinned(self, rows, scaling_cols):
        bundle, x = lane_edge_table(rows, scaling_cols)
        payloads, recon = codec.encode_table(bundle, x)
        data = bitstream.serialize(bundle, payloads)[0]
        assert hashlib.sha256(data).hexdigest() == self.PINNED[rows, scaling_cols]
        assert np.array_equal(codec.decode_table(*bitstream.deserialize(data)), recon)
        if rows:
            latents = [
                (coded, *model)
                for sm, payload in zip(bundle.streams, payloads)
                for coded, model in zip(payload.latents, codec._latent_models(sm))
            ]
            for (_, model, sched), sym in zip(latents, entropy.decode_latents(rows, latents)):
                tables = entropy.build_tables(model, sched)
                escaped = (sym < tables.lo) | (sym >= tables.lo + tables.size)
                assert escaped[0, 0] and escaped[last_lane_row(rows), -1] and escaped[-1, -1]


class TestOneRowCount:
    """A file states one row count, in its header (``docs/format.md``): a
    latent coded over other rows does not decode."""

    def test_refinement_rows_differ_from_base(self):
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(8), configs, np.random.default_rng(8)))
        base = codec.encode_table(bundle, source(9, n=300))[0][0].latents[0]
        refine = codec.encode_table(bundle, source(9, n=100))[0][0].latents[1]
        data = bitstream.serialize(bundle, [codec.StreamPayload([base, refine], 300)])[0]
        with pytest.raises(DecodeError):
            codec.decode_table(*bitstream.deserialize(data))

    def test_streams_rows_differ(self):
        configs = default_configs(10, scaling_cols=4, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(8, d=10), configs, np.random.default_rng(8)))
        feat = codec.encode_table(bundle, source(9, n=300, d=10))[0][0]
        scale = codec.encode_table(bundle, source(9, n=100, d=10))[0][1]
        with pytest.raises(DimMismatch, match="row count"):
            bitstream.serialize(bundle, [feat, scale])
        scale.rows = feat.rows  # the file claims 300 rows for the 100-row latent
        data = bitstream.serialize(bundle, [feat, scale])[0]
        with pytest.raises(DecodeError):
            codec.decode_table(*bitstream.deserialize(data))

    def test_no_streams(self):
        data = bitstream.serialize(codec.CodecBundle([]))[0]
        with pytest.raises(DecodeError):
            codec.decode_table(*bitstream.deserialize(data))
