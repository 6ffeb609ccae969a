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
                codec.decode_table(bundle, [codec.StreamPayload(forged)])

    def test_param_float_accounting(self):
        x = source(5, d=8)
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = codec.fit_bundle(x, configs, np.random.default_rng(5))
        sm = bundle.streams[0]
        expected = 8 + 8 + 64 + 2 + 3 + 3  # mean, eig, basis, sched, mu, sigma
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
    blocks = max(1, rows // 4096)
    x[[0, blocks - 1, rows - 1][: 3 if rows else 0]] *= 1e4
    return bundle, x


class TestOneLoopPerFile:
    """A file's latents are coded in one lane loop, with the bytes of coding
    each latent alone: sha256 of files made when every latent had its own loop."""

    PINNED = {
        (0, 0): "9a721eac7f4f12fb81aa9c50cd372499ca9418b664906109e5640687a936be67",
        (1, 0): "dce1f3c3de7059b4e0a4ffc5468dd8581f170c5f1228e9d60ca31aa34a701d6a",
        (4095, 0): "6a9b999ed04c74783e31abdaad3f40739da392f0ed20e1170ccda019fd7902ef",
        (4096, 0): "ea4f07827269d38ee328272783b06b19e24ff6c1a3d9bcbdcfa327ddff5850ba",
        (8193, 0): "91e8982296e232a9e42481e3b4b2906968035f9fcb6c4d55aed98dcd714720de",
        (12289, 0): "0fe3aa2b3bc7c5c3638360359fc301b23d1d979927754e4aae1f9af235404c6c",
        (0, 4): "2ad852fb8146289387eefc6c42eab7300bb81e72612ea891a2db9c7227019a6f",
        (1, 4): "43c1989d726235f3ddde91faf3f080b3e09771f4200cc26046d0528fb66d829b",
        (4095, 4): "f64427192499f97ee03b6a6919ef7e8be6c354e55b1ceb8c5b5fbee6f95289a7",
        (4096, 4): "31bb30b7d45dd1d745da86fbd9461e4cb6ad33403bc882026520a13e8c3d358c",
        (8193, 4): "6c7de9a58f4141c14ecb626c78649d5045225c8c8303c2e411572229b36b99ab",
        (12289, 4): "8015c8120166cb89cef362b48c685c905ab37310b124b630764cc27476a8939f",
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
            blocks = max(1, rows // 4096)
            latents = [
                (coded, count, *model)
                for sm, payload in zip(bundle.streams, payloads)
                for (count, coded), model in zip(payload.latents, codec._latent_models(sm))
            ]
            for (_, _, model, sched), sym in zip(latents, entropy.decode_latents(latents)):
                tables = entropy.build_tables(model, sched)
                escaped = (sym < tables.lo) | (sym >= tables.lo + tables.size)
                assert escaped[0, 0] and escaped[blocks - 1, -1] and escaped[-1, -1]


class TestOneRowCount:
    """Every latent of a file must have the same row count (``docs/format.md``)."""

    def test_refinement_rows_differ_from_base(self):
        configs = default_configs(8, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(8), configs, np.random.default_rng(8)))
        base = codec.encode_table(bundle, source(9, n=300))[0][0].latents[0]
        refine = codec.encode_table(bundle, source(9, n=100))[0][0].latents[1]
        data = bitstream.serialize(bundle, [codec.StreamPayload([base, refine])])[0]
        with pytest.raises(DecodeError, match="row count"):
            codec.decode_table(*bitstream.deserialize(data))

    def test_streams_rows_differ(self):
        configs = default_configs(10, scaling_cols=4, rank=3, n_meas=3, n_layers=2)
        bundle = bitstream.finalize_bundle(codec.fit_bundle(source(8, d=10), configs, np.random.default_rng(8)))
        feat = codec.encode_table(bundle, source(9, n=300, d=10))[0][0]
        scale = codec.encode_table(bundle, source(9, n=100, d=10))[0][1]
        data = bitstream.serialize(bundle, [feat, scale])[0]
        with pytest.raises(DecodeError, match="row count"):
            codec.decode_table(*bitstream.deserialize(data))

    def test_no_streams(self):
        data = bitstream.serialize(codec.CodecBundle([]))[0]
        with pytest.raises(DecodeError):
            codec.decode_table(*bitstream.deserialize(data))
