"""Codec pipeline tests: stream configs, encode/decode determinism."""

import dataclasses

import numpy as np
import pytest

from shtc import bitstream, codec
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
