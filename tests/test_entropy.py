"""Entropy model and interleaved rANS coder tests."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import entropy, quantizer
from shtc.errors import DecodeError, DimMismatch


def normal_cdf_oracle(z: float) -> float:
    # independent of scipy's ndtr used by the implementation
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def make_model(n, sigma=1.0, mu=0.0):
    return entropy.GaussianEntropyModel(mu=np.full(n, mu), sigma=np.full(n, sigma))


class TestRateBits:
    def test_wide_step_captures_all_mass(self):
        model = make_model(4, sigma=1.0)
        sched = quantizer.channel_schedule(1000.0, 0.0, 4)
        bits = entropy.rate_bits(np.zeros((10, 4)), model, sched)
        assert 0.0 <= bits / 40 < 0.01

    def test_step_equals_sigma_reference_value(self):
        model = make_model(1, sigma=2.0)
        sched = quantizer.channel_schedule(2.0, 0.0, 1)
        bits = entropy.rate_bits(np.zeros((1, 1)), model, sched)
        expected = -math.log2(normal_cdf_oracle(0.5) - normal_cdf_oracle(-0.5))
        assert bits == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.384, abs=1e-3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        model = make_model(3, sigma=0.7)
        sched = quantizer.channel_schedule(0.5, 0.0, 3)
        x = rng.normal(size=(50, 3))
        perm = rng.permutation(50)
        assert entropy.rate_bits(x, model, sched) == pytest.approx(
            entropy.rate_bits(x[perm], model, sched)
        )

    def test_floor_keeps_finite(self):
        model = make_model(1, sigma=1e-6)
        sched = quantizer.channel_schedule(1e-6, 0.0, 1)
        bits = entropy.rate_bits(np.array([[1e6]]), model, sched)
        assert np.isfinite(bits) and bits <= 41.0

    def test_sigma_matching_reduces_rate(self):
        rng = np.random.default_rng(1)
        sched = quantizer.channel_schedule(0.5, 0.0, 2)
        x = quantizer.dequantize(
            quantizer.quantize(rng.normal(0.0, 1.0, size=(2000, 2)), sched), sched
        )
        matched = entropy.rate_bits(x, make_model(2, sigma=1.0), sched)
        too_wide = entropy.rate_bits(x, make_model(2, sigma=2.0), sched)
        assert matched < too_wide

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            entropy.rate_bits(np.zeros((3, 2)), make_model(3), quantizer.channel_schedule(1, 0, 3))


def channel_table_reference(mu, sigma, step):
    """One channel's (lo, freqs with the escape last), built symbol by symbol."""
    lo = min(max(min(math.floor((mu - 8.0 * sigma) / step), -1), -4096), 4096)
    hi = min(max(max(math.ceil((mu + 8.0 * sigma) / step), 1), lo), 4096)
    p = []
    for s in range(lo, hi + 1):
        upper = normal_cdf_oracle((s * step + 0.5 * step - mu) / sigma)
        lower = normal_cdf_oracle((s * step - 0.5 * step - mu) / sigma)
        p.append(max(upper - lower, 0.0))
    budget = 65536 - (len(p) + 1)
    freqs = [math.floor(q * budget) + 1 for q in p]
    esc = math.floor(max(0.0, 1.0 - math.fsum(p)) * budget) + 1
    freqs[p.index(max(p))] += 65536 - sum(freqs) - esc
    return lo, freqs + [esc]


class TestTables:
    def test_matches_per_channel_reference(self):
        # erf and ndtr may differ in the last ulp, which can move one floor
        # by 1: allow at most 1 count per entry and the same support
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            model = entropy.GaussianEntropyModel(
                mu=rng.normal(size=n) * 3, sigma=np.exp(rng.normal(size=n) * 1.5)
            )
            sched = quantizer.channel_schedule(float(rng.uniform(0.05, 2.0)), 0.1, n)
            tables = entropy.build_tables(model, sched)
            for j in range(n):
                lo, freqs = channel_table_reference(model.mu[j], model.sigma[j], sched.steps[j])
                a, b = tables.start[j], tables.start[j] + tables.size[j] + 1
                ours = tables.freq[a:b].astype(np.int64)
                assert tables.lo[j] == lo and ours.size == len(freqs)
                assert ours.sum() == 65536 and ours.min() >= 1
                assert np.abs(ours - freqs).max() <= 1
                assert np.array_equal(tables.cum[a:b], np.cumsum(ours) - ours)


class TestRoundTrip:
    def test_empty(self):
        model = make_model(2)
        sched = quantizer.channel_schedule(1.0, 0.0, 2)
        blob = entropy.encode_symbols(np.zeros((0, 2), dtype=np.int64), model, sched)
        assert blob == b""
        out = entropy.decode_symbols(blob, 0, model, sched)
        assert out.shape == (0, 2)

    def test_matched_gaussian_round_trip(self):
        rng = np.random.default_rng(2)
        model = make_model(4, sigma=1.0)
        sched = quantizer.channel_schedule(0.25, 0.0, 4)
        sym = quantizer.quantize(rng.normal(size=(500, 4)), sched)
        blob = entropy.encode_symbols(sym, model, sched)
        assert np.array_equal(entropy.decode_symbols(blob, sym.size, model, sched), sym)

    def test_escape_symbols_round_trip(self):
        model = make_model(3, sigma=0.5)
        sched = quantizer.channel_schedule(1.0, 0.0, 3)
        sym = np.array([[0, 99999, -2], [2**31 - 1, -(2**31 - 1), 7]], dtype=np.int64)
        blob = entropy.encode_symbols(sym, model, sched)
        assert np.array_equal(entropy.decode_symbols(blob, 6, model, sched), sym)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 40),
        n=st.integers(1, 5),
        spread=st.integers(1, 10_000),
    )
    def test_random_sequences_lossless(self, seed, rows, n, spread):
        rng = np.random.default_rng(seed)
        model = entropy.GaussianEntropyModel(
            mu=rng.normal(size=n), sigma=np.exp(rng.normal(size=n))
        )
        sched = quantizer.channel_schedule(0.5, 0.0, n)
        sym = rng.integers(-spread, spread, size=(rows, n))
        blob = entropy.encode_symbols(sym, model, sched)
        assert np.array_equal(entropy.decode_symbols(blob, sym.size, model, sched), sym)

    def test_golden_bytes(self):
        # 4 lane states (u32); one word, emitted where lane 3 codes the escape
        # entry (freq 1) from L; one escape (5000 + 2^31)
        model = entropy.GaussianEntropyModel(mu=np.array([0.0, 0.5]), sigma=np.array([1.0, 2.0]))
        sched = quantizer.channel_schedule(0.5, 0.0, 2)
        sym = np.array([[0, 1], [-2, 5000], [3, -1]], dtype=np.int64)
        blob = entropy.encode_symbols(sym, model, sched)
        assert blob.hex() == "6e8450007b7c71006c230800ffff0100000088130080"
        assert np.array_equal(entropy.decode_symbols(blob, 6, model, sched), sym)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        model = entropy.GaussianEntropyModel(mu=rng.normal(size=3), sigma=np.exp(rng.normal(size=3)))
        sched = quantizer.channel_schedule(0.5, 0.0, 3)
        sym = rng.integers(-30000, 30000, size=(5000, 3))
        assert entropy.encode_symbols(sym, model, sched) == entropy.encode_symbols(
            sym.copy(), model, sched
        )

    @pytest.mark.parametrize(
        "rows, blocks",
        [(1, 1), (2, 1), (4095, 1), (4096, 1), (8191, 1), (8192, 2), (8193, 2), (12289, 3)],
    )
    def test_lane_rule_edges(self, rows, blocks):
        # lanes = 2 * channels * blocks, blocks = max(1, rows div 4096)
        n = 3
        width, steps = entropy.lane_grid(rows)
        assert width == 2 * blocks
        assert width * (steps - 1) < rows <= width * steps  # the least steps that take every row
        assert steps <= 4096  # reached at 8191 rows
        lanes = n * width
        rng = np.random.default_rng(rows)
        model = make_model(n, sigma=1.5)
        sched = quantizer.channel_schedule(0.5, 0.0, n)
        sym = quantizer.quantize(rng.normal(0.0, 1.5, size=(rows, n)), sched)
        flat = sym.reshape(-1)
        # escapes on the first and last lane of a step, and on the last symbol;
        # at 1, 8193 and 12289 rows that symbol is in a partial last step, and
        # at 1 and 2 rows there are no more symbols than lanes
        escapes = {k for k in (0, lanes - 1, lanes, 2 * lanes - 1, flat.size - 1) if k < flat.size}
        for k in escapes:
            flat[k] = 100_000 + k
        blob = entropy.encode_symbols(sym, model, sched)
        assert len(blob) >= 4 * lanes + 4 * len(escapes)
        assert np.array_equal(entropy.decode_symbols(blob, sym.size, model, sched), sym)

    def test_corrupt_byte_detected_or_wrong(self):
        # decoder never reads past the payload; a truncated stream errors
        rng = np.random.default_rng(3)
        model = make_model(2)
        sched = quantizer.channel_schedule(0.5, 0.0, 2)
        sym = quantizer.quantize(rng.normal(size=(100, 2)), sched)
        blob = entropy.encode_symbols(sym, model, sched)
        with pytest.raises(DecodeError):
            entropy.decode_symbols(blob[: len(blob) // 2], sym.size, model, sched)


class TestLatentsLoop:
    """``encode_latents`` / ``decode_latents`` code several latents of one row
    count in one loop; each keeps its own lanes, words and escapes."""

    @staticmethod
    def latents(rows):
        rng = np.random.default_rng(rows)
        out = []
        for n, sigma in ((3, 1.5), (1, 0.4), (5, 3.0)):
            model = make_model(n, sigma=sigma)
            sched = quantizer.channel_schedule(0.5, 0.0, n)
            sym = quantizer.quantize(rng.normal(0.0, sigma, size=(rows, n)), sched)
            flat = sym.reshape(-1)
            lanes = n * entropy.lane_grid(rows)[0]
            # escapes on the first and last lane, and on the last symbol; a
            # 1-row latent has fewer symbols than lanes
            for k in (0, min(lanes, flat.size) - 1, flat.size - 1):
                flat[k] = 100_000 + k
            out.append((sym, model, sched))
        return out

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 8193, 12289])
    def test_round_trip_with_the_bytes_of_each_latent_alone(self, rows):
        latents = self.latents(rows)
        coded = entropy.encode_latents(latents)
        assert coded == [entropy.encode_symbols(*latent) for latent in latents]
        decoded = entropy.decode_latents(
            rows, [(data, model, sched) for data, (_, model, sched) in zip(coded, latents)]
        )
        for out, (sym, _, _) in zip(decoded, latents):
            assert np.array_equal(out, sym)

    def test_empty(self):
        latents = [(np.zeros((0, n), dtype=np.int64), make_model(n), quantizer.channel_schedule(1.0, 0.0, n))
                   for n in (2, 3)]
        assert entropy.encode_latents(latents) == [b"", b""]
        decoded = entropy.decode_latents(0, [(b"", model, sched) for _, model, sched in latents])
        assert [out.shape for out in decoded] == [(0, 2), (0, 3)]

    def test_row_counts_must_agree(self):
        # the encoder refuses latents of two row counts; a latent coded over
        # fewer rows than the decoder is given does not decode
        latents = self.latents(40)
        short = (latents[1][0][:20],) + latents[1][1:]
        with pytest.raises(DimMismatch):
            entropy.encode_latents([latents[0], short])
        coded = entropy.encode_latents(latents[:1]) + entropy.encode_latents([short])
        with pytest.raises(DecodeError):
            entropy.decode_latents(40, [(coded[0], *latents[0][1:]), (coded[1], *short[1:])])

    def test_each_latent_checked(self):
        # a second latent cut short, or one word longer, fails on its own area
        latents = self.latents(300)
        coded = entropy.encode_latents(latents)
        for forged in (coded[1][:-2], coded[1] + b"\x00" * 2):
            items = [(data, model, sched) for data, (_, model, sched) in zip(coded, latents)]
            items[1] = (forged,) + items[1][1:]
            with pytest.raises(DecodeError):
                entropy.decode_latents(300, items)


class TestHostilePayload:
    """Each forgery reaches the one decoder check it names (``match``)."""

    @staticmethod
    def coded(rows=300, n=3, seed=12):
        rng = np.random.default_rng(seed)
        model = make_model(n, sigma=1.0)
        sched = quantizer.channel_schedule(0.5, 0.0, n)
        sym = quantizer.quantize(rng.normal(size=(rows, n)), sched)
        sym[3, 1] = 77_777  # one escape
        return entropy.encode_symbols(sym, model, sched), sym, model, sched

    def test_forged_count_rejected_before_allocation(self):
        blob, sym, model, sched = self.coded()
        forged = (2**32 - 1) // 3 * 3
        start = time.perf_counter()
        with pytest.raises(DecodeError, match="does not fit"):
            entropy.decode_symbols(blob, forged, model, sched)
        assert time.perf_counter() - start < 1.0

    def test_words_not_whole_rejected(self):
        # a word area of odd length holds no whole number of u16 words
        blob, sym, model, sched = self.coded()
        with pytest.raises(DecodeError, match="does not fit"):
            entropy.decode_symbols(blob + b"\x00", sym.size, model, sched)

    def test_extra_word_rejected(self):
        blob, sym, model, sched = self.coded()
        with pytest.raises(DecodeError, match="length does not match"):
            entropy.decode_symbols(blob + b"\x00" * 2, sym.size, model, sched)

    def test_truncated_words_rejected(self):
        # without its escape and one word, a lane reads past the payload
        blob, sym, model, sched = self.coded()
        with pytest.raises(DecodeError, match="truncated"):
            entropy.decode_symbols(blob[:-6], sym.size, model, sched)

    def test_state_below_range_rejected(self):
        # One row of one channel runs on 2 lanes; lane 1 idles at L = 2^16.
        # Lane 0 at c + 1 < L (c, f >= 2: the cum and freq of symbol 0) decodes
        # symbol 0 to the state 1, and the word 0 takes it to L: the symbol,
        # the word count and the end state all check, so only the state range
        # check refuses it
        model, sched = make_model(1), quantizer.channel_schedule(0.5, 0.0, 1)
        tables = entropy.build_tables(model, sched)
        entry = tables.start[0] - tables.lo[0]
        cum = int(tables.cum[entry])
        assert tables.freq[entry] >= 2
        forged = np.array([cum + 1, 2**16], dtype="<u4").tobytes() + np.array([0], dtype="<u2").tobytes()
        with pytest.raises(DecodeError, match="out of range"):
            entropy.decode_symbols(forged, 1, model, sched)

    def test_lane_not_ending_at_initial_state_rejected(self):
        # raising a one-symbol state by 2^16 keeps its slot: the symbol and the
        # word count are unchanged, and the lane ends above L
        model, sched = make_model(1), quantizer.channel_schedule(0.5, 0.0, 1)
        blob = entropy.encode_symbols(np.zeros((1, 1), dtype=np.int64), model, sched)
        states = np.frombuffer(blob, dtype="<u4").copy()
        assert states.size == 2 and states[1] == 2**16  # lane 1 codes nothing
        states[0] += 2**16
        with pytest.raises(DecodeError, match="initial state"):
            entropy.decode_symbols(states.tobytes(), 1, model, sched)

    def test_escape_inside_table_rejected(self):
        blob, sym, model, sched = self.coded()
        forged = blob[:-4] + np.array([2**31], dtype="<u4").tobytes()  # symbol 0
        with pytest.raises(DecodeError, match="inside its table"):
            entropy.decode_symbols(forged, sym.size, model, sched)

    @settings(max_examples=200, deadline=None)
    @given(
        cut=st.integers(0, 4000),
        flips=st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 255)), max_size=4),
        count=st.one_of(st.just(None), st.integers(0, 2**32 - 1), st.integers(0, 4000)),
    )
    def test_fuzz_only_decode_errors(self, cut, flips, count):
        blob, sym, model, sched = self.coded()
        data = bytearray(blob[: len(blob) - cut % (len(blob) + 1)])
        for pos, mask in flips:
            if data:
                data[pos % len(data)] ^= mask
        count = sym.size if count is None else count
        try:
            out = entropy.decode_symbols(bytes(data), count, model, sched)
        except DecodeError:
            return
        assert out.shape == (count // 3, 3)


class TestCoderEfficiency:
    def test_all_zero_tight_model_near_zero_rate(self):
        n_sym = 20_000
        model = make_model(1, sigma=0.05)
        sched = quantizer.channel_schedule(1.0, 0.0, 1)
        sym = np.zeros((n_sym, 1), dtype=np.int64)
        blob = entropy.encode_symbols(sym, model, sched)
        assert len(blob) * 8.0 / n_sym < 0.02

    def test_payload_tracks_estimate(self):
        rng = np.random.default_rng(4)
        n_rows, n = 25_000, 4
        model = make_model(n, sigma=1.0)
        sched = quantizer.channel_schedule(1.0, 0.0, n)
        sym = quantizer.quantize(rng.normal(size=(n_rows, n)), sched)
        blob = entropy.encode_symbols(sym, model, sched)
        est_bytes = entropy.rate_bits(quantizer.dequantize(sym, sched), model, sched) / 8.0
        assert len(blob) >= est_bytes * 0.98  # cannot beat its own model by much
        assert len(blob) <= est_bytes + max(2.0, 0.01 * est_bytes)

    def test_length_at_least_information_content(self):
        rng = np.random.default_rng(5)
        model = make_model(2, sigma=0.8)
        sched = quantizer.channel_schedule(0.4, 0.0, 2)
        sym = quantizer.quantize(rng.normal(size=(3000, 2)), sched)
        blob = entropy.encode_symbols(sym, model, sched)
        est_bits = entropy.rate_bits(quantizer.dequantize(sym, sched), model, sched)
        # 16-bit frequency quantization can undercut the float model slightly
        assert len(blob) * 8 >= est_bits * 0.99

    def test_rate_step_monotonicity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0.0, 1.0, size=(5000, 3))
        small = quantizer.channel_schedule(0.3, 0.0, 3)
        big = quantizer.channel_schedule(0.6, 0.0, 3)
        blobs = {}
        for name, sched in (("small", small), ("big", big)):
            sym = quantizer.quantize(x, sched)
            sigma = np.maximum(quantizer.dequantize(sym, sched).std(axis=0), 1e-4)
            model = entropy.GaussianEntropyModel(mu=np.zeros(3), sigma=sigma)
            blobs[name] = entropy.encode_symbols(sym, model, sched)
        assert len(blobs["big"]) <= len(blobs["small"])
