"""Entropy model and interleaved rANS coder tests."""

import hashlib
import math
import sys
import threading
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
            tables = entropy.build_tables(model, sched.steps)
            for j in range(n):
                lo, freqs = channel_table_reference(model.mu[j], model.sigma[j], sched.steps[j])
                a, b = tables.start[j], tables.start[j] + tables.size[j] + 1
                ours = tables.freq[a:b].astype(np.int64)
                assert tables.lo[j] == lo and ours.size == len(freqs)
                assert ours.sum() == 65536 and ours.min() >= 1
                assert np.abs(ours - freqs).max() <= 1
                assert np.array_equal(tables.cum[a:b], np.cumsum(ours) - ours)

    def test_pad_entry_search_key_and_values(self):
        # after the last channel, a pad entry (freq 2^16, cum 0) that the
        # search of key[-1] + slot yields; each channel's search key runs to
        # (channel + 1) << 16 at its escape entry
        model = entropy.GaussianEntropyModel(mu=np.array([0.0, 3.0, -1.0]), sigma=np.array([1.0, 0.5, 4.0]))
        tables = entropy.build_tables(model, np.array([0.5, 0.25, 1.0]))
        assert all(not a.flags.writeable for a in vars(tables).values())
        assert (tables.freq[-1], tables.cum[-1], tables.value[-1]) == (65536, 0, entropy._ESCAPED)
        assert np.array_equal(tables.key, np.cumsum(tables.freq[:-1]))
        escape = tables.start + tables.size
        assert np.array_equal(tables.key[escape], (np.arange(3) + 1) << 16)
        assert np.all(tables.value[escape] == entropy._ESCAPED)
        slots = np.arange(0, 1 << 16, 97, dtype=np.uint64)
        for j in range(3):
            assert np.array_equal(tables.value[tables.start[j] : escape[j]], tables.lo[j] + np.arange(tables.size[j]))
            e = tables.key.searchsorted((np.uint64(j) << np.uint64(16)) | slots, side="right")
            assert np.all((tables.cum[e] <= slots) & (slots < tables.cum[e] + tables.freq[e]))
        assert np.all(tables.key.searchsorted(tables.key[-1] + slots, side="right") == tables.freq.size - 1)

    def test_steps_must_match_model(self):
        with pytest.raises(DimMismatch):
            entropy.build_tables(make_model(3), np.ones(2))


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


class TestStepChunks:
    """The encoder gathers its tables one chunk of ``_CHUNK`` steps at a time,
    last chunk first. Payloads whose step counts straddle a chunk edge keep
    the bytes (sha256) that the whole-table gather gave, and decode back."""

    PINNED = {
        255: "86d16141876d8cbd6b12fee9eab9cd9e72225fe193be5ac7aa81f07f9566d0f0",
        256: "580be1fc8df6cc162e977cb44b746a8740cf8700635af9cd826ae234e844acee",
        257: "51fc6cb7896450ff3a1fcb007f9a2644323bc335d6960796bad9c9d2287f9c74",
        513: "a26663cba5838851f7e7b057bfcaa1a6687fafd56b97fa037c20309bb695cb7f",
    }

    @pytest.mark.parametrize("n_steps", [255, 256, 257, 513])
    def test_bytes_pinned_across_chunk_edges(self, n_steps):
        assert entropy._CHUNK == 256
        n = 3
        rows = 2 * n_steps - 1  # 2 lanes per channel below 4096 rows: a partial last step
        assert entropy.lane_grid(rows) == (2, n_steps)
        rng = np.random.default_rng(n_steps)
        model = entropy.GaussianEntropyModel(mu=0.3 * rng.normal(size=n), sigma=np.exp(0.5 * rng.normal(size=n)))
        steps = np.array([0.5, 0.75, 1.0])
        sym = np.floor(rng.normal(0.0, 2.0, size=(rows, n)) / steps + 0.5).astype(np.int64)
        sym[0, 0], sym[rows // 2, 1], sym[-1, -1] = 5000, -7000, 6000  # escapes
        blob = entropy.encode(sym, model, steps)
        assert hashlib.sha256(blob).hexdigest() == self.PINNED[n_steps]
        assert np.array_equal(entropy.decode(rows, blob, model, steps), sym)


def joined(latents):
    """The one latent of ``(symbols, model, sched)`` latents of one row count:
    their symbols side by side, one model and one steps array of all their
    channels."""
    syms, models, scheds = zip(*latents)
    model = entropy.GaussianEntropyModel(
        mu=np.concatenate([m.mu for m in models]), sigma=np.concatenate([m.sigma for m in models])
    )
    return np.hstack(syms), model, np.concatenate([sc.steps for sc in scheds])


class TestLatentsLoop:
    """``encode`` / ``decode`` code a file's one latent, the channels of all
    its streams' latents side by side: one lane set, one word area and one
    escape area."""

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
        # the lane of channel j and row residue r codes the symbols of the
        # lane of the same channel and residue in j's latent coded alone: the
        # payload is as long as the latents alone together, and its lane
        # states are theirs
        latents = self.latents(rows)
        sym, model, steps = joined(latents)
        coded = entropy.encode(sym, model, steps)
        alone = [entropy.encode_symbols(*latent) for latent in latents]
        assert len(coded) == sum(map(len, alone))
        width = entropy.lane_grid(rows)[0]
        states = np.frombuffer(coded, dtype="<u4", count=width * model.n).reshape(width, model.n)
        c = 0
        for data, (_, own_model, _) in zip(alone, latents):
            own = np.frombuffer(data, dtype="<u4", count=width * own_model.n).reshape(width, own_model.n)
            assert np.array_equal(states[:, c : c + own_model.n], own)
            c += own_model.n
        assert np.array_equal(entropy.decode(rows, coded, model, steps), sym)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(0, 40),
        n=st.integers(1, 12),
        spread=st.integers(1, 10_000),
        escapes=st.lists(st.integers(0, 479), max_size=4),
    )
    def test_random_latents_against_the_one_latent_api(self, seed, rows, n, spread, escapes):
        # any table of 1 to 12 channels and 0 to 40 rows, with escapes beyond
        # every table and up to the 32-bit limits, decodes to itself; the
        # schedule wrappers code the same bytes
        rng = np.random.default_rng(seed)
        model = entropy.GaussianEntropyModel(mu=rng.normal(size=n), sigma=np.exp(rng.normal(size=n)))
        sched = quantizer.channel_schedule(float(rng.uniform(0.2, 2.0)), 0.1, n)
        sym = rng.integers(-spread, spread, size=(rows, n))
        flat = sym.reshape(-1)
        for i, k in enumerate(escapes):
            if k < flat.size:
                flat[k] = (5000 + k, -(2**31), 2**31 - 1, -5000 - k)[i]
        coded = entropy.encode(sym, model, sched.steps)
        assert coded == entropy.encode_symbols(sym, model, sched)
        decoded = entropy.decode(rows, coded, model, sched.steps)
        assert decoded.shape == (rows, n) and np.array_equal(decoded, sym)

    def test_empty(self):
        model = make_model(5)
        steps = quantizer.channel_schedule(1.0, 0.0, 5).steps
        assert entropy.encode(np.zeros((0, 5), dtype=np.int64), model, steps) == b""
        assert entropy.decode(0, b"", model, steps).shape == (0, 5)

    def test_row_counts_must_agree(self):
        # the encoder refuses a table of other channels than the model's, or
        # not a table; a payload coded over fewer rows than the decoder is
        # given does not decode
        sym, model, steps = joined(self.latents(40))
        for bad in (sym[:, :-1], sym.reshape(-1), sym[None]):
            with pytest.raises(DimMismatch):
                entropy.encode(bad, model, steps)
        coded = entropy.encode(sym[:20], model, steps)
        with pytest.raises(DecodeError):
            entropy.decode(40, coded, model, steps)

    def test_each_latent_checked(self):
        # the one payload of every latent, cut short or one word longer, fails
        sym, model, steps = joined(self.latents(300))
        coded = entropy.encode(sym, model, steps)
        for forged in (coded[:-2], coded + b"\x00" * 2):
            with pytest.raises(DecodeError):
                entropy.decode(300, forged, model, steps)


class TestCoderCache:
    """Alternating the content of one model object and one steps array codes
    every file as a cold cache does: the cache is keyed by content, not by
    object."""

    @staticmethod
    def content(seed, n):
        """One model's ``(mu, sigma, steps)`` over ``n`` channels."""
        rng = np.random.default_rng(seed)
        steps = rng.uniform(0.2, 2.0) * np.exp(rng.uniform(0.0, 0.2) * np.arange(n))
        return rng.normal(0.0, 2.0, n), rng.uniform(0.2, 3.0, n), steps

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        n=st.integers(1, 12),
        rows=st.integers(1, 40),
        order=st.lists(st.integers(0, 1), min_size=2, max_size=6),
    )
    def test_alternating_bundles_match_cold_runs(self, seeds, n, rows, order):
        rng = np.random.default_rng(seeds[0] ^ seeds[1])
        sym = rng.integers(-6, 7, size=(rows, n))
        sym[0, 0] = 5000  # an escape
        bundles = [self.content(seed, n) for seed in seeds]
        model, steps = make_model(n), np.ones(n)

        def load(bundle):  # write a bundle into the one model and steps
            model.mu[:], model.sigma[:], steps[:] = bundle

        cold = []
        for bundle in bundles:
            load(bundle)
            entropy._coder_cache = (None, None)
            cold.append(entropy.encode(sym, model, steps))
        for i in order:
            load(bundles[i])
            coded = entropy.encode(sym, model, steps)
            assert coded == cold[i]
            assert np.array_equal(entropy.decode(rows, coded, model, steps), sym)

    def test_threads_sharing_the_cache(self):
        # threads coding two models by turns each get their own model's
        # bytes: a cache read never pairs one key with other tables
        n = 5
        sym = np.random.default_rng(n).integers(-6, 7, size=(64, n))
        bundles = []
        for seed in (1, 2):
            mu, sigma, steps = self.content(seed, n)
            bundles.append((entropy.GaussianEntropyModel(mu, sigma), steps))
        expected = [entropy.encode(sym, *bundle) for bundle in bundles]
        wrong = []

        def work(k):
            for i in range(60):
                j = (i + k) % 2
                if entropy.encode(sym, *bundles[j]) != expected[j]:
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


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
        tables = entropy.build_tables(model, sched.steps)
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

    def test_payload_for_zero_rows_rejected(self):
        model, sched = make_model(1), quantizer.channel_schedule(0.5, 0.0, 1)
        with pytest.raises(DecodeError, match="zero rows"):
            entropy.decode_symbols(b"\x00\x00", 0, model, sched)

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
