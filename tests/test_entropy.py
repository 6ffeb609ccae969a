"""Entropy model and interleaved rANS coder tests."""

import functools
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shtc import bench, codec, entropy, quantizer, trainer
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


def normal_cdf(z: float) -> float:
    """Phi(z) from math.erf and math.erfc, in the form Cephes' ndtr takes:
    erf near 0 and erfc in the tails."""
    x = z * math.sqrt(0.5)
    if abs(x) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def coded_tables_reference(mu, sigma, steps):
    """Every coded channel's (member channels, freqs with the escape last),
    from the "Support", "Pairing" and "Tables" paragraphs of
    ``docs/format.md`` alone, one entry at a time: each channel's support and
    bin masses, the pairing rule, a pair's masses as products (first member
    major), then the 16-bit quantization."""
    sizes, masses = [], []
    for m, s, q in zip(map(float, mu), map(float, sigma), map(float, steps)):
        lo = min(max(min(math.floor((m - 8.0 * s) / q), -1), -4096), 4096)
        hi = min(max(max(math.ceil((m + 8.0 * s) / q), 1), lo), 4096)
        sizes.append(hi - lo + 1)
        masses.append([
            max(normal_cdf((k * q + 0.5 * q - m) / s) - normal_cdf((k * q - 0.5 * q - m) / s), 0.0)
            for k in range(lo, hi + 1)
        ])
    out, j = [], 0
    while j < len(sizes):
        if j + 1 < len(sizes) and sizes[j] * sizes[j + 1] <= 1024:
            members, p = (j, j + 1), [a * b for a in masses[j] for b in masses[j + 1]]
        else:
            members, p = (j,), masses[j]
        budget = 65536 - (len(p) + 1)
        freqs = [math.floor(v * budget) + 1 for v in p]
        esc = math.floor(max(0.0, 1.0 - math.fsum(p)) * budget) + 1
        freqs[p.index(max(p))] += 65536 - sum(freqs) - esc
        out.append((members, freqs + [esc]))
        j += len(members)
    return out


def coded_tables(tables):
    """``build_tables``' coded channels in the form of ``coded_tables_reference``."""
    return [
        (tuple(np.flatnonzero(tables.coded == c).tolist()),
         tables.freq[tables.start[c] : tables.start[c] + tables.entries[c] + 1].astype(np.int64).tolist())
        for c in range(tables.start.size)
    ]


def reference_decode(rows, data, model, steps):
    """A second decoder, the oracle of ``entropy.decode``'s slot table: each
    step finds the lanes' entries with a sorted search of ``(c << 16) | slot``
    in the running total of the frequencies, whose last value leads every
    slot to the pad. It reads only the frequency tables."""
    channels = model.n
    if not rows:
        if data:
            raise DecodeError("nonempty payload for zero rows")
        return np.zeros((0, channels), dtype=np.int64)
    tables = entropy.build_tables(model, steps)
    coded = tables.start.size
    width, n_steps = entropy.lane_grid(rows, coded < channels)
    lanes = width * coded
    head = 4 * lanes
    if len(data) < head or (len(data) - head) % 2:
        raise DecodeError(f"payload of {len(data)} bytes does not fit {lanes} lane states and words")
    x = np.frombuffer(data, dtype="<u4", count=lanes).astype(np.uint64)
    if np.any(x < 1 << 16):
        raise DecodeError("lane state out of range")
    area = np.frombuffer(data, dtype="<u2", offset=head).astype(np.uint64)
    freq, cum = tables.freq, tables.cum
    key = np.cumsum(freq[:-1])
    chan_key = (np.arange(lanes, dtype=np.uint64) % np.uint64(coded)) << np.uint64(16)
    last_key = np.where(np.arange(lanes) < rows * coded - (n_steps - 1) * lanes, chan_key, key[-1])
    entries = np.empty((n_steps, lanes), dtype=np.intp)
    pos = 0
    for t in range(n_steps):
        slot = x & np.uint64(0xFFFF)
        e = entries[t] = key.searchsorted((last_key if t == n_steps - 1 else chan_key) | slot, side="right")
        x = (x >> np.uint64(16)) * freq[e] + slot - cum[e]
        need = x < 1 << 16
        k = np.count_nonzero(need)
        if k:
            if pos + k > area.size:
                raise DecodeError("entropy payload truncated")
            x[need] = (x[need] << np.uint64(16)) | area[pos : pos + k]
            pos += k
    if np.any(x != 1 << 16):
        raise DecodeError("lane does not end at its initial state")
    at = entries.reshape(-1)[: rows * coded].reshape(rows, coded)[:, tables.coded]
    sym = tables.value[at, tables.member]
    escaped = sym == entropy._ESCAPED
    n_escaped = np.count_nonzero(escaped)
    if pos + 2 * n_escaped != area.size:
        raise DecodeError("payload length does not match decoded symbols")
    if n_escaped:
        raw = np.frombuffer(data, dtype="<u4", offset=len(data) - 4 * n_escaped).astype(np.int64) - 2**31
        chan = np.nonzero(escaped)[1]
        inside = (raw >= tables.lo[chan]) & (raw < tables.lo[chan] + tables.size[chan])
        if np.logical_and.reduceat(inside, np.flatnonzero(tables.member[chan] == 0)).any():
            raise DecodeError("escaped symbol lies inside its table")
        sym[escaped] = raw
    return sym


class TestTables:
    def test_matches_per_channel_reference(self):
        # erf and ndtr may differ in the last ulp, which can move one floor
        # by 1: allow at most 1 count per entry and the same support; each
        # channel coded alone has its own table
        rng = np.random.default_rng(9)
        alone = 0
        for _ in range(40):
            n = int(rng.integers(1, 6))
            model = entropy.GaussianEntropyModel(
                mu=rng.normal(size=n) * 3, sigma=np.exp(rng.normal(size=n) * 1.5)
            )
            sched = quantizer.channel_schedule(float(rng.uniform(0.05, 2.0)), 0.1, n)
            tables = entropy.build_tables(model, sched.steps)
            for j in range(n):
                lo, freqs = channel_table_reference(model.mu[j], model.sigma[j], sched.steps[j])
                assert tables.lo[j] == lo and tables.size[j] == len(freqs) - 1
                c = tables.coded[j]
                if tables.entries[c] != tables.size[j]:
                    continue  # a member of a pair
                alone += 1
                a, b = tables.start[c], tables.start[c] + tables.entries[c] + 1
                ours = tables.freq[a:b].astype(np.int64)
                assert ours.size == len(freqs)
                assert ours.sum() == 65536 and ours.min() >= 1
                assert np.abs(ours - freqs).max() <= 1
                assert np.array_equal(tables.cum[a:b], np.cumsum(ours) - ours)
        assert alone >= 40

    def test_pad_entry_search_key_and_values(self):
        # after the last coded channel, a pad entry (freq 2^16, cum 0) that
        # the all-zero last block of slot_entry yields; every slot of coded
        # channel c's block names the entry of c whose interval holds it, and
        # c's intervals run to 2^16 at its escape entry. Channels 0 and 1 (33
        # symbols each) are coded alone, 2 and 3 (65 and 12) as a pair.
        model = entropy.GaussianEntropyModel(mu=np.array([0.0, 3.0, -1.0, 0.2]), sigma=np.array([1.0, 0.5, 4.0, 0.3]))
        tables = entropy.build_tables(model, np.array([0.5, 0.25, 1.0, 0.5]))
        assert all(not a.flags.writeable for a in vars(tables).values())
        assert tables.size.tolist() == [33, 33, 65, 12]
        assert tables.coded.tolist() == [0, 1, 2, 2] and tables.member.tolist() == [0, 0, 0, 1]
        assert tables.entries.tolist() == [33, 33, 65 * 12]
        assert (tables.freq[-1], tables.cum[-1]) == (65536, 0)
        assert np.all(tables.value[-1] == entropy._ESCAPED)
        assert tables.slot_entry.dtype == np.uint16 and tables.slot_entry.shape == (4 << 16,)
        escape = tables.start + tables.entries
        assert np.all(tables.cum[escape] + tables.freq[escape] == 1 << 16)
        assert np.all(tables.value[escape] == entropy._ESCAPED)
        slots = np.arange(1 << 16, dtype=np.uint64)
        for c in range(3):
            own = slice(tables.start[c], escape[c] + 1)
            assert np.array_equal(tables.cum[own] + tables.freq[own], np.cumsum(tables.freq[own]))
            local = tables.slot_entry[c << 16 : (c + 1) << 16]
            assert local.max() == tables.entries[c]  # the escape entry
            e = tables.start[c] + local
            assert np.all((tables.cum[e] <= slots) & (slots < tables.cum[e] + tables.freq[e]))
        for j in (0, 1):  # alone: the channel's symbols in order
            values = tables.value[tables.start[j] : escape[j]]
            assert np.array_equal(values[:, 0], tables.lo[j] + np.arange(tables.size[j]))
            assert np.all(values[:, 1] == entropy._ESCAPED)
        # the pair: first member major
        i, k = np.divmod(np.arange(65 * 12), 12)
        pair = tables.value[tables.start[2] : escape[2]]
        assert np.array_equal(pair, np.stack((tables.lo[2] + i, tables.lo[3] + k), 1))
        assert not tables.slot_entry[3 << 16 :].any()  # the pad's block: local entry 0 of the pad

    @pytest.mark.parametrize(
        "n, sigma, coded, entries",
        [
            (5, 1e-6, 3, 2 * 10 + 4 + 1),
            (2, 1e4, 2, 2 * 8194 + 1),
            (200, 1e-6, 100, 100 * 10 + 1),
            (500, 1e-6, 250, 250 * 10 + 1),
        ],
        ids=["minimal", "clipped", "many", "more"],
    )
    def test_memory_bound(self, n, sigma, coded, entries):
        # the bytes the docstring of build_tables states: kept, exactly, and
        # the tracemalloc peak of a build. Five channels of 3 symbols (the
        # least support) code as two pairs and one alone; two channels clipped
        # at +/-4096 hold 8193 symbols and the escape each; 200 and 500
        # channels of 3 symbols code as 100 and 250 pairs; the pad is one
        # more. Nothing kept grows with channels times coded channels: at 500
        # channels a float32 (channels, coded channels) array would be
        # 500 KB, more than the peak's slack of about 330 KB.
        model = make_model(n, sigma=sigma)
        tables = entropy.build_tables(model, np.ones(n))
        assert (tables.start.size, tables.freq.size) == (coded, entries)
        kept = ((coded + 1) << 17) + 32 * entries + 16 * coded + 32 * n
        assert sum(a.nbytes for a in vars(tables).values()) == kept
        del tables
        tracemalloc.start()
        try:
            entropy.build_tables(model, np.ones(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept < peak <= kept + 48 * entries + 768 * coded + (16 << 10)

    def test_steps_must_match_model(self):
        with pytest.raises(DimMismatch):
            entropy.build_tables(make_model(3), np.ones(2))


def sized_channel(size, q=0.5):
    """``(mu, sigma, step)`` of a channel whose table holds exactly ``size``
    (at least 3) symbols: its support runs from ``lo + 0.45`` to ``hi - 0.25``
    steps, and ``mu`` lies 0.1 steps off a bin centre or edge."""
    lo = -(size // 2)
    hi = lo + size - 1
    return ((lo + hi) / 2 + 0.1) * q, ((hi - lo) / 2 - 0.35) * q / 8.0, q


@st.composite
def channel_params(draw):
    """One channel's ``(mu, sigma, step)``: a plain table, a tiny or a huge
    sigma, a mean far enough out to clip the support at +/-4096, or a table
    of a size whose products with its neighbours' land at 1023, 1024 or 1025
    entries. The mean stays at least 0.05 steps off a bin edge, so no two
    bins tie for the most probable."""
    kind = draw(st.sampled_from(("plain", "tiny", "huge", "far", "sized")))
    q = draw(st.floats(0.05, 2.0))
    mu = q * (draw(st.integers(-10, 10)) + draw(st.floats(-0.45, 0.45)))
    if kind == "plain":
        return mu, q * math.exp(draw(st.floats(-2.0, 4.0))), q
    if kind == "tiny":
        return mu, q * 10.0 ** draw(st.floats(-9.0, -3.0)), q
    if kind == "huge":  # 8 sigma of at least 5048 steps: clipped to +/-4096
        return mu, q * 10.0 ** draw(st.floats(2.8, 3.2)), q
    if kind == "far":
        far = q * (draw(st.sampled_from((-1, 1))) * draw(st.integers(4000, 6000)) + draw(st.floats(-0.45, 0.45)))
        return far, q * math.exp(draw(st.floats(-2.0, 2.0))), q
    return sized_channel(draw(st.sampled_from((3, 25, 31, 32, 33, 41))), q)


@functools.cache
def fit_std_bundle():
    """The bundle the seed-1 ``fit-std`` benchmark fits, and its table."""
    x = bench.synth_source(bench.SyntheticSpec(seed=1))
    config = trainer.TrainConfig(lam=0.004, iters=300, seed=0)
    return trainer.train(x, codec.default_configs(x.shape[1]), config)[0], x


class TestPairTables:
    """``build_tables`` equals, entry for entry, the tables that
    ``coded_tables_reference`` builds from ``docs/format.md`` alone."""

    def test_trained_model_matches_reference(self):
        # the 30 channels of the seed-1 fit-std bundle code as 17 symbols a row
        model, steps, _ = codec._file_model(fit_std_bundle()[0])
        reference = coded_tables_reference(model.mu, model.sigma, steps)
        assert (model.n, len(reference)) == (30, 17)
        assert coded_tables(entropy.build_tables(model, steps)) == reference

    @settings(max_examples=60, deadline=None)
    @given(channels=st.lists(channel_params(), min_size=1, max_size=6))
    def test_models_match_reference(self, channels):
        mu, sigma, steps = (np.array(v) for v in zip(*channels))
        model = entropy.GaussianEntropyModel(mu=mu, sigma=sigma)
        assert coded_tables(entropy.build_tables(model, steps)) == coded_tables_reference(mu, sigma, steps)

    @pytest.mark.parametrize(
        "sizes, members",
        [
            ((31, 33), [(0, 1)]),  # 1023 entries
            ((32, 32), [(0, 1)]),  # 1024
            ((25, 41), [(0,), (1,)]),  # 1025: each alone
            ((41, 25, 33), [(0,), (1, 2)]),  # greedy, in channel order
            ((3, 3, 3, 3, 3), [(0, 1), (2, 3), (4,)]),
            ((33, 31, 33), [(0, 1), (2,)]),
        ],
    )
    def test_pair_cap(self, sizes, members):
        mu, sigma, steps = (np.array(v) for v in zip(*map(sized_channel, sizes)))
        model = entropy.GaussianEntropyModel(mu=mu, sigma=sigma)
        tables = entropy.build_tables(model, steps)
        assert tables.size.tolist() == list(sizes)
        assert [m for m, _ in coded_tables(tables)] == members
        assert entropy.pairing(model, steps).tolist() == [m[0] for m in members]
        assert tables.entries.tolist() == [math.prod(sizes[j] for j in m) for m in members]

    def test_pair_escapes(self):
        # a pair escapes when either member is outside its table, and sends
        # both raw values, in symbol order; its in-table member's raw value is
        # just what it is
        q = 1.0
        model = entropy.GaussianEntropyModel(mu=np.zeros(2), sigma=np.full(2, 0.5))  # 9 symbols each
        sym = np.array([[0, 0], [5000, 1], [-1, -6000], [7000, 8000], [2, -3]], dtype=np.int64)
        coded = entropy.encode(sym, model, np.full(2, q))
        assert entropy.pairing(model, np.full(2, q)).tolist() == [0]
        raw = np.frombuffer(coded[-24:], dtype="<u4").astype(np.int64) - 2**31
        assert raw.tolist() == [5000, 1, -1, -6000, 7000, 8000]
        assert np.array_equal(entropy.decode(5, coded, model, np.full(2, q)), sym)


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

    def test_golden_pair_bytes(self):
        # two channels of 9 symbols code as one pair of 81 entries on 4 lanes,
        # one step. Lane 0 codes (0, 0), entry 40 (freq 30519, cum 17508),
        # from L to 2 * 2^16 + 2^16 % 30519 + 17508; lane 1 codes (1, -1),
        # entry 48; lane 2 codes the escape entry (freq 1), emitting one word
        # from L; lane 3 idles at L. The escaped pair sends both raw values,
        # 5000 and 0, each + 2^31
        model = entropy.GaussianEntropyModel(mu=np.zeros(2), sigma=np.full(2, 0.5))
        sched = quantizer.channel_schedule(1.0, 0.0, 2)
        sym = np.array([[0, 0], [1, -1], [5000, 0]], dtype=np.int64)
        blob = entropy.encode_symbols(sym, model, sched)
        assert blob.hex() == "f655020040da2800ffff01000000010000008813008000000080"
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
        # lanes = 2 * coded channels * blocks, blocks = max(1, rows div 4096),
        # twice that in a latent with a pair. Three channels of 49 symbols
        # are coded alone; of 17 symbols, channels 0 and 1 pair and 2 is alone
        n = 3
        for paired in (False, True):
            coded = 2 if paired else 3
            width, steps = entropy.lane_grid(rows, paired)
            assert width == (4 if paired else 2) * blocks
            assert width * (steps - 1) < rows <= width * steps  # the least steps that take every row
            assert steps <= (2048 if paired else 4096)  # reached at 8191 rows
            lanes = coded * width
            rng = np.random.default_rng(rows)
            sigma = 0.5 if paired else 1.5
            model = make_model(n, sigma=sigma)
            sched = quantizer.channel_schedule(0.5, 0.0, n)
            assert entropy.pairing(model, sched.steps).size == coded
            sym = quantizer.quantize(rng.normal(0.0, sigma, size=(rows, n)), sched)
            flat = sym.reshape(-1)
            # escapes on the first and last lane of a step, and on the last
            # symbol; coded symbol k is in row k div coded, and its last
            # channel is the last of its row or, in a pair, the first's
            # neighbour. At 1, 8193 and 12289 rows the last symbol is in a
            # partial last step, and at 1 and 2 rows there are no more
            # symbols than lanes
            last = [1, 2] if paired else [0, 1, 2]
            escapes = {
                n * (k // coded) + last[k % coded] for k in (0, lanes - 1, lanes, 2 * lanes - 1) if k < rows * coded
            } | {flat.size - 1}
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
    the bytes (sha256) that a whole-table gather gives, and decode back
    (re-pinned at bitstream v7, whose payloads decode to the same symbols)."""

    PINNED = {
        255: "efcd609caff55c20d13b12cab0f51a694e03c991394f33f0bc25f86c2c08b117",
        256: "30a3a693e4c12579a154261aef759b852c06bd8c264ecdb1f06d458c82f231c8",
        257: "6d8833337cf529ee134e6ffc718d7762cb779e5bba22e848238fa4035c9a232e",
        513: "754fe6fc4d1ce6782cc0c54f5cc230b6a48ca5c73fd9653d91da8f2d4f691fee",
    }

    @pytest.mark.parametrize("n_steps", [255, 256, 257, 513])
    def test_bytes_pinned_across_chunk_edges(self, n_steps):
        assert entropy._CHUNK == 256
        n = 3
        # 4 lanes per coded channel below 4096 rows: a partial last step
        rows = 4 * n_steps - 1
        assert entropy.lane_grid(rows, True) == (4, n_steps)
        rng = np.random.default_rng(n_steps)
        model = entropy.GaussianEntropyModel(mu=0.3 * rng.normal(size=n), sigma=np.exp(0.5 * rng.normal(size=n)))
        steps = np.array([0.5, 0.75, 1.0])
        assert entropy.pairing(model, steps).size == 2  # a pair and a channel alone
        sym = np.floor(rng.normal(0.0, 2.0, size=(rows, n)) / steps + 0.5).astype(np.int64)
        sym[0, 0], sym[rows // 2, 1], sym[-1, -1] = 5000, -7000, 6000  # escapes
        blob = entropy.encode(sym, model, steps)
        assert hashlib.sha256(blob).hexdigest() == self.PINNED[n_steps]
        assert np.array_equal(entropy.decode(rows, blob, model, steps), sym)


class TestReferenceDecode:
    """``entropy.decode`` gives the symbols ``reference_decode``, its sorted
    search, gives."""

    @pytest.mark.parametrize(
        "hex_blob, mu, sigma, step, sym",
        [
            ("6e8450007b7c71006c230800ffff0100000088130080", [0.0, 0.5], [1.0, 2.0], 0.5,
             [[0, 1], [-2, 5000], [3, -1]]),
            ("f655020040da2800ffff01000000010000008813008000000080", [0.0, 0.0], [0.5, 0.5], 1.0,
             [[0, 0], [1, -1], [5000, 0]]),
        ],
        ids=["golden", "golden-pair"],
    )
    def test_golden_payloads(self, hex_blob, mu, sigma, step, sym):
        # the payloads TestRoundTrip pins
        model = entropy.GaussianEntropyModel(mu=np.array(mu), sigma=np.array(sigma))
        steps = quantizer.channel_schedule(step, 0.0, 2).steps
        blob = bytes.fromhex(hex_blob)
        assert np.array_equal(entropy.decode(3, blob, model, steps), sym)
        assert np.array_equal(reference_decode(3, blob, model, steps), sym)

    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.lists(channel_params(), min_size=1, max_size=6),
        rows=st.integers(1, 300),
        seed=st.integers(0, 10_000),
        escapes=st.lists(st.integers(0, 1799), max_size=4),
    )
    def test_models_with_escapes(self, channels, rows, seed, escapes):
        # tiny and huge sigma, +/-4096 clips and pair products of 1023, 1024
        # and 1025 entries, with symbols across each table and escapes
        mu, sigma, steps = (np.array(v) for v in zip(*channels))
        model = entropy.GaussianEntropyModel(mu=mu, sigma=sigma)
        tables = entropy.build_tables(model, steps)
        rng = np.random.default_rng(seed)
        sym = tables.lo + rng.integers(0, tables.size, size=(rows, model.n))
        flat = sym.reshape(-1)
        for i, k in enumerate(escapes):
            flat[k % flat.size] = (5000 + k, -(2**31), 2**31 - 1, -5000 - k)[i]
        coded = entropy.encode(sym, model, steps)
        assert np.array_equal(entropy.decode(rows, coded, model, steps), sym)
        assert np.array_equal(reference_decode(rows, coded, model, steps), sym)

    def test_trained_model(self):
        # the seed-1 fit-std file's payload: 1250 steps of 272 lanes
        bundle, x = fit_std_bundle()
        payload = codec.encode_table(bundle, x)[0]
        model, steps, _ = codec._file_model(bundle)
        sym = entropy.decode(payload.rows, payload.data, model, steps)
        assert entropy.lane_grid(payload.rows, True) == (16, 1250) and entropy.pairing(model, steps).size == 17
        assert np.array_equal(sym, reference_decode(payload.rows, payload.data, model, steps))

    def test_short_payload_refused_before_tables(self, monkeypatch):
        # a payload without every lane state (6 here), or with a state below
        # 2^16, is refused before any table is built
        blob, sym, model, sched = TestHostilePayload.coded()

        def build_tables(*args):
            raise AssertionError("tables built for a payload the lanes refuse")

        monkeypatch.setattr(entropy, "_coder_cache", (None, None))
        monkeypatch.setattr(entropy, "build_tables", build_tables)
        with pytest.raises(DecodeError, match="does not fit"):
            entropy.decode_symbols(blob[: 4 * 6 - 4], sym.size, model, sched)
        with pytest.raises(DecodeError, match="out of range"):
            entropy.decode_symbols(b"\x00" * 4 + blob[4:], sym.size, model, sched)


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
    def latents(rows, shapes=((4, 0.5), (2, 0.4), (5, 0.6))):
        """Latents of ``(channels, sigma)`` at step 0.5. The default ones have
        tables of 17, 15 and 21 symbols, so each pairs its channels among
        its own, in twos, and the last keeps its fifth alone."""
        rng = np.random.default_rng(rows)
        out = []
        for n, sigma in shapes:
            model = make_model(n, sigma=sigma)
            sched = quantizer.channel_schedule(0.5, 0.0, n)
            sym = quantizer.quantize(rng.normal(0.0, sigma, size=(rows, n)), sched)
            flat = sym.reshape(-1)
            width = entropy.lane_grid(rows, True)[0]
            # escapes in the first coded symbol, in the last one of the first
            # step (the last channel of row width - 1), and on the last
            # symbol; a 1-row latent has fewer symbols than lanes
            for k in (0, (min(width, rows) - 1) * n + n - 1, flat.size - 1):
                flat[k] = 100_000 + k
            out.append((sym, model, sched))
        return out

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 8193, 12289])
    def test_round_trip_with_the_bytes_of_each_latent_alone(self, rows):
        # where no pair spans two latents and each latent has a pair, the
        # lane of coded channel c and row residue r codes the symbols of the
        # lane of the same coded channel and residue in c's latent coded
        # alone: the payload is as long as the latents alone together, and its
        # lane states are theirs
        latents = self.latents(rows)
        sym, model, steps = joined(latents)
        coded = entropy.encode(sym, model, steps)
        alone = [entropy.encode_symbols(*latent) for latent in latents]
        own_coded = [entropy.pairing(m, sc.steps).size for _, m, sc in latents]
        assert own_coded == [2, 1, 3] and entropy.pairing(model, steps).size == sum(own_coded)
        assert len(coded) == sum(map(len, alone))
        width = entropy.lane_grid(rows, True)[0]
        states = np.frombuffer(coded, dtype="<u4", count=width * 6).reshape(width, 6)
        c = 0
        for data, n in zip(alone, own_coded):
            own = np.frombuffer(data, dtype="<u4", count=width * n).reshape(width, n)
            assert np.array_equal(states[:, c : c + n], own)
            c += n
        assert np.array_equal(entropy.decode(rows, coded, model, steps), sym)

    @pytest.mark.parametrize("rows", [1, 4095, 8193])
    def test_pairs_span_latents(self, rows):
        # tables of 49, 15 and 97 symbols: no latent pairs its own channels,
        # but the last of the first (49) pairs with the second (15) in the
        # joined latent, which so codes 8 symbols a row for 9 channels
        latents = self.latents(rows, ((3, 1.5), (1, 0.4), (5, 3.0)))
        sym, model, steps = joined(latents)
        assert entropy.pairing(model, steps).tolist() == [0, 1, 2, 4, 5, 6, 7, 8]
        assert all(entropy.pairing(m, sc.steps).size == m.n for _, m, sc in latents)
        coded = entropy.encode(sym, model, steps)
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


def refused(match, data, count, model, sched):
    """``decode_symbols`` of ``data`` raises a ``DecodeError`` matching
    ``match`` under ``entropy.decode`` and under ``reference_decode``."""
    for decoder in (entropy.decode, reference_decode):
        with mock.patch.object(entropy, "decode", decoder), pytest.raises(DecodeError, match=match):
            entropy.decode_symbols(data, count, model, sched)


def decoded_alike(decode_all):
    """``decode_all()`` with ``entropy.decode``, then with ``reference_decode``
    in its place, each within 2 s: its value, equal under both, or None when
    both raise a ``DecodeError`` with the same message."""
    out = []
    for decoder in (entropy.decode, reference_decode):
        start = time.perf_counter()
        with mock.patch.object(entropy, "decode", decoder):
            try:
                out.append(decode_all())
            except DecodeError as err:
                out.append(str(err))
        assert time.perf_counter() - start < 2.0
    ours, theirs = out
    assert type(ours) is type(theirs)
    if isinstance(ours, str):
        assert ours == theirs
        return None
    assert np.array_equal(ours, theirs, equal_nan=True)
    return ours


class TestHostilePayload:
    """Each forgery reaches the one decoder check it names (``match``), under
    ``entropy.decode`` and under ``reference_decode``."""

    @staticmethod
    def coded(rows=300, n=3, seed=12, sigma=1.0):
        rng = np.random.default_rng(seed)
        model = make_model(n, sigma=sigma)
        sched = quantizer.channel_schedule(0.5, 0.0, n)
        sym = quantizer.quantize(rng.normal(size=(rows, n)), sched)
        sym[3, 1] = 77_777  # one escape
        return entropy.encode_symbols(sym, model, sched), sym, model, sched

    def test_forged_count_rejected_before_allocation(self):
        blob, sym, model, sched = self.coded()
        forged = (2**32 - 1) // 3 * 3
        start = time.perf_counter()
        refused("does not fit", blob, forged, model, sched)
        assert time.perf_counter() - start < 1.0

    def test_words_not_whole_rejected(self):
        # a word area of odd length holds no whole number of u16 words
        blob, sym, model, sched = self.coded()
        refused("does not fit", blob + b"\x00", sym.size, model, sched)

    def test_extra_word_rejected(self):
        blob, sym, model, sched = self.coded()
        refused("length does not match", blob + b"\x00" * 2, sym.size, model, sched)

    def test_truncated_words_rejected(self):
        # without its escape and one word, a lane reads past the payload
        blob, sym, model, sched = self.coded()
        refused("truncated", blob[:-6], sym.size, model, sched)

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
        refused("out of range", forged, 1, model, sched)

    def test_lane_not_ending_at_initial_state_rejected(self):
        # raising a one-symbol state by 2^16 keeps its slot: the symbol and the
        # word count are unchanged, and the lane ends above L
        model, sched = make_model(1), quantizer.channel_schedule(0.5, 0.0, 1)
        blob = entropy.encode_symbols(np.zeros((1, 1), dtype=np.int64), model, sched)
        states = np.frombuffer(blob, dtype="<u4").copy()
        assert states.size == 2 and states[1] == 2**16  # lane 1 codes nothing
        states[0] += 2**16
        refused("initial state", states.tobytes(), 1, model, sched)

    def test_payload_for_zero_rows_rejected(self):
        model, sched = make_model(1), quantizer.channel_schedule(0.5, 0.0, 1)
        refused("zero rows", b"\x00\x00", 0, model, sched)

    def test_escape_inside_table_rejected(self):
        blob, sym, model, sched = self.coded()
        forged = blob[:-4] + np.array([2**31], dtype="<u4").tobytes()  # symbol 0
        refused("inside its table", forged, sym.size, model, sched)

    def test_escaped_pair_inside_tables_rejected(self):
        # a pair escapes when either member is outside its table, so an
        # escaped pair whose raw values both lie inside their tables is forged;
        # one member inside is what the encoder writes
        model, sched = make_model(2, sigma=0.25), quantizer.channel_schedule(0.5, 0.0, 2)
        assert entropy.pairing(model, sched.steps).tolist() == [0]  # 9 symbols each
        sym = np.zeros((40, 2), dtype=np.int64)
        sym[3] = 2, 77_777
        blob = entropy.encode_symbols(sym, model, sched)
        assert np.frombuffer(blob[-8:], dtype="<u4").tolist() == [2 + 2**31, 77_777 + 2**31]
        forged = blob[:-4] + np.array([2**31], dtype="<u4").tobytes()  # 77777 -> 0
        refused("inside its table", forged, sym.size, model, sched)
        sym[3] = 77_777, 0
        forged = entropy.encode_symbols(sym, model, sched)[:-8] + np.array([2**31, 2**31], dtype="<u4").tobytes()
        refused("inside its table", forged, sym.size, model, sched)

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
        out = decoded_alike(lambda: entropy.decode_symbols(bytes(data), count, model, sched))
        assert out is None or out.shape == (count // 3, 3)


    @settings(max_examples=200, deadline=None)
    @given(
        cut=st.integers(0, 4000),
        flips=st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 255)), max_size=4),
        count=st.one_of(st.just(None), st.integers(0, 2**32 - 1), st.integers(0, 4000)),
    )
    def test_fuzz_pairs_only_decode_errors(self, cut, flips, count):
        # channels 0 and 1 coded as a pair, 2 alone
        blob, sym, model, sched = self.coded(sigma=0.25)
        data = bytearray(blob[: len(blob) - cut % (len(blob) + 1)])
        for pos, mask in flips:
            if data:
                data[pos % len(data)] ^= mask
        count = sym.size if count is None else count
        out = decoded_alike(lambda: entropy.decode_symbols(bytes(data), count, model, sched))
        assert out is None or out.shape == (count // 3, 3)


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
