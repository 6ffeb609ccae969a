"""Gaussian conditional rate model and an interleaved rANS coder.

The rate estimate integrates a per-channel Gaussian over each quantization
bin. The coder consumes the same Gaussian bin probabilities, quantized to
16-bit frequencies (every interval >= 1), so measured payloads track the
estimate closely. Symbols outside a +/-4096 alphabet are coded as an escape
entry and sent raw as 4-byte values after the coded words.

The coder runs many rANS lanes side by side (Duda, arXiv:1311.2540; Giesen,
arXiv:1402.3392): symbol k goes to lane ``k % lanes`` at step
``k // lanes``, and every numpy step advances all lanes at once. Lane states
live in ``[2^16, 2^32)``, so each costs 4 bytes, and renormalize by whole
16-bit words, so a lane moves at most one word per step. Byte layout:
``docs/format.md``.

A numpy step costs more per call than per lane, so ``encode_latents`` and
``decode_latents`` code every latent of a file in one loop: all of them have
one row count, hence one step count, and each step advances the lanes of
every latent. ``encode_symbols`` and ``decode_symbols`` are the one-latent
case of the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DecodeError, DimMismatch, Overflow
from .quantizer import QuantSchedule

_HAVE_NUMBA = False  # read by the benchmark's environment record; no numba path exists

_FREQ_BITS = 16
_TOTAL = 1 << _FREQ_BITS
_WORD_BITS = 16
_STATE_BITS = 16
_STATE_LOW = 1 << _STATE_BITS  # lane states stay in [_STATE_LOW, _STATE_LOW << _WORD_BITS)
_LANE_ROWS = 4096  # rows per lane block; part of the format
_BLOCK_LANES = 2  # lanes per channel in each lane block; part of the format
_ESCAPE_BIAS = 1 << 31
_ALPHABET_BOUND = 4096
_SUPPORT_Z = 8.0
_PROB_FLOOR = 2.0**-40


@dataclass
class GaussianEntropyModel:
    """Per-channel Gaussian likelihood parameters (sigma strictly positive)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def bin_bits(x: np.ndarray, mu, sigma, steps):
    """Per-element -log2 of the Gaussian mass of the width-``steps`` bin
    centred on each ``x``, the mass floored at ``_PROB_FLOOR``.

    Also returns what a gradient needs: the unfloored mass and the bin's
    standardized lower and upper edges. Shared by :func:`rate_bits` and the
    trainer's rate term, so both price a latent identically.
    """
    half = 0.5 * steps
    z_hi = (x - mu + half) / sigma
    z_lo = (x - mu - half) / sigma
    p = ndtr(z_hi) - ndtr(z_lo)
    return -np.log2(np.maximum(p, _PROB_FLOOR)), p, z_lo, z_hi


def rate_bits(x_hat: np.ndarray, model: GaussianEntropyModel, sched: QuantSchedule) -> float:
    """Estimated bits to code ``x_hat``: -sum log2 of the Gaussian bin mass."""
    x = np.asarray(x_hat, dtype=np.float64)
    if x.shape[-1] != model.n or sched.n != model.n:
        raise DimMismatch("model/schedule/vector channel counts disagree")
    return float(np.sum(bin_bits(x, model.mu, model.sigma, sched.steps)[0]))


@dataclass
class FreqTables:
    """Every channel's 16-bit frequency table, concatenated.

    Channel j owns the entries ``start[j] .. start[j] + size[j]``: symbols
    ``lo[j] .. lo[j] + size[j] - 1``, then its escape entry. ``key`` is the
    running total of all frequencies before an entry; each channel sums to
    exactly 2^16, so ``key = (channel << 16) + cum`` and one sorted search
    over ``key`` maps a channel's slot to its entry.
    """

    lo: np.ndarray
    size: np.ndarray
    start: np.ndarray
    freq: np.ndarray
    cum: np.ndarray
    key: np.ndarray


def build_tables(model: GaussianEntropyModel, sched: QuantSchedule) -> FreqTables:
    """Frequency tables over each channel's plausible symbol range plus escape.

    A pure function of the (serialized) model parameters, so encoder and
    decoder rebuild them identically.
    """
    if sched.n != model.n:
        raise DimMismatch("model/schedule channel counts disagree")
    mu, sigma = model.mu, model.sigma
    step = np.asarray(sched.steps, dtype=np.float64)
    lo = np.floor((mu - _SUPPORT_Z * sigma) / step)
    hi = np.ceil((mu + _SUPPORT_Z * sigma) / step)
    # the zero bin stays in-table even under model mismatch
    lo = np.clip(np.minimum(lo, -1), -_ALPHABET_BOUND, _ALPHABET_BOUND).astype(np.int64)
    hi = np.minimum(np.maximum(np.maximum(hi, 1), lo), _ALPHABET_BOUND).astype(np.int64)
    size = hi - lo + 1
    start = np.concatenate(([0], np.cumsum(size + 1)[:-1]))
    first = start - np.arange(model.n)  # offset of each channel's first symbol
    chan = np.repeat(np.arange(model.n), size)
    s = (np.arange(chan.size) - first[chan] + lo[chan]).astype(np.float64)
    m_c, sig_c, step_c = mu[chan], sigma[chan], step[chan]
    m = chan.size
    cdf = ndtr(np.concatenate((
        (s * step_c + 0.5 * step_c - m_c) / sig_c,
        (s * step_c - 0.5 * step_c - m_c) / sig_c,
    )))
    p = np.maximum(cdf[:m] - cdf[m:], 0.0)
    budget = _TOTAL - (size + 1)
    freqs = np.floor(p * budget[chan]).astype(np.int64) + 1
    esc = np.floor(np.maximum(0.0, 1.0 - np.add.reduceat(p, first)) * budget).astype(np.int64) + 1
    deficit = _TOTAL - np.add.reduceat(freqs, first) - esc
    # the deficit goes to the first most probable symbol of each channel
    peak = np.maximum.reduceat(p, first)
    freqs[np.minimum.reduceat(np.where(p == peak[chan], np.arange(m), m), first)] += deficit
    freq = np.empty(m + model.n, dtype=np.int64)
    freq[np.arange(m) + chan] = freqs
    freq[start + size] = esc
    key = np.cumsum(freq) - freq
    entry_chan = np.repeat(np.arange(model.n), size + 1)
    return FreqTables(
        lo=lo,
        size=size,
        start=start,
        freq=freq.astype(np.uint64),
        cum=(key - (entry_chan << _FREQ_BITS)).astype(np.uint64),
        key=key.astype(np.uint64),
    )


def lane_grid(rows: int) -> tuple[int, int]:
    """The lane rule of a ``rows``-row latent: ``_BLOCK_LANES`` lanes per
    channel for each whole block of ``_LANE_ROWS`` rows (at least one block),
    and the steps that take every row. Returns ``(lanes per channel, steps)``."""
    width = _BLOCK_LANES * max(1, rows // _LANE_ROWS)
    return width, -(-rows // width)


def encode_latents(latents) -> list[bytes]:
    """Entropy-code every latent of a file in one lane loop.

    ``latents`` lists ``(symbols, model, sched)``; each symbol array has shape
    (..., channels) and all of them share one row count, so they share one
    step count. The loop advances the lanes of every latent together, but
    each latent keeps its own lanes, words and escapes: its bytes are exactly
    those of coding it alone (``docs/format.md``).
    """
    syms = []
    for symbols, model, _ in latents:
        sym = np.asarray(symbols, dtype=np.int64)
        n = model.n
        rows = sym.size // n if n else 0
        if rows * n != sym.size:
            raise DimMismatch(f"symbols not divisible into {n} channels")
        syms.append(sym.reshape(rows, n))
    rows = syms[0].shape[0] if syms else 0
    if any(sym.shape[0] != rows for sym in syms):
        raise DimMismatch("latents of one file differ in row count")
    if rows == 0:
        return [b"" for _ in syms]
    width, steps = lane_grid(rows)
    widths = [width * sym.shape[1] for sym in syms]
    # a partial last step is padded with freq 2^16, cum 0: an identity on the state
    freq = np.full((steps, sum(widths)), _TOTAL, dtype=np.uint64)
    cum = np.zeros(freq.shape, dtype=np.uint64)
    raws = []
    a = 0
    for sym, (_, model, sched), lanes in zip(syms, latents, widths):
        tables = build_tables(model, sched)
        idx = sym - tables.lo
        escaped = (idx < 0) | (idx >= tables.size)
        raw = sym[escaped]
        if np.any((raw < -_ESCAPE_BIAS) | (raw >= _ESCAPE_BIAS)):
            raise Overflow("escaped symbol exceeds 32-bit signed range")
        raws.append(raw)
        entry = (np.where(escaped, tables.size, idx) + tables.start).ravel()
        head = (steps - 1) * lanes  # symbols before the last step
        for dst, src in ((freq, tables.freq), (cum, tables.cum)):
            cols = dst[:, a : a + lanes]
            cols[:-1] = src[entry[:head]].reshape(steps - 1, lanes)
            cols[-1, : entry.size - head] = src[entry[head:]]
        a += lanes
    # a state at or above this emits its low word before coding the symbol
    limit = freq << (_STATE_BITS - _FREQ_BITS + _WORD_BITS)
    gap = _TOTAL - freq
    words = np.empty(freq.shape, dtype=np.uint16)
    emitted = np.empty(freq.shape, dtype=bool)
    x = np.full(freq.shape[1], _STATE_LOW, dtype=np.uint64)
    q = np.empty_like(x)
    for t in range(steps - 1, -1, -1):
        out = np.greater_equal(x, limit[t], out=emitted[t])
        words[t] = x  # the low word
        x >>= out * np.uint64(_WORD_BITS)
        # x = (x // f) * 2^16 + x % f + c, computed as x + (x // f) * (2^16 - f) + c
        np.floor_divide(x, freq[t], out=q)
        q *= gap[t]
        x += q
        x += cum[t]
    coded = []
    a = 0
    for lanes, raw in zip(widths, raws):
        cols = slice(a, a + lanes)
        coded.append(
            x[cols].astype("<u4").tobytes()
            + words[:, cols][emitted[:, cols]].astype("<u2").tobytes()
            + (raw + _ESCAPE_BIAS).astype("<u4").tobytes()
        )
        a += lanes
    return coded


def decode_latents(rows: int, latents) -> list[np.ndarray]:
    """Inverse of :func:`encode_latents`: ``latents`` lists
    ``(data, model, sched)``, each latent coding ``rows`` rows.

    Each payload is checked against ``rows`` before anything of that size is
    allocated: it must hold every lane's 4-byte state, so a payload of B
    bytes decodes to fewer than 1024 * B symbols.
    """
    if not rows:
        if any(data for data, *_ in latents):
            raise DecodeError("nonempty payload for zero rows")
        return [np.zeros((0, model.n), dtype=np.int64) for _, model, _ in latents]
    width, steps = lane_grid(rows)
    states, areas = [], []
    for data, model, _ in latents:
        lanes = width * model.n
        head = 4 * lanes
        if len(data) < head or (len(data) - head) % 2:
            raise DecodeError(f"payload of {len(data)} bytes does not fit {lanes} lane states and words")
        states.append(np.frombuffer(data, dtype="<u4", count=lanes))
        areas.append(np.frombuffer(data, dtype="<u2", offset=head).astype(np.uint64))
    x = np.concatenate(states).astype(np.uint64)
    if np.any(x < _STATE_LOW):  # a u32 is below _STATE_LOW << _WORD_BITS
        raise DecodeError("lane state out of range")
    tables = [build_tables(model, sched) for _, model, sched in latents]
    # One sorted search serves every latent: latent i's channels are numbered
    # after those of the latents before it. A last, pad channel holds one
    # entry of freq 2^16, cum 0 (an identity on the state): the lanes idle in
    # a partial last step decode it, so every step runs on every lane.
    first_chan = np.cumsum([0] + [model.n for _, model, _ in latents], dtype=np.uint64)
    pad = first_chan[-1] << np.uint64(_FREQ_BITS)
    key = np.concatenate(
        [t.key + (c << np.uint64(_FREQ_BITS)) for t, c in zip(tables, first_chan)] + [[pad]]
    )[1:]  # key[0] = 0 <= every slot: the search yields the entry itself
    freq = np.concatenate([t.freq for t in tables] + [[_TOTAL]]).astype(np.uint64)
    cum = np.concatenate([t.cum for t in tables] + [[0]]).astype(np.uint64)
    first_entry = np.cumsum([0] + [t.freq.size for t in tables])
    spans, chan_key, last_key = [], [], []
    a = 0
    for (_, model, _), c in zip(latents, first_chan):
        lanes = width * model.n
        spans.append((a, a + lanes))
        keys = (c + np.arange(lanes, dtype=np.uint64) % np.uint64(model.n)) << np.uint64(_FREQ_BITS)
        chan_key.append(keys)
        last_key.append(np.where(np.arange(lanes) < rows * model.n - (steps - 1) * lanes, keys, pad))
        a += lanes
    chan_key = np.concatenate(chan_key)
    step_keys = [chan_key] * (steps - 1) + [np.concatenate(last_key)]
    # numpy scalars: a Python int operand costs a conversion on every step
    mask, low = np.uint64(_TOTAL - 1), np.uint64(_STATE_LOW)
    freq_bits, word_bits = np.uint64(_FREQ_BITS), np.uint64(_WORD_BITS)
    entries = np.empty((steps, x.size), dtype=np.intp)
    need = np.empty(x.size, dtype=bool)
    lane_need = [need[a:b] for a, b in spans]
    pos = [0] * len(latents)
    for t, ck in enumerate(step_keys):
        slot = x & mask
        e = entries[t] = key.searchsorted(ck | slot, side="right")
        x >>= freq_bits
        x *= freq[e]
        x += slot
        x -= cum[e]
        np.less(x, low, out=need)
        # each latent reads its next words from its own area, in lane order
        words = []
        for i, area in enumerate(areas):
            k = np.count_nonzero(lane_need[i])
            if k:
                if pos[i] + k > area.size:
                    raise DecodeError("entropy payload truncated")
                words.append(area[pos[i] : pos[i] + k])
                pos[i] += k
        if words:
            x[need] = (x[need] << word_bits) | np.concatenate(words)
    if np.any(x != _STATE_LOW):
        raise DecodeError("lane does not end at its initial state")
    out = []
    for (data, model, _), t, (a, b), area, p, e0 in zip(latents, tables, spans, areas, pos, first_entry):
        idx = (entries[:, a:b].reshape(-1)[: rows * model.n] - e0).reshape(rows, model.n) - t.start
        escaped = idx == t.size
        n_escaped = np.count_nonzero(escaped)
        # the words read leave exactly one u32, two u16, per escaped symbol
        if p + 2 * n_escaped != area.size:
            raise DecodeError("payload length does not match decoded symbols")
        sym = idx + t.lo
        raw = np.frombuffer(data, dtype="<u4", offset=len(data) - 4 * n_escaped)
        raw = raw.astype(np.int64) - _ESCAPE_BIAS
        chan = np.nonzero(escaped)[1]
        if np.any((raw >= t.lo[chan]) & (raw < t.lo[chan] + t.size[chan])):
            raise DecodeError("escaped symbol lies inside its table")
        sym[escaped] = raw
        out.append(sym)
    return out


def encode_symbols(symbols: np.ndarray, model: GaussianEntropyModel, sched: QuantSchedule) -> bytes:
    """Entropy-code one latent's integer symbols (shape (..., channels)), row-major."""
    return encode_latents([(symbols, model, sched)])[0]


def decode_symbols(
    data: bytes, count: int, model: GaussianEntropyModel, sched: QuantSchedule
) -> np.ndarray:
    """Inverse of :func:`encode_symbols`; ``count`` is the total symbol count."""
    rows, extra = divmod(count, model.n)
    if extra:
        raise DecodeError(f"symbol count {count} not a multiple of {model.n} channels")
    return decode_latents(rows, [(data, model, sched)])[0]
