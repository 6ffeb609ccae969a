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

A numpy step costs more per call than per lane, so a file is coded as one
latent: ``encode_latents`` and ``decode_latents`` join the channels of every
latent of the file (all of them have one row count) and run one lane loop
over them, with one lane set, one word area and one escape area. One
frequency table spans those channels, so one sorted search serves the whole
file. ``encode_symbols`` and ``decode_symbols`` are the one-latent case of
the same loop.

Tables are built in one place: ``_coder_state`` calls ``build_tables`` and
derives from them the arrays both loops read (the padded search key and
frequencies, the per-entry symbol values, each channel's table size). It
keeps that state for the last set of models coded, keyed by the exact
float64 ``mu``, ``sigma`` and ``steps`` bytes of every latent, so the files
of one bundle build their tables once and a changed model never reuses them.
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
_ESCAPED = -(1 << 62)  # a decoded escape entry's value, outside every table and escape range


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
    dev = x - mu
    z_hi = (dev + half) / sigma
    z_lo = (dev - half) / sigma
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


def build_tables(models: list[GaussianEntropyModel], scheds: list[QuantSchedule]) -> FreqTables:
    """Frequency tables over each channel's plausible symbol range plus escape.

    ``models`` and ``scheds`` hold one entropy model and step schedule per
    latent; the tables number the channels of every latent in list order, so
    that one search serves a whole file. A pure function of the (serialized)
    model parameters, so encoder and decoder rebuild them identically.
    """
    if any(sc.n != m.n for m, sc in zip(models, scheds, strict=True)):
        raise DimMismatch("model/schedule channel counts disagree")
    mu = np.concatenate([m.mu for m in models])
    sigma = np.concatenate([m.sigma for m in models])
    step = np.concatenate([np.asarray(sc.steps, dtype=np.float64) for sc in scheds])
    n = mu.size
    lo = np.floor((mu - _SUPPORT_Z * sigma) / step)
    hi = np.ceil((mu + _SUPPORT_Z * sigma) / step)
    # the zero bin stays in-table even under model mismatch
    lo = np.clip(np.minimum(lo, -1), -_ALPHABET_BOUND, _ALPHABET_BOUND).astype(np.int64)
    hi = np.minimum(np.maximum(np.maximum(hi, 1), lo), _ALPHABET_BOUND).astype(np.int64)
    size = hi - lo + 1
    start = np.concatenate(([0], np.cumsum(size + 1)[:-1]))
    first = start - np.arange(n)  # offset of each channel's first symbol
    chan = np.repeat(np.arange(n), size)
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
    freq = np.empty(m + n, dtype=np.int64)
    freq[np.arange(m) + chan] = freqs
    freq[start + size] = esc
    key = np.cumsum(freq) - freq
    entry_chan = np.repeat(np.arange(n), size + 1)
    return FreqTables(
        lo=lo,
        size=size,
        start=start,
        freq=freq.astype(np.uint64),
        cum=(key - (entry_chan << _FREQ_BITS)).astype(np.uint64),
        key=key.astype(np.uint64),
    )


@dataclass(frozen=True)
class _CoderState:
    """What both lane loops read of one set of models' tables, padded with
    one last entry of freq 2^16, cum 0 (an identity on the state) that idle
    lanes of a partial last step code. Its arrays are read-only.

    ``key`` is the search key, shifted by one entry so that a sorted search
    yields the entry itself; ``value`` maps an entry to its symbol, with
    ``_ESCAPED`` at escape entries and the pad; ``size`` is each channel's
    symbol count as uint64, the index of its escape entry within its table.
    """

    tables: FreqTables
    key: np.ndarray
    freq: np.ndarray
    cum: np.ndarray
    value: np.ndarray
    size: np.ndarray


_coder_cache: tuple = (None, None)  # (content key, _CoderState) of the last models coded


def _coder_state(models: list[GaussianEntropyModel], scheds: list[QuantSchedule]) -> _CoderState:
    """The coder state of ``models`` and ``scheds``, built on a miss of the
    one-entry cache. The key is every byte ``build_tables`` reads, with the
    length of each array, so equal keys mean equal tables. Threads that miss
    together each build; the cache keeps whichever state was written last."""
    global _coder_cache
    params = [np.asarray(a, dtype=np.float64) for m, sc in zip(models, scheds) for a in (m.mu, m.sigma, sc.steps)]
    key = (tuple(a.size for a in params), np.concatenate(params).tobytes())
    cached_key, state = _coder_cache  # one read: a key never pairs with another key's state
    if cached_key == key:
        return state
    tables = build_tables(models, scheds)  # the module global, so a rebinding of it sees the call
    for a in vars(tables).values():
        a.flags.writeable = False
    pad = np.uint64(tables.lo.size << _FREQ_BITS)
    value = np.append(np.arange(tables.freq.size) - np.repeat(tables.start - tables.lo, tables.size + 1), _ESCAPED)
    value[tables.start + tables.size] = _ESCAPED
    state = _CoderState(
        tables=tables,
        key=_read_only(np.append(tables.key[1:], pad)),  # key[0] = 0 <= every slot
        freq=_read_only(np.append(tables.freq, np.uint64(_TOTAL))),
        cum=_read_only(np.append(tables.cum, np.uint64(0))),
        value=_read_only(value),
        size=_read_only(tables.size.astype(np.uint64)),
    )
    _coder_cache = (key, state)
    return state


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def lane_grid(rows: int) -> tuple[int, int]:
    """The lane rule of a ``rows``-row latent: ``_BLOCK_LANES`` lanes per
    channel for each whole block of ``_LANE_ROWS`` rows (at least one block),
    and the steps that take every row. Returns ``(lanes per channel, steps)``."""
    width = _BLOCK_LANES * max(1, rows // _LANE_ROWS)
    return width, -(-rows // width)


def _entries(state: _CoderState, syms: list[np.ndarray], padded_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The table entry of each symbol of the one latent that joins ``syms``
    by columns, as a (``padded_rows``, channels) array, and the escaped
    symbols' values in symbol order. Rows past the symbols', in a partial
    last step, take the pad entry: freq 2^16, cum 0, an identity on the state.
    """
    tables = state.tables
    channels = tables.lo.size
    entry = np.full((padded_rows, channels), state.freq.size - 1, dtype=np.int64)
    found = []  # (symbol index, value) of each latent's escapes
    c = 0
    for sym in syms:
        cols = slice(c, c + sym.shape[1])
        e = entry[: sym.shape[0], cols]  # written in place: no copy of the symbols
        # a symbol's index in its channel's table; below lo it wraps to above
        # 2^63, so both out-of-table sides clip to the escape entry at size
        np.subtract(sym, tables.lo[cols], out=e)
        index = e.view(np.uint64)
        np.minimum(index, state.size[cols], out=index)
        r, k = np.nonzero(index == state.size[cols])
        found.append((r * channels + c + k, sym[r, k]))
        e += tables.start[cols]
        c = cols.stop
    at, raw = (np.concatenate(a) for a in zip(*found))
    return entry, raw[np.argsort(at)]


def encode_latents(latents) -> bytes:
    """Entropy-code the latents of a file as one latent of all their channels.

    ``latents`` lists ``(symbols, model, sched)``; each symbol array has shape
    (..., channels), and all of them one row count. The one latent takes the
    channels of every latent in list order (``docs/format.md``), so a single
    latent codes to the bytes of :func:`encode_symbols`.
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
        return b""
    state = _coder_state([model for _, model, _ in latents], [sched for *_, sched in latents])
    width, steps = lane_grid(rows)
    entry, raw = _entries(state, syms, steps * width)
    if np.any((raw < -_ESCAPE_BIAS) | (raw >= _ESCAPE_BIAS)):
        raise Overflow("escaped symbol exceeds 32-bit signed range")
    # symbol k goes to lane k % lanes at step k // lanes
    freq = state.freq[entry].reshape(steps, -1)
    cum = state.cum[entry].reshape(steps, -1)
    del entry
    # a state at or above this emits its low word before coding the symbol
    limit = freq << (_STATE_BITS - _FREQ_BITS + _WORD_BITS)
    gap = _TOTAL - freq
    words = np.empty(freq.shape, dtype=np.uint16)
    emitted = np.empty(freq.shape, dtype=bool)
    x = np.full(freq.shape[1], _STATE_LOW, dtype=np.uint64)
    q = np.empty_like(x)
    word_bits = np.uint64(_WORD_BITS)
    for t in range(steps - 1, -1, -1):
        emit = np.greater_equal(x, limit[t], out=emitted[t])
        words[t] = x  # the low word
        np.right_shift(x, word_bits, out=x, where=emit)
        # x = (x // f) * 2^16 + x % f + c, computed as x + (x // f) * (2^16 - f) + c
        np.floor_divide(x, freq[t], out=q)
        q *= gap[t]
        x += q
        x += cum[t]
    return (
        x.astype("<u4").tobytes()
        + words[emitted].astype("<u2").tobytes()
        + (raw + _ESCAPE_BIAS).astype("<u4").tobytes()
    )


def decode_latents(rows: int, data: bytes, models) -> list[np.ndarray]:
    """Inverse of :func:`encode_latents`: the latents of ``rows`` rows that
    ``data`` codes under ``models``, a list of ``(model, sched)``. Returns
    each latent's columns of one (rows, channels) symbol array.

    The payload is checked against ``rows`` before anything of that size is
    allocated: it must hold every lane's 4-byte state, so a payload of B
    bytes decodes to fewer than 1024 * B symbols.
    """
    ends = np.cumsum([0] + [model.n for model, _ in models]).tolist()
    channels = ends[-1]
    if not rows:
        if data:
            raise DecodeError("nonempty payload for zero rows")
        sym = np.zeros((0, channels), dtype=np.int64)
        return [sym[:, a:b] for a, b in zip(ends, ends[1:])]
    width, steps = lane_grid(rows)
    lanes = width * channels
    head = 4 * lanes
    if len(data) < head or (len(data) - head) % 2:
        raise DecodeError(f"payload of {len(data)} bytes does not fit {lanes} lane states and words")
    x = np.frombuffer(data, dtype="<u4", count=lanes).astype(np.uint64)
    if np.any(x < _STATE_LOW):  # a u32 is below _STATE_LOW << _WORD_BITS
        raise DecodeError("lane state out of range")
    area = np.frombuffer(data, dtype="<u2", offset=head).astype(np.uint64)
    state = _coder_state([model for model, _ in models], [sched for _, sched in models])
    # Lane l codes channel l % channels. The lanes idle in a partial last
    # step decode the pad entry, so every step runs on every lane.
    key, freq, cum = state.key, state.freq, state.cum
    chan_key = (np.arange(lanes, dtype=np.uint64) % np.uint64(channels)) << np.uint64(_FREQ_BITS)
    last_key = np.where(np.arange(lanes) < rows * channels - (steps - 1) * lanes, chan_key, key[-1])
    step_keys = [chan_key] * (steps - 1) + [last_key]
    # numpy scalars: a Python int operand costs a conversion on every step
    mask, low = np.uint64(_TOTAL - 1), np.uint64(_STATE_LOW)
    freq_bits, word_bits = np.uint64(_FREQ_BITS), np.uint64(_WORD_BITS)
    entries = np.empty((steps, lanes), dtype=np.intp)
    need = np.empty(lanes, dtype=bool)
    pos = 0  # words read, in lane order within a step
    for t, ck in enumerate(step_keys):
        slot = x & mask
        e = entries[t] = key.searchsorted(ck | slot, side="right")
        x >>= freq_bits
        x *= freq[e]
        x += slot
        x -= cum[e]
        np.less(x, low, out=need)
        k = np.count_nonzero(need)
        if k:
            if pos + k > area.size:
                raise DecodeError("entropy payload truncated")
            x[need] = (x[need] << word_bits) | area[pos : pos + k]
            pos += k
    if np.any(x != _STATE_LOW):
        raise DecodeError("lane does not end at its initial state")
    sym = state.value[entries].reshape(-1)[: rows * channels].reshape(rows, channels)
    escaped = sym == _ESCAPED
    n_escaped = np.count_nonzero(escaped)
    # the words read leave exactly one u32, two u16, per escaped symbol
    if pos + 2 * n_escaped != area.size:
        raise DecodeError("payload length does not match decoded symbols")
    raw = np.frombuffer(data, dtype="<u4", offset=len(data) - 4 * n_escaped).astype(np.int64) - _ESCAPE_BIAS
    tables = state.tables
    chan = np.nonzero(escaped)[1]
    if np.any((raw >= tables.lo[chan]) & (raw < tables.lo[chan] + tables.size[chan])):
        raise DecodeError("escaped symbol lies inside its table")
    sym[escaped] = raw
    return [sym[:, a:b] for a, b in zip(ends, ends[1:])]


def encode_symbols(symbols: np.ndarray, model: GaussianEntropyModel, sched: QuantSchedule) -> bytes:
    """Entropy-code one latent's integer symbols (shape (..., channels)), row-major."""
    return encode_latents([(symbols, model, sched)])


def decode_symbols(
    data: bytes, count: int, model: GaussianEntropyModel, sched: QuantSchedule
) -> np.ndarray:
    """Inverse of :func:`encode_symbols`; ``count`` is the total symbol count."""
    rows, extra = divmod(count, model.n)
    if extra:
        raise DecodeError(f"symbol count {count} not a multiple of {model.n} channels")
    return decode_latents(rows, data, [(model, sched)])[0]
