"""Gaussian conditional rate model and an interleaved rANS coder.

The rate estimate integrates a per-channel Gaussian over each quantization
bin. The coder consumes the same Gaussian bin probabilities, quantized to
16-bit frequencies (every interval >= 1), so measured payloads track the
estimate closely. Symbols outside a +/-4096 alphabet are coded as an escape
entry and sent raw as 4-byte values after the coded words.

The coder runs many rANS lanes side by side (Duda, arXiv:1311.2540; Giesen,
arXiv:1402.3392): symbol k goes to lane ``k % lanes`` at step
``k // lanes``, and every numpy step advances all lanes at once. Lane states
live in ``[2^31, 2^63)`` and renormalize by whole 32-bit words, so a lane
moves at most one word per step. Byte layout: ``docs/format.md``.
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
_WORD_BITS = 32
_STATE_BITS = 31
_STATE_LOW = 1 << _STATE_BITS  # lane states stay in [_STATE_LOW, _STATE_LOW << _WORD_BITS)
_LANE_ROWS = 4096  # rows per lane block; part of the format
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
    trainer's fused rate node, so both price a latent identically.
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


def lane_count(rows: int, channels: int) -> int:
    """Interleaved lanes of a ``rows`` x ``channels`` latent: one per channel
    for each whole block of ``_LANE_ROWS`` rows (at least one block)."""
    return channels * max(1, rows // _LANE_ROWS)


def encode_symbols(symbols: np.ndarray, model: GaussianEntropyModel, sched: QuantSchedule) -> bytes:
    """Entropy-code integer symbols (shape (..., channels)), row-major."""
    sym = np.asarray(symbols, dtype=np.int64)
    if sym.size == 0:
        return b""
    try:
        sym = sym.reshape(-1, model.n)
    except ValueError as exc:
        raise DimMismatch(f"symbols not divisible into {model.n} channels") from exc
    tables = build_tables(model, sched)
    idx = sym - tables.lo
    escaped = (idx < 0) | (idx >= tables.size)
    raw = sym[escaped]
    if np.any((raw < -_ESCAPE_BIAS) | (raw >= _ESCAPE_BIAS)):
        raise Overflow("escaped symbol exceeds 32-bit signed range")
    entry = (np.where(escaped, tables.size, idx) + tables.start).ravel()
    lanes = lane_count(sym.shape[0], model.n)
    steps = -(-entry.size // lanes)
    # a partial last step is padded with freq 2^16, cum 0: an identity on the state
    pad = steps * lanes - entry.size
    freq = np.concatenate((tables.freq[entry], np.full(pad, _TOTAL, np.uint64))).reshape(steps, lanes)
    cum = np.concatenate((tables.cum[entry], np.zeros(pad, np.uint64))).reshape(steps, lanes)
    # a state at or above this emits its low word before coding the symbol
    limit = freq << (_STATE_BITS - _FREQ_BITS + _WORD_BITS)
    gap = _TOTAL - freq
    words = np.empty((steps, lanes), dtype=np.uint32)
    emitted = np.empty((steps, lanes), dtype=bool)
    x = np.full(lanes, _STATE_LOW, dtype=np.uint64)
    q = np.empty(lanes, dtype=np.uint64)
    for t in range(steps - 1, -1, -1):
        out = np.greater_equal(x, limit[t], out=emitted[t])
        words[t] = x  # the low word
        x >>= out * np.uint64(_WORD_BITS)
        # x = (x // f) * 2^16 + x % f + c, computed as x + (x // f) * (2^16 - f) + c
        np.floor_divide(x, freq[t], out=q)
        q *= gap[t]
        x += q
        x += cum[t]
    return (
        x.astype("<u8").tobytes()
        + words[emitted].astype("<u4").tobytes()
        + (raw + _ESCAPE_BIAS).astype("<u4").tobytes()
    )


def decode_symbols(
    data: bytes, count: int, model: GaussianEntropyModel, sched: QuantSchedule
) -> np.ndarray:
    """Inverse of :func:`encode_symbols`; ``count`` is the total symbol count.

    The payload is checked against ``count`` before anything of that size is
    allocated: it must hold every lane's state, so a payload of B bytes
    decodes to fewer than 1024 * B symbols.
    """
    n = model.n
    if count % n != 0:
        raise DecodeError(f"symbol count {count} not a multiple of {n} channels")
    rows = count // n
    if rows == 0:
        if data:
            raise DecodeError("nonempty payload for zero symbols")
        return np.zeros((0, n), dtype=np.int64)
    lanes = lane_count(rows, n)
    head = 8 * lanes
    if len(data) < head or (len(data) - head) % 4:
        raise DecodeError(f"payload of {len(data)} bytes does not fit {lanes} lane states and words")
    x = np.frombuffer(data, dtype="<u8", count=lanes).astype(np.uint64)
    if np.any((x < _STATE_LOW) | (x >= _STATE_LOW << _WORD_BITS)):
        raise DecodeError("lane state out of range")
    area = np.frombuffer(data, dtype="<u4", offset=head).astype(np.uint64)
    tables = build_tables(model, sched)
    steps = -(-count // lanes)
    chan_key = (np.arange(lanes, dtype=np.uint64) % n) << _FREQ_BITS
    key = tables.key[1:]  # key[0] = 0 <= every slot: the search yields the entry itself
    # numpy scalars: a Python int operand costs a conversion on every step
    mask, low = np.uint64(_TOTAL - 1), np.uint64(_STATE_LOW)
    freq_bits, word_bits = np.uint64(_FREQ_BITS), np.uint64(_WORD_BITS)
    entries = []
    pos = 0
    for t in range(steps):
        xs = x[: min(lanes, count - t * lanes)]
        slot = xs & mask
        e = np.searchsorted(key, chan_key[: xs.size] | slot, side="right")
        entries.append(e)
        xs >>= freq_bits
        xs *= tables.freq[e]
        xs += slot
        xs -= tables.cum[e]
        need = xs < low
        k = int(np.count_nonzero(need))
        if k:
            if pos + k > area.size:
                raise DecodeError("entropy payload truncated")
            np.place(xs, need, (xs[need] << word_bits) | area[pos : pos + k])
            pos += k
    if np.any(x != _STATE_LOW):
        raise DecodeError("lane does not end at its initial state")
    idx = np.concatenate(entries).reshape(rows, n) - tables.start
    escaped = idx == tables.size
    n_esc = int(np.count_nonzero(escaped))
    if pos + n_esc != area.size:
        raise DecodeError("payload length does not match decoded symbols")
    out = idx + tables.lo
    raw = area[pos:].astype(np.int64) - _ESCAPE_BIAS
    chan = np.nonzero(escaped)[1]
    if np.any((raw >= tables.lo[chan]) & (raw < tables.lo[chan] + tables.size[chan])):
        raise DecodeError("escaped symbol lies inside its table")
    out[escaped] = raw
    return out
