"""Gaussian conditional rate model and a bit-exact range coder.

The rate estimate integrates a per-channel Gaussian over each quantization
bin. The coder consumes the same Gaussian bin probabilities, quantized to
16-bit frequencies (every interval >= 1), so measured payloads track the
estimate closely. Symbols outside a +/-4096 alphabet escape to a raw
4-byte bypass path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DecodeError, DimMismatch
from .quantizer import QuantSchedule

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency, but the
    _HAVE_NUMBA = False  # pure-Python coder below is a complete fallback

_MASK = (1 << 64) - 1
_TOP = 1 << 56
_BOT = 1 << 24
_FREQ_BITS = 16
_TOTAL = 1 << _FREQ_BITS
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


class RangeEncoder:
    """Carry-less byte-wise range coder over 64-bit registers."""

    def __init__(self):
        self.low = 0
        self.rng = _MASK
        self.out = bytearray()

    def _shift(self):
        self.out.append((self.low >> 56) & 0xFF)
        self.low = (self.low << 8) & _MASK
        self.rng = self.rng << 8

    def _normalize(self):
        while True:
            if (self.low ^ (self.low + self.rng)) < _TOP:
                pass
            elif self.rng < _BOT:
                # Underflow: give up the part of the interval above the next
                # _BOT-aligned boundary so the top byte becomes definite.
                self.rng = (-self.low) & (_BOT - 1)
            else:
                return
            self._shift()

    def encode(self, cum: int, freq: int):
        r = self.rng >> _FREQ_BITS
        self.low = (self.low + r * cum) & _MASK
        self.rng = r * freq
        self._normalize()

    def encode_byte(self, b: int):
        r = self.rng >> 8
        self.low = (self.low + r * b) & _MASK
        self.rng = r
        self._normalize()

    def finish(self) -> bytes:
        for _ in range(8):
            self.out.append((self.low >> 56) & 0xFF)
            self.low = (self.low << 8) & _MASK
        return bytes(self.out)


class RangeDecoder:
    """Mirror of :class:`RangeEncoder`; consumes exactly the emitted bytes."""

    def __init__(self, data: bytes):
        if len(data) < 8:
            raise DecodeError("entropy payload shorter than coder state")
        self.data = data
        self.low = 0
        self.rng = _MASK
        self.code = int.from_bytes(data[:8], "big")
        self.pos = 8

    def _read(self) -> int:
        if self.pos >= len(self.data):
            raise DecodeError("entropy payload truncated")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def _normalize(self):
        while True:
            if (self.low ^ (self.low + self.rng)) < _TOP:
                pass
            elif self.rng < _BOT:
                self.rng = (-self.low) & (_BOT - 1)
            else:
                return
            self.code = ((self.code << 8) | self._read()) & _MASK
            self.low = (self.low << 8) & _MASK
            self.rng = self.rng << 8

    def decode_value(self) -> int:
        r = self.rng >> _FREQ_BITS
        v = ((self.code - self.low) & _MASK) // r
        return min(int(v), _TOTAL - 1)

    def consume(self, cum: int, freq: int):
        r = self.rng >> _FREQ_BITS
        self.low = (self.low + r * cum) & _MASK
        self.rng = r * freq
        self._normalize()

    def decode_byte(self) -> int:
        r = self.rng >> 8
        b = min(int(((self.code - self.low) & _MASK) // r), 255)
        self.low = (self.low + r * b) & _MASK
        self.rng = r
        self._normalize()
        return b


def _channel_table(mu: float, sigma: float, step: float):
    """16-bit frequency table over the plausible symbol range plus escape.

    Returns (lo, freqs, cums, escape_index); the table is a pure function of
    the (serialized) model parameters, so encoder and decoder rebuild it
    identically.
    """
    lo = int(np.floor((mu - _SUPPORT_Z * sigma) / step))
    hi = int(np.ceil((mu + _SUPPORT_Z * sigma) / step))
    lo = min(lo, -1)  # the zero bin stays in-table even under model mismatch
    hi = max(hi, 1)
    lo = min(max(lo, -_ALPHABET_BOUND), _ALPHABET_BOUND)
    hi = min(max(hi, lo), _ALPHABET_BOUND)
    s = np.arange(lo, hi + 1, dtype=np.float64)
    upper = ndtr((s * step + 0.5 * step - mu) / sigma)
    lower = ndtr((s * step - 0.5 * step - mu) / sigma)
    p = np.maximum(upper - lower, 0.0)
    n_entries = len(s) + 1
    budget = _TOTAL - n_entries
    freqs = np.floor(p * budget).astype(np.int64) + 1
    esc = int(np.floor(max(0.0, 1.0 - p.sum()) * budget)) + 1
    deficit = _TOTAL - int(freqs.sum()) - esc
    freqs[int(np.argmax(p))] += deficit
    freq_list = freqs.tolist() + [esc]
    cums = [0] * (len(freq_list))
    acc = 0
    for i, f in enumerate(freq_list):
        cums[i] = acc
        acc += f
    return lo, freq_list, cums, len(s)


def build_tables(model: GaussianEntropyModel, sched: QuantSchedule):
    if sched.n != model.n:
        raise DimMismatch("model/schedule channel counts disagree")
    return [
        _channel_table(float(model.mu[j]), float(model.sigma[j]), float(sched.steps[j]))
        for j in range(model.n)
    ]


def _py_encode_core(cl, fl, escapes) -> bytes:
    low = 0
    rng = _MASK
    out = bytearray()
    append = out.append
    esc_i = 0
    next_esc = escapes[0][0] if escapes else -1
    for k, (c, f) in enumerate(zip(cl, fl)):
        r = rng >> _FREQ_BITS
        low = (low + r * c) & _MASK
        rng = r * f
        while True:
            if (low ^ (low + rng)) < _TOP:
                pass
            elif rng < _BOT:
                rng = (-low) & (_BOT - 1)
            else:
                break
            append((low >> 56) & 0xFF)
            low = (low << 8) & _MASK
            rng = rng << 8
        if k == next_esc:
            u = (escapes[esc_i][1] + (1 << 31)) & 0xFFFFFFFF
            for shift in (24, 16, 8, 0):
                r = rng >> 8
                low = (low + r * ((u >> shift) & 0xFF)) & _MASK
                rng = r
                while True:
                    if (low ^ (low + rng)) < _TOP:
                        pass
                    elif rng < _BOT:
                        rng = (-low) & (_BOT - 1)
                    else:
                        break
                    append((low >> 56) & 0xFF)
                    low = (low << 8) & _MASK
                    rng = rng << 8
            esc_i += 1
            next_esc = escapes[esc_i][0] if esc_i < len(escapes) else -1
    for _ in range(8):
        append((low >> 56) & 0xFF)
        low = (low << 8) & _MASK
    return bytes(out)


if _HAVE_NUMBA:

    @njit(cache=True)
    def _nb_encode_core(cum, freq, esc_ks, esc_us):  # pragma: no cover - jit
        n = cum.shape[0]
        cap = 8 * n + 48 * esc_ks.shape[0] + 16
        out = np.empty(cap, np.uint8)
        pos = 0
        low = np.uint64(0)
        rng = np.uint64(0xFFFFFFFFFFFFFFFF)
        top = np.uint64(1) << np.uint64(56)
        bot = np.uint64(1) << np.uint64(24)
        one = np.uint64(1)
        n_esc = esc_ks.shape[0]
        e_i = 0
        next_e = esc_ks[0] if n_esc > 0 else np.int64(-1)
        for k in range(n):
            r = rng >> np.uint64(16)
            low = low + r * np.uint64(cum[k])
            rng = r * np.uint64(freq[k])
            while True:
                if (low ^ (low + rng)) < top:
                    pass
                elif rng < bot:
                    rng = (np.uint64(0) - low) & (bot - one)
                else:
                    break
                out[pos] = np.uint8(low >> np.uint64(56))
                pos += 1
                low = low << np.uint64(8)
                rng = rng << np.uint64(8)
            if k == next_e:
                u = np.uint64(esc_us[e_i])
                for shift in (24, 16, 8, 0):
                    b = (u >> np.uint64(shift)) & np.uint64(0xFF)
                    r = rng >> np.uint64(8)
                    low = low + r * b
                    rng = r
                    while True:
                        if (low ^ (low + rng)) < top:
                            pass
                        elif rng < bot:
                            rng = (np.uint64(0) - low) & (bot - one)
                        else:
                            break
                        out[pos] = np.uint8(low >> np.uint64(56))
                        pos += 1
                        low = low << np.uint64(8)
                        rng = rng << np.uint64(8)
                e_i += 1
                next_e = esc_ks[e_i] if e_i < n_esc else np.int64(-1)
        for _ in range(8):
            out[pos] = np.uint8(low >> np.uint64(56))
            pos += 1
            low = low << np.uint64(8)
        return out[:pos]


def encode_symbols(
    symbols: np.ndarray,
    model: GaussianEntropyModel,
    sched: QuantSchedule,
    use_numba: bool = True,
) -> bytes:
    """Entropy-code integer symbols (shape (..., channels)), row-major."""
    sym = np.asarray(symbols, dtype=np.int64)
    if sym.size == 0:
        return b""
    try:
        sym = sym.reshape(-1, model.n)
    except ValueError as exc:
        raise DimMismatch(f"symbols not divisible into {model.n} channels") from exc
    tables = build_tables(model, sched)
    n = model.n
    # Per-channel table lookups vectorized up front; the sequential coder
    # loop then touches plain int lists only.
    cum_sel = np.empty(sym.shape, dtype=np.int64)
    freq_sel = np.empty(sym.shape, dtype=np.int64)
    escapes: list[tuple[int, int]] = []
    for j in range(n):
        lo, freqs, cums, esc = tables[j]
        freq_arr = np.asarray(freqs, dtype=np.int64)
        cum_arr = np.asarray(cums, dtype=np.int64)
        idx = sym[:, j] - lo
        bad = (idx < 0) | (idx >= esc)
        if bad.any():
            for row in np.nonzero(bad)[0]:
                escapes.append((int(row) * n + j, int(sym[row, j])))
        idx = np.where(bad, esc, idx)
        cum_sel[:, j] = cum_arr[idx]
        freq_sel[:, j] = freq_arr[idx]
    escapes.sort()
    if _HAVE_NUMBA and use_numba:
        esc_ks = np.array([k for k, _ in escapes], dtype=np.int64)
        esc_us = np.array(
            [(s + (1 << 31)) & 0xFFFFFFFF for _, s in escapes], dtype=np.uint64
        )
        out = _nb_encode_core(cum_sel.ravel(), freq_sel.ravel(), esc_ks, esc_us)
        return bytes(out)
    return _py_encode_core(cum_sel.ravel().tolist(), freq_sel.ravel().tolist(), escapes)


def decode_symbols(
    data: bytes, count: int, model: GaussianEntropyModel, sched: QuantSchedule
) -> np.ndarray:
    """Inverse of :func:`encode_symbols`; ``count`` is the total symbol count."""
    n = model.n
    if count % n != 0:
        raise DecodeError(f"symbol count {count} not a multiple of {n} channels")
    rows = count // n
    if rows == 0:
        if data:
            raise DecodeError("nonempty payload for zero symbols")
        return np.zeros((0, n), dtype=np.int64)
    tables = build_tables(model, sched)
    dec = RangeDecoder(data)
    out = np.empty(count, dtype=np.int64)
    for k in range(count):
        lo, freqs, cums, esc = tables[k % n]
        v = dec.decode_value()
        idx = bisect_right(cums, v) - 1
        dec.consume(cums[idx], freqs[idx])
        if idx == esc:
            u = 0
            for _ in range(4):
                u = (u << 8) | dec.decode_byte()
            out[k] = u - (1 << 31)
        else:
            out[k] = lo + idx
    if dec.pos != len(data):
        raise DecodeError("payload length does not match decoded symbols")
    return out.reshape(rows, n)
