"""Uniform scalar quantization with a per-channel exponential step schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadStep, DimMismatch, Overflow

_SYMBOL_LIMIT = 2**31 - 1


@dataclass
class QuantSchedule:
    """Channel steps q_s * exp(alpha * i) for i = 0..n-1.

    ``alpha`` >= 0 gives a nondecreasing schedule (coarser steps on the
    less important trailing channels).
    """

    q_s: float
    alpha: float
    n: int
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.q_s <= 0:
            raise BadStep(f"base step must be positive, got {self.q_s}")
        self.steps = self.q_s * np.exp(self.alpha * np.arange(self.n))


def channel_schedule(q_s: float, alpha: float, n: int) -> QuantSchedule:
    return QuantSchedule(q_s=float(q_s), alpha=float(alpha), n=int(n))


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Deterministic round-half-away-from-zero (np.round would round to even)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize(x: np.ndarray, sched: QuantSchedule) -> np.ndarray:
    """Map values to integer symbols round(x / step) per channel."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != sched.n:
        raise DimMismatch(f"expected last dim {sched.n}, got {x.shape[-1]}")
    sym = round_half_away(x / sched.steps)
    if np.any(np.abs(sym) > _SYMBOL_LIMIT):
        raise Overflow("quantized symbol exceeds 32-bit signed range")
    return sym.astype(np.int64)


def dequantize(symbols: np.ndarray, sched: QuantSchedule) -> np.ndarray:
    symbols = np.asarray(symbols)
    if symbols.shape[-1] != sched.n:
        raise DimMismatch(f"expected last dim {sched.n}, got {symbols.shape[-1]}")
    return symbols.astype(np.float64) * sched.steps

