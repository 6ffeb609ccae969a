"""Minimal reverse-mode differentiation tape over numpy arrays.

Only the operations the training objective needs. Each ``Var`` records its
parents and a closure that scatters the output gradient back to them; calling
``backward()`` on a scalar walks the tape once in reverse topological order.

Two fused nodes cover the hot parts of the objective with one tape node and a
hand-written backward each, and run the codec's own forward math:

* ``rate_bits`` sums ``entropy.bin_bits`` (-log2 of the Gaussian bin mass);
  the floor side of the probability clamp gets no gradient.
* ``unfold`` runs ``refinement.unfold_code`` (the unfolded-ISTA layers);
  the gradient is 0 inside each soft-threshold dead zone, for the
  pre-activation and the threshold alike.

``vabs`` has subgradient 0 at |x| = 0.
"""

from __future__ import annotations

import numpy as np

from . import entropy, refinement
from .quantizer import round_half_away

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN2 = float(np.log(2.0))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Var:
    """A tape node: value, accumulated gradient, and backward closure."""

    __slots__ = ("data", "grad", "parents", "bwd", "requires_grad")
    __array_ufunc__ = None  # keep numpy from hijacking mixed expressions

    def __init__(self, data, parents=(), bwd=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.data.shape

    @property
    def T(self) -> "Var":
        out = Var(self.data.T, (self,))
        out.bwd = lambda g, a=self: _acc(a, g.T)
        return out

    def sum(self) -> "Var":
        out = Var(self.data.sum(), (self,))
        out.bwd = lambda g, a=self: _acc(a, np.broadcast_to(g, a.data.shape))
        return out

    def mean(self) -> "Var":
        scale = 1.0 / self.data.size
        out = Var(self.data.mean(), (self,))
        out.bwd = lambda g, a=self, s=scale: _acc(a, np.broadcast_to(g * s, a.data.shape))
        return out

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_var(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, as_var(other))

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        topo: list[Var] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.bwd is not None and node.grad is not None:
                node.bwd(node.grad)


def _acc(node: Var, g: np.ndarray):
    if not node.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), node.data.shape)
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data + b.data, (a, b))
    out.bwd = lambda g: (_acc(a, g), _acc(b, g))
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data - b.data, (a, b))
    out.bwd = lambda g: (_acc(a, g), _acc(b, -g))
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data * b.data, (a, b))
    out.bwd = lambda g: (_acc(a, g * b.data), _acc(b, g * a.data))
    return out


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data / b.data, (a, b))

    def bwd(g):
        _acc(a, g / b.data)
        _acc(b, -g * a.data / (b.data * b.data))

    out.bwd = bwd
    return out


def matmul(a: Var, b: Var) -> Var:
    out = Var(a.data @ b.data, (a, b))

    def bwd(g):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    out.bwd = bwd
    return out


def vexp(a) -> Var:
    a = as_var(a)
    out = Var(np.exp(a.data), (a,))
    out.bwd = lambda g: _acc(a, g * out.data)
    return out


def vabs(a) -> Var:
    a = as_var(a)
    out = Var(np.abs(a.data), (a,))
    out.bwd = lambda g: _acc(a, g * np.sign(a.data))
    return out


def rate_bits(x: Var, mu: Var, sigma: Var, steps: Var) -> Var:
    """Estimated bits of ``x``: the sum of ``entropy.bin_bits``, as one node.

    The bin mass p is floored at ``entropy._PROB_FLOOR``; an element on the
    floor side gets no gradient. Elsewhere d(-log2 p) = -dp / (p ln 2), with
    dp from the Gaussian pdf at both bin edges.
    """
    bits, p, z_lo, z_hi = entropy.bin_bits(x.data, mu.data, sigma.data, steps.data)
    out = Var(bits.sum(), (x, mu, sigma, steps))

    def bwd(g):
        pdf_lo = np.exp(-0.5 * z_lo * z_lo) * _INV_SQRT_2PI
        pdf_hi = np.exp(-0.5 * z_hi * z_hi) * _INV_SQRT_2PI
        floor = entropy._PROB_FLOOR
        # d bits / d p over sigma: each bin edge is (x - mu +- step/2) / sigma
        gp = (p > floor) * (-g / (np.maximum(p, floor) * _LN2)) / sigma.data
        dx = gp * (pdf_hi - pdf_lo)
        _acc(x, dx)
        _acc(mu, -dx)
        _acc(sigma, -gp * (z_hi * pdf_hi - z_lo * pdf_lo))
        _acc(steps, 0.5 * gp * (pdf_hi + pdf_lo))

    out.bwd = bwd
    return out


def unfold(y: Var, measure: Var, dictionary: Var, step_raw: Var, thresh_raw: Var) -> Var:
    """Unfolded-ISTA synthesis D beta of (N, n_meas) measurements ``y``, as
    one node over ``refinement.unfold_code``.

    The backward walks the recorded layers in reverse. Subgradient: zero
    inside each soft-threshold dead zone (|pre| <= tau), for the
    pre-activation and the threshold alike.
    """
    model = refinement.RefinementModel(
        measure=measure.data, dictionary=dictionary.data,
        step_raw=step_raw.data, thresh_raw=thresh_raw.data,
    )
    layers: list = []
    beta = refinement.unfold_code(y.data, model, record=layers)
    out = Var(beta @ model.dictionary.T, (y, measure, dictionary, step_raw, thresh_raw))

    def bwd(g):
        a, d = model.measure, model.dictionary
        gmat = a @ d
        etas = model.steps()
        taus = model.thresholds()
        d_g = np.zeros_like(gmat)
        d_y = np.zeros_like(y.data)
        d_step = np.zeros_like(step_raw.data)
        d_thresh = np.zeros_like(thresh_raw.data)
        d_dict = g.T @ beta
        g_beta = g @ d
        for k in range(len(layers) - 1, -1, -1):
            # pre = beta_k - eta_k * (resid @ G),  resid = beta_k @ G.T - y
            beta_k, resid, pre = layers[k]
            g_pre = g_beta * (np.abs(pre) - taus[k] > 0)
            d_thresh[k] = -(g_pre * np.sign(pre)).sum(axis=0) / (1.0 + np.exp(-thresh_raw.data[k]))
            r_g = resid.T @ g_pre
            d_step[k] = -(r_g * gmat).sum(axis=0) * etas[k]
            d_g -= r_g * etas[k]
            g_resid = -(g_pre * etas[k]) @ gmat.T
            d_y -= g_resid
            if k > 0:  # layer 0 starts from a constant zero code
                d_g += g_resid.T @ beta_k
                g_beta = g_pre + g_resid @ gmat
        _acc(y, d_y)
        _acc(measure, d_g @ d.T)
        _acc(dictionary, d_dict + a.T @ d_g)
        _acc(step_raw, d_step)
        _acc(thresh_raw, d_thresh)

    out.bwd = bwd
    return out


def ste_quantize(x: Var, steps: Var) -> Var:
    """Quantize-dequantize with a straight-through gradient to ``x`` only."""
    q = round_half_away(x.data / steps.data) * steps.data
    out = Var(q, (x,))
    out.bwd = lambda g: _acc(x, g)
    return out


def take_rows(x: Var, idx: np.ndarray) -> Var:
    """Row gather with scatter-add backward (for learnable tables)."""
    out = Var(x.data[idx], (x,))

    def bwd(g):
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _acc_raw(x, full)

    out.bwd = bwd
    return out


def slice_cols(x: Var, cs: int, ce: int) -> Var:
    """Column slice x[:, cs:ce] with zero-padded backward."""
    out = Var(x.data[:, cs:ce], (x,))

    def bwd(g):
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        full[:, cs:ce] = g
        _acc_raw(x, full)

    out.bwd = bwd
    return out


def _acc_raw(node: Var, g: np.ndarray):
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g
