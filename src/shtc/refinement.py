"""Refinement layer: learned linear measurements of the base-layer residual,
decoded by a small stack of unfolded ISTA iterations.

The unfolded decoder keeps ISTA's structure but learns a separate step size
and threshold per channel per layer (stored in raw form: step = exp(a),
threshold = softplus(b), which keeps both in range without projections).
``ista_solve`` is the plain fixed-parameter solver kept as an oracle.

``unfold_code`` runs all layers on one block of ``_BLOCK_ROWS`` rows at a time,
in buffers reused across blocks, so a block stays in cache. Layer 0 starts
from beta = 0 (one matmul), and the soft threshold is computed as
``pre - clip(pre, -tau, tau)``: ``soft_threshold``'s values in fewer passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadThreshold, DimMismatch, StepTooLarge

_BLOCK_ROWS = 1024


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


@dataclass
class RefinementModel:
    """Measurement matrix, dictionary, and per-layer shrinkage parameters.

    measure:    (n_meas, dim) linear analysis map applied to the residual
    dictionary: (dim, n_atoms) synthesis dictionary
    step_raw:   (n_layers, n_atoms), per-channel log step sizes
    thresh_raw: (n_layers, n_atoms), per-channel pre-softplus thresholds
    """

    measure: np.ndarray
    dictionary: np.ndarray
    step_raw: np.ndarray
    thresh_raw: np.ndarray

    @property
    def n_meas(self) -> int:
        return self.measure.shape[0]

    @property
    def dim(self) -> int:
        return self.measure.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.dictionary.shape[1]

    @property
    def n_layers(self) -> int:
        return self.step_raw.shape[0]

    def steps(self) -> np.ndarray:
        return np.exp(self.step_raw)

    def thresholds(self) -> np.ndarray:
        return _softplus(self.thresh_raw)


def init_refinement(
    dim: int,
    n_meas: int,
    n_atoms: int,
    n_layers: int,
    rng: np.random.Generator,
    step_init: float = 0.8,
    thresh_init: float = 0.05,
) -> RefinementModel:
    """Measurement rows: unit-normalized Gaussian. Square dictionaries start
    at (jittered) identity: the residual is modeled as sparse in its own
    coordinates, and a Gaussian start trains far slower at small budgets.
    """
    a = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_meas, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    if n_atoms == dim:
        d = np.eye(dim) + 0.01 * rng.normal(size=(dim, n_atoms))
    else:
        d = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, n_atoms))
    # softplus(b) = thresh_init  =>  b = log(expm1(thresh_init))
    b0 = float(np.log(np.expm1(thresh_init)))
    return RefinementModel(
        measure=a,
        dictionary=d,
        step_raw=np.full((n_layers, n_atoms), np.log(step_init)),
        thresh_raw=np.full((n_layers, n_atoms), b0),
    )


def analyze_refine(r: np.ndarray, model: RefinementModel) -> np.ndarray:
    """Linear measurements y = A r. Accepts (D,) vectors or (N, D) tables."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] != model.dim:
        raise DimMismatch(f"expected last dim {model.dim}, got {r.shape[-1]}")
    return r @ model.measure.T


def soft_threshold(z: np.ndarray, tau) -> np.ndarray:
    """sign(z) * max(|z| - tau, 0), elementwise."""
    z = np.asarray(z, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if np.any(tau < 0):
        raise BadThreshold("soft threshold must be nonnegative")
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def operator_sq_norm(a: np.ndarray, dictionary: np.ndarray) -> float:
    """Largest eigenvalue of (AD)^T (AD): the squared spectral norm of AD."""
    return float(np.linalg.norm(a @ dictionary, 2) ** 2)


def ista_solve(
    y: np.ndarray,
    a: np.ndarray,
    dictionary: np.ndarray,
    gamma: float,
    eta: float,
    iters: int,
) -> np.ndarray:
    """Plain ISTA for  min_b  0.5 ||y - A D b||^2 + gamma ||b||_1.

    Fixed scalar step ``eta`` (must satisfy eta < 2/L with L the squared
    operator norm of AD) and threshold eta*gamma; starts from b = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    lip = operator_sq_norm(a, dictionary)
    if lip > 0 and eta >= 2.0 / lip:
        raise StepTooLarge(f"eta={eta} >= 2/L={2.0 / lip}")
    g = a @ dictionary
    beta = np.zeros(g.shape[1])
    tau = eta * gamma
    for _ in range(iters):
        grad = g.T @ (g @ beta - y)
        beta = soft_threshold(beta - eta * grad, tau)
    return beta


def unfold_synthesize(y: np.ndarray, model: RefinementModel) -> np.ndarray:
    """Decode measurements through the unfolded layers; returns D beta.

    Accepts (n_meas,) vectors or (N, n_meas) tables. beta starts at zero, so
    zero measurements decode to an exactly zero residual.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != model.n_meas:
        raise DimMismatch(f"expected last dim {model.n_meas}, got {y.shape[-1]}")
    return unfold_code(y, model) @ model.dictionary.T


def unfold_code(y: np.ndarray, model: RefinementModel, record: list | None = None) -> np.ndarray:
    """The unfolded layers without checks; returns the final code beta.

    If ``record`` is a list, each layer appends its input beta, its
    measurement residual and its pre-activation (the soft threshold's
    argument) over all rows, which is what a hand-written backward pass
    needs. The trainer's fused unfold node runs this same loop, so training
    and decoding share one forward definition.
    """
    g = model.measure @ model.dictionary
    etas, taus = model.steps(), model.thresholds()
    n_layers, n_atoms = model.n_layers, model.n_atoms
    y2 = y.reshape(-1, model.n_meas)
    n = y2.shape[0]
    out = np.empty((n, n_atoms))
    if record is not None:
        # layer 0 reads beta = 0 and resid = -y; the loop fills the rest
        shape = (n, n_atoms)
        layers = [(np.zeros(shape), -y2, np.empty(shape))]
        layers += [(np.empty(shape), np.empty_like(y2), np.empty(shape)) for _ in range(1, n_layers)]
        record += layers
    rows = min(n, _BLOCK_ROWS)
    resid_buf, pre_buf, clip_buf = (np.empty((rows, cols)) for cols in (model.n_meas, n_atoms, n_atoms))
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        yb, clip = y2[s:e], clip_buf[: e - s]
        for k in range(n_layers):
            if record is None:
                beta, resid, pre = out[s:e], resid_buf[: e - s], pre_buf[: e - s]
            else:
                beta, resid, pre = (a[s:e] for a in layers[k])
            if k == 0:  # beta = 0: pre = -eta * (-y @ G) = eta * (y @ G)
                np.matmul(yb, g, out=pre)
                pre *= etas[0]
            else:
                np.matmul(beta, g.T, out=resid)
                resid -= yb
                np.matmul(resid, g, out=pre)
                pre *= etas[k]
                np.subtract(beta, pre, out=pre)
            nxt = out if record is None or k + 1 == n_layers else layers[k + 1][0]
            np.minimum(np.maximum(pre, -taus[k], out=clip), taus[k], out=clip)
            np.subtract(pre, clip, out=nxt[s:e])
    return out.reshape(y.shape[:-1] + (n_atoms,))


def param_count(model: RefinementModel) -> int:
    """Number of transmitted refinement parameters."""
    return (
        model.measure.size
        + model.dictionary.size
        + model.step_raw.size
        + model.thresh_raw.size
    )
