"""Base-layer transform: fitted KLT with top-M coefficient truncation.

The model is float64, as fitted. ``analyze_base`` and ``synthesize_base``
compute in the precision of their input (``linalg.working``): the mean and
basis are cast to it once per call. The codec passes float64; the trainer
passes float32 batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSize, DimMismatch


@dataclass(frozen=True)
class KltModel:
    """Base transform as the file carries it: column means and the retained
    orthonormal basis columns (a fitted KLT's leading eigenvectors, by
    descending eigenvalue). Immutable after fitting.
    """

    mean: np.ndarray
    basis: np.ndarray  # (dim, rank)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def rank(self) -> int:
        """Retained (coded) coefficients."""
        return self.basis.shape[1]


def fit_klt(x: np.ndarray, rank: int) -> KltModel:
    """Fit the transform on a table of row vectors, keeping ``rank`` coefficients."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    if not 1 <= rank <= d:
        raise BadSize(f"rank must be in [1, {d}], got {rank}")
    _, v = linalg.sym_eig(linalg.covariance(x))
    return KltModel(mean=x.mean(axis=0), basis=v[:, :rank])


def analyze_base(f: np.ndarray, model: KltModel) -> np.ndarray:
    """Project onto the retained basis: V^T (f - m).

    Accepts a single vector (D,) or a table (N, D), and computes in its
    precision (``linalg.working``).
    """
    f = linalg.working(f)
    if f.shape[-1] != model.dim:
        raise DimMismatch(f"expected last dim {model.dim}, got {f.shape[-1]}")
    return (f - model.mean.astype(f.dtype, copy=False)) @ model.basis.astype(f.dtype, copy=False)


def synthesize_base(theta_p: np.ndarray, model: KltModel) -> np.ndarray:
    """Reconstruct from retained coefficients: V theta + m, in the precision
    of ``theta_p`` (``linalg.working``)."""
    theta_p = linalg.working(theta_p)
    dt = theta_p.dtype
    if theta_p.shape[-1] != model.rank:
        raise DimMismatch(f"expected last dim {model.rank}, got {theta_p.shape[-1]}")
    # contiguous for speed, as refinement.prepare's g_t
    return theta_p @ np.ascontiguousarray(model.basis.T, dtype=dt) + model.mean.astype(dt, copy=False)

