"""Dense matrix/vector kernels and statistical report helpers.

Everything here is pure: float64 in, float64 out, no hidden state. Matrices
are plain ``np.ndarray`` (2-D, row-major), vectors are 1-D arrays. The one
exception is ``working``, the precision rule of the transforms that follow
their input's precision.
"""

from __future__ import annotations

import numpy as np

from .errors import AllZero, BadSize, InsufficientData, NotSymmetric


def working(a) -> np.ndarray:
    """``a`` as an array of a transform's working precision: float32 stays
    float32, and any other input becomes float64. The base and refinement
    transforms cast their weights to it once per call."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def covariance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance (divisor N-1) of the rows of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientData("covariance needs a 2-D table with >= 2 rows")
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / (x.shape[0] - 1)
    return 0.5 * (s + s.T)


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (LAPACK, via ``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted in
    descending order and eigenvectors as the corresponding columns. The sign
    of each column is fixed so the first occurrence of its largest-magnitude
    entry is positive, making the output deterministic across runs.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise BadSize("sym_eig expects a square matrix")
    n = s.shape[0]
    scale = max(1.0, float(np.abs(s).max(initial=0.0)))
    if float(np.abs(s - s.T).max(initial=0.0)) > 1e-9 * scale:
        raise NotSymmetric("input is not symmetric within 1e-9")

    evals, v = np.linalg.eigh(0.5 * (s + s.T))
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    v = v[:, order]
    if n:
        pivot = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
        v = np.where(pivot < 0, -v, v)
    return evals, v


def pearson_abs(x: np.ndarray) -> np.ndarray:
    """Absolute Pearson correlation matrix of the columns of ``x``.

    Constant columns get 0 off-diagonal by convention; the diagonal is
    always 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientData("pearson_abs needs a 2-D table with >= 2 rows")
    xc = x - x.mean(axis=0)
    sd = np.sqrt(np.mean(xc * xc, axis=0))
    const = sd == 0.0
    denom = np.where(const, 1.0, sd)
    z = xc / denom
    corr = np.abs(z.T @ z / x.shape[0])
    corr[const, :] = 0.0
    corr[:, const] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, 0.0, 1.0)


def energy_per_channel(x: np.ndarray) -> np.ndarray:
    """Per-channel mean-square energy of an (N, D) table, normalized to sum to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise InsufficientData("energy_per_channel needs a nonempty table")
    e = np.mean(x * x, axis=0)
    total = e.sum()
    if total == 0.0:
        raise AllZero("all-zero table has no energy distribution")
    return e / total


def dct_matrix(n: int, rows: int | None = None) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix (rows are basis functions): its
    leading ``rows`` rows (default all n), built without the rest."""
    if n < 1:
        raise BadSize("dct_matrix needs n >= 1")
    m = np.pi * (2 * np.arange(n) + 1) * np.arange(n if rows is None else rows)[:, None]
    m /= 2 * n
    np.cos(m, out=m)
    m *= np.sqrt(2.0 / n)
    m[0, :] = np.sqrt(1.0 / n)
    return m


def haar_matrix(n: int, rows: int | None = None) -> np.ndarray:
    """Single-level Haar analysis matrix: n/2 lowpass rows, then n/2 highpass;
    its leading ``rows`` rows (default all n), built without the rest.

    Requires an even size (n=1 degenerates to identity).
    """
    if n < 1:
        raise BadSize("haar_matrix needs n >= 1")
    if n == 1:
        return np.array([[1.0]])
    if n % 2 != 0:
        raise BadSize(f"haar_matrix needs an even size, got {n}")
    half = n // 2
    i = np.arange(n if rows is None else rows)
    m = np.zeros((i.size, n))
    r = 1.0 / np.sqrt(2.0)
    m[i, 2 * (i % half)] = r
    m[i, 2 * (i % half) + 1] = np.where(i < half, r, -r)
    return m
