"""Test oracles: the textbook forms the package is checked against.

Plain ISTA is the yardstick the unfolded layers are held to (criterion 2),
the top-m energy fraction the one the KLT is held to (criterion 1), and
``write_ppm`` writes the images the PPM reader and ``shtc image-metric`` are
tested on. These compute with numpy alone and call no package code, so a
test compares the package with a definition it does not ship.

``untiled`` is the one helper here that calls the package: it runs the
unfolded layers on a raw model, prepared as the codec's small tables and the
trainer prepare it.
"""

import numpy as np

from shtc import linalg, refinement


class BadThreshold(ValueError):
    """Negative soft-threshold value."""


class StepTooLarge(ValueError):
    """ISTA step size violates the convergence bound."""


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


def top_m_energy_fraction(coeffs: np.ndarray, m: int) -> float:
    """Share of the mean-square energy in the best m channels (with centered
    input this is the quantity the KLT maximizes over orthonormal
    transforms)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    energy = np.mean(coeffs * coeffs, axis=0)
    return float(np.sort(energy / energy.sum())[::-1][:m].sum())


def write_ppm(path, img: np.ndarray):
    """An (H, W, 3) image in [0, 1] as a binary 8-bit PPM (P6); values
    outside [0, 1] are clamped."""
    img = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.round(img * 255.0).astype(np.uint8).tobytes())


def untiled(decode, y, model, **kw):
    """``decode`` (``refinement.unfold_code`` or ``unfold_synthesize``) of
    ``y`` through ``model`` prepared untiled in the working precision of
    ``y`` (float32 stays float32, anything else is float64)."""
    return decode(y, refinement.prepare(model, linalg.working(y).dtype), **kw)
