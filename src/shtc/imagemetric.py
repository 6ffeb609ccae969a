"""Luma-weighted image distortion in YCbCr space.

Pixel-wise l1 on Y/Cb/Cr, a high-frequency fidelity term on Laplacian
responses of Y, and a total-variation penalty on the reconstructed chroma
planes. ``DEFAULT_WEIGHTS`` weights them in ``total``: 1.0 for Y, 0.6 each
for Cb and Cr, 0.15 for the Laplacian term and 0.1 for each chroma plane's
TV. Color matrix is BT.601 full-range; all l1 terms are per-pixel means so
the metric is resolution-independent.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimMismatch

# each term's weight in ``total``, keyed by its name in ``ycbcr_components``
DEFAULT_WEIGHTS = {
    "l1_y": 1.0,
    "l1_cb": 0.6,
    "l1_cr": 0.6,
    "l1_laplacian_y": 0.15,
    "tv_cb": 0.1,
    "tv_cr": 0.1,
}


def as_image(arr: np.ndarray) -> np.ndarray:
    """Validate and clamp an (H, W, 3) array to [0, 1]."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DimMismatch(f"expected (H, W, 3) image, got {arr.shape}")
    return np.clip(arr, 0.0, 1.0)


def rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    """BT.601 full-range: Y from weighted RGB, chroma offset to 0.5."""
    img = as_image(img)
    r, g, b = img[..., 0], img[..., 1], img[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 0.5 + (b - y) * 0.564
    cr = 0.5 + (r - y) * 0.713
    return np.stack([y, cb, cr], axis=-1)


def laplacian(plane: np.ndarray) -> np.ndarray:
    """3x3 Laplacian (cross kernel, center -4) with replicate padding."""
    plane = np.asarray(plane, dtype=np.float64)
    p = np.pad(plane, 1, mode="edge")
    return (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * p[1:-1, 1:-1]
    )


def tv(plane: np.ndarray) -> float:
    """Anisotropic total variation: mean |first difference| over both axes."""
    plane = np.asarray(plane, dtype=np.float64)
    dh = np.abs(np.diff(plane, axis=1))
    dv = np.abs(np.diff(plane, axis=0))
    count = dh.size + dv.size
    if count == 0:
        return 0.0
    return float((dh.sum() + dv.sum()) / count)


def _l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).mean())


def ycbcr_components(img: np.ndarray, recon: np.ndarray) -> dict:
    """All metric terms: unweighted values, and ``total`` weighted by
    ``DEFAULT_WEIGHTS``."""
    img = as_image(img)
    recon = as_image(recon)
    if img.shape != recon.shape:
        raise DimMismatch(f"image shapes differ: {img.shape} vs {recon.shape}")
    a = rgb_to_ycbcr(img)
    b = rgb_to_ycbcr(recon)
    comps = {
        "l1_y": _l1(a[..., 0], b[..., 0]),
        "l1_cb": _l1(a[..., 1], b[..., 1]),
        "l1_cr": _l1(a[..., 2], b[..., 2]),
        "l1_laplacian_y": _l1(laplacian(a[..., 0]), laplacian(b[..., 0])),
        "tv_cb": tv(b[..., 1]),
        "tv_cr": tv(b[..., 2]),
    }
    comps["total"] = sum(w * comps[k] for k, w in DEFAULT_WEIGHTS.items())
    return comps


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6, 8-bit) reader; returns (H, W, 3) floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise DataError(f"{path}: truncated PPM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            pos = data.find(b"\n", pos)
            if pos == -1:
                raise DataError(f"{path}: unterminated comment")
            continue
        if ch.isspace():
            pos += 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        tokens.append(data[pos:end])
        pos = end
    if tokens[0] != b"P6":
        raise DataError(f"{path}: not a binary PPM (P6) file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise DataError(f"{path}: bad PPM header") from exc
    if width < 1 or height < 1:
        raise DataError(f"{path}: PPM size {width} x {height}; both must be positive")
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PPM supported (maxval 255)")
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    if len(data) - pos < need:
        raise DataError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return pixels.reshape(height, width, 3).astype(np.float64) / 255.0
