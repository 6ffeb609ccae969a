"""Synthetic sources, baseline R-D sweeps, BD-rate, and analysis reports.

The standard source is low-rank-plus-sparse: a power-law covariance spectrum
confined to the leading ``rank`` directions, per-row sparse spikes in the
channel basis, and a small white noise floor. Rates in R-D curves are actual
serialized bitstream bits (model plus payload), not estimates.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import base_layer, linalg
from .bitstream import serialize
from .codec import default_configs, encode_table
from .errors import CodecError, NoOverlap
from .trainer import TrainConfig, train

DEFAULT_LAMBDAS = (0.002, 0.004, 0.008, 0.015)
METHODS = ("none", "dct", "haar", "klt-trunc", "shtc-full")


@dataclass
class SyntheticSpec:
    n_rows: int = 20000
    dim: int = 50
    rank: int = 15
    spectrum_exp: float = 1.5
    spectrum_scale: float = 3.0
    sparsity: int = 5
    spike_scale: float = 0.6
    spike_mix: float = 0.0  # rotates the spike frame away from the channel axes
    noise: float = 0.01
    seed: int = 0
    basis: str = "random"  # random | smooth (low-frequency, DCT-like)

    def __post_init__(self):
        if self.sparsity > self.dim:
            raise ValueError("sparsity cannot exceed dim")
        if self.n_rows < 2:
            raise ValueError("need at least 2 rows")


def _mixing_basis(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.basis == "random":
        q, r = np.linalg.qr(rng.normal(size=(spec.dim, spec.dim)))
        return q * np.sign(np.diag(r))
    if spec.basis == "smooth":
        # Mostly low-frequency structure: DCT basis nudged by a small random
        # rotation, so a fixed DCT sits between KLT and raw channels.
        base = linalg.dct_matrix(spec.dim).T
        q, r = np.linalg.qr(base + 0.15 * rng.normal(size=(spec.dim, spec.dim)))
        return q * np.sign(np.diag(r))
    raise ValueError(f"unknown basis kind {spec.basis!r}")


def synth_source(spec: SyntheticSpec) -> np.ndarray:
    """Seeded table: U diag(sqrt(lam)) z + sparse spikes + white noise.

    Spikes are sparse in a frame ``spike_mix`` away from the channel axes
    (0 keeps them channel-aligned; larger values spread each spike over a
    few channels, which only a learned dictionary can undo).
    """
    rng = np.random.default_rng(spec.seed)
    u = _mixing_basis(spec, rng)
    lam = spec.spectrum_scale * (np.arange(spec.rank) + 1.0) ** (-spec.spectrum_exp)
    z = rng.normal(size=(spec.n_rows, spec.rank)) * np.sqrt(lam)
    x = z @ u[:, : spec.rank].T
    if spec.sparsity > 0 and spec.spike_scale > 0:
        spikes = np.zeros_like(x)
        cols = np.argsort(rng.random((spec.n_rows, spec.dim)), axis=1)[:, : spec.sparsity]
        np.put_along_axis(spikes, cols, rng.normal(0.0, spec.spike_scale, size=cols.shape), axis=1)
        if spec.spike_mix > 0:
            q, r = np.linalg.qr(np.eye(spec.dim) + spec.spike_mix * rng.normal(size=(spec.dim, spec.dim)))
            spikes = spikes @ (q * np.sign(np.diag(r))).T
        x += spikes
    if spec.noise > 0:
        x += spec.noise * rng.normal(size=x.shape)
    return x


@dataclass
class RdPoint:
    lam: float
    bits: float
    distortion_db: float
    l1: float
    rmse: float
    model_bytes: int
    payload_bytes: int


@dataclass
class RdCurve:
    method: str
    points: list[RdPoint] = field(default_factory=list)

    def __post_init__(self):
        self.points.sort(key=lambda p: p.bits)
        rates = [p.bits for p in self.points]
        if any(r2 <= r1 for r1, r2 in zip(rates, rates[1:])):
            warnings.warn(f"{self.method}: rates not strictly increasing after sort")

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.bits for p in self.points])

    @property
    def distortions(self) -> np.ndarray:
        return np.array([p.distortion_db for p in self.points])


def distortion_db(x: np.ndarray, recon: np.ndarray) -> float:
    """PSNR-like dB scale: -20 log10(rmse / value range of x)."""
    rmse = float(np.sqrt(np.mean((x - recon) ** 2)))
    rng_val = float(x.max() - x.min())
    return -20.0 * np.log10(max(rmse, 1e-12) / max(rng_val, 1e-12))


def rd_point(
    x: np.ndarray,
    transform: str,
    lam: float,
    seed: int = 0,
    iters: int = 3000,
    batch: int = 256,
    rank: int | None = None,
    n_meas: int = 15,
    n_layers: int = 6,
    scaling_cols: int = 0,
) -> RdPoint:
    """Train one operating point and measure it from the actual bitstream."""
    configs = default_configs(
        x.shape[1], transform=transform, rank=rank, n_meas=n_meas,
        n_layers=n_layers, scaling_cols=scaling_cols,
    )
    bundle, _ = train(x, configs, TrainConfig(lam=lam, iters=iters, batch=batch, seed=seed))
    payloads, recon = encode_table(bundle, x)
    data, counts = serialize(bundle, payloads)
    return RdPoint(
        lam=lam,
        bits=len(data) * 8.0,
        distortion_db=distortion_db(x, recon),
        l1=float(np.abs(x - recon).mean()),
        rmse=float(np.sqrt(np.mean((x - recon) ** 2))),
        model_bytes=counts["model_bytes"],
        payload_bytes=counts["payload_bytes"],
    )


def baseline_rd(
    x: np.ndarray,
    transform: str,
    lambdas=DEFAULT_LAMBDAS,
    seed: int = 0,
    iters: int = 3000,
    batch: int = 256,
    rank: int | None = None,
    n_meas: int = 15,
    n_layers: int = 6,
    scaling_cols: int = 0,
) -> RdCurve:
    """One trained-and-encoded run per lambda; failed points skip with a warning."""
    points = []
    for lam in lambdas:
        try:
            points.append(
                rd_point(
                    x, transform, lam, seed=seed, iters=iters, batch=batch,
                    rank=rank, n_meas=n_meas, n_layers=n_layers, scaling_cols=scaling_cols,
                )
            )
        except CodecError as exc:
            warnings.warn(f"{transform} @ lambda={lam} failed: {exc}")
    curve = RdCurve(method=transform, points=points)
    _pareto_check(curve)
    return curve


def _pareto_check(curve: RdCurve):
    pts = sorted(curve.points, key=lambda p: p.lam)
    for a, b in zip(pts, pts[1:]):
        if b.bits > a.bits and b.distortion_db < a.distortion_db:
            warnings.warn(
                f"{curve.method}: lambda={b.lam} has both higher rate and higher "
                f"distortion than lambda={a.lam}"
            )


def bd_rate(test: RdCurve, anchor: RdCurve) -> float:
    """Average rate difference (percent) of ``test`` over ``anchor``.

    Cubic fit of log10(rate) against the dB distortion, integrated over the
    shared distortion interval; negative means the test curve needs less
    rate at equal distortion.
    """
    for c in (test, anchor):
        if len(c.points) < 4:
            raise NoOverlap(f"curve {c.method!r} has {len(c.points)} < 4 points")
    lo = max(test.distortions.min(), anchor.distortions.min())
    hi = min(test.distortions.max(), anchor.distortions.max())
    if hi <= lo:
        raise NoOverlap(f"no shared distortion range between {test.method!r} and {anchor.method!r}")

    def integral(curve: RdCurve) -> float:
        poly = np.polyfit(curve.distortions, np.log10(curve.rates), 3)
        antider = np.polyint(poly)
        return float(np.polyval(antider, hi) - np.polyval(antider, lo))

    delta = (integral(test) - integral(anchor)) / (hi - lo)
    return float(100.0 * (10.0**delta - 1.0))


def analysis_report(x: np.ndarray, klt: base_layer.KltModel, out_dir) -> dict:
    """Correlation and energy CSVs for raw channels and DCT/Haar/KLT coefficients."""
    os.makedirs(out_dir, exist_ok=True)
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    d = x.shape[1]
    coeff_sets = {"raw": centered, "dct": centered @ linalg.dct_matrix(d).T}
    if d % 2 == 0 or d == 1:
        coeff_sets["haar"] = centered @ linalg.haar_matrix(d).T
    else:
        warnings.warn(f"haar skipped: dim {d} is odd")
    coeff_sets["klt"] = (x - klt.mean) @ klt.basis
    paths = {}
    energy_rows = []
    for name, coeffs in coeff_sets.items():
        corr = linalg.pearson_abs(coeffs)
        path = os.path.join(out_dir, f"correlation_{name}.csv")
        np.savetxt(path, corr, delimiter=",")
        paths[f"correlation_{name}"] = path
        energy_rows.append((name, linalg.energy_per_channel(coeffs)))
    epath = os.path.join(out_dir, "energy.csv")
    with open(epath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["transform"] + [f"c{i}" for i in range(d)])
        for name, energy in energy_rows:
            writer.writerow([name] + [f"{v:.10g}" for v in energy])
    paths["energy"] = epath
    return paths


def top_m_energy_fraction(coeffs: np.ndarray, m: int) -> float:
    """Energy captured by the best m coefficients (with centered input this is
    the quantity the KLT maximizes over orthonormal transforms)."""
    energy = linalg.energy_per_channel(coeffs)
    return float(np.sort(energy)[::-1][:m].sum())


def write_rd_csv(curves: list[RdCurve], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "lambda", "bits", "distortion_db", "l1", "model_bytes", "payload_bytes"])
        for curve in curves:
            for p in curve.points:
                writer.writerow(
                    [curve.method, p.lam, f"{p.bits:.10g}", f"{p.distortion_db:.10g}",
                     f"{p.l1:.10g}", p.model_bytes, p.payload_bytes]
                )


def write_bd_csv(curves: list[RdCurve], path) -> list[tuple[str, str, float]]:
    rows = []
    for test in curves:
        for anchor in curves:
            if test.method == anchor.method:
                continue
            try:
                rows.append((test.method, anchor.method, bd_rate(test, anchor)))
            except NoOverlap:
                continue
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test", "anchor", "bd_rate_percent"])
        for test_name, anchor_name, value in rows:
            writer.writerow([test_name, anchor_name, f"{value:.10g}"])
    return rows
