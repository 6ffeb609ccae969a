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
from .errors import ConfigError, Diverged, NoOverlap, Overflow
from .trainer import TrainConfig, train

DEFAULT_LAMBDAS = (0.002, 0.004, 0.008, 0.015)

# rd_point settings: those of the training run, then those of the streams
_TRAIN_SETTINGS = ("iters", "batch")
_STREAM_SETTINGS = ("rank", "n_meas", "n_layers")


@dataclass
class SyntheticSpec:
    n_rows: int = 20000
    dim: int = 50
    rank: int = 15
    spectrum_exp: float = 1.5
    spectrum_scale: float = 3.0
    sparsity: int = 5
    spike_scale: float = 0.6
    noise: float = 0.01
    seed: int = 0
    basis: str = "random"  # random | smooth (low-frequency, DCT-like)

    def __post_init__(self):
        if self.sparsity > self.dim or self.rank > self.dim:
            raise ConfigError("sparsity and rank cannot exceed dim")
        if self.n_rows < 2:
            raise ConfigError("need at least 2 rows")
        if self.basis not in ("random", "smooth"):
            raise ConfigError(f"unknown basis kind {self.basis!r}")


def _mixing_basis(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.basis == "random":
        q, r = np.linalg.qr(rng.normal(size=(spec.dim, spec.dim)))
        return q * np.sign(np.diag(r))
    # smooth: mostly low-frequency structure, a DCT basis nudged by a small
    # random rotation, so a fixed DCT sits between KLT and raw channels
    base = linalg.dct_matrix(spec.dim).T
    q, r = np.linalg.qr(base + 0.15 * rng.normal(size=(spec.dim, spec.dim)))
    return q * np.sign(np.diag(r))


def synth_source(spec: SyntheticSpec) -> np.ndarray:
    """Seeded table: U diag(sqrt(lam)) z + sparse spikes + white noise.
    Each row's ``sparsity`` spikes sit on channel axes."""
    rng = np.random.default_rng(spec.seed)
    u = _mixing_basis(spec, rng)
    lam = spec.spectrum_scale * (np.arange(spec.rank) + 1.0) ** (-spec.spectrum_exp)
    z = rng.normal(size=(spec.n_rows, spec.rank)) * np.sqrt(lam)
    x = z @ u[:, : spec.rank].T
    if spec.sparsity > 0 and spec.spike_scale > 0:
        spikes = np.zeros_like(x)
        cols = np.argsort(rng.random((spec.n_rows, spec.dim)), axis=1)[:, : spec.sparsity]
        np.put_along_axis(spikes, cols, rng.normal(0.0, spec.spike_scale, size=cols.shape), axis=1)
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


def distortion(x: np.ndarray, recon: np.ndarray) -> dict:
    """The distortion of ``recon``: mean absolute error ``l1``, ``rmse``, and
    ``distortion_db``, a PSNR-like dB scale: -20 log10(rmse / value range of x)."""
    err = x - recon
    l1 = float(np.abs(err, out=err).mean())  # in place: one table-sized array at a time
    rmse = float(np.sqrt(np.mean(np.square(err, out=err))))
    rng_val = float(x.max() - x.min())
    return {
        "l1": l1,
        "rmse": rmse,
        "distortion_db": -20.0 * np.log10(max(rmse, 1e-12) / max(rng_val, 1e-12)),
    }


def distortion_db(x: np.ndarray, recon: np.ndarray) -> float:
    """The dB scale of ``distortion``."""
    return distortion(x, recon)["distortion_db"]


def rd_point(x: np.ndarray, transform: str, lam: float, seed: int = 0, **settings) -> RdPoint:
    """Train one operating point and measure it from the actual bitstream.

    ``settings`` may set ``iters`` and ``batch`` of the ``TrainConfig`` and
    ``rank``, ``n_meas`` and ``n_layers`` of ``default_configs``; a setting
    not given keeps its default there.
    """
    unknown = set(settings).difference(_TRAIN_SETTINGS, _STREAM_SETTINGS)
    if unknown:
        raise TypeError(f"unknown rd_point settings {sorted(unknown)}")
    train_kw = {k: settings[k] for k in _TRAIN_SETTINGS if k in settings}
    stream_kw = {k: settings[k] for k in _STREAM_SETTINGS if k in settings}
    configs = default_configs(x.shape[1], transform=transform, **stream_kw)
    bundle, _ = train(x, configs, TrainConfig(lam=lam, seed=seed, **train_kw))
    payload, recon = encode_table(bundle, x)
    data, counts = serialize(bundle, payload)
    d = distortion(x, recon)
    return RdPoint(lam=lam, bits=len(data) * 8.0, distortion_db=d["distortion_db"], l1=d["l1"], **counts)


def baseline_rd(x: np.ndarray, transform: str, lambdas=DEFAULT_LAMBDAS, seed: int = 0, **settings) -> RdCurve:
    """One trained-and-encoded run per lambda, each with ``rd_point``'s
    ``settings``. A point whose training diverges or whose symbols overflow
    skips with a warning; any other error, a bad setting among them, raises."""
    points = []
    for lam in lambdas:
        try:
            points.append(rd_point(x, transform, lam, seed=seed, **settings))
        except (Diverged, Overflow) as exc:
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
