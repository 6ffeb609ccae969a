"""Command-line surface: fit, encode, decode, eval, bench, image-metric, report.

Thread-count env vars are applied before numpy is imported, so the heavy
modules are imported lazily inside the command handlers; a ``main`` call in a
process that has already loaded numpy leaves them alone. Exit codes: 0 ok,
2 config error, 3 data error (any other codec error), 4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_DIVERGED = 4

# fit keys passed on to trainer.TrainConfig and to codec.default_configs
_TRAIN_KEYS = {
    "lambda_e": float,
    "lr": float,
    "iters": int,
    "batch": int,
    "seed": int,
    "grad_clip": float,
    "log_every": int,
}
_STREAM_KEYS = {
    "transform": str,
    "rank": int,
    "n_meas": int,
    "n_atoms": int,
    "n_layers": int,
    "scaling_cols": int,
}
_FIT_KEYS = {"lambda": float, **_TRAIN_KEYS, **_STREAM_KEYS}

# bench keys passed on to bench.SyntheticSpec and to bench.baseline_rd
_SPEC_KEYS = {
    "n_rows": int,
    "dim": int,
    "rank": int,
    "spectrum_exp": float,
    "spectrum_scale": float,
    "sparsity": int,
    "spike_scale": float,
    "noise": float,
    "basis": str,
}
_RD_KEYS = {"iters": int, "batch": int, "n_meas": int, "n_layers": int}


def _unquote(raw: str) -> str:
    """``raw`` without the double or single quotes around it."""
    return raw.strip('"').strip("'")


def _list_of(kind):
    """The parser of a ``[a, b]`` or ``a, b`` list of ``kind``; each item may
    be quoted, as a single value may."""

    def parse(raw: str) -> list:
        return [kind(_unquote(item.strip())) for item in raw.strip("[]").split(",") if item.strip()]

    return parse


_BENCH_KEYS = {**_SPEC_KEYS, **_RD_KEYS, "seed": int, "methods": _list_of(str), "lambdas": _list_of(float)}


def load_config(path, allowed: dict) -> dict:
    """Flat key = value config file; # comments; unknown keys rejected."""
    from .errors import ConfigError

    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = allowed[key](_unquote(raw))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_table(path):
    """CSV with a header row, or raw little-endian f32 with a dims sidecar."""
    import numpy as np

    from .errors import DataError

    if not os.path.exists(path):
        raise DataError(f"no such input: {path}")
    if path.endswith(".csv"):
        try:
            data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64, ndmin=2)
        except Exception as exc:
            raise DataError(f"cannot parse CSV {path}: {exc}") from exc
    else:
        dims_path = path + ".dims"
        if not os.path.exists(dims_path):
            raise DataError(f"raw input {path} needs a dims sidecar {dims_path}")
        try:
            with open(dims_path) as f:
                rows, cols = (int(t) for t in f.read().split())
        except Exception as exc:
            raise DataError(f"bad dims sidecar {dims_path}") from exc
        if rows <= 0 or cols <= 0:
            raise DataError(f"dims sidecar {dims_path} gives {rows} x {cols}; both must be positive")
        raw = np.fromfile(path, dtype="<f4")
        if raw.size != rows * cols:
            raise DataError(f"{path}: expected {rows * cols} f32 values, found {raw.size}")
        data = raw.reshape(rows, cols).astype(np.float64)
    if data.size == 0 or not np.isfinite(data).all():
        raise DataError(f"{path}: empty table or non-finite entries")
    return data


def save_table(path, x):
    import numpy as np

    header = ",".join(f"c{i}" for i in range(x.shape[1]))
    np.savetxt(path, x, delimiter=",", header=header, comments="", fmt="%.17g")


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _given(cfg: dict, keys) -> dict:
    """The entries of ``cfg`` among ``keys``: a config file passes on only the
    keys it sets, and the callee keeps its own defaults."""
    return {k: cfg[k] for k in keys if k in cfg}


def _stream_configs(dim: int, cfg: dict):
    from .codec import default_configs

    return default_configs(dim, **_given(cfg, _STREAM_KEYS))


def _train_config(cfg: dict, args):
    from .trainer import TrainConfig

    kw = _given(cfg, _TRAIN_KEYS)
    if "lambda" in cfg:
        kw["lam"] = cfg["lambda"]
    if args.lam is not None:
        kw["lam"] = args.lam
    if args.seed is not None:
        kw["seed"] = args.seed
    return TrainConfig(**kw)


def cmd_fit(args) -> int:
    from . import bitstream
    from .trainer import train

    cfg = load_config(args.config, _FIT_KEYS) if args.config else {}
    x = load_table(args.input)
    tc = _train_config(cfg, args)
    bundle, log = train(x, _stream_configs(x.shape[1], cfg), tc)
    bundle_path = _out_path(args, "bundle.shtc")
    counts = bitstream.write(bundle, None, bundle_path)
    log_path = _out_path(args, "train_log.csv")
    rows = [{"iter": row["iter"], **row} for row in log]  # iter first, the rest in log order
    with open(log_path, "w", encoding="utf-8") as fh:
        if rows:
            fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row.values()) + "\n")
    print(json.dumps({"bundle": bundle_path, "train_log": log_path, **counts}))
    return 0


def cmd_encode(args) -> int:
    from . import bitstream
    from .codec import encode_table

    x = load_table(args.input)
    bundle, _ = bitstream.read(args.bundle)
    payload, _ = encode_table(bundle, x)
    out_path = _out_path(args, "encoded.shtc")
    bitstream.write(bundle, payload, out_path)
    mdl = bitstream.mdl_report(bundle, payload)
    keys = ("model_bytes", "payload_bytes", "file_bytes", "bits_per_row", "coded_channels", "lanes")
    print(json.dumps({"encoded": out_path, **{k: mdl[k] for k in keys}}))
    return 0


def cmd_decode(args) -> int:
    from . import bitstream
    from .codec import decode_table

    bundle, payload = bitstream.read(args.input)
    x_hat = decode_table(bundle, payload)
    out_path = _out_path(args, "decoded.csv")
    save_table(out_path, x_hat)
    print(json.dumps({"decoded": out_path, "rows": int(x_hat.shape[0]), "cols": int(x_hat.shape[1])}))
    return 0


def _is_bitstream(path) -> bool:
    from .bitstream import MAGIC

    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def cmd_eval(args) -> int:
    from .bench import distortion
    from .errors import DimMismatch

    x = load_table(args.original)
    report = {}
    if _is_bitstream(args.decoded):
        from . import bitstream
        from .codec import decode_table

        bundle, payload = bitstream.read(args.decoded)
        x_hat = decode_table(bundle, payload)
        report["mdl"] = mdl = bitstream.mdl_report(bundle, payload)
        report["bits_per_row"] = mdl["bits_per_row"]
    else:
        x_hat = load_table(args.decoded)
    if x.shape != x_hat.shape:
        raise DimMismatch(f"table shapes differ: {x.shape} vs {x_hat.shape}")
    report.update(distortion(x, x_hat))
    print(json.dumps(report))
    return 0


def cmd_bench(args) -> int:
    from . import bench
    from .errors import ConfigError

    cfg = load_config(args.config, _BENCH_KEYS) if args.config else {}
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    methods = cfg.get("methods") or ([args.method] if args.method else list(bench.METHODS))
    unknown = [m for m in methods if m not in bench.METHODS]
    if unknown:
        raise ConfigError(f"unknown bench method(s) {unknown}; choose from {list(bench.METHODS)}")
    lambdas = cfg.get("lambdas") or ([args.lam] if args.lam is not None else list(bench.DEFAULT_LAMBDAS))
    if args.input:
        x = load_table(args.input)
    else:
        x = bench.synth_source(bench.SyntheticSpec(seed=seed, **_given(cfg, _SPEC_KEYS)))
    rd_kw = _given(cfg, _RD_KEYS)
    curves = [bench.baseline_rd(x, method, lambdas, seed=seed, **rd_kw) for method in methods]
    rd_path = _out_path(args, "rd_curve.csv")
    bench.write_rd_csv(curves, rd_path)
    bd_path = _out_path(args, "bd_rate.csv")
    rows = bench.write_bd_csv(curves, bd_path)
    print(json.dumps({
        "rd_curve": rd_path,
        "bd_rate": bd_path,
        "bd_rows": [{"test": t, "anchor": a, "percent": v} for t, a, v in rows],
    }))
    return 0


def cmd_image_metric(args) -> int:
    from .imagemetric import read_ppm, ycbcr_components

    comps = ycbcr_components(read_ppm(args.image_a), read_ppm(args.image_b))
    print(json.dumps(comps))
    return 0


def cmd_report(args) -> int:
    from .errors import ConfigError

    if not args.table and not args.bitstream:
        raise ConfigError("report needs --table and/or --bitstream")
    out = {}
    if args.table:
        from . import bench
        from .base_layer import fit_klt

        x = load_table(args.table)
        out["analysis"] = bench.analysis_report(x, fit_klt(x, x.shape[1]), args.out)
    if args.bitstream:
        from . import bitstream

        out["mdl"] = bitstream.mdl_report(*bitstream.read(args.bitstream))
    print(json.dumps(out))
    return 0


def _thread_count(raw: str) -> int:
    """``--threads``: a positive count, since OpenBLAS reads 0 or less as no cap."""
    count = int(raw)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_common(parser):
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=_thread_count, default=1)


def _add_run_flags(parser):
    """The flags of the commands that train: ``fit`` and ``bench``."""
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shtc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a codec bundle on a table")
    p.add_argument("input")
    _add_common(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("encode", help="entropy-code a table with a fitted bundle")
    p.add_argument("input")
    p.add_argument("bundle")
    _add_common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a table from a bitstream")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="distortion/rate metrics for a reconstruction")
    p.add_argument("original")
    p.add_argument("decoded", help="decoded table or .shtc bitstream")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="R-D sweep over baseline transforms")
    p.add_argument("--input", default=None, help="table to bench (default: synthetic)")
    p.add_argument("--method", default=None)
    _add_common(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("image-metric", help="YCbCr-space distortion between two PPM images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    _add_common(p)
    p.set_defaults(func=cmd_image_metric)

    p = sub.add_parser("report", help="correlation/energy report and MDL accounting")
    p.add_argument("--table", default=None)
    p.add_argument("--bitstream", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def _apply_threads(args):
    """Cap each BLAS pool at ``--threads``; a pool's variable already set in
    the environment wins over the flag."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(getattr(args, "threads", 1)))


def main(argv=None) -> int:
    from .errors import CodecError, ConfigError, Diverged

    args = build_parser().parse_args(argv)
    if "numpy" not in sys.modules:  # BLAS sizes its pools when numpy loads: later writes only leak
        _apply_threads(args)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except Diverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return _EXIT_DIVERGED
    except (CodecError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
