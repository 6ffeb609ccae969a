"""The shtc benchmark workloads, their op loop and their metrics.

Every workload is one process and one client in a closed loop: the next op
starts when the previous one returns. The ops are what a user does:

* fit:    ``trainer.train`` on a table;
* encode: ``codec.encode_table`` + ``bitstream.serialize``, giving a file;
* decode: ``bitstream.deserialize`` + ``codec.decode_table`` of that file.

All data is ``bench.synth_source`` output from ``--seed``, and lambda is
0.004 throughout. Every decode must reproduce the encoder-side reconstruction
bit-exactly, and every repeat of a fit, or re-encode of a block, must give
the same file; an exception or a mismatch counts as a failed op.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from shtc import bench, bitstream, codec, entropy, trainer

import tracing

LAM = 0.004
TRAIN_SEED = 0
SETUP_REPEATS = 3
MIN_CYCLES = 2  # a traced run alternates untraced and traced ops

# The host's speed drifts between two levels about 1.7x apart, over seconds
# to minutes, so raw op times move with the host as much as with the code.
# A fixed reference work is timed before and after each op, and gated times
# are scaled to the reference work's time at the host's fast level.
REF_WORK_S = 0.0009
PROBE_REUSE_S = 0.05  # a probe this recent also serves as the next op's "before"
_REF_M = np.linspace(-1.0, 1.0, 64).reshape(8, 8)

FIT_ITERS = 300

# codec-small: one bundle fitted on the first rows of the source, then
# held-out 128-row blocks of the same source, each its own file.
CODEC_TRAIN_ROWS = 20000
REFIT_EVERY_S = 8.0
BLOCK_ROWS, N_BLOCKS = 128, 64


class FitStd:
    """Each cycle fits a bundle on the standard table, then encodes and decodes it."""

    why = ("fit, encode, decode the standard 20000x50 table: the tape is most of a fit, "
           "the per-symbol coder most of a bulk encode or decode")

    def setup(self, seed, run):
        x = bench.synth_source(bench.SyntheticSpec(seed=seed))
        return {"x": x, "configs": codec.default_configs(x.shape[1])}

    def min_cycles(self, ctx):
        return MIN_CYCLES

    def cycle(self, ctx, run, i):
        x = ctx["x"]
        config = trainer.TrainConfig(lam=LAM, iters=FIT_ITERS, seed=TRAIN_SEED)
        bundle = run.op("fit", lambda: trainer.train(x, ctx["configs"], config)[0])
        if bundle is None:
            run.skipped("encode", "decode")
            return
        if run.encode_decode(bundle, x, "table") is False:
            run.failed_op("fit", "a repeated fit gave a different file")


class CodecSmall:
    """One bundle fitted in set-up; each cycle codes the next block."""

    why = "encode, decode 128-row files with one bundle: per-file tables, container and model block dominate"

    def setup(self, seed, run):
        x = bench.synth_source(bench.SyntheticSpec(n_rows=CODEC_TRAIN_ROWS + BLOCK_ROWS * N_BLOCKS, seed=seed))
        ctx = {"train_x": x[:CODEC_TRAIN_ROWS], "configs": codec.default_configs(x.shape[1])}
        bundle = self.fit(ctx, run)
        if bundle is None:
            raise RuntimeError("the set-up fit failed")
        ctx["bundle"] = bundle
        ctx["blocks"] = np.split(x[CODEC_TRAIN_ROWS:], N_BLOCKS)
        return ctx

    def fit(self, ctx, run):
        """The bundle fit; every repeat must give the same bundle bytes."""
        config = trainer.TrainConfig(lam=LAM, iters=FIT_ITERS, seed=TRAIN_SEED)
        bundle = run.op("fit", lambda: trainer.train(ctx["train_x"], ctx["configs"], config)[0])
        if bundle is not None and not run.same_as_before("bundle", bitstream.serialize(bundle)[0]):
            run.failed_op("fit", "a repeated fit gave a different bundle")
        ctx["last_fit"] = time.perf_counter()
        return bundle

    def min_cycles(self, ctx):
        return max(MIN_CYCLES, N_BLOCKS)  # every block is in the R-D point

    def cycle(self, ctx, run, i):
        # Refits spread over the run give fit_s samples from more than the
        # few seconds of set-up; coding always uses the set-up bundle.
        if time.perf_counter() - ctx["last_fit"] >= REFIT_EVERY_S:
            self.fit(ctx, run)
        b = i % N_BLOCKS
        if run.encode_decode(ctx["bundle"], ctx["blocks"][b], b) is False:
            run.failed_op("encode", f"re-encoding block {b} gave a different file")


WORKLOADS = {"fit-std": FitStd(), "codec-small": CodecSmall()}


def reference_work() -> float:
    """Fixed interpreter and small-matrix work, the same mix as shtc's ops."""
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    m = _REF_M
    for _ in range(160):
        m = np.tanh(m @ _REF_M)
    return acc + float(m[0, 0])


def probe() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def encode_file(bundle, x):
    """One encode op: the file bytes and the encoder-side reconstruction."""
    payloads, recon = codec.encode_table(bundle, x)
    data, _ = bitstream.serialize(bundle, payloads)
    return data, recon


def decode_file(data):
    """One decode op: the table decoded from the file bytes."""
    bundle, payloads = bitstream.deserialize(data)
    return codec.decode_table(bundle, payloads)


class Run:
    """Op timings, failures, repeat references and the R-D point of one run.

    With a tracer, ops of each kind alternate untraced and traced; per-layer
    numbers come from the traced ones only.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = {kind: ([], []) for kind in ("fit", "encode", "decode")}  # untraced, traced
        self.scaled = {kind: [] for kind in self.samples}  # untraced, at reference speed
        self._probe = (float("-inf"), 0.0)  # (end time, seconds) of the last probe
        self.rows = {"encode": [], "decode": []}  # rows per untraced op
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.reference: dict = {}
        self.rd: dict = {}  # key -> (file bits, table, reconstruction)
        self._count = {kind: 0 for kind in self.samples}

    def op(self, kind, fn, rows=0, bundle=None):
        """Run and time one op; returns its result, or None if it raised."""
        traced = self.tracer is not None and self._count[kind] % 2 == 1
        self._count[kind] += 1
        self.attempted += 1
        if traced:
            self.tracer.install(kind)
        elapsed = None
        before = self._speed()
        t0 = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - t0
        except Exception:  # counted as a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            self._fail(f"{kind}: exception")
            return None
        finally:
            if traced:
                self.tracer.uninstall(bundle if elapsed is not None else None)
        self.samples[kind][traced].append(elapsed)
        if not traced:
            self.scaled[kind].append(elapsed * REF_WORK_S / (0.5 * (before + self._speed())))
            if rows:
                self.rows[kind].append(rows)
        return result

    def _speed(self):
        """Reference-work seconds now, reusing a probe taken just before."""
        end, seconds = self._probe
        if time.perf_counter() - end > PROBE_REUSE_S:
            seconds = probe()
            self._probe = (time.perf_counter(), seconds)
        return seconds

    def _fail(self, reason):
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def failed_op(self, kind, reason):
        """An op that ran but whose output is wrong."""
        print(f"perfbench: {kind} failed: {reason}", file=sys.stderr)
        self._fail(f"{kind}: {reason}")

    def skipped(self, *kinds):
        """Ops that could not run because an op they need failed."""
        for kind in kinds:
            self.attempted += 1
            self._fail(f"{kind}: input op failed")

    def same_as_before(self, key, value: bytes) -> bool:
        first = self.reference.setdefault(key, value)
        return first == value

    def encode_decode(self, bundle, x, key):
        """Encode ``x`` to a file and decode it; False if the file differs from
        the one an earlier cycle made under ``key``."""
        encoded = self.op("encode", lambda: encode_file(bundle, x), rows=x.shape[0], bundle=bundle)
        if encoded is None:
            self.skipped("decode")
            return None
        data, recon = encoded
        same = self.same_as_before(key, data)
        self.rd.setdefault(key, (8.0 * len(data), x, recon))
        decoded = self.op("decode", lambda: decode_file(data), rows=x.shape[0])
        if decoded is not None and not (decoded.shape == x.shape and np.array_equal(decoded, recon)):
            self.failed_op("decode", "decoded table differs from the encoder-side reconstruction")
        return same


def _quantile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def _summary(values):
    """Count, minimum, quartiles and p90 of a sample, for the detail record."""
    summary = {"n": len(values), "min": min(values, default=float("nan"))}
    summary.update({f"p{q}": _quantile(values, q) for q in (25, 50, 75, 90)})
    return summary


def _rd_point(run):
    keys = sorted(run.rd, key=str)
    bits = sum(run.rd[k][0] for k in keys)
    x = np.vstack([run.rd[k][1] for k in keys])
    recon = np.vstack([run.rd[k][2] for k in keys])
    return bits / x.shape[0], bench.distortion_db(x, recon), x.shape[0]


def run(name, seed, seconds, traced, import_s):
    """Set up, loop for ``seconds``, and return (detail record, result line)."""
    wl = WORKLOADS[name]
    tracer = tracing.Tracer() if traced else None
    r = Run(tracer)
    import_scaled = import_s * REF_WORK_S / probe()
    setup_s, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        ctx = wl.setup(seed, r)
        setup_s.append(time.perf_counter() - t0)
        setup_scaled.append(setup_s[-1] * REF_WORK_S / (0.5 * (before + probe())))

    cycles = 0
    start = time.perf_counter()
    while cycles < wl.min_cycles(ctx) or time.perf_counter() - start < seconds:
        wl.cycle(ctx, r, cycles)
        cycles += 1
    loop_s = time.perf_counter() - start

    untraced = {kind: r.samples[kind][0] for kind in r.samples}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "cycles": cycles, "loop_s": loop_s, "setup_repeats_s": setup_s, "import_s": import_s,
        "ops": {kind: _summary(untraced[kind]) for kind in untraced},
        "ops_at_reference_speed": {kind: _summary(r.scaled[kind]) for kind in r.scaled},
        "failures": r.failures,
        "error_rate": r.failed / r.attempted,
    }
    if r.rd:
        bpr, db, rd_rows = _rd_point(r)
        detail["rd"] = {"bits_per_row": bpr, "distortion_db": db, "rows": rd_rows, "files": len(r.rd)}

    if traced:
        metrics = tracer.metrics()
        for kind, (plain, timed) in r.samples.items():
            overhead = 1e3 * (_quantile(timed, 50) - _quantile(plain, 50)) if plain and timed else 0.0
            metrics[f"trace.{kind}_overhead_ms"] = (overhead, "ms")
        metrics["error_rate"] = (detail["error_rate"], "ratio")
        detail["traced_ops"] = {kind: _summary(r.samples[kind][1]) for kind in r.samples}
    else:
        def rows_per_s(kind):
            return _quantile([n / t for n, t in zip(r.rows[kind], r.scaled[kind])], 50)

        enc_ms = [1e3 * t for t in r.scaled["encode"]]
        dec_ms = [1e3 * t for t in r.scaled["decode"]]
        rd = detail.get("rd", {"bits_per_row": float("nan"), "distortion_db": float("nan")})
        metrics = {
            "setup_s": (import_scaled + _quantile(setup_scaled, 50), "s"),
            "fit_s": (_quantile(r.scaled["fit"], 50), "s"),
            "encode_rows_per_s": (rows_per_s("encode"), "rows/s"),
            "decode_rows_per_s": (rows_per_s("decode"), "rows/s"),
            "encode_ms_p50": (_quantile(enc_ms, 50), "ms"),
            "encode_ms_p90": (_quantile(enc_ms, 90), "ms"),
            "decode_ms_p50": (_quantile(dec_ms, 50), "ms"),
            "decode_ms_p90": (_quantile(dec_ms, 90), "ms"),
            "bits_per_row": (rd["bits_per_row"], "bits/row"),
            "distortion_db": (rd["distortion_db"], "dB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref[5:]:
                    return parts[0]
    return None


def environment(root, blas_threads):
    """What the result was measured on and with."""
    src = os.path.join(root, "src", "shtc")
    lines = 0
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": bool(entropy._HAVE_NUMBA),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(blas_threads),
        "git_commit": _git_commit(root),
        "src_shtc_lines": lines,
    }
