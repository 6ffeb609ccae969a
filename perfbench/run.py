"""shtc benchmark: fit, encode and decode time, and the R-D point.

Run from the repository root:

    python3 perfbench/run.py --workload fit-std --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

One workload runs in one process, closed loop with one client, BLAS capped at
one thread. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics, timed by wrapping the public functions of the
``shtc`` modules from outside (see ``tracing.py``), plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is a
JSON record of the environment, the sample counts and the R-D point.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One client and one BLAS thread: set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fit-std", "codec-small")
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_shtc():
    """Import shtc from this checkout's ``src``, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "shtc", "__init__.py")):
        sys.exit(f"perfbench: no shtc sources under {SRC}")
    sys.path.insert(0, SRC)
    import shtc

    if os.path.dirname(os.path.dirname(os.path.abspath(shtc.__file__))) != SRC:
        sys.exit(f"perfbench: imported shtc from {shtc.__file__}, not from {SRC}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other; merged result."""
    import_shtc()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:36s} {entry['value']:.6g} {entry['unit']}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_shtc()
    import numpy  # noqa: F401  (part of the measured import time)
    import scipy  # noqa: F401

    import workloads

    import_s = time.perf_counter() - _START
    detail, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    detail["env"] = workloads.environment(ROOT, BLAS_THREADS)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
