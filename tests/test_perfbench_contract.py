"""The benchmark's contract with the package.

``perfbench/run.py`` counts an exception inside a timed op as a failed op and
goes on, but an exception while installing its tracer, while stamping the
environment record or in a workload's set-up ends the whole run. These tests
run those paths from the checkout's ``perfbench/``: every name the tracer
rebinds resolves, a traced fit, encode and decode run clean on a tiny table,
and each workload runs its set-up and its least number of cycles without a
failed op.
"""

import os
import sys

import numpy as np
import pytest

from shtc import bench, bitstream, codec, trainer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)  # workloads imports tracing as a top-level module
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return tracing, workloads


def test_every_traced_name_resolves(perfbench):
    tracing, _ = perfbench
    for module, attr, span in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_environment_record(perfbench):
    _, workloads = perfbench
    env = workloads.environment(ROOT, 1)
    assert env["src_shtc_lines"] > 0
    assert env["blas_threads"] == 1


def test_traced_fit_encode_decode(perfbench):
    tracing, _ = perfbench
    x = bench.synth_source(bench.SyntheticSpec(n_rows=200, dim=12, rank=4, sparsity=2, seed=0))
    configs = codec.default_configs(x.shape[1], rank=4, n_meas=4, n_layers=2)
    tracer = tracing.Tracer()

    def traced(kind, fn, bundle=None):
        try:
            tracer.install(kind)
            result = fn()
        finally:
            tracer.uninstall(bundle)
        return result

    bundle = traced("fit", lambda: trainer.train(x, configs, trainer.TrainConfig(iters=6, batch=32))[0])
    payloads, recon = traced("encode", lambda: codec.encode_table(bundle, x), bundle)
    data = traced("encode", lambda: bitstream.serialize(bundle, payloads)[0], bundle)
    decoded = traced("decode", lambda: codec.decode_table(*bitstream.deserialize(data)))
    assert np.array_equal(decoded, recon)
    # every original is back in place
    for module, attr, _ in tracing.TARGETS:
        assert not hasattr(getattr(module, attr), "__wrapped__")

    assert tracer.calls["trainer.forward"] == 6
    metrics = tracer.metrics()
    assert metrics["autodiff.nodes_per_iter"][0] >= 1
    for name in ("trainer.forward_ms", "trainer.backward_ms", "trainer.adam_ms", "trainer.iter_ms"):
        assert metrics[name][0] > 0.0, name
    assert metrics["bitstream.payload_bytes"][0] > 0


@pytest.mark.parametrize("name", ["fit-std", "codec-small"])
def test_workload_runs_clean(perfbench, name):
    _, workloads = perfbench
    detail, result = workloads.run(name, 1, 0.0, False, 0.0)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] > 0
