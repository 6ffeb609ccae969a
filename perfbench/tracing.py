"""Per-layer timing of shtc, taken from outside the program.

``Tracer.install`` rebinds each traced function at the name its caller looks
up, e.g. ``shtc.codec.encode_symbols`` (which ``codec`` imported by name from
``entropy``) or ``shtc.linalg.sym_eig`` (which ``base_layer`` reaches through
the module), to a timing wrapper; ``Tracer.uninstall`` puts the originals
back. Nothing under ``src/`` changes. A wrapper records calls, inclusive time
and self time, which is the inclusive time minus that of traced calls nested
inside it. A few wrappers also count work: tape nodes per training step,
symbols coded, and the byte split of each serialized file.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from shtc import base_layer, bitstream, codec, entropy, linalg, quantizer, refinement, trainer

# (module, name the caller looks up, span name)
TARGETS = (
    (trainer, "fit_bundle", "codec.fit_bundle"),
    (trainer, "loss", "trainer.forward"),
    (trainer, "backward", "trainer.backward"),
    (trainer, "adam_step", "trainer.adam"),
    (linalg, "covariance", "linalg.covariance"),
    (linalg, "sym_eig", "linalg.sym_eig"),
    (entropy, "build_tables", "entropy.build_tables"),
    (codec, "encode_symbols", "entropy.encode"),
    (codec, "decode_symbols", "entropy.decode"),
    (base_layer, "analyze_base", "base_layer.analyze"),
    (base_layer, "synthesize_base", "base_layer.synthesize"),
    (refinement, "analyze_refine", "refinement.analyze"),
    (refinement, "unfold_synthesize", "refinement.unfold_synthesize"),
    (quantizer, "quantize", "quantizer.quantize"),
    (quantizer, "dequantize", "quantizer.dequantize"),
    (bitstream, "serialize", "bitstream.serialize"),
    (bitstream, "deserialize", "bitstream.deserialize"),
)

ROLES = ("base", "refine")


def tape_size(root) -> int:
    """Distinct ``autodiff.Var`` nodes reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Spans and counts of the traced ops of one benchmark process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.ops = defaultdict(int)
        self._stack: list[list[float]] = []
        self._saved = []
        self._pending = []  # (symbols, model, sched, coded bytes) of one encode op
        self._loop = None  # [first forward start, last Adam end, tracer time inside]
        self._hooks = {
            "trainer.forward": self._on_forward,
            "trainer.adam": self._on_adam,
            "entropy.encode": self._on_encode,
            "entropy.decode": self._on_decode,
            "bitstream.serialize": self._on_serialize,
        }

    def install(self, kind: str):
        """Start tracing one op of ``kind`` (fit, encode or decode)."""
        self.ops[kind] += 1
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, self._hooks.get(name)))

    def uninstall(self, bundle=None):
        """Restore the originals; ``bundle`` names the latents an encode op coded
        (None after a failed op, whose partial rate record is dropped)."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        if self._loop is not None:
            start, end, inside = self._loop
            self.counts["loop_s"] += end - start - inside
            self._loop = None
        if bundle is not None and self._pending:
            self._settle(bundle)
        self._pending.clear()

    def _wrap(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                self.calls[name] += 1
                self.incl[name] += t1 - t0
                self.self_s[name] += t1 - t0 - frame[0]
            if hook is not None:
                hook(t0, t1, args, result)
            return result

        return timed

    def _on_forward(self, t0, t1, args, result):
        if self._loop is None:
            self._loop = [t0, t1, 0.0]
        self.counts["tape_nodes"] += tape_size(result[0])
        self._loop[2] += time.perf_counter() - t1

    def _on_adam(self, t0, t1, args, result):
        self._loop[1] = t1

    def _on_encode(self, t0, t1, args, result):
        symbols, model, sched = args[:3]
        self.counts["symbols_encoded"] += symbols.size
        self._pending.append((symbols, model, sched, len(result)))

    def _on_decode(self, t0, t1, args, result):
        self.counts["symbols_decoded"] += result.size

    def _on_serialize(self, t0, t1, args, result):
        data, split = result
        self.counts["files"] += 1
        self.counts["model_bytes"] += split["model_bytes"]
        self.counts["payload_bytes"] += split["payload_bytes"]
        self.counts["overhead_bytes"] += len(data) - split["model_bytes"] - split["payload_bytes"]

    def _settle(self, bundle):
        """Coded bits against ``entropy.rate_bits`` of the dequantized symbols.

        Runs after ``uninstall``, so the estimate is neither timed nor traced.
        Latents are coded stream by stream, base before refinement.
        """
        roles = [role for sm in bundle.streams for role in ROLES[: 1 + (sm.refine is not None)]]
        if len(roles) != len(self._pending):
            raise RuntimeError(f"{len(self._pending)} coded latents, bundle has {len(roles)}")
        for role, (symbols, model, sched, nbytes) in zip(roles, self._pending):
            estimate = entropy.rate_bits(quantizer.dequantize(symbols, sched), model, sched)
            self.counts[f"coded_bits.{role}"] += 8.0 * nbytes
            self.counts[f"estimate_bits.{role}"] += estimate

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: ``name -> (value, unit)``."""
        calls, incl, counts = self.calls, self.incl, self.counts

        def per_call_ms(name):
            return 1e3 * incl[name] / calls[name] if calls[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        iters = calls["trainer.forward"]
        iter_ms = 1e3 * ratio(counts["loop_s"], iters)
        fwd_ms = 1e3 * ratio(incl["trainer.forward"], iters)
        bwd_ms = 1e3 * ratio(incl["trainer.backward"], iters)
        adam_ms = 1e3 * ratio(incl["trainer.adam"], iters)
        files = self.ops["encode"] + self.ops["decode"]
        coded = sum(counts[f"coded_bits.{r}"] for r in ROLES)
        estimate = sum(counts[f"estimate_bits.{r}"] for r in ROLES)
        out = {
            "trainer.iter_ms": (iter_ms, "ms"),
            "trainer.forward_ms": (fwd_ms, "ms"),
            "trainer.backward_ms": (bwd_ms, "ms"),
            "trainer.adam_ms": (adam_ms, "ms"),
            "trainer.self_ms": (iter_ms - fwd_ms - bwd_ms - adam_ms, "ms"),
            "autodiff.nodes_per_iter": (ratio(counts["tape_nodes"], iters), "count"),
            "linalg.sym_eig_ms": (per_call_ms("linalg.sym_eig"), "ms"),
            "linalg.sym_eig_calls": (ratio(calls["linalg.sym_eig"], self.ops["fit"]), "count"),
            "linalg.covariance_ms": (per_call_ms("linalg.covariance"), "ms"),
            "codec.fit_bundle_ms": (per_call_ms("codec.fit_bundle"), "ms"),
            "entropy.encode_us_per_symbol": (
                1e6 * ratio(self.self_s["entropy.encode"], counts["symbols_encoded"]), "us"),
            "entropy.decode_us_per_symbol": (
                1e6 * ratio(self.self_s["entropy.decode"], counts["symbols_decoded"]), "us"),
            "entropy.symbols": (ratio(counts["symbols_encoded"], self.ops["encode"]), "count"),
            "entropy.build_tables_ms": (per_call_ms("entropy.build_tables"), "ms"),
            "entropy.build_tables_calls": (ratio(calls["entropy.build_tables"], files), "count"),
            "entropy.coded_over_estimate": (ratio(coded, estimate), "ratio"),
            "entropy.coded_bits": (ratio(coded, self.ops["encode"]), "bits"),
            "entropy.estimate_bits": (ratio(estimate, self.ops["encode"]), "bits"),
            "refinement.unfold_synthesize_ms": (per_call_ms("refinement.unfold_synthesize"), "ms"),
            "refinement.analyze_ms": (per_call_ms("refinement.analyze"), "ms"),
            "base_layer.analyze_ms": (per_call_ms("base_layer.analyze"), "ms"),
            "base_layer.synthesize_ms": (per_call_ms("base_layer.synthesize"), "ms"),
            "quantizer.quantize_ms": (per_call_ms("quantizer.quantize"), "ms"),
            "quantizer.dequantize_ms": (per_call_ms("quantizer.dequantize"), "ms"),
            "bitstream.serialize_ms": (per_call_ms("bitstream.serialize"), "ms"),
            "bitstream.deserialize_ms": (per_call_ms("bitstream.deserialize"), "ms"),
        }
        for role in ROLES:
            out[f"entropy.coded_over_estimate.{role}"] = (
                ratio(counts[f"coded_bits.{role}"], counts[f"estimate_bits.{role}"]), "ratio")
        for part in ("model", "payload", "overhead"):
            out[f"bitstream.{part}_bytes"] = (ratio(counts[f"{part}_bytes"], counts["files"]), "bytes")
        return out
