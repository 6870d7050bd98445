"""Spans around calls into qchannel, recorded from the benchmark's own files.

A `Tracer` replaces a function where its caller looks it up: the attribute
of the module that binds the name (for example `qec.complete_isometry`,
which qec imported from linalg).  Each call becomes a span (name, start,
end, parent); spans stay in memory and are summarised at the end.  Only the
standard library is used, so the thin orchestrator can import this module.
"""

from __future__ import annotations

import functools
import time
import tracemalloc

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, peak bytes]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._mem_depth = 0

    def call(self, name: str, fn, *args, mem: bool = False, **kwargs):
        """Run fn inside a span.  With mem, also record the tracemalloc peak
        of allocations made inside the span."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(index)
        if mem:
            if self._mem_depth == 0:
                tracemalloc.start()
            self._mem_depth += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if mem:
                span[4] = tracemalloc.get_traced_memory()[1]
                self._mem_depth -= 1
                if self._mem_depth == 0:
                    tracemalloc.stop()

    def patch(self, module, attr: str, name: str, mem: bool = False) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, mem=mem, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def install_library(tracer: Tracer, channels, qec, algebra, algorithms, serialize) -> None:
    """Wrap every public function the workloads reach, under the names its
    callers bind.  Serialisation functions are grouped as decode/encode."""
    for module, attr in (
        (qec, "correctability"),
        (qec, "build_recovery"),
        (qec, "verify_recovery"),
        (channels, "classify"),
        (channels, "choi_matrix"),
        (algebra, "commutant"),
        (algebra, "wedderburn_structure"),
        (algebra, "noiseless_subsystems"),
        (algebra, "fixed_point_set"),
        (algebra, "fix_equals_commutant"),
        (algebra, "interaction_algebra"),
        (algorithms, "deutsch_jozsa"),
        (algorithms, "oracle_unitary"),
    ):
        tracer.patch(module, attr, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
    tracer.patch(qec, "complete_isometry", "linalg.complete_isometry")
    tracer.patch(qec, "orthonormal_columns", "linalg.orthonormal_columns")
    tracer.patch(algebra, "orthonormal_columns", "linalg.orthonormal_columns")
    tracer.patch(algebra, "null_space_basis", "linalg.null_space_basis", mem=True)
    tracer.patch(algebra, "classify", "channels.classify")
    tracer.patch(serialize, "builtin_channel", "channels.builtin_channel")
    for attr in dir(serialize):
        if attr.endswith("_from_json"):
            tracer.patch(serialize, attr, "serialize.decode")
        elif attr.endswith("_to_json"):
            tracer.patch(serialize, attr, "serialize.encode")
    tracer.patch(serialize, "dumps", "serialize.dumps")


LAYERS = ("linalg", "channels", "qec", "algebra", "algorithms", "serialize", "cli")
# Per-function metrics every traced run reports, zero where a workload does
# not reach the function.
FUNCTIONS = (
    "linalg.complete_isometry",
    "linalg.orthonormal_columns",
    "linalg.null_space_basis",
    "channels.classify",
    "channels.choi_matrix",
    "channels.builtin_channel",
    "qec.correctability",
    "qec.build_recovery",
    "qec.verify_recovery",
    "algebra.commutant",
    "algebra.wedderburn_structure",
    "algebra.noiseless_subsystems",
    "algebra.fixed_point_set",
    "algebra.fix_equals_commutant",
    "algebra.interaction_algebra",
    "algorithms.deutsch_jozsa",
    "algorithms.oracle_unitary",
    "cli.json_load",
    "cli.print",
    "cli.main",
    "cli.import",
    "serialize.decode",
    "serialize.encode",
    "serialize.dumps",
)
PARSE = ("cli.json_load", "serialize.decode")
SERIALISE = ("serialize.encode", "serialize.dumps", "cli.print")


def summarise(spans) -> dict:
    """Self time (span minus its children) and calls per function and per
    layer, the tracemalloc peak of null_space_basis, and the time of the
    top-level spans, which self times partition exactly."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    funcs = {name: {"self_s": 0.0, "calls": 0, "peak_mb": 0.0} for name in FUNCTIONS}
    top_s = 0.0
    for i, (name, start, end, parent, peak) in enumerate(spans):
        f = funcs.setdefault(name, {"self_s": 0.0, "calls": 0, "peak_mb": 0.0})
        f["self_s"] += end - start - child[i]
        f["calls"] += 1
        f["peak_mb"] = max(f["peak_mb"], peak / MB)
        if parent < 0:
            top_s += end - start
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for name, f in funcs.items():
        layer = layers[name.split(".", 1)[0]]
        layer["self_s"] += f["self_s"]
        layer["calls"] += f["calls"]
    return {"functions": funcs, "layers": layers, "top_s": top_s}


def cli_stages(spans) -> dict:
    """Split each cli.main span into parse (file reads and decoding), serialise
    (encoding, dumping, printing) and compute (the rest of main)."""
    stages = {"parse_s": 0.0, "compute_s": 0.0, "serialise_s": 0.0}
    mains = {i for i, s in enumerate(spans) if s[0] == "cli.main"}
    for i in mains:
        stages["compute_s"] += spans[i][2] - spans[i][1]
    for name, start, end, parent, _ in spans:
        if parent in mains:
            key = "parse_s" if name in PARSE else "serialise_s" if name in SERIALISE else None
            if key:
                stages[key] += end - start
                stages["compute_s"] -= end - start
    return stages


def merge(summaries) -> dict:
    """Add up summaries of several processes."""
    out = {"functions": {}, "layers": {}, "top_s": 0.0}
    for s in summaries:
        out["top_s"] += s["top_s"]
        for kind in ("functions", "layers"):
            for name, f in s[kind].items():
                acc = out[kind].setdefault(name, {k: 0.0 if k != "calls" else 0 for k in f})
                for k, v in f.items():
                    acc[k] = max(acc[k], v) if k == "peak_mb" else acc[k] + v
    return out
