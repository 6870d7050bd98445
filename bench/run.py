"""qchannel benchmark: one workload, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: shor9_recovery, collective_commutant (library passes in a fresh
worker process) and cli_reports (`python -m qchannel.cli` invocations).
Passes repeat until S seconds of timed work are done; every pass runs the
same operations.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of one extra traced pass with --trace 1.

This process stays small and imports no numpy: Linux charges a child's
ru_maxrss with its parent's peak at spawn, so a large parent would inflate
the peak RSS of every child it times.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKER = str(BENCH / "worker.py")
WORKLOADS = ("shor9_recovery", "collective_commutant", "cli_reports")
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
KB = 1024.0


def _blas_threads() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(_blas_threads())
    return env


ENV = child_env()


class Child:
    """Outcome of one child process: exit code, wall time, its own peak RSS
    (from wait4, not RUSAGE_CHILDREN, which keeps the maximum over all
    children) and its stdout when captured."""

    def __init__(self, argv, stdout_path: Path | None = None):
        start = time.perf_counter()
        if stdout_path is None:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=ENV, cwd=ROOT)
            self.out = proc.stdout.read().decode()
            proc.stdout.close()
        else:
            with open(stdout_path, "wb") as fh:
                proc = subprocess.Popen(argv, stdout=fh, env=ENV, cwd=ROOT)
            self.out = ""
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_mb = usage.ru_maxrss / KB

    def result(self) -> dict:
        if self.code != 0:
            raise RuntimeError(f"worker exited with code {self.code}")
        return json.loads(self.out.strip().splitlines()[-1])


def worker(*args) -> Child:
    return Child([sys.executable, WORKER, *[str(a) for a in args]])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def library(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setup = [worker("setup", workload, "--seed", seed).result()["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    child = worker("lib", workload, "--seed", seed, "--seconds", seconds, "--trace", int(trace))
    res = child.result()
    setup.append(res["setup_s"])
    passes = res["passes"]
    out = {
        "setup": setup,
        "passes": passes,
        "peak_rss_mb": child.peak_mb,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "wrong": sum(p["wrong"] for p in passes),
    }
    if trace:
        traced = res["trace"]["pass"]
        for key in ("attempted", "failed", "wrong"):
            out[key] += traced[key]
        out["trace"] = {"wall_s": traced["wall_s"], "summary": res["trace"]["summary"]}
    return out


def cli_pass(ops, tmp: Path) -> dict:
    """Run every invocation once, then check the reports in a separate
    process (untimed)."""
    times, peaks, failed, wrong, report_bytes = [], [], 0, 0, 0
    exit_ok = {}
    for op in ops:
        out_path = tmp / f"{op['name']}.out"
        child = Child([sys.executable, "-m", "qchannel.cli", *op["argv"]], out_path)
        times.append(child.wall_s)
        peaks.append(child.peak_mb)
        exit_ok[op["name"]] = child.code == 0
        report_bytes += out_path.stat().st_size
        if child.code != 0:
            failed += 1
            print(f"{op['name']}: exit code {child.code}", file=sys.stderr)
    problems = worker("cli-check", "--dir", tmp).result()["problems"]
    for name, found in problems.items():
        if exit_ok[name] and found:
            failed += 1
            wrong += 1
            print(f"{name}: check failed: {'; '.join(found)}", file=sys.stderr)
    return {
        "wall_s": sum(times),
        "op_s": times,
        "peak_mb": max(peaks),
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "report_bytes": report_bytes,
    }


def cli_traced_pass(ops, tmp: Path) -> dict:
    """Every invocation once more under cli_traced.py; its stdout must match
    the untraced report byte for byte."""
    summaries, stages, wall, failed = [], {"parse_s": 0.0, "compute_s": 0.0, "serialise_s": 0.0}, 0.0, 0
    for op in ops:
        spans_path = tmp / f"{op['name']}.spans"
        traced_path = tmp / f"{op['name']}.traced"
        argv = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), "--", *op["argv"]]
        child = Child(argv, traced_path)
        wall += child.wall_s
        same = traced_path.read_bytes() == (tmp / f"{op['name']}.out").read_bytes()
        if child.code != 0 or not same:
            failed += 1
            print(f"{op['name']}: traced run differs (exit {child.code})", file=sys.stderr)
        spans = json.loads(spans_path.read_text())
        summaries.append(tracing.summarise(spans))
        for key, value in tracing.cli_stages(spans).items():
            stages[key] += value
    startup = statistics.median(
        Child([sys.executable, "-c", "import qchannel.cli"]).wall_s for _ in range(STARTUP_REPEATS)
    )
    return {
        "wall_s": wall,
        "attempted": len(ops),
        "failed": failed,
        "summary": tracing.merge(summaries),
        "stages": stages,
        "startup_s": startup,
    }


def cli_reports(seed: int, seconds: int, trace: bool) -> dict:
    tmp = ROOT / ".bench_tmp" / f"cli_reports-{os.getpid()}"
    try:
        setup = [
            worker("cli-setup", "--seed", seed, "--dir", tmp).result()["setup_s"] for _ in range(SETUP_REPEATS)
        ]
        ops = json.loads((tmp / "ops.json").read_text())
        passes = []
        while not passes or sum(p["wall_s"] for p in passes) < seconds:
            passes.append(cli_pass(ops, tmp))
        out = {
            "setup": setup,
            "passes": passes,
            "peak_rss_mb": max(p["peak_mb"] for p in passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "wrong": sum(p["wrong"] for p in passes),
        }
        if trace:
            traced = cli_traced_pass(ops, tmp)
            out["attempted"] += traced["attempted"]
            out["failed"] += traced["failed"]
            out["wrong"] += traced["failed"]
            out["trace"] = traced
            out["report_bytes"] = passes[-1]["report_bytes"]
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(res: dict) -> dict:
    ops = [t for p in res["passes"] for t in p["op_s"]]
    return {
        "wall_s": {"value": statistics.median(p["wall_s"] for p in res["passes"]), "unit": "s"},
        "op_p50_s": {"value": statistics.median(ops), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
    }


def per_layer(res: dict) -> dict:
    trace = res["trace"]
    summary = trace["summary"]
    metrics = {}
    for name in tracing.FUNCTIONS:
        f = summary["functions"][name]
        metrics[f"{name}.self_s"] = {"value": f["self_s"], "unit": "s"}
        metrics[f"{name}.calls"] = {"value": f["calls"], "unit": "count"}
    peak = summary["functions"]["linalg.null_space_basis"]["peak_mb"]
    metrics["linalg.null_space_basis.peak_mb"] = {"value": peak, "unit": "MB"}
    for layer in tracing.LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.self_s"] = {"value": entry["self_s"], "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": entry["calls"], "unit": "count"}
    stages = trace.get("stages", {"parse_s": 0.0, "compute_s": 0.0, "serialise_s": 0.0})
    for key, value in stages.items():
        metrics[f"cli.{key}"] = {"value": value, "unit": "s"}
    metrics["cli.startup_s"] = {"value": trace.get("startup_s", 0.0), "unit": "s"}
    metrics["cli.report_bytes"] = {"value": res.get("report_bytes", 0), "unit": "count"}
    untraced = statistics.median(p["wall_s"] for p in res["passes"])
    metrics["trace.wall_s"] = {"value": trace["wall_s"], "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": trace["wall_s"] - untraced, "unit": "s"}
    metrics["trace.remainder_s"] = {"value": trace["wall_s"] - summary["top_s"], "unit": "s"}
    return metrics


def report(workload: str, res: dict, metrics: dict, trace: bool) -> None:
    print(f"workload {workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"passes {len(res['passes'])}, BLAS threads {_blas_threads()}")
    if trace:
        t = res["trace"]
        fn = t["summary"]["functions"]
        print("  traced self time by function (s, calls):")
        for name in sorted(fn, key=lambda n: -fn[n]["self_s"]):
            if fn[name]["calls"]:
                print(f"    {name:32s} {fn[name]['self_s']:10.4f} {fn[name]['calls']:8d}")
        print(f"  traced wall {t['wall_s']:.4f} s = spans {t['summary']['top_s']:.4f} s"
              f" + remainder {metrics['trace.remainder_s']['value']:.4f} s")
        over = metrics["trace.overhead_s"]["value"]
        base = metrics["trace.untraced_wall_s"]["value"]
        print(f"  tracing overhead {over:+.4f} s ({100 * over / base:+.2f} % of untraced wall {base:.4f} s)")
    for name, m in metrics.items():
        if not trace or m["value"]:
            print(f"  {name} = {m['value']} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qchannel" / "__init__.py").is_file():
        print(f"qchannel sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload == "cli_reports":
        res = cli_reports(args.seed, args.seconds, trace)
    else:
        res = library(args.workload, args.seed, args.seconds, trace)
    metrics = per_layer(res) if trace else end_to_end(res)
    report(args.workload, res, metrics, trace)
    result = {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
