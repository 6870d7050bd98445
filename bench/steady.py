"""Steadiness check: repeat each workload and compare the spread of every
end-to-end metric with its bound from BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles with n=4), the spread (Q3 - Q1) / median and the
bound; `ok` means the spread is within the bound, `tight` that it is below a
third of it.  setup_s is reported but its spread is not held to its bound.
It also prints the share of failed operations per run, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0], *spec["command"][1:]]
    all_ok = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            res = run_once(command, workload, args.first_seed + i, spec["run_seconds"])
            results.append(res)
            values = " ".join(f"{k}={m['value']:.4f}" for k, m in res["metrics"].items())
            print(f"{workload} seed {args.first_seed + i}: {values} failed {res['failed']}/{res['attempted']}", flush=True)
        shares = {res["failed"] / res["attempted"] for res in results}
        print(f"{workload}: failed share per run {sorted(shares)} ({'steady' if len(shares) == 1 else 'VARIES'})")
        all_ok &= len(shares) == 1 and all(res["correct"] for res in results)
        for metric in spec["end_to_end"]:
            values = [res["metrics"][metric["name"]]["value"] for res in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread <= metric["bound"]
            if metric["name"] != "setup_s":
                all_ok &= ok
            verdict = "tight" if spread < metric["bound"] / 3 else "ok" if ok else "TOO WIDE"
            print(
                f"  {metric['name']:12s} median {med:.4f} {metric['unit']}  Q1 {q1:.4f}  Q3 {q3:.4f}"
                f"  spread {spread:.4f}  bound {metric['bound']}  {verdict}",
                flush=True,
            )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
