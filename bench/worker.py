"""Worker process of the qchannel benchmark.

    worker.py setup <workload> --seed N          time import + input generation
    worker.py lib <workload> --seed N --seconds S --trace 0|1
    worker.py cli-setup --seed N --dir D         write the CLI inputs and ops.json
    worker.py cli-check --dir D                  check the CLI reports in D

Each mode prints one JSON object as its last stdout line.  Only the standard
library is imported at module level, so `setup` and `lib` time the import of
numpy and qchannel themselves.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

LIBRARY = ("shor9_recovery", "collective_commutant")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Library workloads: each op is (name, run, check); check returns problems.
# ---------------------------------------------------------------------------


def _shor9_setup(seed: int) -> dict:
    import inputs
    from qchannel import channels, qec

    cases = inputs.shor9_inputs(seed)
    for case in cases:
        case["channel"] = channels.KrausChannel(case["noisy"])
    kets = inputs.shor_kets()
    return {"seed": seed, "cases": cases, "kets": kets, "code": qec.make_code(kets)}


def _shor9_ops(state: dict) -> list:
    import checks
    from qchannel import qec

    code = state["code"]
    ops = []
    for case in state["cases"]:

        def run(case=case):
            result = qec.correctability(code, case["errors"])
            rec = qec.build_recovery(code, case["errors"], result.lambda_matrix)
            return result, rec, qec.verify_recovery(case["channel"], rec, code, seed=state["seed"])

        def check(out, case=case):
            result, rec, deviation = out
            lam = result.lambda_matrix if result.correctable else None
            return checks.shor9_qubit(case, state["kets"], lam, rec.channel.operators, deviation)

        ops.append((f"qubit{case['qubit']}", run, check))
    return ops


def _collective_setup(seed: int) -> dict:
    import inputs
    from qchannel import channels

    state = inputs.collective_inputs(seed)
    for n, entry in state["channels"].items():
        entry["channel"] = channels.KrausChannel(entry["kraus"])
        entry["perms"] = inputs.permutation_matrices(n)
    return state


def _collective_ops(state: dict) -> list:
    """n = 3, 4: commutant, structure, noiseless (+ encoding), fix vs
    commutant, interaction algebra; n = 5: commutant only (its structure
    and noiseless runs exhaust memory in algebra._center)."""
    import checks
    from qchannel import algebra

    seed = state["structure_seed"]
    spaces = {}
    ops = []
    for n in (3, 4, 5):
        entry = state["channels"][n]
        ch, kraus, perms = entry["channel"], entry["kraus"], entry["perms"]

        def comm(n=n, ch=ch):
            spaces[n] = algebra.commutant(ch.operators)
            return spaces[n]

        ops.append((f"n{n}.commutant", comm, lambda sp, n=n, k=kraus, p=perms: checks.commutant(n, k, p, sp.basis)))
        if n == 5:
            break

        def structure(n=n):
            return algebra.wedderburn_structure(spaces.pop(n), seed=seed)

        def noiseless(n=n, ch=ch):
            blocks = algebra.noiseless_subsystems(ch, seed=seed)
            return blocks, [b.encode(state["densities"][n][b.block_dim]) for b in blocks]

        ops += [
            (f"n{n}.wedderburn_structure", structure, lambda st, n=n: checks.structure(n, st.blocks, st.basis_change)),
            (
                f"n{n}.noiseless_subsystems",
                noiseless,
                lambda out, n=n, k=kraus: checks.noiseless(
                    n, k, [(b.multiplicity, b.block_dim) for b in out[0]], out[1]
                ),
            ),
            (f"n{n}.fix_equals_commutant", lambda ch=ch: algebra.fix_equals_commutant(ch), checks.fix_vs_commutant),
            (
                f"n{n}.interaction_algebra",
                lambda ch=ch: algebra.interaction_algebra(ch),
                lambda ia, n=n, k=kraus, p=perms: checks.interaction_algebra(n, k, p, ia.basis),
            ),
        ]
    return ops


SETUPS = {"shor9_recovery": _shor9_setup, "collective_commutant": _collective_setup}
OPS = {"shor9_recovery": _shor9_ops, "collective_commutant": _collective_ops}


def _timed_setup(workload: str, seed: int):
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed: part of the import cost)
    import qchannel  # noqa: F401

    state = SETUPS[workload](seed)
    return time.perf_counter() - start, state


def run_pass(ops) -> dict:
    """One closed-loop pass; checks run between operations, outside the timed
    calls.  An exception or a failed check marks the operation failed."""
    times, failed, wrong = [], 0, 0
    for name, run, check in ops:
        start = time.perf_counter()
        try:
            out = run()
        except Exception:  # an operation that raises counts as failed
            times.append(time.perf_counter() - start)
            failed += 1
            _log(f"{name}: raised\n{traceback.format_exc()}")
            continue
        times.append(time.perf_counter() - start)
        try:
            problems = check(out)
        except Exception:  # a malformed result fails its check
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            wrong += 1
            _log(f"{name}: check failed: {'; '.join(problems)}")
        del out
    return {"wall_s": sum(times), "op_s": times, "attempted": len(ops), "failed": failed, "wrong": wrong}


def library(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, state = _timed_setup(workload, seed)
    ops = OPS[workload](state)
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < seconds:
        passes.append(run_pass(ops))
    out = {"setup_s": setup_s, "passes": passes, "trace": None}
    if trace:
        import tracing
        from qchannel import algebra, algorithms, channels, qec, serialize

        tracer = tracing.Tracer()
        tracing.install_library(tracer, channels, qec, algebra, algorithms, serialize)
        try:
            traced = run_pass(ops)
        finally:
            tracer.restore()
        out["trace"] = {"pass": traced, "summary": tracing.summarise(tracer.spans)}
    return out


# ---------------------------------------------------------------------------
# CLI workload: inputs and report checks (the invocations run in run.py)
# ---------------------------------------------------------------------------


def cli_setup(seed: int, directory: Path) -> dict:
    start = time.perf_counter()
    import inputs

    ops = inputs.cli_inputs(seed, directory)
    (directory / "ops.json").write_text(json.dumps(ops))
    return {"setup_s": time.perf_counter() - start}


def cli_check(directory: Path) -> dict:
    import checks

    ops = json.loads((directory / "ops.json").read_text())
    problems = {}
    for op in ops:
        try:
            with open(directory / f"{op['name']}.out", encoding="utf-8") as fh:
                report = json.load(fh)
            problems[op["name"]] = checks.REPORT_CHECKS[op["argv"][0]](report, op)
        except Exception:  # unreadable or malformed report fails its check
            problems[op["name"]] = [traceback.format_exc()]
    return {"problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "lib", "cli-setup", "cli-check"))
    parser.add_argument("workload", nargs="?", choices=LIBRARY)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup_s": _timed_setup(args.workload, args.seed)[0]}
    elif args.mode == "lib":
        result = library(args.workload, args.seed, args.seconds, bool(args.trace))
    elif args.mode == "cli-setup":
        result = cli_setup(args.seed, args.dir)
    else:
        result = cli_check(args.dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
