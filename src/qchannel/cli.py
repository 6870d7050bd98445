"""Command-line front end.

Loads matrices, channels, codes, and oracles from JSON files, dispatches the
analysis verbs, and emits one JSON report with stable field ordering.  Exit
codes: 0 success, 2 malformed input, 3 mathematical precondition failure.

Anywhere a file path is expected, `builtin:NAME` (optionally with query-style
parameters, e.g. `builtin:bit_flip?p=0.3`) selects a catalogue object; a bare
catalogue name is also accepted when no such file exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import algebra, algorithms, channels, qec, serialize
from .channels import BUILTIN_CHANNELS
from .errors import ConditionViolatedError, InputError, InvalidParameterError, PreconditionError, SchemaError
from .linalg import DEFAULT_TOL

BUILTIN_CODES = ("repetition3", "shor9")


def _parse_query_value(raw: str):
    if "," in raw:
        try:
            return [float(x) for x in raw.split(",")]
        except ValueError:
            raise SchemaError(f"builtin parameter list {raw!r} must hold numbers") from None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _split_builtin(ref: str, known: tuple[str, ...]) -> tuple[str, dict] | None:
    """Recognize builtin:NAME[?k=v&...] or a bare catalogue name that does not
    shadow an existing file."""
    if ref.startswith("builtin:"):
        body = ref[len("builtin:") :]
    elif ref in known and not os.path.exists(ref):
        body = ref
    else:
        return None
    name, _, query = body.partition("?")
    params = {}
    if query:
        for item in query.split("&"):
            key, eq, raw = item.partition("=")
            if not eq:
                raise SchemaError(f"malformed builtin parameter {item!r}")
            params[key] = _parse_query_value(raw)
    return name, params


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_channel(ref: str) -> channels.KrausChannel:
    hit = _split_builtin(ref, tuple(BUILTIN_CHANNELS))
    if hit is not None:
        name, params = hit
        return serialize.channel_from_json({"builtin": name, "params": params})
    return serialize.channel_from_json(_load_json(ref))


def _resolve_code(ref: str) -> qec.QuantumCode:
    hit = _split_builtin(ref, BUILTIN_CODES)
    if hit is not None:
        name, params = hit
        if params:
            raise SchemaError(f"builtin code {name!r} takes no parameters")
        return qec.builtin_code(name)
    return serialize.code_from_json(_load_json(ref))


def _scalar_pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# Verb handlers: each returns the report dict in its final field order.
# ---------------------------------------------------------------------------


def _run_classify(args) -> dict:
    cls = channels.classify(_resolve_channel(args.channel), args.tol)
    return {
        "verb": "classify",
        "paper_ref": "choi_positivity_criterion",
        "completely_positive": cls.completely_positive,
        "trace_preserving": cls.trace_preserving,
        "unital": cls.unital,
    }


def _run_choi(args) -> dict:
    ch = _resolve_channel(args.channel)
    report = {"verb": "choi", "paper_ref": "choi_matrix_of_matrix_units"}
    report.update(serialize.choi_to_json(channels.choi_matrix(ch), ch.dim))
    return report


def _run_kraus_from_choi(args) -> dict:
    choi, _ = serialize.choi_from_json(_load_json(args.choi))
    ch = channels.kraus_from_choi(choi, args.tol)
    return {
        "verb": "kraus-from-choi",
        "paper_ref": "operator_sum_extraction",
        "operator_count": len(ch.operators),
        "channel": serialize.channel_to_json(ch),
    }


def _run_channels_equal(args) -> dict:
    a = _resolve_channel(args.a)
    b = _resolve_channel(args.b)
    equal = channels.channels_equal(a, b, args.tol)
    inter = channels.kraus_intertwiner(a, b, args.tol) if equal else None
    return {
        "verb": "channels-equal",
        "paper_ref": "kraus_unitary_freedom",
        "equal": equal,
        "choi_distance": channels.choi_distance(a, b),
        "intertwiner": serialize.matrix_to_json(inter) if inter is not None else None,
    }


def _run_detect(args) -> dict:
    code = _resolve_code(args.code)
    err = serialize.matrix_from_json(_load_json(args.error))
    result = qec.detect(code, err, args.tol)
    return {
        "verb": "detect",
        "paper_ref": "scalar_compression_detectability",
        "detectable": result.detectable,
        "scalar": _scalar_pair(result.scalar) if result.scalar is not None else None,
        "residual": result.residual,
    }


def _run_correctable(args) -> dict:
    code = _resolve_code(args.code)
    errs = serialize.matrix_list_from_json(_load_json(args.errors))
    result = qec.correctability(code, errs, args.tol)
    return {
        "verb": "correctable",
        "paper_ref": "knill_laflamme_conditions",
        "correctable": result.correctable,
        "lambda": serialize.matrix_to_json(result.lambda_matrix) if result.correctable else None,
        "offending_pair": list(result.offending_pair) if result.offending_pair else None,
    }


def _build_recovery(args):
    code = _resolve_code(args.code)
    errs = serialize.matrix_list_from_json(_load_json(args.errors))
    result = qec.correctability(code, errs, args.tol)
    if not result.correctable:
        raise ConditionViolatedError(
            f"error list is not correctable; offending pair {result.offending_pair}"
        )
    return code, qec.build_recovery(code, errs, result.lambda_matrix, args.tol), result


def _run_recovery(args) -> dict:
    _, rec, result = _build_recovery(args)
    return {
        "verb": "recovery",
        "paper_ref": "recovery_synthesis",
        "lambda": serialize.matrix_to_json(result.lambda_matrix),
        "syndrome_count": len(rec.projectors),
        "weights": [float(w) for w in rec.weights],
        "projectors": [serialize.matrix_to_json(p) for p in rec.projectors],
        "unitaries": [serialize.matrix_to_json(u) for u in rec.unitaries],
        "completion": serialize.matrix_to_json(rec.completion) if rec.completion is not None else None,
        "channel": serialize.channel_to_json(rec.channel),
    }


def _run_verify_recovery(args) -> dict:
    code, rec, _ = _build_recovery(args)
    ch = _resolve_channel(args.channel)
    deviation = qec.verify_recovery(ch, rec, code, args.tol, seed=args.seed)
    return {
        "verb": "verify-recovery",
        "paper_ref": "recovery_verification",
        "max_deviation": deviation,
        "success": deviation <= args.tol,
    }


def _operator_space_report(verb: str, ref: str, space: algebra.OperatorSpace) -> dict:
    return {
        "verb": verb,
        "paper_ref": ref,
        "ambient_dim": space.ambient_dim,
        "dimension": space.dim,
        "basis": [serialize.matrix_to_json(b) for b in space.basis],
    }


def _generators_or_channel(args):
    if getattr(args, "generators", None):
        return serialize.matrix_list_from_json(_load_json(args.generators))
    if getattr(args, "channel", None):
        return list(_resolve_channel(args.channel).operators)
    raise SchemaError("provide --channel or --generators")


def _run_commutant(args) -> dict:
    space = algebra.commutant(_generators_or_channel(args), args.tol)
    return _operator_space_report("commutant", "noise_commutant", space)


def _run_interaction_algebra(args) -> dict:
    space = algebra.interaction_algebra(_resolve_channel(args.channel), args.tol)
    return _operator_space_report("interaction-algebra", "interaction_algebra", space)


def _run_fix(args) -> dict:
    space = algebra.fixed_point_set(_resolve_channel(args.channel), args.tol)
    return _operator_space_report("fix", "channel_fixed_points", space)


def _run_fix_vs_commutant(args) -> dict:
    ch = _resolve_channel(args.channel)
    result = algebra.fix_equals_commutant(ch, args.tol)
    return {
        "verb": "fix-vs-commutant",
        "paper_ref": "unital_fixed_point_theorem",
        "equal": result.equal,
        "unital": result.unital,
    }


def _run_structure(args) -> dict:
    if getattr(args, "generators", None):
        space = algebra.commutant(serialize.matrix_list_from_json(_load_json(args.generators)), args.tol)
    else:
        ch = _resolve_channel(args.channel)
        if args.of == "commutant":
            space = algebra.commutant(ch.operators, args.tol)
        elif args.of == "interaction-algebra":
            space = algebra.interaction_algebra(ch, args.tol)
        else:
            space = algebra.fixed_point_set(ch, args.tol)
    structure = algebra.wedderburn_structure(space, args.tol, args.seed)
    return {
        "verb": "structure",
        "paper_ref": "wedderburn_decomposition",
        "dim": space.dim,
        "blocks": [{"m": m, "n": n} for m, n in structure.blocks],
        "block_offsets": structure.block_offsets,
        "basis_change": serialize.matrix_to_json(structure.basis_change),
    }


def _run_noiseless(args) -> dict:
    ch = _resolve_channel(args.channel)
    blocks = algebra.noiseless_subsystems(ch, args.tol, args.seed)
    return {
        "verb": "noiseless",
        "paper_ref": "noiseless_subsystems",
        "blocks": [
            {"m": b.multiplicity, "n": b.block_dim, "decoherence_free": b.decoherence_free}
            for b in blocks
        ],
    }


def _run_dead_subspace(args) -> dict:
    result = algebra.dead_subspace(_resolve_channel(args.channel), args.tol)
    report = {"verb": "dead-subspace", "paper_ref": "singular_identity_image"}
    if result is None:
        report["invertible"] = True
        return report
    report["invertible"] = False
    report["perp_projector"] = serialize.matrix_to_json(result.perp_projector)
    report["hypothesis_holds"] = result.hypothesis_holds
    return report


def _verdict_report(verb: str, ref: str, verdict: algorithms.AlgorithmVerdict) -> dict:
    return {"verb": verb, "paper_ref": ref, "verdict": verdict.verdict, "probability": verdict.probability}


def _run_deutsch(args) -> dict:
    f = serialize.oracle_from_json(_load_json(args.oracle))
    return _verdict_report("deutsch", "deutsch_algorithm", algorithms.deutsch(f))


def _run_deutsch_jozsa(args) -> dict:
    f = serialize.oracle_from_json(_load_json(args.oracle))
    return _verdict_report("deutsch-jozsa", "deutsch_jozsa_algorithm", algorithms.deutsch_jozsa(f))


def _run_parallelism(args) -> dict:
    f = serialize.oracle_from_json(_load_json(args.oracle))
    state = algorithms.quantum_parallelism(f)
    return {
        "verb": "parallelism",
        "paper_ref": "quantum_parallelism",
        "state": serialize.state_to_json(state),
    }


def _run_adder(args) -> dict:
    if args.bits > 5:
        raise SchemaError("adder output is dense; --bits above 5 is not supported")
    u = algorithms.modular_adder(args.bits)
    return {
        "verb": "adder",
        "paper_ref": "modular_addition_unitary",
        "bits": args.bits,
        "matrix": serialize.matrix_to_json(u),
    }


_HANDLERS = {
    "classify": _run_classify,
    "choi": _run_choi,
    "kraus-from-choi": _run_kraus_from_choi,
    "channels-equal": _run_channels_equal,
    "detect": _run_detect,
    "correctable": _run_correctable,
    "recovery": _run_recovery,
    "verify-recovery": _run_verify_recovery,
    "commutant": _run_commutant,
    "interaction-algebra": _run_interaction_algebra,
    "fix": _run_fix,
    "fix-vs-commutant": _run_fix_vs_commutant,
    "structure": _run_structure,
    "noiseless": _run_noiseless,
    "dead-subspace": _run_dead_subspace,
    "deutsch": _run_deutsch,
    "deutsch-jozsa": _run_deutsch_jozsa,
    "parallelism": _run_parallelism,
    "adder": _run_adder,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance (default %(default)g)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized steps (default 0)")
    common.add_argument("--out", help="write the report to this path as well")
    common.add_argument("--quiet", action="store_true", help="suppress the report on stdout")

    parser = argparse.ArgumentParser(prog="qchannel", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, **arguments):
        p = sub.add_parser(verb, parents=[common])
        for flag, kwargs in arguments.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        return p

    add("classify", channel={"required": True})
    add("choi", channel={"required": True})
    add("kraus-from-choi", choi={"required": True})
    add("channels-equal", a={"required": True}, b={"required": True})
    add("detect", code={"required": True}, error={"required": True})
    add("correctable", code={"required": True}, errors={"required": True})
    add("recovery", code={"required": True}, errors={"required": True})
    add("verify-recovery", channel={"required": True}, code={"required": True}, errors={"required": True})
    add("commutant", channel={}, generators={})
    add("interaction-algebra", channel={"required": True})
    add("fix", channel={"required": True})
    add("fix-vs-commutant", channel={"required": True})
    add(
        "structure",
        channel={},
        generators={},
        of={"choices": ["commutant", "interaction-algebra", "fix"], "default": "commutant"},
    )
    add("noiseless", channel={"required": True})
    add("dead-subspace", channel={"required": True})
    add("deutsch", oracle={"required": True})
    add("deutsch-jozsa", oracle={"required": True})
    add("parallelism", oracle={"required": True})
    add("adder", bits={"required": True, "type": int})
    return parser


def _emit_error(exc: Exception) -> None:
    line = serialize.dumps({"error": type(exc).__name__, "message": str(exc)})
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Paused GC: decoded inputs are millions of acyclic [re, im] lists it would rescan
    # (reports hold their pair data as numpy arrays).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if gc_was_enabled:
            gc.enable()


def _check_args(args) -> None:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InvalidParameterError(f"--tol must be finite and non-negative, got {args.tol!r}")
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be non-negative, got {args.seed!r}")


def _run(args) -> int:
    try:
        _check_args(args)
        report = _HANDLERS[args.verb](args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    except PreconditionError as exc:
        _emit_error(exc)
        return 3
    text = serialize.dumps(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if not args.quiet:
        print(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
