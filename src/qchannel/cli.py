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
from .errors import ConditionViolatedError, InputError, InvalidParameterError, PreconditionError, SchemaError
from .linalg import DEFAULT_TOL

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


def _split_builtin(ref: str, known: dict) -> tuple[str, dict] | None:
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
    hit = _split_builtin(ref, channels.BUILTIN_CHANNELS)
    if hit is not None:
        name, params = hit
        return serialize.channel_from_json({"builtin": name, "params": params})
    return serialize.channel_from_json(_load_json(ref))


def _resolve_code(ref: str) -> qec.QuantumCode:
    hit = _split_builtin(ref, qec.BUILTIN_CODES)
    if hit is not None:
        name, params = hit
        if params:
            raise SchemaError(f"builtin code {name!r} takes no parameters")
        return qec.builtin_code(name)
    return serialize.code_from_json(_load_json(ref))


def _scalar_pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# The verb table: one row per verb, in `--help` order.  A handler returns the
# report fields that follow "verb" and "paper_ref", in their final order.
# ---------------------------------------------------------------------------

VERBS: dict = {}  # name -> (paper_ref, {flag: add_argument kwargs}, handler)
_SPACES: dict = {}  # space verb name -> space(source, tol); the `structure --of` choices
_REQUIRED = {"required": True}


def _verb(name: str, paper_ref: str, **flags):
    """Register handler(args) as verb `name` with its --flags (argparse kwargs)."""

    def register(handler):
        VERBS[name] = (paper_ref, flags, handler)
        return handler

    return register


def _generators_or_channel(args):
    """The --generators matrix list, or the --channel channel."""
    if getattr(args, "generators", None):
        return serialize.matrix_list_from_json(_load_json(args.generators))
    if getattr(args, "channel", None):
        return _resolve_channel(args.channel)
    raise SchemaError("provide --channel or --generators")


def _space_verb(name: str, paper_ref: str, **flags):
    """Register space(source, tol) -> OperatorSpace as a verb that reports the
    space of its `_generators_or_channel` source."""

    def register(space):
        _SPACES[name] = space
        _verb(name, paper_ref, **flags)(lambda args: _space_fields(space(_generators_or_channel(args), args.tol)))
        return space

    return register


def _space_fields(space: algebra.OperatorSpace) -> dict:
    return {
        "ambient_dim": space.ambient_dim,
        "dimension": space.dim,
        "basis": [serialize.matrix_to_json(b) for b in space.basis],
    }


@_verb("classify", "choi_positivity_criterion", channel=_REQUIRED)
def _classify(args) -> dict:
    cls = channels.classify(_resolve_channel(args.channel), args.tol)
    return {
        "completely_positive": cls.completely_positive,
        "trace_preserving": cls.trace_preserving,
        "unital": cls.unital,
    }


@_verb("choi", "choi_matrix_of_matrix_units", channel=_REQUIRED)
def _choi(args) -> dict:
    ch = _resolve_channel(args.channel)
    return serialize.choi_to_json(channels.choi_matrix(ch), ch.dim)


@_verb("kraus-from-choi", "operator_sum_extraction", choi=_REQUIRED)
def _kraus_from_choi(args) -> dict:
    choi, _ = serialize.choi_from_json(_load_json(args.choi))
    ch = channels.kraus_from_choi(choi, args.tol)
    return {"operator_count": len(ch.operators), "channel": serialize.channel_to_json(ch)}


@_verb("channels-equal", "kraus_unitary_freedom", a=_REQUIRED, b=_REQUIRED)
def _channels_equal(args) -> dict:
    a = _resolve_channel(args.a)
    b = _resolve_channel(args.b)
    equal = channels.channels_equal(a, b, args.tol)
    inter = channels.kraus_intertwiner(a, b, args.tol) if equal else None
    return {
        "equal": equal,
        "choi_distance": channels.choi_distance(a, b),
        "intertwiner": serialize.matrix_to_json(inter) if inter is not None else None,
    }


@_verb("detect", "scalar_compression_detectability", code=_REQUIRED, error=_REQUIRED)
def _detect(args) -> dict:
    code = _resolve_code(args.code)
    err = serialize.matrix_from_json(_load_json(args.error))
    result = qec.detect(code, err, args.tol)
    return {
        "detectable": result.detectable,
        "scalar": _scalar_pair(result.scalar) if result.scalar is not None else None,
        "residual": result.residual,
    }


@_verb("correctable", "knill_laflamme_conditions", code=_REQUIRED, errors=_REQUIRED)
def _correctable(args) -> dict:
    code = _resolve_code(args.code)
    errs = serialize.matrix_list_from_json(_load_json(args.errors))
    result = qec.correctability(code, errs, args.tol)
    return {
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


@_verb("recovery", "recovery_synthesis", code=_REQUIRED, errors=_REQUIRED)
def _recovery(args) -> dict:
    _, rec, result = _build_recovery(args)
    return {
        "lambda": serialize.matrix_to_json(result.lambda_matrix),
        "syndrome_count": len(rec.syndromes),
        "weights": [float(w) for w in rec.weights],
        "projectors": [serialize.matrix_to_json(p) for p in rec.projectors],
        "unitaries": [serialize.matrix_to_json(u) for u in rec.unitaries],
        "completion": serialize.matrix_to_json(rec.completion) if rec.completion is not None else None,
        "channel": serialize.channel_to_json(rec.channel),
    }


@_verb("verify-recovery", "recovery_verification", channel=_REQUIRED, code=_REQUIRED, errors=_REQUIRED)
def _verify_recovery(args) -> dict:
    code, rec, _ = _build_recovery(args)
    ch = _resolve_channel(args.channel)
    deviation = qec.verify_recovery(ch, rec, code, args.tol, seed=args.seed)
    return {"max_deviation": deviation, "success": deviation <= args.tol}


@_space_verb("commutant", "noise_commutant", channel={}, generators={})
def _commutant(source, tol: float) -> algebra.OperatorSpace:
    ops = source.operators if isinstance(source, channels.KrausChannel) else source
    return algebra.commutant(ops, tol)


@_space_verb("interaction-algebra", "interaction_algebra", channel=_REQUIRED)
def _interaction_algebra(ch, tol: float) -> algebra.OperatorSpace:
    return algebra.interaction_algebra(ch, tol)


@_space_verb("fix", "channel_fixed_points", channel=_REQUIRED)
def _fix(ch, tol: float) -> algebra.OperatorSpace:
    return algebra.fixed_point_set(ch, tol)


@_verb("fix-vs-commutant", "unital_fixed_point_theorem", channel=_REQUIRED)
def _fix_vs_commutant(args) -> dict:
    result = algebra.fix_equals_commutant(_resolve_channel(args.channel), args.tol)
    return {"equal": result.equal, "unital": result.unital}


@_verb("structure", "wedderburn_decomposition", channel={}, generators={}, of={"choices": list(_SPACES)})
def _structure(args) -> dict:
    # --of picks a channel's space (its commutant by default); generators have only a commutant.
    if args.generators and args.of not in (None, "commutant"):
        raise SchemaError(f"--of {args.of} needs --channel; a generator list has only a commutant")
    space = _SPACES[args.of or "commutant"](_generators_or_channel(args), args.tol)
    structure = algebra.wedderburn_structure(space, args.tol, args.seed)
    return {
        "dim": space.dim,
        "blocks": [{"m": m, "n": n} for m, n in structure.blocks],
        "block_offsets": structure.block_offsets,
        "basis_change": serialize.matrix_to_json(structure.basis_change),
    }


@_verb("noiseless", "noiseless_subsystems", channel=_REQUIRED)
def _noiseless(args) -> dict:
    blocks = algebra.noiseless_subsystems(_resolve_channel(args.channel), args.tol, args.seed)
    return {
        "blocks": [
            {"m": b.multiplicity, "n": b.block_dim, "decoherence_free": b.decoherence_free}
            for b in blocks
        ],
    }


@_verb("dead-subspace", "singular_identity_image", channel=_REQUIRED)
def _dead_subspace(args) -> dict:
    result = algebra.dead_subspace(_resolve_channel(args.channel), args.tol)
    if result is None:
        return {"invertible": True}
    return {
        "invertible": False,
        "perp_projector": serialize.matrix_to_json(result.perp_projector),
        "hypothesis_holds": result.hypothesis_holds,
    }


def _verdict_fields(verdict: algorithms.AlgorithmVerdict) -> dict:
    return {"verdict": verdict.verdict, "probability": verdict.probability}


def _oracle(args) -> algorithms.BooleanOracle:
    return serialize.oracle_from_json(_load_json(args.oracle))


@_verb("deutsch", "deutsch_algorithm", oracle=_REQUIRED)
def _deutsch(args) -> dict:
    return _verdict_fields(algorithms.deutsch(_oracle(args)))


@_verb("deutsch-jozsa", "deutsch_jozsa_algorithm", oracle=_REQUIRED)
def _deutsch_jozsa(args) -> dict:
    return _verdict_fields(algorithms.deutsch_jozsa(_oracle(args)))


@_verb("parallelism", "quantum_parallelism", oracle=_REQUIRED)
def _parallelism(args) -> dict:
    return {"state": serialize.state_to_json(algorithms.quantum_parallelism(_oracle(args)))}


@_verb("adder", "modular_addition_unitary", bits={"required": True, "type": int})
def _adder(args) -> dict:
    if args.bits > 5:
        raise SchemaError("adder output is dense; --bits above 5 is not supported")
    return {"bits": args.bits, "matrix": serialize.matrix_to_json(algorithms.modular_adder(args.bits))}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numerical tolerance (default %(default)g)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized steps (default 0)")
    common.add_argument("--out", help="write the report to this path as well")
    common.add_argument("--quiet", action="store_true", help="suppress the report on stdout")

    parser = argparse.ArgumentParser(prog="qchannel", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, flags, _) in VERBS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
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
        paper_ref, _, handler = VERBS[args.verb]
        text = serialize.dumps({"verb": args.verb, "paper_ref": paper_ref, **handler(args)})
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (InputError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    except PreconditionError as exc:
        _emit_error(exc)
        return 3
    if not args.quiet:
        print(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
