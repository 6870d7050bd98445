"""JSON wire formats shared by the library and the CLI.

Matrices travel as {"rows": R, "cols": C, "data": [[re, im], ...]} with
row-major data; states as {"dim": N, "amplitudes": [[re, im], ...]};
channels as {"dim": N, "kraus": [Matrix, ...]} or a builtin spec
{"builtin": name, "params": {...}}; codes as {"ambient_dim": N,
"basis": [StateVector, ...]} or {"builtin": name}; oracles as
{"m": m, "k": k, "table": [ints]}; Choi matrices as {"block_dim": N,
"matrix": Matrix}.

Each re and im may be a JSON integer or float.  Pair data is decoded
bit-exactly, -0.0 included: well-formed pair lists go through one numpy
array, and anything else is walked entry by entry to name the first bad
pair.  NaN, infinities and integers too large for a double are rejected as
not finite (a SchemaError, exit code 2 in the CLI).

The `*_to_json` encoders keep pair data as numpy arrays: "data" and
"amplitudes" hold the flat complex array (a view of the encoded array where
numpy can give one), and the decoders accept such array leaves as well as
pair lists.  Write these documents with `dumps`, which emits each array leaf
as its [[re, im], ...] list.  Reports are dumped compactly with insertion
order preserved, and floats use Python's shortest round-trip
representation, so identical inputs always produce byte-identical output:
exactly the text `json.dumps` gives for the same document with every array
leaf replaced by its pair list.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algorithms import BooleanOracle
from .channels import BUILTIN_CHANNELS, KrausChannel, builtin_channel
from .errors import SchemaError
from .qec import QuantumCode, builtin_code, make_code


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_finite(x) -> bool:
    try:
        return math.isfinite(float(x))
    except OverflowError:  # an int beyond the double range
        return False


def _as_pair_list(values, what: str) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return _as_pair_array(values, what)
    _require(isinstance(values, list), f"{what} must be a list")
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged or nested entries
        arr = None
    if arr is not None and arr.dtype.kind in "fiub" and arr.ndim == 2 and arr.shape[1] == 2:
        arr = np.ascontiguousarray(arr, dtype=float)
        if np.isfinite(arr).all():
            # A view, not re + 1j*im: the sum would turn -0.0 real parts into +0.0.
            return arr.view(complex).reshape(-1)
    # Anything else (ragged, non-numeric or non-finite entries, ints beyond
    # int64) is walked entry by entry, which also names the first bad pair.
    out = np.empty(len(values), dtype=complex)
    for i, pair in enumerate(values):
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, (int, float)) for x in pair),
            f"{what}[{i}] must be a [re, im] number pair",
        )
        _require(all(_is_finite(x) for x in pair), f"{what}[{i}] is not finite")
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out


def _as_pair_array(values: np.ndarray, what: str) -> np.ndarray:
    """An array leaf, as `_pairs` writes it: a 1-D complex array of finite
    entries, returned as a copy like any decoded pair list."""
    _require(values.ndim == 1 and values.dtype == complex, f"{what} must be a list")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SchemaError(f"{what}[{bad[0]}] is not finite")
    return values.copy()


def _pairs(a) -> np.ndarray:
    return np.asarray(a, dtype=complex).reshape(-1)


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    _require(a.ndim == 2, "expected a 2-D array")
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _pairs(a)}


def matrix_from_json(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "matrix must be an object")
    rows, cols = obj.get("rows"), obj.get("cols")
    _require(isinstance(rows, int) and rows > 0, "rows must be a positive integer")
    _require(isinstance(cols, int) and cols > 0, "cols must be a positive integer")
    data = _as_pair_list(obj.get("data"), "data")
    _require(data.size == rows * cols, f"data length {data.size} != rows*cols {rows * cols}")
    return data.reshape(rows, cols)


def state_to_json(psi) -> dict:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return {"dim": int(psi.size), "amplitudes": _pairs(psi)}


def state_from_json(obj) -> np.ndarray:
    _require(isinstance(obj, dict), "state must be an object")
    dim = obj.get("dim")
    _require(isinstance(dim, int) and dim > 0, "dim must be a positive integer")
    amps = _as_pair_list(obj.get("amplitudes"), "amplitudes")
    _require(amps.size == dim, f"amplitudes length {amps.size} != dim {dim}")
    return amps


def channel_to_json(ch: KrausChannel) -> dict:
    out = {"dim": ch.dim, "kraus": [matrix_to_json(e) for e in ch.operators]}
    if not ch.trace_preserving:
        out["cp_only"] = True
    return out


def _decode_builtin_params(name: str, params: dict) -> dict:
    decoded = {}
    for key, value in params.items():
        if name == "random_unitary" and key == "unitaries":
            _require(isinstance(value, list), "unitaries must be a list of Matrix objects")
            decoded[key] = [matrix_from_json(m) for m in value]
        elif name == "entanglement_breaking" and key in ("psis", "phis"):
            _require(isinstance(value, list), f"{key} must be a list of StateVector objects")
            decoded[key] = [state_from_json(s) for s in value]
        else:
            decoded[key] = value
    return decoded


def channel_from_json(obj) -> KrausChannel:
    _require(isinstance(obj, dict), "channel must be an object")
    if "builtin" in obj:
        name = obj["builtin"]
        _require(isinstance(name, str), "builtin must be a string")
        params = obj.get("params", {})
        _require(isinstance(params, dict), "params must be an object")
        _require(name in BUILTIN_CHANNELS, f"unknown builtin channel {name!r}")
        return builtin_channel(name, **_decode_builtin_params(name, params))
    dim = obj.get("dim")
    _require(isinstance(dim, int) and dim > 0, "dim must be a positive integer")
    kraus = obj.get("kraus")
    _require(isinstance(kraus, list) and kraus, "kraus must be a non-empty list")
    ops = [matrix_from_json(m) for m in kraus]
    _require(all(e.shape == (dim, dim) for e in ops), "kraus operators must be dim x dim")
    return KrausChannel(ops)


def code_to_json(code: QuantumCode) -> dict:
    return {
        "ambient_dim": code.ambient_dim,
        "basis": [state_to_json(code.isometry[:, j]) for j in range(code.code_dim)],
    }


def code_from_json(obj) -> QuantumCode:
    _require(isinstance(obj, dict), "code must be an object")
    if "builtin" in obj:
        _require(isinstance(obj["builtin"], str), "builtin must be a string")
        return builtin_code(obj["builtin"])
    dim = obj.get("ambient_dim")
    _require(isinstance(dim, int) and dim > 0, "ambient_dim must be a positive integer")
    basis = obj.get("basis")
    _require(isinstance(basis, list) and basis, "basis must be a non-empty list")
    kets = [state_from_json(s) for s in basis]
    _require(all(k.size == dim for k in kets), "basis kets must match ambient_dim")
    return make_code(kets)


def matrix_list_from_json(obj) -> list[np.ndarray]:
    _require(isinstance(obj, list) and obj, "expected a non-empty list of Matrix objects")
    return [matrix_from_json(m) for m in obj]


def oracle_to_json(f: BooleanOracle) -> dict:
    return {"m": f.m, "k": f.k, "table": list(f.table)}


def oracle_from_json(obj) -> BooleanOracle:
    _require(isinstance(obj, dict), "oracle must be an object")
    m, k, table = obj.get("m"), obj.get("k"), obj.get("table")
    _require(isinstance(m, int) and isinstance(k, int), "m and k must be integers")
    _require(isinstance(table, list) and all(isinstance(x, int) for x in table), "table must be a list of integers")
    return BooleanOracle(m, k, table)


def choi_to_json(choi, block_dim: int) -> dict:
    return {"block_dim": int(block_dim), "matrix": matrix_to_json(choi)}


def choi_from_json(obj) -> tuple[np.ndarray, int]:
    _require(isinstance(obj, dict), "Choi input must be an object")
    block_dim = obj.get("block_dim")
    _require(isinstance(block_dim, int) and block_dim > 0, "block_dim must be a positive integer")
    matrix = matrix_from_json(obj.get("matrix"))
    _require(matrix.shape == (block_dim**2, block_dim**2), "matrix must be block_dim^2 square")
    return matrix, block_dim


def _dump_value(value) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


# The text of one [+0.0, +0.0] pair, without its brackets.
_ZERO_PAIR = "0.0,0.0"


def _dump_pairs(leaf: np.ndarray) -> str:
    """The [[re, im], ...] text of a complex array leaf.  Pairs whose two bit
    patterns are +0.0 come from one constant string; the rest go through one
    `json.dumps` of their list, split back into pairs at "],["."""
    flat = np.ascontiguousarray(leaf, dtype=complex).reshape(-1)
    bits = flat.view(np.uint64).reshape(-1, 2)
    nonzero = np.flatnonzero(bits[:, 0] | bits[:, 1])
    text = _dump_value(flat.view(float).reshape(-1, 2)[nonzero].tolist())
    if nonzero.size == flat.size:
        return text
    words = [_ZERO_PAIR] * flat.size
    for i, word in zip(nonzero.tolist(), text[2:-2].split("],[")):
        words[i] = word
    return "[[" + "],[".join(words) + "]]"


def _dump_key(key) -> str:
    if isinstance(key, str):
        return _dump_value(key)
    return _dump_value({key: 0})[1:-3]  # json's own rules for non-string keys


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, np.ndarray):
        out.append(_dump_pairs(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            out.append(("," if i else "") + _dump_key(key) + ":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    else:
        out.append(_dump_value(obj))


def dumps(report) -> str:
    """Compact, insertion-ordered JSON for reports: dicts, lists and tuples
    are walked, numpy arrays are written as [[re, im], ...] pair lists, and
    every other value goes to `json.dumps` (NaN and infinities raise
    ValueError, as there)."""
    out: list[str] = []
    _emit(report, out)
    return "".join(out)
