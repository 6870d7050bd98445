"""Property tests for the completion kernels, Knill-Laflamme recovery, the
JSON pair codec and the algebra layer (commutants, fixed points, Fix =
commutant).

Hypothesis draws the structure (sizes, ranks, error sets, qubit order) and a
seed; numpy draws the numerical content from that seed.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchannel import algebra
from qchannel.algebra import (
    OperatorSpace,
    commutant,
    fix_equals_commutant,
    fixed_point_set,
    interaction_algebra,
    spaces_equal,
    wedderburn_structure,
)
from qchannel.channels import KrausChannel, amplitude_damping, permutation_unitary, random_unitary_channel
from qchannel.errors import DimensionMismatchError, SchemaError
from qchannel.linalg import (
    STRUCTURAL_TOL,
    complete_isometry,
    dagger,
    frob,
    haar_random_unitary,
    is_identity,
    kron_chain,
    null_space_basis,
    polar,
)
from qchannel.qcore import gate
from qchannel.qec import QuantumCode, _sorted_eigh, build_recovery, correctability, verify_recovery
from qchannel.serialize import (
    channel_from_json,
    choi_from_json,
    code_from_json,
    dumps,
    matrix_from_json,
    matrix_list_from_json,
    matrix_to_json,
    oracle_from_json,
    pairs_hook,
    state_from_json,
    state_to_json,
)

PAULIS = [np.eye(2, dtype=complex), gate("X"), gate("Y"), gate("Z")]
SEEDS = st.integers(0, 2**32 - 1)


def _unitary_error(u) -> float:
    return frob(dagger(u) @ u - np.eye(u.shape[1]))


@st.composite
def isometries(draw):
    """n x k isometries, 1 <= n <= 16, 0 <= k <= n: Haar columns or permuted
    standard basis columns (sparse inputs with exact zeros)."""
    n = draw(st.integers(1, 16))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        return haar_random_unitary(n, rng)[:, :k]
    return np.eye(n, dtype=complex)[:, rng.permutation(n)[:k]]


@settings(deadline=None)
@given(isometries())
def test_complete_isometry_gives_unitary(v):
    w = complete_isometry(v)
    assert w.shape == (v.shape[0], v.shape[0] - v.shape[1])
    assert _unitary_error(np.hstack([v, w])) <= 1e-12


@settings(deadline=None)
@given(st.integers(1, 12), st.data())
def test_polar_rank_deficient(n, data):
    rank = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(SEEDS))
    left = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    a = left @ right
    u, p = polar(a)
    assert frob(a - u @ p) <= 1e-10 * (1.0 + frob(a))
    assert _unitary_error(u) <= 1e-10
    assert frob(p - dagger(p)) <= 1e-12 * (1.0 + frob(p))


@st.composite
def correctable_instances(draw):
    """Codes |psi> (x) range(W) on `anc` ancilla and `data` data qubits, in a
    random qubit order, with Pauli errors acting on the ancillas only.

    Every E_i† E_j then compresses to <psi|P_i P_j|psi> times the identity,
    so the Knill-Laflamme condition holds with a generic, often singular,
    scalar matrix."""
    anc = draw(st.integers(1, 2))
    data = draw(st.integers(0, 4 - anc))
    k = draw(st.integers(1, 2**data))
    labels = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * anc), min_size=1, max_size=5, unique=True)
    )
    perm = draw(st.permutations(range(anc + data)))
    rng = np.random.default_rng(draw(SEEDS))
    psi = rng.standard_normal(2**anc) + 1j * rng.standard_normal(2**anc)
    psi /= np.linalg.norm(psi)
    w = haar_random_unitary(2**data, rng)[:, :k]
    reorder = permutation_unitary(perm, 2)
    v = reorder @ np.kron(psi[:, None], w)
    data_eye = np.eye(2**data, dtype=complex)
    errors = [reorder @ kron_chain([PAULIS[i] for i in label] + [data_eye]) @ dagger(reorder) for label in labels]
    return QuantumCode(v), errors, rng.dirichlet(np.ones(len(errors)))


@settings(deadline=None)
@given(correctable_instances())
def test_knill_laflamme_implies_recovery(instance):
    code, errors, probs = instance
    result = correctability(code, errors)
    assert result.correctable
    lam = result.lambda_matrix
    rec = build_recovery(code, errors, lam)
    v = code.isometry
    dvals, u = _sorted_eigh((lam + dagger(lam)) / 2.0)
    kept = [idx for idx in range(dvals.size) if dvals[idx] > 1e-9 * max(1.0, dvals[-1])]
    assert len(rec.unitaries) == len(kept)
    for uk, pk, idx in zip(rec.unitaries, rec.projectors, kept):
        syndrome = sum(u[i, idx] * errors[i] for i in range(len(errors))) @ v / np.sqrt(dvals[idx])
        assert _unitary_error(uk) <= 1e-10
        assert frob(uk @ v - syndrome) <= 1e-9
        assert frob(pk - syndrome @ dagger(syndrome)) <= 1e-9
    noisy = KrausChannel([np.sqrt(p) * e for p, e in zip(probs, errors)])
    assert verify_recovery(noisy, rec, code) <= 1e-9


def _reference_correctability(code, errors, tol: float = 1e-9):
    """Per-pair Knill-Laflamme loop: verdict, scalar matrix and the first
    failing pair in row-major order, at tol * (1 + ||E_i V||_F ||E_j V||_F)."""
    v, k, r = code.isometry, code.code_dim, len(errors)
    images = [e @ v for e in errors]
    lam = np.zeros((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            m = dagger(images[i]) @ images[j]
            lam[i, j] = np.trace(m) / k
            if frob(m - lam[i, j] * np.eye(k)) > tol * (1.0 + frob(images[i]) * frob(images[j])):
                return False, None, (i, j)
    return True, lam, None


@settings(deadline=None)
@given(correctable_instances(), st.data())
def test_correctability_matches_per_pair_reference(instance, data):
    """Random Gaussian errors inserted into a correctable list usually break
    the condition (never on a one-dimensional code)."""
    code, errors, _ = instance
    rng = np.random.default_rng(data.draw(SEEDS))
    n = code.ambient_dim
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(errors)))
        errors.insert(at, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    ok, lam, pair = _reference_correctability(code, errors)
    result = correctability(code, errors)
    assert (result.correctable, result.offending_pair) == (ok, pair)
    if ok:
        assert np.allclose(result.lambda_matrix, lam, rtol=0.0, atol=1e-12)
    else:
        assert result.lambda_matrix is None


def _reference_sorted_eigh(lam):
    """Ascending eigenvalues, ties broken by Python tuple keys over
    (-Re, -Im) of the eigenvector entries."""
    vals, vecs = np.linalg.eigh(lam)
    keys = []
    for idx in range(vals.size):
        entries = []
        for x in vecs[:, idx]:
            entries.extend((-x.real, -x.imag))
        keys.append((float(vals[idx]), tuple(entries)))
    order = sorted(range(vals.size), key=lambda i: keys[i])
    return vals[order], vecs[:, order]


@settings(deadline=None)
@given(st.integers(0, 8), st.sampled_from(["random", "diagonal", "scalar", "degenerate"]), SEEDS)
def test_sorted_eigh_matches_tuple_key_reference(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = g + dagger(g)
    elif kind == "diagonal":
        lam = np.diag(rng.integers(0, 3, n).astype(float)).astype(complex)
    elif kind == "scalar":
        lam = float(rng.integers(0, 3)) * np.eye(n, dtype=complex)
    else:
        w = haar_random_unitary(n, rng) if n else np.eye(0, dtype=complex)
        lam = (w * rng.integers(0, 2, n)) @ dagger(w)
    vals, vecs = _sorted_eigh(lam)
    ref_vals, ref_vecs = _reference_sorted_eigh(lam)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


# ---------------------------------------------------------------------------
# Pair codec: the vectorised encoder and decoder against the per-entry ones
# they replaced, kept here verbatim as the reference.
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _reference_as_pair_list(values, what: str) -> np.ndarray:
    _require(isinstance(values, list), f"{what} must be a list")
    out = np.empty(len(values), dtype=complex)
    for i, pair in enumerate(values):
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, (int, float)) for x in pair),
            f"{what}[{i}] must be a [re, im] number pair",
        )
        _require(all(math.isfinite(float(x)) for x in pair), f"{what}[{i}] is not finite")
        out[i] = complex(float(pair[0]), float(pair[1]))
    return out


def _reference_pairs(a: np.ndarray) -> list[list[float]]:
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in flat]


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 1e16, -1e16, 3.0, 1.7976931348623157e308
]
FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
NUMBERS = st.one_of(
    FINITE_FLOATS,
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, 2**63, 2**63 + 2**11 + 1, -(2**63) - 1, 2**64]),
    st.booleans(),
)
HUGE_INTS = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
JSON_OBJECTS = st.dictionaries(st.text(max_size=1), NUMBERS, max_size=1)
NON_NUMBERS = st.one_of(st.text(max_size=2), st.none(), st.lists(NUMBERS, max_size=2), JSON_OBJECTS)
BAD_ENTRIES = st.one_of(
    st.lists(NUMBERS, max_size=3).filter(lambda v: len(v) != 2),
    st.tuples(st.sampled_from([float("nan"), float("inf"), -float("inf")]), NUMBERS).map(list),
    st.tuples(NUMBERS, HUGE_INTS).map(list),
    st.tuples(HUGE_INTS, NUMBERS).map(list),
    st.tuples(NON_NUMBERS, NUMBERS).map(list),
    st.tuples(NUMBERS, NON_NUMBERS).map(list),
    st.one_of(NUMBERS, st.text(max_size=2), st.none()),
)


@st.composite
def pair_lists(draw):
    """Lists of [re, im] pairs, mostly well formed, with up to two bad
    entries put in at random places, or no list at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(st.none(), st.text(max_size=2), NUMBERS, JSON_OBJECTS))
    values = draw(st.lists(st.tuples(NUMBERS, NUMBERS).map(list), max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        values.insert(draw(st.integers(0, len(values))), draw(BAD_ENTRIES))
    return values


def _same_outcome(decode, doc, reference):
    """decode(doc) must give the bit pattern `reference` returns, or raise the
    SchemaError message it raises; an OverflowError of the reference (an int
    beyond the double range) must now be a 'not finite' SchemaError."""
    try:
        expected, expected_error = reference(), None
    except SchemaError as exc:
        expected, expected_error = None, str(exc)
    except OverflowError:
        expected, expected_error = None, OverflowError
    try:
        got, got_error = decode(doc), None
    except SchemaError as exc:
        got, got_error = None, str(exc)
    if expected_error is OverflowError:
        assert got_error is not None and got_error.endswith("is not finite")
    elif expected_error is not None:
        assert got_error == expected_error
    else:
        assert got_error is None
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _reference_matrix(values):
    data = _reference_as_pair_list(values, "data")
    cols = len(values) or 1
    _require(data.size == cols, f"data length {data.size} != rows*cols {cols}")
    return data.reshape(1, cols)


def _reference_state(values):
    amps = _reference_as_pair_list(values, "amplitudes")
    _require(amps.size == (len(values) or 1), f"amplitudes length {amps.size} != dim {len(values) or 1}")
    return amps


@settings(deadline=None, max_examples=300)
@given(pair_lists())
def test_decoders_match_per_entry_reference(values):
    cols = len(values) if isinstance(values, list) and values else 1
    _same_outcome(matrix_from_json, {"rows": 1, "cols": cols, "data": values}, lambda: _reference_matrix(values))
    _same_outcome(state_from_json, {"dim": cols, "amplitudes": values}, lambda: _reference_state(values))


def _matrix_doc(values):
    return {"rows": 1, "cols": len(values) if isinstance(values, list) and values else 1, "data": values}


def _state_doc(values):
    return {"dim": len(values) if isinstance(values, list) and values else 1, "amplitudes": values}


# Each decoder with a document around one drawn pair list: in its own Matrix
# or State, or under a "data" or "amplitudes" key the decoder never reads.
DOCUMENTS = [
    (matrix_from_json, _matrix_doc),
    (state_from_json, _state_doc),
    (matrix_list_from_json, lambda v: [_matrix_doc([[1, 0]]), _matrix_doc(v)]),
    (channel_from_json, lambda v: {"dim": 1, "kraus": [_matrix_doc(v)]}),
    (channel_from_json, lambda v: {"dim": 1, "kraus": [_matrix_doc([[1, 0]])], "data": v}),
    (channel_from_json, lambda v: {"builtin": "random_unitary", "params": {"unitaries": [_matrix_doc(v)]}}),
    (channel_from_json, lambda v: {"builtin": "bit_flip", "params": {"p": 0.5, "data": v}}),
    (channel_from_json, lambda v: {"builtin": "bit_flip", "params": {"p": {"data": v}}}),
    (code_from_json, lambda v: {"ambient_dim": 1, "basis": [_state_doc(v)]}),
    (oracle_from_json, lambda v: {"m": 1, "k": 1, "table": [0, 1], "data": v, "amplitudes": v}),
    (choi_from_json, lambda v: {"block_dim": 1, "matrix": _matrix_doc(v)}),
    (choi_from_json, lambda v: {"block_dim": 1, "matrix": {"rows": 1, "cols": 1, "data": [[1, 0]], "amplitudes": v}}),
]


def _decoded(value):
    """What a decoder returned, as comparable bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_decoded(v) for v in value]
    if hasattr(value, "operators"):
        return _decoded(np.array(value.operators)), value.trace_preserving
    if hasattr(value, "isometry"):
        return _decoded(value.isometry)
    return value


def _outcome(decode, load):
    try:
        return _decoded(decode(load()))
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


# Channel checks on entries near 1e308 overflow alike on both sides.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(pair_lists(), st.sampled_from(range(len(DOCUMENTS))), st.booleans())
def test_hook_loaded_documents_decode_like_plain_ones(values, which, broken):
    decode, document = DOCUMENTS[which]
    text = json.dumps(document(values))
    if broken:  # a syntax error after the whole document has been parsed
        text = "[" + text + ",]"
    with_hook = _outcome(decode, lambda: json.loads(text, object_hook=pairs_hook))
    assert with_hook == _outcome(decode, lambda: json.loads(text))
    if broken:
        assert with_hook[0] == "JSONDecodeError"


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_encoders_match_per_entry_reference(rows, cols, data):
    parts = data.draw(st.lists(FINITE_FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    a = np.empty((rows, cols), dtype=complex)
    a.real.flat, a.imag.flat = parts[0::2], parts[1::2]
    expected = dumps({"rows": rows, "cols": cols, "data": _reference_pairs(a)})
    assert dumps(matrix_to_json(a)) == expected
    assert dumps(state_to_json(a)) == dumps({"dim": rows * cols, "amplitudes": _reference_pairs(a)})
    assert np.array_equal(matrix_from_json(json.loads(expected)).view(np.uint64), a.view(np.uint64))


@pytest.mark.parametrize("value", EDGE_FLOATS)
def test_edge_floats_round_trip_bit_exactly(value):
    a = np.array([[complex(value, -value)]])
    text = dumps(matrix_to_json(a))
    assert text == dumps({"rows": 1, "cols": 1, "data": _reference_pairs(a)})
    assert np.array_equal(matrix_from_json(json.loads(text)).view(np.uint64), a.view(np.uint64))


LEAF_FLOATS = st.sampled_from([0.0] * 12 + EDGE_FLOATS)
NONZERO_FLOATS = FINITE_FLOATS.filter(lambda x: x != 0.0)


@st.composite
def array_leaves(draw):
    """Complex arrays as the encoders leave them: mostly zero with ±0.0,
    subnormal, huge and 1e16 entries; all zero; all nonzero; or 1x1."""
    kind = draw(st.sampled_from(["sparse", "zero", "nonzero", "one"]))
    n = 1 if kind == "one" else draw(st.integers(0, 24))
    if kind == "zero":
        return np.zeros(n, dtype=complex)
    floats = NONZERO_FLOATS if kind == "nonzero" else LEAF_FLOATS
    parts = draw(st.lists(floats, min_size=2 * n, max_size=2 * n))
    leaf = np.empty(n, dtype=complex)
    leaf.real, leaf.imag = parts[0::2], parts[1::2]
    return leaf.reshape(1, 1) if kind == "one" else leaf


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    FINITE_FLOATS,
    st.text(),
    st.sampled_from(['"\\/\b\f\n\r\t\x00\x1f', " é€😀", "\ud800", "],[", "[0.0,0.0]"]),
)
REPORTS = st.recursive(
    SCALARS | array_leaves(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3) | st.sampled_from(["data", '"\n']), inner, max_size=4),
    ),
    max_leaves=12,
)


def _listified(obj):
    if isinstance(obj, np.ndarray):
        return _reference_pairs(obj)
    if isinstance(obj, dict):
        return {key: _listified(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_listified(value) for value in obj]
    return obj


@settings(deadline=None, max_examples=300)
@given(REPORTS)
def test_dumps_matches_stdlib_json(report):
    assert dumps(report) == json.dumps(_listified(report), separators=(",", ":"), allow_nan=False)


# ---------------------------------------------------------------------------
# Algebra layer: the block-coordinate commutant and fixed-point set against
# the full Kronecker stack and superoperator they replaced, kept here as the
# references.
# ---------------------------------------------------------------------------


def _reference_commutant(generators, tol: float = 1e-9) -> OperatorSpace:
    mats = [np.asarray(g, dtype=complex) for g in generators]
    n = mats[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(h, eye) - np.kron(eye, h.T) for g in mats for h in (g, dagger(g))]
    scale = max(1.0, max(frob(g) for g in mats))
    cols = null_space_basis(np.vstack(rows), tol, scale=scale)
    return OperatorSpace([cols[:, j].reshape(n, n) for j in range(cols.shape[1])])


def _reference_fixed_points(ch: KrausChannel, tol: float = 1e-9) -> OperatorSpace:
    """Kernel of sum_E kron(E, conj(E)) - I, the channel on row-major
    vectorized operators, at tol with floor 1."""
    n = ch.dim
    phi = sum(np.kron(e, e.conj()) for e in ch.operators)
    cols = null_space_basis(phi - np.eye(n * n), tol, scale=1.0)
    return OperatorSpace(cols.T.reshape(-1, n, n))


@st.composite
def block_families(draw, unitary=None):
    """Generators W (+)_k (I_{m_k} x A_k) W† sharing one Haar W, with
    (m_k, n_k) blocks, N = sum m_k n_k <= 10, and random A_k: 1-3 Ginibre
    or 2-3 Haar ones.  Returns the generators and the blocks: the commutant is then
    (+)_k M_{m_k} x I_{n_k} and the generated algebra (+)_k I_{m_k} x M_{n_k}."""
    blocks = draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3).filter(
            lambda b: sum(m * n for m, n in b) <= 10
        )
    )
    if unitary is None:
        unitary = draw(st.booleans())
    # one unitary is normal and generates only a commutative algebra
    count = draw(st.integers(2 if unitary else 1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    dim = sum(m * n for m, n in blocks)
    w = haar_random_unitary(dim, rng)
    gens = []
    for _ in range(count):
        g = np.zeros((dim, dim), dtype=complex)
        off = 0
        for m, n in blocks:
            a = haar_random_unitary(n, rng) if unitary else rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g[off : off + m * n, off : off + m * n] = np.kron(np.eye(m), a)
            off += m * n
        gens.append(w @ g @ dagger(w))
    return gens, blocks


@settings(deadline=None, max_examples=60)
@given(block_families())
def test_commutant_of_block_families(family):
    gens, blocks = family
    space = commutant(gens)
    assert spaces_equal(space, _reference_commutant(gens))
    assert space.dim == sum(m * m for m, _ in blocks)
    assert sorted(wedderburn_structure(space).blocks) == sorted((n, m) for m, n in blocks)
    assert interaction_algebra(KrausChannel(gens)).dim == sum(n * n for _, n in blocks)
    assert spaces_equal(interaction_algebra(KrausChannel(gens)), _reference_commutant(_reference_commutant(gens).basis))


@settings(deadline=None, max_examples=30)
@given(block_families())
def test_bicommutant_matches_reference(family):
    gens, blocks = family
    inner = commutant(gens).basis
    double = commutant(inner)
    assert spaces_equal(double, _reference_commutant(inner))
    assert double.dim == sum(n * n for _, n in blocks)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(1, 3), st.data())
def test_commutant_of_scalar_and_generic_lists(n, count, data):
    rng = np.random.default_rng(data.draw(SEEDS))
    scalars = [(rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(n) for _ in range(count)]
    full = commutant(scalars)
    assert full.dim == n * n and spaces_equal(full, _reference_commutant(scalars))
    assert commutant([np.eye(n)]).dim == n * n
    generic = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(count)]
    # a generic G and G† already generate M_n
    space = commutant(generic)
    assert space.dim == 1 and spaces_equal(space, _reference_commutant(generic))


@settings(deadline=None, max_examples=20)
@given(st.floats(0.01, 0.99), st.integers(1, 3), SEEDS)
def test_commutant_of_non_normal_generators(r, copies, seed):
    # amplitude damping has a nilpotent Kraus operator; ampliate it over a
    # random basis of C^2 x C^copies
    rng = np.random.default_rng(seed)
    w = haar_random_unitary(2 * copies, rng)
    gens = [w @ np.kron(e, np.eye(copies)) @ dagger(w) for e in amplitude_damping(r).operators]
    space = commutant(gens)
    assert spaces_equal(space, _reference_commutant(gens))
    assert space.dim == copies * copies


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3).filter(
        lambda b: sum(m * n for m, n in b) <= 10
    ),
    st.sampled_from(["algebra", "commutant"]),
    st.booleans(),
    SEEDS,
)
def test_factor_rule_implies_the_gram_rule(blocks, which, scalar, seed):
    # W (I + t H) with H = I (which makes the bound tight for M_N) or a random
    # unit PSD H, with t bisected onto the last accepted factors: there
    # ||W†W - I||_F is the threshold in the docstring of
    # algebra._certify_factors (eta = 0), the emitted basis passes the Gram
    # rule of OperatorSpace, and just past it the factors are refused.
    rng = np.random.default_rng(seed)
    n = sum(m * k for m, k in blocks)
    offsets = np.cumsum([0] + [m * k for m, k in blocks[:-1]]).tolist()
    w = haar_random_unitary(n, rng)
    if scalar:
        h = np.eye(n)
    else:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a @ dagger(a) / frob(a @ dagger(a))
    emitted = {"algebra": blocks, "commutant": [(k, m) for m, k in blocks]}[which]
    dim = sum(k * k for _, k in emitted)
    rho = min(n, dim)
    budget = STRUCTURAL_TOL * dim / 2
    threshold = budget / (np.sqrt(rho) + np.sqrt(rho + budget))

    def factors(t):
        # the commutant's basis change is a column permutation of W's
        structure = algebra.AlgebraStructure(blocks, w @ (np.eye(n) + t * h), offsets)
        return structure if which == "algebra" else algebra._commutant_structure(structure)

    def span(t):
        return algebra._pattern_span(factors(t), which)

    def accepted(t):
        try:
            span(t)
        except DimensionMismatchError:
            return False
        return True

    lo, hi = 0.0, 1e-6
    assert accepted(lo) and not accepted(hi)
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    # rounding in ||W†W - I||_F is about N ulps, against a threshold of at least 2e-11
    w_lo = factors(lo).basis_change
    eps = frob(dagger(w_lo) @ w_lo - np.eye(n))
    assert eps == pytest.approx(threshold, rel=1e-3)
    space = span(lo)
    gram = space.vecs.conj() @ space.vecs.T
    assert space.dim == dim and is_identity(gram, STRUCTURAL_TOL)
    # the bound the rule rests on, with room for rounding in the Gram product
    assert frob(gram - np.eye(dim)) <= 2 * np.sqrt(rho) * eps + eps**2 + 1e-14 * dim
    with pytest.raises(DimensionMismatchError, match="factor rule"):
        span(hi)


@settings(deadline=None, max_examples=30)
@given(block_families(unitary=True), SEEDS)
def test_fix_equals_commutant_for_random_unitary_channels(family, seed):
    unitaries, _ = family
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(unitaries)))
    assert fix_equals_commutant(random_unitary_channel(weights, unitaries)) == (True, True)


@settings(deadline=None, max_examples=40)
@given(st.booleans(), st.data())
def test_fixed_points_match_the_superoperator_kernel(unital, data):
    # Haar families give random-unitary channels, which are unital.  Ginibre
    # families are made trace preserving by E_i S^(-1/2) with S = sum E†E, an
    # element of the algebra, so the blocks stay; unless every block is 1 x 1
    # or there is one generator, they are not unital.
    gens, _ = data.draw(block_families(unitary=unital))
    if unital:
        ch = random_unitary_channel(np.random.default_rng(data.draw(SEEDS)).dirichlet(np.ones(len(gens))), gens)
    else:
        vals, vecs = np.linalg.eigh(sum(dagger(g) @ g for g in gens))
        ch = KrausChannel([g @ (vecs / np.sqrt(vals)) @ dagger(vecs) for g in gens])
    assert spaces_equal(fixed_point_set(ch), _reference_fixed_points(ch), 1e-8)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 8), st.integers(1, 3), SEEDS)
def test_fixed_points_of_generic_channels(n, count, seed):
    # Kraus operators cut from a Stinespring isometry: the QR factor of a
    # (count n) x n Ginibre draw.
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((count * n, n)) + 1j * rng.standard_normal((count * n, n)))
    ch = KrausChannel([v[i * n : (i + 1) * n] for i in range(count)])
    assert spaces_equal(fixed_point_set(ch), _reference_fixed_points(ch), 1e-8)
