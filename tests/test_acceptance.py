"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.

Each criterion belongs to one of the four topics of the paper's abstract:

- Quantum algorithms: 1 (Deutsch), 2 (Deutsch-Jozsa).
- Quantum channels, i.e. completely positive trace-preserving maps: 3 (bit
  flip), 4 (constant-half channel), 5 (Choi <-> Kraus), 6 (unitary freedom
  of Kraus operators), 11 (fixed points equal the commutant iff unital),
  13 (dead subspace of a singular image of the identity).
- Error detection and correction theorems: 7 (detection), 8 (repetition
  code, Knill-Laflamme and recovery), 9 (Shor code, every qubit).
- Passive error correction: 10 (noise commutants and their blocks),
  12 (the collective-rotation noiseless qubit).

Criterion 14 runs property checks across all four topics.
"""

import itertools

import numpy as np

from qchannel.algebra import (
    commutant,
    dead_subspace,
    fix_equals_commutant,
    fixed_point_set,
    interaction_algebra,
    noiseless_subsystems,
    structure_residual,
    wedderburn_structure,
)
from qchannel.algorithms import BooleanOracle, deutsch, deutsch_jozsa, oracle_unitary
from qchannel.channels import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    bit_flip,
    channels_equal,
    choi_distance,
    choi_matrix,
    classify,
    collective_rotation,
    constant_half,
    dead_row,
    entanglement_breaking,
    kraus_from_choi,
    kraus_intertwiner,
    permutation_channel,
    phase_flip,
    random_unitary_channel,
    zz_dephasing,
)
from qchannel.linalg import dagger, frob, haar_random_unitary, kron
from qchannel.qcore import basis_state, embed_single, gate, pure_density, random_density
from qchannel.qec import build_recovery, builtin_code, correctability, detect, verify_recovery


def report(number, name, ok, detail=""):
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def builtin_instances(seed=11):
    rng = np.random.default_rng(seed)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    return [
        ("bit_flip", bit_flip(0.3)),
        ("constant_half", constant_half()),
        ("amplitude_damping", amplitude_damping(0.5)),
        ("random_unitary", random_unitary_channel([0.6, 0.4], [haar_random_unitary(2, rng) for _ in range(2)])),
        ("entanglement_breaking", entanglement_breaking([basis_state(0, 2), basis_state(1, 2)], [plus, minus])),
        ("phase_flip", phase_flip(0.25)),
        ("zz_dephasing", zz_dephasing(0.25)),
        ("collective_rotation", collective_rotation(3)),
        ("permutation", permutation_channel(2, 3)),
        ("dead_row", dead_row(4)),
    ]


def test_criterion_01_deutsch_determinism():
    expected = {(0, 0): "constant", (1, 1): "constant", (0, 1): "balanced", (1, 0): "balanced"}
    worst = 0.0
    ok = True
    for table, want in expected.items():
        verdict = deutsch(BooleanOracle(1, 1, table))
        ok = ok and verdict.verdict == want
        worst = max(worst, abs(verdict.probability - 1))
    report(1, "deutsch determinism on all 4 oracles", ok and worst <= 1e-10, f"max |p-1| = {worst:.2e}")


def test_criterion_02_deutsch_jozsa_exhaustive():
    ok = True
    worst = 0.0
    for table in [(0,) * 8, (1,) * 8]:
        verdict = deutsch_jozsa(BooleanOracle(3, 1, table))
        ok = ok and verdict.verdict == "constant"
        worst = max(worst, abs(verdict.probability - 1))
    count = 0
    for ones in itertools.combinations(range(8), 4):
        table = [1 if x in ones else 0 for x in range(8)]
        verdict = deutsch_jozsa(BooleanOracle(3, 1, table))
        ok = ok and verdict.verdict == "balanced"
        all_zeros = 1 - verdict.probability
        worst = max(worst, abs(all_zeros))
        count += 1
    ok = ok and count == 70
    report(2, "deutsch-jozsa exhaustive at m=3 (2+70 tables)", ok and worst <= 1e-10, f"max deviation = {worst:.2e}")


def test_criterion_03_bit_flip_action():
    p = 0.3
    e00 = pure_density(basis_state(0, 2))
    e11 = pure_density(basis_state(1, 2))
    out = apply_channel(bit_flip(p), e00)
    err = np.max(np.abs(out - ((1 - p) * e00 + p * e11)))
    report(3, "bit flip action on |0><0| at p=0.3", err <= 1e-12, f"entrywise error = {err:.2e}")


def test_criterion_04_constant_half():
    ch = constant_half()
    rng = np.random.default_rng(4)
    worst = max(
        frob(apply_channel(ch, random_density(2, rng)) - np.eye(2) / 2) for _ in range(100)
    )
    report(4, "constant-half channel on 100 random densities", worst <= 1e-12, f"max Frobenius error = {worst:.2e}")


def test_criterion_05_choi_kraus_roundtrip():
    ok = True
    worst = 0.0
    for name, ch in builtin_instances():
        back = kraus_from_choi(choi_matrix(ch))
        dist = choi_distance(ch, back)
        worst = max(worst, dist)
        ok = ok and dist <= 1e-9 and len(back.operators) <= ch.dim**2
    report(5, "choi->kraus roundtrip for all builtins (N<=8)", ok, f"max Choi distance = {worst:.2e}")


def test_criterion_06_unitary_freedom():
    rng = np.random.default_rng(6)
    ok = True
    worst = 0.0
    for name, ch in builtin_instances():
        r = len(ch.operators)
        v = haar_random_unitary(r, rng)
        mixed = KrausChannel([sum(v[i, j] * ch.operators[j] for j in range(r)) for i in range(r)])
        if not channels_equal(ch, mixed):
            ok = False
            continue
        u = kraus_intertwiner(ch, mixed)
        if u is None:
            ok = False
            continue
        residual = max(
            frob(ch.operators[i] - sum(u[i, j] * mixed.operators[j] for j in range(r)))
            for i in range(r)
        )
        residual = max(residual, frob(dagger(u) @ u - np.eye(r)))
        worst = max(worst, residual)
        ok = ok and residual <= 1e-9
    report(6, "unitary freedom remix + intertwiner for all builtins", ok, f"max residual = {worst:.2e}")


def test_criterion_07_undetectable_dephasing():
    code = builtin_code("repetition3")
    z1 = embed_single(gate("Z"), 1, 3)
    result = detect(code, z1)
    diag = dagger(code.isometry) @ z1 @ code.isometry
    ok = (not result.detectable) and diag[0, 0] == 1.0 and diag[1, 1] == -1.0
    report(7, "Z1 undetectable on span{|000>,|111>} with diagonals +1/-1", ok, f"residual = {result.residual:.3f}")


def test_criterion_08_repetition_pipeline():
    code = builtin_code("repetition3")
    errs = [np.eye(8)] + [embed_single(gate("X"), k, 3) for k in (1, 2, 3)]
    result = correctability(code, errs)
    lam_err = frob(result.lambda_matrix - np.eye(4)) if result.correctable else np.inf
    rec = build_recovery(code, errs, result.lambda_matrix)
    channel = KrausChannel([np.sqrt(0.85) * errs[0]] + [np.sqrt(0.05) * e for e in errs[1:]])
    deviation = verify_recovery(channel, rec, code, seed=0, samples=20)
    ok = result.correctable and lam_err <= 1e-10 and deviation <= 1e-9
    report(8, "repetition-code pipeline (Lambda = I, recovery restores)", ok,
           f"|Lambda-I| = {lam_err:.2e}, max deviation = {deviation:.2e}")


def test_criterion_09_shor_code_every_qubit():
    code = builtin_code("shor9")
    rng = np.random.default_rng(9)
    eye = np.eye(512)
    ok = True
    worst = 0.0
    for k in range(1, 10):
        errs = [eye] + [embed_single(gate(p), k, 9) for p in "XYZ"]
        result = correctability(code, errs)
        if not result.correctable:
            ok = False
            break
        rec = build_recovery(code, errs, result.lambda_matrix)
        w = haar_random_unitary(2, rng)
        channel = KrausChannel([np.sqrt(0.8) * eye, np.sqrt(0.2) * embed_single(w, k, 9)])
        deviation = verify_recovery(channel, rec, code, seed=k, samples=20)
        worst = max(worst, deviation)
        ok = ok and deviation <= 1e-9
    report(9, "shor code: correctability + recovery for each qubit", ok, f"max deviation = {worst:.2e}")


def test_criterion_10_noise_commutants():
    pf = phase_flip(0.25)
    pf_comm = commutant(pf.operators)
    pf_structure = wedderburn_structure(pf_comm)
    pf_ok = pf_comm.dim == 2 and pf_structure.blocks == [(1, 1), (1, 1)] and noiseless_subsystems(pf) == []

    zz = zz_dephasing(0.25)
    zz_comm = commutant(zz.operators)
    zz_structure = wedderburn_structure(zz_comm)
    zz_blocks = noiseless_subsystems(zz)
    zz_ok = (
        zz_comm.dim == 8
        and zz_structure.blocks == [(1, 2), (1, 2)]
        and [(b.multiplicity, b.block_dim, b.decoherence_free) for b in zz_blocks]
        == [(1, 2, True), (1, 2, True)]
    )
    report(10, "noise commutants of phase flip and ZZ dephasing", pf_ok and zz_ok,
           f"dims = {pf_comm.dim}, {zz_comm.dim}")


def test_criterion_11_unitality_discrimination():
    unital_cases = [phase_flip(0.25), zz_dephasing(0.25), bit_flip(0.3), collective_rotation(3), permutation_channel(2, 3)]
    ok = all(fix_equals_commutant(ch) == (True, True) for ch in unital_cases)
    ad = amplitude_damping(0.5)
    ok = ok and fix_equals_commutant(ad) == (False, False)
    fix = fixed_point_set(ad)
    ground = pure_density(basis_state(0, 2))
    residual = fix.residual(ground)
    ok = ok and fix.dim == 1 and residual <= 1e-9
    report(11, "fixed points equal commutant iff unital", ok, f"Fix(AD) residual vs |0><0| = {residual:.2e}")


def test_criterion_12_collective_rotation_protected_qubit():
    ch = collective_rotation(3)
    comm = commutant(ch.operators)
    structure = wedderburn_structure(comm)
    blocks_ok = comm.dim == 5 and sorted(structure.blocks) == [(2, 2), (4, 1)]
    cross_check = sum(n * n for _, n in structure.blocks) == 5
    protected = [b for b in noiseless_subsystems(ch) if b.block_dim >= 2]
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        enc = protected[0].encode(random_density(2, rng))
        worst = max(worst, frob(apply_channel(ch, enc) - enc))
    ok = blocks_ok and cross_check and len(protected) == 1 and worst <= 1e-8
    report(12, "collective rotation n=3: {(4,1),(2,2)} with protected qubit", ok,
           f"dim = {comm.dim}, max invariance deviation = {worst:.2e}")


def test_criterion_13_dead_subspace():
    ground = pure_density(basis_state(0, 2))
    ch = KrausChannel([ground])
    result = dead_subspace(ch)
    excited = pure_density(basis_state(1, 2))
    case1 = (
        result is not None
        and result.hypothesis_holds
        and np.allclose(result.perp_projector, excited)
        and frob(apply_channel(ch, excited)) == 0.0
    )
    dr = dead_row(4)
    image = sum(e @ dagger(e) for e in dr.operators)
    result2 = dead_subspace(dr)
    case2 = (
        np.allclose(image, 4 * pure_density(basis_state(0, 4)))
        and result2 is not None
        and not result2.hypothesis_holds
    )
    report(13, "dead subspace: projector map annihilates, dead_row fails hypothesis", case1 and case2)


def test_criterion_14_property_suites():
    rng = np.random.default_rng(14)
    checks = []

    # channel outputs stay densities
    for name, ch in builtin_instances():
        if not ch.trace_preserving:
            continue
        for _ in range(10):
            out = apply_channel(ch, random_density(ch.dim, rng))
            checks.append(np.linalg.eigvalsh((out + dagger(out)) / 2)[0] >= -1e-9)
            checks.append(abs(np.trace(out).real - 1) <= 1e-10)

    # detectable set is linear
    code = builtin_code("repetition3")
    e1, e2 = embed_single(gate("X"), 1, 3), np.eye(8)
    for _ in range(5):
        a, b = rng.standard_normal(2)
        combo = detect(code, a * e1 + b * e2)
        expected = a * detect(code, e1).scalar + b * detect(code, e2).scalar
        checks.append(combo.detectable and abs(combo.scalar - expected) <= 1e-9)

    # Lambda is PSD and the recovery channel is trace preserving
    errs = [np.eye(8)] + [embed_single(gate("X"), k, 3) for k in (1, 2, 3)]
    lam = correctability(code, errs).lambda_matrix
    checks.append(np.linalg.eigvalsh((lam + dagger(lam)) / 2)[0] >= -1e-9)
    rec = build_recovery(code, errs, lam)
    checks.append(classify(rec.channel).trace_preserving)

    # algebra closure and bicommutant dimension agreement
    for ch in (phase_flip(0.25), zz_dephasing(0.25), collective_rotation(3)):
        space = interaction_algebra(ch)
        for _ in range(5):
            i, j = rng.integers(0, space.dim, 2)
            checks.append(space.residual(space.basis[i] @ space.basis[j]) <= 1e-8)
        checks.append(commutant(commutant(ch.operators).basis).dim == space.dim)

    # block-pattern residual
    comm = commutant(collective_rotation(3).operators)
    checks.append(structure_residual(comm, wedderburn_structure(comm)) <= 1e-7)

    # oracle unitaries are permutation matrices
    for _ in range(5):
        f = BooleanOracle(3, 2, rng.integers(0, 4, size=8))
        u = oracle_unitary(f)
        checks.append(np.allclose(np.abs(u).sum(axis=0), 1) and np.allclose(np.abs(u).sum(axis=1), 1))
        checks.append(set(np.unique(u.real)) <= {0.0, 1.0})

    # phase kickback
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    for m in (1, 2, 3):
        for _ in range(4):
            f = BooleanOracle(m, 1, rng.integers(0, 2, size=2**m))
            u = oracle_unitary(f)
            for x in range(2**m):
                state = kron(basis_state(x, 2**m), minus)
                checks.append(np.allclose(u @ state, (-1) ** f(x) * state))

    ok = all(checks)
    report(14, "property suites", ok, f"{len(checks)} checks")
