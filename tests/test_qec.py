import tracemalloc

import numpy as np
import pytest

from qchannel.channels import KrausChannel, classify
from qchannel.errors import (
    ConditionViolatedError,
    DependentInputError,
    NotPSDError,
    NotTracePreservingError,
    UnknownCodeError,
)
from qchannel.linalg import (
    complete_isometry,
    dagger,
    frob,
    haar_random_unitary,
    is_identity,
    orthonormal_columns,
    spectral_support,
)
from qchannel.qcore import basis_state, embed_single, gate, ket, random_density
from qchannel.qec import (
    QuantumCode,
    _sorted_eigh,
    build_recovery,
    builtin_code,
    correctability,
    detect,
    detectable_space_form,
    make_code,
    verify_recovery,
)


def xflip_errors():
    return [np.eye(8)] + [embed_single(gate("X"), k, 3) for k in (1, 2, 3)]


def shor_paulis(qubit):
    return [np.eye(512)] + [embed_single(gate(p), qubit, 9) for p in "XYZ"]


def random_code_state(code, rng):
    c = rng.standard_normal(code.code_dim) + 1j * rng.standard_normal(code.code_dim)
    c = c / np.linalg.norm(c)
    return code.isometry @ c


class TestCodes:
    def test_repetition_projection_rank(self):
        code = builtin_code("repetition3")
        assert code.ambient_dim == 8 and code.code_dim == 2
        assert np.trace(code.projection).real == pytest.approx(2)

    def test_full_basis_gives_identity(self):
        code = make_code([basis_state(k, 2) for k in range(2)])
        assert np.allclose(code.projection, np.eye(2))

    def test_shor_dimensions(self):
        code = builtin_code("shor9")
        assert code.ambient_dim == 512 and code.code_dim == 2
        v = code.isometry
        assert frob(dagger(v) @ v - np.eye(2)) <= 1e-10

    def test_shor_amplitudes(self):
        v = builtin_code("shor9").isometry
        nonzero = np.abs(v[:, 0]) > 1e-12
        assert nonzero.sum() == 8
        assert np.allclose(v[nonzero, 0], 1 / (2 * np.sqrt(2)))
        assert abs(np.vdot(v[:, 0], v[:, 1])) <= 1e-12

    def test_dependent_kets_rejected(self):
        with pytest.raises(DependentInputError):
            make_code([ket("00"), ket("00")])

    def test_empty_code_rejected(self):
        # K = 0 would leave the Knill-Laflamme scalar 0 / 0.
        with pytest.raises(DependentInputError):
            QuantumCode(np.zeros((8, 0)))

    def test_unknown_builtin(self):
        with pytest.raises(UnknownCodeError):
            builtin_code("steane")


class TestDetect:
    def test_z1_not_detectable(self):
        code = builtin_code("repetition3")
        z1 = embed_single(gate("Z"), 1, 3)
        result = detect(code, z1)
        assert not result.detectable
        # the two code-basis diagonal values are exactly +1 and -1
        diag = dagger(code.isometry) @ z1 @ code.isometry
        assert diag[0, 0] == 1.0 and diag[1, 1] == -1.0

    def test_identity_detectable(self):
        code = builtin_code("repetition3")
        result = detect(code, np.eye(8))
        assert result.detectable
        assert result.scalar == pytest.approx(1)

    def test_x1_detectable_with_zero_scalar(self):
        code = builtin_code("repetition3")
        result = detect(code, embed_single(gate("X"), 1, 3))
        assert result.detectable
        assert abs(result.scalar) <= 1e-12

    def test_orthogonality_consequence(self):
        # once detected, E maps orthogonal code vectors to orthogonal images
        code = builtin_code("repetition3")
        e = embed_single(gate("X"), 2, 3) + 0.5 * np.eye(8)
        assert detect(code, e).detectable
        rng = np.random.default_rng(0)
        for _ in range(20):
            psi1 = random_code_state(code, rng)
            raw = random_code_state(code, rng)
            psi2 = raw - psi1 * np.vdot(psi1, raw)
            psi2 = psi2 / np.linalg.norm(psi2)
            assert abs(np.vdot(psi2, e @ psi1)) <= 1e-9

    def test_detectable_set_is_linear(self):
        code = builtin_code("repetition3")
        e1 = embed_single(gate("X"), 1, 3)
        e2 = np.eye(8)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            combo = detect(code, a * e1 + b * e2)
            assert combo.detectable
            expected = a * detect(code, e1).scalar + b * detect(code, e2).scalar
            assert abs(combo.scalar - expected) <= 1e-9


class TestDetectableSpaceForm:
    def test_repetition_dimension(self):
        form = detectable_space_form(builtin_code("repetition3"))
        assert form.dimension == 64 - 4 + 1

    def test_extreme_code_dims(self):
        line = make_code([ket("00")])
        assert detectable_space_form(line).dimension == 16
        full = make_code([basis_state(k, 4) for k in range(4)])
        assert detectable_space_form(full).dimension == 1

    def test_contains_predicate(self):
        code = builtin_code("repetition3")
        form = detectable_space_form(code)
        assert form.contains(embed_single(gate("X"), 1, 3))
        assert not form.contains(embed_single(gate("Z"), 1, 3))


class TestCorrectability:
    def test_repetition_xflips(self):
        result = correctability(builtin_code("repetition3"), xflip_errors())
        assert result.correctable
        assert frob(result.lambda_matrix - np.eye(4)) <= 1e-10

    def test_repetition_z1_fails(self):
        errs = [np.eye(8), embed_single(gate("Z"), 1, 3)]
        result = correctability(builtin_code("repetition3"), errs)
        assert not result.correctable
        assert result.offending_pair == (0, 1)

    def test_shor_single_qubit_paulis(self):
        code = builtin_code("shor9")
        for k in (1, 5, 9):
            errs = [np.eye(512)] + [embed_single(gate(p), k, 9) for p in "XYZ"]
            assert correctability(code, errs).correctable

    def test_empty_error_list(self):
        code = builtin_code("repetition3")
        result = correctability(code, [])
        assert result.correctable and result.offending_pair is None
        assert result.lambda_matrix.shape == (0, 0)
        rec = build_recovery(code, [], np.zeros((0, 0)))
        assert rec.projectors == [] and rec.unitaries == []
        assert frob(rec.completion - np.eye(8)) == 0.0
        assert len(rec.channel.operators) == 1 and rec.channel.trace_preserving

    def test_lambda_psd_and_trace_for_tp_list(self):
        probs = [0.85, 0.05, 0.05, 0.05]
        errs = [np.sqrt(p) * e for p, e in zip(probs, xflip_errors())]
        result = correctability(builtin_code("repetition3"), errs)
        assert result.correctable
        vals = np.linalg.eigvalsh((result.lambda_matrix + dagger(result.lambda_matrix)) / 2)
        assert vals[0] >= -1e-9
        assert np.trace(result.lambda_matrix).real == pytest.approx(1, abs=1e-9)


class TestRecovery:
    def test_repetition_syndromes(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        result = correctability(code, errs)
        rec = build_recovery(code, errs, result.lambda_matrix)
        assert len(rec.projectors) == 4
        assert rec.completion is None
        assert np.allclose(rec.weights, 1.0)
        # syndrome subspaces are the code and its single-flip images
        p = code.projection
        for e, pk in zip(errs, rec.projectors):
            assert frob(pk - e @ p @ dagger(e)) <= 1e-9
        # recovery operators act as {P0, X1 P1, X2 P2, X3 P3} up to phases
        for e, rk, pk in zip(errs, rec.channel.operators, rec.projectors):
            target = dagger(e) @ pk
            overlap = np.vdot(target, rk)
            assert abs(abs(overlap) - frob(target) * frob(rk)) <= 1e-9

    def test_constructed_operators_satisfy_orthogonality(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        lam = correctability(code, errs).lambda_matrix
        rec = build_recovery(code, errs, lam)
        for i, pi in enumerate(rec.projectors):
            for j, pj in enumerate(rec.projectors):
                if i != j:
                    assert frob(pi @ pj) <= 1e-9
        dvals, u = _sorted_eigh(lam)
        kept = [idx for idx in range(4) if dvals[idx] > 1e-9]
        p = code.projection
        for out_idx, idx in enumerate(kept):
            f = sum(u[i, idx] * errs[i] for i in range(4))
            uk = rec.unitaries[out_idx]
            assert frob(dagger(uk) @ uk - np.eye(8)) <= 1e-9
            assert frob(f @ p - np.sqrt(dvals[idx]) * uk @ p) <= 1e-9

    def test_recovery_channel_is_tp(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        rec = build_recovery(code, errs, correctability(code, errs).lambda_matrix)
        cls = classify(rec.channel)
        assert cls.completely_positive and cls.trace_preserving

    def test_end_to_end_repetition(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        rec = build_recovery(code, errs, correctability(code, errs).lambda_matrix)
        channel = KrausChannel(
            [np.sqrt(0.85) * errs[0]] + [np.sqrt(0.05) * e for e in errs[1:]]
        )
        assert verify_recovery(channel, rec, code) <= 1e-9

    def test_trivial_recovery_for_identity(self):
        code = builtin_code("repetition3")
        errs = [np.eye(8)]
        rec = build_recovery(code, errs, np.array([[1.0]]))
        assert rec.completion is not None
        assert verify_recovery(KrausChannel([np.eye(8)]), rec, code) <= 1e-12

    def test_shor_random_unitary_error(self):
        code = builtin_code("shor9")
        rng = np.random.default_rng(5)
        k = 4
        errs = [np.eye(512)] + [embed_single(gate(p), k, 9) for p in "XYZ"]
        rec = build_recovery(code, errs, correctability(code, errs).lambda_matrix)
        w = haar_random_unitary(2, rng)
        channel = KrausChannel(
            [np.sqrt(0.9) * np.eye(512), np.sqrt(0.1) * embed_single(w, k, 9)]
        )
        assert verify_recovery(channel, rec, code) <= 1e-9

    def test_bad_lambda_rejected(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        with pytest.raises(NotPSDError):
            build_recovery(code, errs, -np.eye(4))
        with pytest.raises(ConditionViolatedError):
            build_recovery(code, errs, np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_lambda_checked_at_the_correctability_threshold(self):
        # ||V† E_0† E_0 V - (1 + 1e-8) I||_F = 1.4e-8 exceeds 1e-9 * (1 + 2).
        code = builtin_code("repetition3")
        errs = xflip_errors()
        lam = np.eye(4)
        lam[0, 0] += 1e-8
        with pytest.raises(ConditionViolatedError, match=r"pair \(0, 0\)"):
            build_recovery(code, errs, lam)
        rec = build_recovery(code, errs, lam, tol=1e-6)
        assert len(rec.projectors) == 4

    def test_verify_tolerance_reaches_trace_preservation(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        rec = build_recovery(code, errs, correctability(code, errs).lambda_matrix)
        ch = KrausChannel([np.sqrt(1 + 1e-8) * np.eye(8)])
        assert classify(ch, 1e-6).trace_preserving
        assert verify_recovery(ch, rec, code, tol=1e-6) <= 1e-6
        with pytest.raises(NotTracePreservingError):
            verify_recovery(ch, rec, code)

    def test_verify_requires_tp_channel(self):
        code = builtin_code("repetition3")
        errs = xflip_errors()
        rec = build_recovery(code, errs, correctability(code, errs).lambda_matrix)
        lossy = KrausChannel([0.5 * np.eye(8)])
        with pytest.raises(NotTracePreservingError):
            verify_recovery(lossy, rec, code)


def eager_recovery(code, errors, lam, tol=1e-9):
    """Reference: the recovery with every N x N syndrome projector and unitary
    formed up front, one after the other; returns projectors, unitaries, the
    Kraus list and the completion."""
    n, v = code.ambient_dim, code.isometry
    images = [e @ v for e in errors]
    dvals, u = _sorted_eigh((lam + dagger(lam)) / 2.0)
    projectors, unitaries, kraus = [], [], []
    for idx in np.flatnonzero(spectral_support(dvals, tol, 1.0)):
        fv = sum(u[i, idx] * images[i] for i in range(len(errors)))
        c, _ = orthonormal_columns(list((fv / np.sqrt(float(dvals[idx]))).T))
        q, _ = np.linalg.qr(np.hstack([v, c]))
        a, b = dagger(q) @ v, dagger(q) @ c
        rotation = b @ dagger(a) + complete_isometry(b) @ dagger(complete_isometry(a))
        unitaries.append(np.eye(n) + q @ (rotation - np.eye(len(rotation))) @ dagger(q))
        projectors.append(c @ dagger(c))
        kraus.append(v @ dagger(c))
    covered = sum(projectors, np.zeros((n, n), dtype=complex))
    completion = None
    if not is_identity(covered, tol):
        leftover = np.eye(n) - covered
        completion = (leftover + dagger(leftover)) / 2.0
        kraus.append(completion)
    return projectors, unitaries, kraus, completion


def loop_deviation(channel, rec, code, seed=0, samples=20):
    """Reference: verify_recovery one composite Kraus operator and one density
    at a time, each R_j E_i V formed by its own product."""
    v, k = code.isometry, code.code_dim
    terms = [r @ (e @ v) for r in rec.channel.operators for e in channel.operators]
    q, _ = np.linalg.qr(np.hstack(terms + [v]))
    small = [dagger(q) @ t for t in terms]
    v_small = dagger(q) @ v
    units = []
    for i in range(k):
        for j in range(k):
            sigma = np.zeros((k, k), dtype=complex)
            sigma[i, j] = 1.0
            units.append(sigma)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for sigma in units + [random_density(k, rng) for _ in range(samples)]:
        delta = -v_small @ sigma @ dagger(v_small)
        for a in small:
            delta = delta + a @ sigma @ dagger(a)
        worst = max(worst, frob(delta))
    return worst


FACTORED_CASES = {  # code, error list, and an error the list corrects
    "repetition3-xflips": lambda: (builtin_code("repetition3"), xflip_errors(), embed_single(gate("X"), 2, 3)),
    "shor9-qubit5-paulis": lambda: (
        builtin_code("shor9"),
        shor_paulis(5),
        embed_single(haar_random_unitary(2, np.random.default_rng(3)), 5, 9),
    ),
}


class TestFactoredRecovery:
    @pytest.mark.parametrize("case", list(FACTORED_CASES))
    def test_factors_reproduce_eager_matrices(self, case):
        code, errs, _ = FACTORED_CASES[case]()
        lam = correctability(code, errs).lambda_matrix
        rec = build_recovery(code, errs, lam)
        projectors, unitaries, kraus, completion = eager_recovery(code, errs, lam)
        assert len(rec.syndromes) == len(rec.rotations) == len(projectors) == 4
        for got, want in zip(rec.projectors, projectors, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(rec.unitaries, unitaries, strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(rec.channel.operators, kraus, strict=True):
            assert np.array_equal(got, want)
        assert (rec.completion is None) == (completion is None)
        if completion is not None:
            assert np.array_equal(rec.completion, completion)

    @pytest.mark.parametrize("case", list(FACTORED_CASES))
    def test_batched_verification_matches_loop(self, case):
        code, errs, error = FACTORED_CASES[case]()
        rec = build_recovery(code, errs, correctability(code, errs).lambda_matrix)
        channel = KrausChannel([np.sqrt(0.9) * np.eye(code.ambient_dim), np.sqrt(0.1) * error])
        for seed, samples in ((0, 20), (7, 0)):
            got = verify_recovery(channel, rec, code, seed=seed, samples=samples)
            assert got <= 1e-9
            assert abs(got - loop_deviation(channel, rec, code, seed, samples)) <= 1e-15

    def test_build_recovery_holds_no_syndrome_matrices(self):
        """Beside the five N x N Kraus operators, build_recovery holds only
        the completion's temporaries; the eager construction peaks at about
        16 N x N complex matrices."""
        code, errs = builtin_code("shor9"), shor_paulis(5)
        lam = correctability(code, errs).lambda_matrix
        tracemalloc.start()
        try:
            build_recovery(code, errs, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 512**2 * 16
