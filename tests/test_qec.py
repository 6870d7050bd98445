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
from qchannel.linalg import dagger, frob, haar_random_unitary
from qchannel.qcore import basis_state, embed_single, gate, ket
from qchannel.qec import (
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
