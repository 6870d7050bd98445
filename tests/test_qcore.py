import numpy as np
import pytest

from qchannel.errors import (
    DimensionMismatchError,
    InvalidMeasurementError,
    InvalidParameterError,
    NotUnitaryError,
    QubitIndexError,
    UnknownGateError,
)
from qchannel.linalg import dagger, frob
from qchannel.qcore import (
    basis_state,
    cnot_embed,
    embed_single,
    evolve,
    gate,
    is_density_operator,
    is_measurement,
    is_projective,
    ket,
    measure_state,
    pure_density,
    random_density,
    sample_measurement,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


class TestGates:
    def test_pauli_x(self):
        assert np.array_equal(gate("X"), np.array([[0, 1], [1, 0]]))

    def test_hadamard_on_zero(self):
        assert np.allclose(gate("H") @ basis_state(0, 2), PLUS)

    def test_cnot_flips_target(self):
        assert np.allclose(gate("CNOT") @ ket("10"), ket("11"))

    def test_all_unitary(self):
        for name in ("X", "Y", "Z", "H", "I2", "CNOT"):
            g = gate(name)
            assert frob(dagger(g) @ g - np.eye(g.shape[0])) <= 1e-12

    def test_unknown(self):
        with pytest.raises(UnknownGateError):
            gate("T")


class TestEmbedSingle:
    def test_slot_two_of_two(self):
        assert np.allclose(embed_single(gate("X"), 2, 2), np.kron(np.eye(2), gate("X")))

    def test_z1_on_all_ones(self):
        z1 = embed_single(gate("Z"), 1, 3)
        assert np.allclose(z1 @ ket("111"), -ket("111"))

    def test_identity_any_slot(self):
        for k in (1, 2, 3):
            assert np.allclose(embed_single(np.eye(2), k, 3), np.eye(8))

    def test_disjoint_slots_commute(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = embed_single(g, 1, 3)
            b = embed_single(h, 3, 3)
            assert frob(a @ b - b @ a) <= 1e-12

    def test_bad_slot(self):
        with pytest.raises(QubitIndexError):
            embed_single(gate("X"), 4, 3)


class TestCnotEmbed:
    def test_matches_gate(self):
        assert np.allclose(cnot_embed(1, 2, 2), gate("CNOT"))

    def test_reversed_control(self):
        assert np.allclose(cnot_embed(2, 1, 2) @ ket("01"), ket("11"))

    def test_self_inverse(self):
        u = cnot_embed(3, 1, 3)
        assert frob(u @ u - np.eye(8)) <= 1e-12

    def test_control_equals_target(self):
        with pytest.raises(InvalidParameterError):
            cnot_embed(2, 2, 3)


class TestEvolve:
    def test_x_flip(self):
        out = evolve(pure_density(basis_state(0, 2)), gate("X"))
        assert np.allclose(out, pure_density(basis_state(1, 2)))

    def test_identity(self):
        rho = random_density(4, np.random.default_rng(1))
        assert np.allclose(evolve(rho, np.eye(4)), rho)

    def test_hadamard_makes_plus(self):
        out = evolve(pure_density(basis_state(0, 2)), gate("H"))
        assert np.allclose(out, pure_density(PLUS))

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(2)
        rho = random_density(4, rng)
        u = np.kron(gate("H"), gate("H"))
        out = evolve(rho, u)
        assert abs(np.trace(out).real - 1) <= 1e-12
        assert frob(out - dagger(out)) <= 1e-12
        assert is_density_operator(out)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            evolve(pure_density(basis_state(0, 2)), np.array([[1, 0], [0, 2]], dtype=complex))


def computational_projectors(dim):
    return [pure_density(basis_state(k, dim)) for k in range(dim)]


class TestMeasurement:
    def test_zero_state(self):
        probs = [p for p, _ in measure_state(basis_state(0, 2), computational_projectors(2))]
        assert probs == pytest.approx([1, 0], abs=1e-12)

    def test_plus_state(self):
        probs = [p for p, _ in measure_state(PLUS, computational_projectors(2))]
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_deutsch_final_state(self):
        # final state |0>|-> measured on the first qubit: outcome 0 is certain
        psi = np.kron(basis_state(0, 2), MINUS)
        ops = [embed_single(pure_density(basis_state(k, 2)), 1, 2) for k in (0, 1)]
        outcomes = measure_state(psi, ops)
        assert outcomes[0][0] == pytest.approx(1, abs=1e-10)
        assert outcomes[1][1] is None

    def test_post_state_normalized(self):
        outcomes = measure_state(PLUS, computational_projectors(2))
        for p, post in outcomes:
            assert abs(np.linalg.norm(post) - 1) <= 1e-12

    def test_random_measurements_sum_to_one(self):
        rng = np.random.default_rng(3)
        dim = 4
        for _ in range(5):
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi = psi / np.linalg.norm(psi)
            raw = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(3)]
            total = sum(dagger(a) @ a for a in raw)
            vals, vecs = np.linalg.eigh(total)
            isqrt = (vecs / np.sqrt(vals)) @ dagger(vecs)
            ops = [a @ isqrt for a in raw]
            assert is_measurement(ops)
            probs = [p for p, _ in measure_state(psi, ops)]
            assert all(p >= -1e-12 for p in probs)
            assert sum(probs) == pytest.approx(1, abs=1e-10)

    def test_incomplete_rejected(self):
        with pytest.raises(InvalidMeasurementError):
            measure_state(PLUS, [pure_density(basis_state(0, 2))])

    def test_tol_reaches_completeness(self):
        # sum M†M - I has norm 1e-8: inside tol * 2 at 1e-6, outside at the default.
        ops = [np.sqrt(1 + 1e-8) * pure_density(basis_state(0, 2)), pure_density(basis_state(1, 2))]
        probs = [p for p, _ in measure_state(basis_state(0, 2), ops, tol=1e-6)]
        assert probs == pytest.approx([1, 0], abs=1e-7)
        assert sample_measurement(basis_state(0, 2), ops, np.random.default_rng(0), tol=1e-6)[0] == 0
        with pytest.raises(InvalidMeasurementError):
            measure_state(basis_state(0, 2), ops)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            measure_state(basis_state(0, 4), computational_projectors(2))

    def test_projective_predicate(self):
        assert is_projective(computational_projectors(2))
        assert not is_projective([gate("H") @ pure_density(basis_state(0, 2)), pure_density(basis_state(1, 2))])

    def test_sampler_deterministic(self):
        outcome1, _ = sample_measurement(PLUS, computational_projectors(2), np.random.default_rng(9))
        outcome2, _ = sample_measurement(PLUS, computational_projectors(2), np.random.default_rng(9))
        assert outcome1 == outcome2
