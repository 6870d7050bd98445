import itertools

import numpy as np
import pytest

from qchannel.algorithms import (
    BooleanOracle,
    deutsch,
    deutsch_jozsa,
    modular_adder,
    oracle_unitary,
    quantum_parallelism,
)
from qchannel.errors import InvalidParameterError, PromiseViolatedError, WrongArityError
from qchannel.linalg import dagger, frob, kron
from qchannel.qcore import basis_state, gate, ket

MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def all_single_bit_oracles():
    return {table: BooleanOracle(1, 1, table) for table in [(0, 0), (1, 1), (0, 1), (1, 0)]}


class TestOracle:
    def test_table_validation(self):
        with pytest.raises(InvalidParameterError):
            BooleanOracle(1, 1, [0, 1, 0])
        with pytest.raises(InvalidParameterError):
            BooleanOracle(1, 1, [0, 2])
        with pytest.raises(InvalidParameterError):
            BooleanOracle(0, 1, [0])

    def test_identity_function_is_cnot(self):
        assert np.allclose(oracle_unitary(BooleanOracle(1, 1, (0, 1))), gate("CNOT"))

    def test_constant_one_is_target_flip(self):
        assert np.allclose(oracle_unitary(BooleanOracle(1, 1, (1, 1))), kron(np.eye(2), gate("X")))

    def test_simulates_function(self):
        rng = np.random.default_rng(0)
        f = BooleanOracle(2, 2, rng.integers(0, 4, size=4))
        u = oracle_unitary(f)
        for x in range(4):
            out = u @ kron(basis_state(x, 4), basis_state(0, 4))
            assert np.allclose(out, kron(basis_state(x, 4), basis_state(f(x), 4)))

    def test_permutation_matrix(self):
        rng = np.random.default_rng(1)
        f = BooleanOracle(3, 2, rng.integers(0, 4, size=8))
        u = oracle_unitary(f)
        assert np.array_equal(np.unique(u.real), np.array([0.0, 1.0]))
        assert np.allclose(u.sum(axis=0), 1)
        assert np.allclose(u.sum(axis=1), 1)
        assert frob(dagger(u) @ u - np.eye(u.shape[0])) <= 1e-12


class TestParallelism:
    def test_identity_gives_bell_state(self):
        state = quantum_parallelism(BooleanOracle(1, 1, (0, 1)))
        assert np.allclose(state, (ket("00") + ket("11")) / np.sqrt(2))

    def test_constant_zero_two_bits(self):
        state = quantum_parallelism(BooleanOracle(2, 1, (0, 0, 0, 0)))
        uniform = sum(kron(basis_state(x, 4), basis_state(0, 2)) for x in range(4)) / 2
        assert np.allclose(state, uniform)

    def test_amplitude_pattern(self):
        rng = np.random.default_rng(2)
        f = BooleanOracle(3, 2, rng.integers(0, 4, size=8))
        state = quantum_parallelism(f)
        nonzero = np.flatnonzero(np.abs(state) > 1e-12)
        assert len(nonzero) == 8
        assert np.allclose(np.abs(state[nonzero]), 2 ** (-1.5))
        for x in range(8):
            assert abs(state[x * 4 + f(x)] - 2 ** (-1.5)) <= 1e-12


class TestDeutsch:
    def test_exhaustive(self):
        expected = {(0, 0): "constant", (1, 1): "constant", (0, 1): "balanced", (1, 0): "balanced"}
        for table, oracle in all_single_bit_oracles().items():
            verdict = deutsch(oracle)
            assert verdict.verdict == expected[table]
            assert abs(verdict.probability - 1) <= 1e-10
            assert verdict == deutsch_jozsa(oracle)

    def test_wrong_arity(self):
        with pytest.raises(WrongArityError):
            deutsch(BooleanOracle(2, 1, (0, 0, 1, 1)))


class TestDeutschJozsa:
    def test_exhaustive_three_bits(self):
        for table in [(0,) * 8, (1,) * 8]:
            verdict = deutsch_jozsa(BooleanOracle(3, 1, table))
            assert verdict.verdict == "constant"
            assert abs(verdict.probability - 1) <= 1e-10
        count = 0
        for ones in itertools.combinations(range(8), 4):
            table = [1 if x in ones else 0 for x in range(8)]
            verdict = deutsch_jozsa(BooleanOracle(3, 1, table))
            assert verdict.verdict == "balanced"
            assert abs(verdict.probability - 1) <= 1e-10
            count += 1
        assert count == 70

    def test_constant_probability_at_most_one(self):
        for bit in (0, 1):
            verdict = deutsch_jozsa(BooleanOracle(10, 1, (bit,) * 1024))
            assert verdict.verdict == "constant"
            assert 1.0 - 1e-10 <= verdict.probability <= 1.0

    def test_reduces_to_deutsch(self):
        for table, oracle in all_single_bit_oracles().items():
            assert deutsch_jozsa(oracle).verdict == deutsch(oracle).verdict

    def test_promise_violation(self):
        with pytest.raises(PromiseViolatedError):
            deutsch_jozsa(BooleanOracle(2, 1, (0, 0, 0, 1)))

    def test_wrong_arity(self):
        with pytest.raises(WrongArityError):
            deutsch_jozsa(BooleanOracle(1, 2, (0, 3)))


class TestPhaseKickback:
    def test_identity_on_minus_branch(self):
        for m in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=2**m):
                f = BooleanOracle(m, 1, bits)
                u = oracle_unitary(f)
                for x in range(2**m):
                    state = kron(basis_state(x, 2**m), MINUS)
                    expected = (-1) ** f(x) * state
                    assert np.allclose(u @ state, expected), (m, bits, x)


class TestModularAdder:
    def test_one_bit_is_cnot(self):
        assert np.allclose(modular_adder(1), gate("CNOT"))

    def test_two_bit_addition(self):
        u = modular_adder(2)
        src = kron(basis_state(2, 4), basis_state(3, 4))
        dst = kron(basis_state(2, 4), basis_state(1, 4))
        assert np.allclose(u @ src, dst)

    def test_unitary(self):
        u = modular_adder(2)
        assert frob(dagger(u) @ u - np.eye(16)) <= 1e-12

    def test_rejects_zero_bits(self):
        with pytest.raises(InvalidParameterError):
            modular_adder(0)
