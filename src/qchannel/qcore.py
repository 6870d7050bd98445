"""States, the standard gate set, n-qubit embeddings, unitary evolution, and
general (operator-valued) measurements.

Basis convention: the register ket |i1 ... in> is identified with the integer
whose binary expansion has i1 as the most significant bit, so tensor slot 1 is
the leftmost factor.  Every module in this package shares this convention.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMeasurementError,
    InvalidParameterError,
    NotUnitaryError,
    QubitIndexError,
    UnknownGateError,
)
from .linalg import DEFAULT_TOL, STRUCTURAL_TOL, dagger, frob, is_hermitian, is_identity, is_unitary, kron_chain
from .linalg import psd_floor

_SQRT2 = np.sqrt(2.0)

_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "I2": np.eye(2, dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def gate(name: str) -> np.ndarray:
    """Return a named gate matrix: one of X, Y, Z, H, I2, CNOT.

    Spin-1/2 variants are the Pauli matrices divided by two; obtain them by
    scalar multiplication.
    """
    try:
        return _GATES[name.upper()].copy()
    except KeyError:
        raise UnknownGateError(f"unknown gate {name!r}") from None


def basis_state(index: int, dim: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise InvalidParameterError(f"basis index {index} outside [0, {dim})")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def ket(bits: str) -> np.ndarray:
    """Computational basis ket from a bit string, slot 1 leftmost: ket('10') = |10>."""
    if not bits or any(b not in "01" for b in bits):
        raise InvalidParameterError(f"not a bit string: {bits!r}")
    return basis_state(int(bits, 2), 2 ** len(bits))


def embed_single(g, k: int, n: int) -> np.ndarray:
    """Embed a 2x2 gate into tensor slot k of an n-qubit register."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise InvalidParameterError(f"expected a 2x2 gate, got shape {g.shape}")
    if not 1 <= k <= n:
        raise QubitIndexError(f"slot {k} outside 1..{n}")
    factors = [np.eye(2, dtype=complex)] * n
    factors[k - 1] = g
    return kron_chain(factors)


def cnot_embed(control: int, target: int, n: int) -> np.ndarray:
    """Controlled-NOT with arbitrary control/target slots on n qubits."""
    if not (1 <= control <= n and 1 <= target <= n):
        raise QubitIndexError(f"slots ({control},{target}) outside 1..{n}")
    if control == target:
        raise InvalidParameterError("control and target slots must differ")
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    cbit = n - control
    tbit = n - target
    for b in range(dim):
        if (b >> cbit) & 1:
            u[b ^ (1 << tbit), b] = 1.0
        else:
            u[b, b] = 1.0
    return u


def is_density_operator(rho, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian at tol; PSD floor and unit trace at STRUCTURAL_TOL."""
    rho = np.asarray(rho, dtype=complex)
    return (
        is_hermitian(rho, tol)
        and psd_floor(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0), STRUCTURAL_TOL)
        and abs(np.trace(rho).real - 1.0) <= STRUCTURAL_TOL * max(1.0, frob(rho))
    )


def pure_density(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density operator from a normalized Wishart draw."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def evolve(rho, u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Closed-system step rho -> u rho u†."""
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise NotUnitaryError("evolution operator is not unitary within tolerance")
    if rho.shape != u.shape:
        raise DimensionMismatchError(f"state {rho.shape} vs operator {u.shape}")
    return u @ rho @ dagger(u)


def is_measurement(operators, tol: float = STRUCTURAL_TOL) -> bool:
    """Completeness check: sum of M† M equals the identity."""
    ops = [np.asarray(m, dtype=complex) for m in operators]
    return bool(ops) and is_identity(sum(dagger(m) @ m for m in ops), tol)


def is_projective(operators, tol: float = STRUCTURAL_TOL) -> bool:
    """True when every measurement operator is an orthogonal projection."""
    ops = [np.asarray(m, dtype=complex) for m in operators]
    return all(is_hermitian(m, tol) and frob(m @ m - m) <= tol * (1.0 + frob(m)) for m in ops)


def measure_state(psi, operators, tol: float = DEFAULT_TOL):
    """Outcome distribution of a measurement on a pure state.

    Returns (probability, post_state) pairs in operator order; tol is the
    completeness threshold and the probability below which post_state is None.
    """
    psi = np.asarray(psi, dtype=complex)
    ops = [np.asarray(m, dtype=complex) for m in operators]
    if any(m.shape != (psi.size, psi.size) for m in ops):
        raise DimensionMismatchError("measurement operators do not match the state dimension")
    if not is_measurement(ops, tol):
        raise InvalidMeasurementError("operators fail the completeness sum")
    outcomes = []
    for m in ops:
        v = m @ psi
        p = float(np.vdot(v, v).real)
        outcomes.append((p, v / np.sqrt(p) if p > tol else None))
    return outcomes


def sample_measurement(psi, operators, rng: np.random.Generator, tol: float = DEFAULT_TOL):
    """Draw one outcome index and its post state from the exact distribution."""
    outcomes = measure_state(psi, operators, tol)
    probs = np.array([p for p, _ in outcomes])
    k = int(rng.choice(len(outcomes), p=probs / probs.sum()))
    return k, outcomes[k][1]
