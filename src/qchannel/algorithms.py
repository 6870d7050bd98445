"""Oracle simulation and the constant-vs-balanced query algorithms.

Oracles are dense truth tables.  `oracle_unitary` turns one into its
permutation unitary for the parallelism circuit; Deutsch-Jozsa applies the
same permutation to the state by index and never forms the matrix.  The
classifiers read the exact output distribution of the final measurement
rather than sampling, so verdicts carry their certainty explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, PromiseViolatedError, WrongArityError
from .linalg import kron, kron_chain
from .qcore import basis_state, gate

MAX_ORACLE_INPUT_BITS = 10


@dataclass(frozen=True)
class BooleanOracle:
    """Function from m input bits to k output bits as a dense table of
    length 2^m with entries below 2^k."""

    m: int
    k: int
    table: tuple[int, ...]

    def __init__(self, m: int, k: int, table: Sequence[int]):
        if not (1 <= m <= MAX_ORACLE_INPUT_BITS) or k < 1:
            raise InvalidParameterError(f"need 1 <= m <= {MAX_ORACLE_INPUT_BITS} and k >= 1")
        entries = tuple(int(x) for x in table)
        if len(entries) != 2**m:
            raise InvalidParameterError(f"table length {len(entries)} is not 2^{m}")
        if any(not 0 <= x < 2**k for x in entries):
            raise InvalidParameterError(f"table entries must lie in [0, 2^{k})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "table", entries)

    def __call__(self, x: int) -> int:
        return self.table[x]


@dataclass(frozen=True)
class AlgorithmVerdict:
    verdict: str  # "constant" or "balanced"
    probability: float


def oracle_unitary(f: BooleanOracle) -> np.ndarray:
    """Permutation unitary |x>|y> -> |x>|y xor f(x)| on 2^(m+k) dimensions."""
    dk = 2**f.k
    dim = 2**f.m * dk
    u = np.zeros((dim, dim), dtype=complex)
    for x in range(2**f.m):
        fx = f(x)
        for y in range(dk):
            u[x * dk + (y ^ fx), x * dk + y] = 1.0
    return u


def hadamard_layer(m: int) -> np.ndarray:
    return kron_chain([gate("H")] * m)


def quantum_parallelism(f: BooleanOracle) -> np.ndarray:
    """State after querying the oracle on the uniform superposition:
    2^(-m/2) sum_x |x>|f(x)>, computed by running the circuit."""
    dim = 2 ** (f.m + f.k)
    start = basis_state(0, dim)
    prep = kron(hadamard_layer(f.m), np.eye(2**f.k))
    return oracle_unitary(f) @ (prep @ start)


def deutsch(f: BooleanOracle) -> AlgorithmVerdict:
    """One-query constant-vs-balanced test for a single-bit function: the
    m = 1 case of `deutsch_jozsa`, whose circuit (H x I) U_f (H x H) on |01>
    measures 0 on the first qubit with certainty exactly when f is constant.
    """
    if f.m != 1 or f.k != 1:
        raise WrongArityError(f"need m = k = 1, got m={f.m}, k={f.k}")
    return deutsch_jozsa(f)


def _check_promise(f: BooleanOracle) -> None:
    ones = sum(f.table)
    if ones in (0, len(f.table)):
        return
    if ones == len(f.table) // 2:
        return
    raise PromiseViolatedError(
        f"table has {ones} ones out of {len(f.table)}; neither constant nor balanced"
    )


def deutsch_jozsa(f: BooleanOracle) -> AlgorithmVerdict:
    """Constant-vs-balanced for m input bits under the promise, with one
    query: measure the first m qubits of (H_m x I) U_f (H_m x H) |0...0,1>;
    the all-zeros outcome has probability 1 (constant) or 0 (balanced).

    The probability reported is that of the verdict-determining event,
    clamped to 1 against rounding in |a|^2 + |b|^2.
    """
    if f.k != 1:
        raise WrongArityError(f"need k = 1, got k={f.k}")
    _check_promise(f)
    hm = hadamard_layer(f.m)
    # Right to left on the state, never forming a 2^(m+1)-square circuit:
    # (A x B) psi is A Psi B^T with Psi the 2^m x 2 reshape of psi, and H = H^T.
    state = basis_state(1, 2 ** (f.m + 1))
    state = hm @ state.reshape(-1, 2) @ gate("H")
    # U_f as the index permutation (U_f psi)[x, z] = psi[x, z xor f(x)].  The
    # dense product gives the same entries up to the sign of exact zeros,
    # which |a|^2 + |b|^2 removes.
    flips = np.array(f.table)[:, None] ^ np.arange(2)
    final = hm @ np.take_along_axis(state, flips, axis=1)
    p_zeros = min(1.0, float(abs(final[0, 0]) ** 2 + abs(final[0, 1]) ** 2))
    if p_zeros >= 0.5:
        return AlgorithmVerdict("constant", p_zeros)
    return AlgorithmVerdict("balanced", 1.0 - p_zeros)


def modular_adder(n: int) -> np.ndarray:
    """Permutation unitary |x>|y> -> |x>|(x + y) mod 2^n> on two n-bit
    registers; n = 1 reduces to CNOT."""
    if n < 1:
        raise InvalidParameterError("register size must be at least 1")
    big = 2**n
    u = np.zeros((big * big, big * big), dtype=complex)
    for x in range(big):
        for y in range(big):
            u[x * big + (x + y) % big, x * big + y] = 1.0
    return u
