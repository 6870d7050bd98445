"""Seeded inputs for the qchannel benchmark, built with numpy alone.

Nothing here imports qchannel: the Paulis, the Shor code kets, the Haar
draws, the collective-rotation Kraus operators, the qubit permutations and
the oracle tables are all made from their definitions, so the checks that
use them are independent of the code under test.  Slot 1 is the leftmost
(most significant) tensor factor, the convention qchannel documents.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from pathlib import Path

import numpy as np

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SHOR_QUBITS = 9
SHOR_DIM = 2**SHOR_QUBITS
NOISE_WEIGHT = 0.2  # noisy channel: sqrt(0.8) I and sqrt(0.2) W_k
CODE_DENSITIES = 20
CLI_QUBIT = 5
CLI_SPIN_QUBITS = 4
ORACLE_BITS = 10
# Rotation angles stay in [0.7, 1.1] rad so that theta * (m - m') never
# reaches 2 pi for |m - m'| <= 5: every exp(i theta J_k) keeps distinct
# eigenvalues up to n = 5 and the generated algebra is the full spin algebra.
THETA_RANGE = (0.7, 1.1)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per workload, so one seed drives all of them."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1) if np.ndim(factors[0]) == 2 else 1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def embed(g: np.ndarray, slot: int, n: int) -> np.ndarray:
    """g on qubit `slot` (1-based) of n, identity elsewhere."""
    return kron_all([g if j == slot else PAULIS["I"] for j in range(1, n + 1)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre draw, QR, phases of R's diagonal divided out (Mezzadri 2007)."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def shor_kets() -> list[np.ndarray]:
    """|0_L> and |1_L> of the nine-qubit Shor code: (|000> +- |111>)^(x3) / 2^(3/2)."""
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    e7 = np.zeros(8, dtype=complex)
    e7[7] = 1.0
    plus, minus = e0 + e7, e0 - e7
    norm = 2.0 * math.sqrt(2.0)
    return [kron_all([plus] * 3) / norm, kron_all([minus] * 3) / norm]


def pauli_errors(slot: int) -> list[np.ndarray]:
    """{I, X_slot, Y_slot, Z_slot} on the nine-qubit register."""
    return [np.eye(SHOR_DIM, dtype=complex)] + [
        embed(PAULIS[p], slot, SHOR_QUBITS) for p in ("X", "Y", "Z")
    ]


def shor9_inputs(seed: int) -> list[dict]:
    """Per qubit k: the Pauli error list, the noisy channel
    sqrt(0.8) I + sqrt(0.2) W_k with W_k a Haar-random unitary on qubit k,
    and 20 seeded 2x2 code densities for the recovery check."""
    rng = rng_for(seed, "shor9_recovery")
    out = []
    for k in range(1, SHOR_QUBITS + 1):
        w = embed(haar_unitary(2, rng), k, SHOR_QUBITS)
        noisy = [math.sqrt(1 - NOISE_WEIGHT) * np.eye(SHOR_DIM, dtype=complex), math.sqrt(NOISE_WEIGHT) * w]
        densities = [random_density(2, rng) for _ in range(CODE_DENSITIES)]
        out.append({"qubit": k, "errors": pauli_errors(k), "noisy": noisy, "densities": densities})
    return out


def spin_operators(n: int) -> list[np.ndarray]:
    """J_x, J_y, J_z: sums of sigma/2 over the n qubits."""
    return [
        sum(embed(PAULIS[p] / 2.0, slot, n) for slot in range(1, n + 1)) for p in ("X", "Y", "Z")
    ]


def collective_kraus(n: int, thetas) -> list[np.ndarray]:
    """sqrt(1/3) exp(i theta_k J_k) for k = x, y, z."""
    ops = []
    for theta, j in zip(thetas, spin_operators(n)):
        vals, vecs = np.linalg.eigh(j)
        ops.append(math.sqrt(1.0 / 3.0) * (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T)
    return ops


def draw_thetas(rng: np.random.Generator) -> list[float]:
    return [float(t) for t in rng.uniform(*THETA_RANGE, size=3)]


def spin_multiplicities(n: int) -> dict[int, int]:
    """Schur-Weyl: spin j = n/2 - k appears C(n, k) - C(n, k - 1) times;
    keyed by the irrep dimension 2j + 1."""
    out = {}
    for k in range(n // 2 + 1):
        dim = n - 2 * k + 1
        out[dim] = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
    return out


def commutant_blocks(n: int) -> list[tuple[int, int]]:
    """Blocks (m, n) of the noise commutant: multiplicity 2j + 1, size mult_j."""
    return sorted((dim, mult) for dim, mult in spin_multiplicities(n).items())


def permutation_matrices(n: int) -> list[np.ndarray]:
    """All n! qubit permutations, built by transposing the register index."""
    dim = 2**n
    index = np.arange(dim).reshape([2] * n)
    out = []
    for perm in itertools.permutations(range(n)):
        p = np.zeros((dim, dim), dtype=complex)
        p[index.transpose(perm).reshape(-1), np.arange(dim)] = 1.0
        out.append(p)
    return out


def collective_inputs(seed: int) -> dict:
    """Own-built collective-rotation Kraus lists for n = 3, 4, 5, the n = 3, 4
    block densities to encode, and the structure-resolution seed."""
    rng = rng_for(seed, "collective_commutant")
    channels = {}
    for n in (3, 4, 5):
        thetas = draw_thetas(rng)
        channels[n] = {"thetas": thetas, "kraus": collective_kraus(n, thetas)}
    # Keyed by noiseless block size, which is the multiplicity of its spin.
    densities = {
        n: {mult: random_density(mult, rng) for mult in spin_multiplicities(n).values() if mult >= 2}
        for n in (3, 4)
    }
    return {"channels": channels, "densities": densities, "structure_seed": int(rng.integers(1000))}


def matrix_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    data = np.column_stack((a.real.reshape(-1), a.imag.reshape(-1))).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def oracle_tables(rng: np.random.Generator) -> dict[str, list[int]]:
    size = 2**ORACLE_BITS
    constant = [int(rng.integers(2))] * size
    balanced = np.zeros(size, dtype=int)
    balanced[rng.permutation(size)[: size // 2]] = 1
    return {"constant": constant, "balanced": balanced.tolist()}


def cli_inputs(seed: int, directory: Path) -> list[dict]:
    """Write the CLI input files and return the invocations, each with the
    facts its check needs."""
    rng = rng_for(seed, "cli_reports")
    directory.mkdir(parents=True, exist_ok=True)
    errors = directory / "errors.json"
    errors.write_text(json.dumps([matrix_json(e) for e in pauli_errors(CLI_QUBIT)]))
    ops = [
        {
            "name": "recovery",
            "argv": ["recovery", "--code", "builtin:shor9", "--errors", str(errors)],
        }
    ]
    for kind, table in oracle_tables(rng).items():
        path = directory / f"oracle_{kind}.json"
        path.write_text(json.dumps({"m": ORACLE_BITS, "k": 1, "table": table}))
        ops.append(
            {"name": f"deutsch-jozsa-{kind}", "argv": ["deutsch-jozsa", "--oracle", str(path)], "verdict": kind}
        )
    thetas = draw_thetas(rng)
    spin = f"builtin:collective_rotation?n={CLI_SPIN_QUBITS}&thetas=" + ",".join(repr(t) for t in thetas)
    structure_seed = int(rng.integers(1000))
    ops.append(
        {
            "name": "structure",
            "argv": ["structure", "--channel", spin, "--seed", str(structure_seed)],
            "blocks": commutant_blocks(CLI_SPIN_QUBITS),
        }
    )
    ops.append({"name": "choi", "argv": ["choi", "--channel", spin], "dim": 2**CLI_SPIN_QUBITS})
    ops.append({"name": "classify", "argv": ["classify", "--channel", "builtin:bit_flip?p=0.3"]})
    return ops
