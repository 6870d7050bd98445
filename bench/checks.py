"""Independent output checks, in numpy alone.

Each check returns a list of failure messages (empty when the output is
right).  They compare against required properties or against facts built
in `inputs`, never against stored copies of earlier output.
"""

from __future__ import annotations

import numpy as np

import inputs

LAMBDA_TOL = 1e-10
RECOVERY_TOL = 1e-9
PROPERTY_TOL = 1e-8
PROBABILITY_TOL = 1e-10


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _close(a, b, tol: float) -> bool:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= tol


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


def _tp(kraus, dim: int) -> bool:
    total = sum(_dagger(k) @ k for k in kraus)
    return _close(total, np.eye(dim), PROPERTY_TOL * dim)


def shor9_qubit(case: dict, kets, lam, recovery_kraus, deviation: float) -> list[str]:
    """Lambda = I; sum R^dag R = I; ||R(N(rho)) - rho||_F <= 1e-9 for the code
    matrix units and the seeded code densities, by dense ambient products."""
    out = _fail(lam is not None and _close(lam, np.eye(len(case["errors"])), LAMBDA_TOL), "lambda is not I")
    dim = inputs.SHOR_DIM
    out += _fail(_tp(recovery_kraus, dim), "recovery is not trace preserving")
    v = np.column_stack(kets)
    # rho = V sigma V^dag has rank <= 2, so each composite term R_j E_i rho
    # E_i^dag R_j^dag is (R_j E_i V) sigma (R_j E_i V)^dag with dense N x N
    # factors applied to the N x 2 isometry.
    terms = [r @ (e @ v) for r in recovery_kraus for e in case["noisy"]]
    units = []
    for i in range(2):
        for j in range(2):
            s = np.zeros((2, 2), dtype=complex)
            s[i, j] = 1.0
            units.append(s)
    worst = 0.0
    for sigma in units + case["densities"]:
        delta = -(v @ sigma @ _dagger(v))
        for t in terms:
            delta += t @ sigma @ _dagger(t)
        worst = max(worst, float(np.linalg.norm(delta)))
    out += _fail(worst <= RECOVERY_TOL, f"recovery deviation {worst:.3e}")
    out += _fail(deviation <= RECOVERY_TOL, f"reported deviation {deviation:.3e}")
    return out


def _hs_orthonormal(basis) -> bool:
    vecs = np.column_stack([b.reshape(-1) for b in basis])
    return _close(_dagger(vecs) @ vecs, np.eye(vecs.shape[1]), PROPERTY_TOL * vecs.shape[1])


def _in_span(basis, ops) -> bool:
    vecs = np.column_stack([b.reshape(-1) for b in basis])
    for op in ops:
        x = op.reshape(-1)
        if np.linalg.norm(x - vecs @ (_dagger(vecs) @ x)) > PROPERTY_TOL * max(1.0, np.linalg.norm(x)):
            return False
    return True


def commutant(n: int, kraus, perms, basis) -> list[str]:
    """Dimension sum mult_j^2, orthonormal basis commuting with every Kraus
    operator and adjoint, every qubit permutation inside the span."""
    want = sum(m * m for m in inputs.spin_multiplicities(n).values())
    out = _fail(len(basis) == want, f"commutant dimension {len(basis)} != {want}")
    out += _fail(_hs_orthonormal(basis), "commutant basis is not orthonormal")
    gens = list(kraus) + [_dagger(k) for k in kraus]
    worst = max(float(np.linalg.norm(b @ g - g @ b)) for b in basis for g in gens)
    out += _fail(worst <= PROPERTY_TOL, f"basis element fails to commute by {worst:.3e}")
    out += _fail(_in_span(basis, perms), "a qubit permutation lies outside the commutant")
    return out


def _unitary(u) -> bool:
    return _close(_dagger(u) @ u, np.eye(u.shape[0]), PROPERTY_TOL * u.shape[0])


def structure(n: int, blocks, basis_change) -> list[str]:
    want = inputs.commutant_blocks(n)
    out = _fail(sorted(tuple(b) for b in blocks) == want, f"blocks {blocks} != spin pattern {want}")
    return out + _fail(_unitary(np.asarray(basis_change)), "basis change is not unitary")


def noiseless(n: int, kraus, blocks, encoded) -> list[str]:
    """Blocks of size >= 2 follow the spin pattern and every encoded state is
    a density left unchanged by sum E rho E^dag."""
    want = sorted((m, size) for m, size in inputs.commutant_blocks(n) if size >= 2)
    out = _fail(sorted(blocks) == want, f"noiseless blocks {blocks} != {want}")
    for rho in encoded:
        image = sum(e @ rho @ _dagger(e) for e in kraus)
        ok = _close(image, rho, PROPERTY_TOL) and abs(np.trace(rho) - 1.0) <= PROPERTY_TOL
        out += _fail(ok and np.linalg.eigvalsh((rho + _dagger(rho)) / 2)[0] >= -PROPERTY_TOL, "encoded state is not preserved")
    return out


def fix_vs_commutant(result) -> list[str]:
    return _fail(tuple(result) == (True, True), f"fix_equals_commutant gave {tuple(result)}")


def interaction_algebra(n: int, kraus, perms, basis) -> list[str]:
    """Dimension sum (2j+1)^2; contains the Kraus operators and commutes with
    every qubit permutation (Schur-Weyl)."""
    want = sum(d * d for d in inputs.spin_multiplicities(n))
    out = _fail(len(basis) == want, f"algebra dimension {len(basis)} != {want}")
    out += _fail(_hs_orthonormal(basis), "algebra basis is not orthonormal")
    out += _fail(_in_span(basis, kraus), "a Kraus operator lies outside the algebra")
    worst = max(float(np.linalg.norm(b @ p - p @ b)) for b in basis for p in perms)
    return out + _fail(worst <= PROPERTY_TOL, f"algebra element fails to commute with a permutation by {worst:.3e}")


# ---------------------------------------------------------------------------
# CLI reports, decoded with plain json and numpy
# ---------------------------------------------------------------------------


def decode_matrix(obj) -> np.ndarray:
    pairs = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])


def report_recovery(report: dict, op: dict) -> list[str]:
    """Orthogonal idempotent projectors summing with the completion to I,
    unitary syndrome unitaries, a trace-preserving channel and Lambda = I."""
    dim = inputs.SHOR_DIM
    lam = decode_matrix(report["lambda"])
    out = _fail(_close(lam, np.eye(lam.shape[0]), LAMBDA_TOL), "lambda is not I")
    projectors = [decode_matrix(p) for p in report["projectors"]]
    out += _fail(report["syndrome_count"] == len(projectors), "syndrome count mismatch")
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            want = p if i == j else np.zeros_like(p)
            out += _fail(_close(p @ q, want, PROPERTY_TOL * dim), f"projectors {i}, {j} are not orthogonal idempotents")
    total = sum(projectors)
    if report["completion"] is not None:
        total = total + decode_matrix(report["completion"])
    out += _fail(_close(total, np.eye(dim), PROPERTY_TOL * dim), "projectors and completion do not sum to I")
    for u in report["unitaries"]:
        out += _fail(_unitary(decode_matrix(u)), "a syndrome unitary is not unitary")
    kraus = [decode_matrix(k) for k in report["channel"]["kraus"]]
    return out + _fail(_tp(kraus, dim), "recovery channel is not trace preserving")


def report_deutsch_jozsa(report: dict, op: dict) -> list[str]:
    out = _fail(report["verdict"] == op["verdict"], f"verdict {report['verdict']} != {op['verdict']}")
    return out + _fail(abs(report["probability"] - 1.0) <= PROBABILITY_TOL, f"probability {report['probability']}")


def report_structure(report: dict, op: dict) -> list[str]:
    blocks = [(b["m"], b["n"]) for b in report["blocks"]]
    want = [tuple(b) for b in op["blocks"]]
    out = _fail(sorted(blocks) == want, f"blocks {blocks} != spin pattern {want}")
    out += _fail(report["dim"] == sum(n * n for _, n in want), f"dimension {report['dim']}")
    return out + _fail(_unitary(decode_matrix(report["basis_change"])), "basis change is not unitary")


def report_choi(report: dict, op: dict) -> list[str]:
    """Hermitian PSD, both partial traces I (trace preserving and unital),
    rank <= 3 for a mixture of three unitaries."""
    n = op["dim"]
    c = decode_matrix(report["matrix"])
    out = _fail(report["block_dim"] == n and c.shape == (n * n, n * n), "Choi shape")
    out += _fail(_close(c, _dagger(c), PROPERTY_TOL), "Choi matrix is not Hermitian")
    vals = np.linalg.eigvalsh((c + _dagger(c)) / 2)
    out += _fail(vals[0] >= -PROPERTY_TOL * vals[-1], "Choi matrix is not PSD")
    out += _fail(int(np.sum(vals > PROPERTY_TOL * vals[-1])) <= 3, "Choi rank exceeds 3")
    blocks = c.reshape(n, n, n, n)  # blocks[i, :, j, :] is the image of e_ij
    traces = np.einsum("iaja->ij", blocks)
    diag_sum = np.einsum("iaib->ab", blocks)
    out += _fail(_close(traces, np.eye(n), PROPERTY_TOL * n), "trace over the output is not I")
    return out + _fail(_close(diag_sum, np.eye(n), PROPERTY_TOL * n), "trace over the input is not I")


def report_classify(report: dict, op: dict) -> list[str]:
    flags = (report["completely_positive"], report["trace_preserving"], report["unital"])
    return _fail(flags == (True, True, True), f"classify flags {flags}")


REPORT_CHECKS = {
    "recovery": report_recovery,
    "deutsch-jozsa": report_deutsch_jozsa,
    "structure": report_structure,
    "choi": report_choi,
    "classify": report_classify,
}
