"""Quantum codes, error detectability, correctability, and constructive
recovery synthesis.

A code is a subspace carried as an isometry V (ambient x code dim) with
projection P = V V†.  Detectability of an operator E is the scalar-compression
condition P E P = lambda P; correctability of an error list is the same
condition on all pairwise products E_i† E_j, and the resulting scalar matrix
drives an explicit recovery channel: diagonalize it, polar-decompose the
recombined errors against P, and measure the resulting syndrome projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel
from .errors import (
    ConditionViolatedError,
    DependentInputError,
    DimensionMismatchError,
    NotPSDError,
    NotTracePreservingError,
    UnknownCodeError,
)
from .linalg import (
    DEFAULT_TOL,
    complete_isometry,
    dagger,
    frob,
    kron_chain,
    orthonormal_columns,
    require_finite,
)
from .qcore import basis_state


class QuantumCode:
    """Subspace of an N-dimensional space held as an isometry with orthonormal
    columns."""

    __slots__ = ("isometry",)

    def __init__(self, isometry: np.ndarray):
        v = require_finite(np.asarray(isometry, dtype=complex), "code isometry")
        if v.ndim != 2 or v.shape[0] < v.shape[1]:
            raise DimensionMismatchError(f"isometry shape {v.shape} is not tall")
        if frob(dagger(v) @ v - np.eye(v.shape[1])) > 1e-10 * v.shape[1]:
            raise DependentInputError("isometry columns are not orthonormal")
        self.isometry = v

    @property
    def ambient_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def code_dim(self) -> int:
        return self.isometry.shape[1]

    @property
    def projection(self) -> np.ndarray:
        return self.isometry @ dagger(self.isometry)

    def __repr__(self) -> str:
        return f"QuantumCode(ambient_dim={self.ambient_dim}, code_dim={self.code_dim})"


def make_code(kets: Sequence[np.ndarray]) -> QuantumCode:
    """Build a code from spanning kets, orthonormalized in input order."""
    if not kets:
        raise DependentInputError("need at least one basis ket")
    dims = {np.asarray(k).size for k in kets}
    if len(dims) != 1:
        raise DimensionMismatchError("basis kets have mixed dimensions")
    cols, kept = orthonormal_columns(kets)
    if len(kept) != len(kets):
        raise DependentInputError("basis kets are linearly dependent")
    return QuantumCode(cols)


def builtin_code(name: str) -> QuantumCode:
    """Named example codes: repetition3 and shor9."""
    if name == "repetition3":
        return make_code([basis_state(0, 8), basis_state(7, 8)])
    if name == "shor9":
        plus = basis_state(0, 8) + basis_state(7, 8)
        minus = basis_state(0, 8) - basis_state(7, 8)
        norm = 2.0 * np.sqrt(2.0)
        zero_l = kron_chain([plus, plus, plus]) / norm
        one_l = kron_chain([minus, minus, minus]) / norm
        return make_code([zero_l, one_l])
    raise UnknownCodeError(f"unknown builtin code {name!r}; known: repetition3, shor9")


@dataclass
class DetectionResult:
    detectable: bool
    scalar: complex | None
    residual: float


def detect(code: QuantumCode, e, tol: float = DEFAULT_TOL) -> DetectionResult:
    """Test P E P = lambda P with lambda estimated as Tr(P E P) / K.

    The residual ||P E P - lambda P||_F is reported whether or not it clears
    the threshold tol * (1 + ||E||_F).
    """
    e = np.asarray(e, dtype=complex)
    n = code.ambient_dim
    if e.shape != (n, n):
        raise DimensionMismatchError(f"operator shape {e.shape} does not match ambient dim {n}")
    v = code.isometry
    compressed = dagger(v) @ e @ v
    lam = complex(np.trace(compressed)) / code.code_dim
    # Frobenius norms are isometry-invariant, so the residual of the
    # compressed K x K problem equals the ambient one.
    residual = frob(compressed - lam * np.eye(code.code_dim))
    ok = residual <= tol * (1.0 + frob(e))
    return DetectionResult(ok, lam if ok else None, residual)


@dataclass
class DetectableSpaceForm:
    """Block form of the detectable set: in a basis whose first K vectors span
    the code, detectable operators are exactly those with scalar top-left
    K x K block."""

    basis_change: np.ndarray
    code_dim: int
    dimension: int

    def contains(self, e, tol: float = DEFAULT_TOL) -> bool:
        e = np.asarray(e, dtype=complex)
        k = self.code_dim
        x = dagger(self.basis_change) @ e @ self.basis_change
        top = x[:k, :k]
        lam = np.trace(top) / k
        return frob(top - lam * np.eye(k)) <= tol * (1.0 + frob(e))


def detectable_space_form(code: QuantumCode) -> DetectableSpaceForm:
    """Basis (code first, completed to the ambient dimension) plus the
    dimension count N^2 - K^2 + 1 of the detectable operator space."""
    n, k = code.ambient_dim, code.code_dim
    candidates = [code.isometry[:, j] for j in range(k)]
    candidates += [basis_state(j, n) for j in range(n)]
    cols, _ = orthonormal_columns(candidates)
    if cols.shape[1] != n:
        raise DependentInputError("failed to complete the code basis")  # pragma: no cover
    return DetectableSpaceForm(cols, k, n * n - k * k + 1)


@dataclass
class CorrectabilityResult:
    correctable: bool
    lambda_matrix: np.ndarray | None
    offending_pair: tuple[int, int] | None


def correctability(code: QuantumCode, errors: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CorrectabilityResult:
    """Pairwise detectability of E_i† E_j; on success returns the Hermitian
    PSD scalar matrix (lambda_ij).

    The offending pair is reported with 0-based indices.
    """
    errs = [np.asarray(e, dtype=complex) for e in errors]
    n = code.ambient_dim
    if any(e.shape != (n, n) for e in errs):
        raise DimensionMismatchError("all error operators must match the ambient dimension")
    v = code.isometry
    k = code.code_dim
    compressed = [e @ v for e in errs]  # N x K, enough for every pairwise test
    # ||E_i† E_j||_F^2 = Tr((E_i E_i†)(E_j E_j†)) gives the detect threshold
    # scale without forming any N x N product of errors.
    grams = [e @ dagger(e) for e in errs]
    r = len(errs)
    lam = np.zeros((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            m = dagger(compressed[i]) @ compressed[j]
            lam_ij = complex(np.trace(m)) / k
            # Each Gram matrix is Hermitian, so Tr(G_i G_j) = <G_i, G_j>_HS.
            pair_norm = np.sqrt(max(0.0, float(np.vdot(grams[i], grams[j]).real)))
            if frob(m - lam_ij * np.eye(k)) > tol * (1.0 + pair_norm):
                return CorrectabilityResult(False, None, (i, j))
            lam[i, j] = lam_ij
    herm = (lam + dagger(lam)) / 2.0
    if frob(lam - herm) > tol * (1.0 + frob(lam)):
        return CorrectabilityResult(False, None, (0, 0))  # pragma: no cover
    vals = np.linalg.eigvalsh(herm)
    if vals.size and vals[0] < -tol * max(1.0, float(vals[-1])):
        return CorrectabilityResult(False, None, (0, 0))  # pragma: no cover
    return CorrectabilityResult(True, lam, None)


@dataclass
class RecoveryChannel:
    """Recovery map together with its syndrome data.

    The channel applies the syndrome projections and undoes the per-syndrome
    unitaries; `completion` is the leftover projector (identity correction)
    when the syndromes do not already resolve the identity.
    """

    channel: KrausChannel
    projectors: list[np.ndarray]
    unitaries: list[np.ndarray]
    weights: np.ndarray
    completion: np.ndarray | None


def _sorted_eigh(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ordered by ascending eigenvalue; exact ties are
    broken by entrywise lexicographic comparison of the eigenvectors (larger
    leading entries first), which keeps diag inputs in natural order."""
    vals, vecs = np.linalg.eigh(lam)
    keys = []
    for idx in range(vals.size):
        entries = []
        for x in vecs[:, idx]:
            entries.extend((-x.real, -x.imag))
        keys.append((float(vals[idx]), tuple(entries)))
    order = sorted(range(vals.size), key=lambda i: keys[i])
    return vals[order], vecs[:, order]


def build_recovery(
    code: QuantumCode,
    errors: Sequence[np.ndarray],
    lam: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> RecoveryChannel:
    """Synthesize the recovery channel for a correctable error list.

    Diagonalizes the scalar matrix and recombines the errors along its
    eigenvectors.  On the code each recombination F_k acts as sqrt(d_k) times
    an isometry C_k = F_k V / sqrt(d_k), which is all its polar unitary needs
    to match there.  The syndrome unitary U_k is built inside span(V, C_k):
    with Q the reduced QR factor of [V C_k] (at most 2K columns), a = Q† V and
    b = Q† C_k, the small unitary M = b a† + W_b W_a† (W the `complete_isometry`
    complements) gives U_k = I + Q (M - I) Q†, so U_k V = C_k and U_k fixes
    the orthogonal complement of the span.  The channel is built from the
    mutually orthogonal syndrome projections C_k C_k† (completed with the
    leftover projector when needed).  Recombinations whose diagonal weight is
    below tolerance act as zero on the code and are skipped.
    """
    errs = [np.asarray(e, dtype=complex) for e in errors]
    n = code.ambient_dim
    lam = np.asarray(lam, dtype=complex)
    r = len(errs)
    if lam.shape != (r, r):
        raise DimensionMismatchError(f"scalar matrix shape {lam.shape} does not match {r} errors")
    if frob(lam - dagger(lam)) > tol * (1.0 + frob(lam)):
        raise NotPSDError("scalar matrix is not Hermitian within tolerance")
    vals_check = np.linalg.eigvalsh((lam + dagger(lam)) / 2.0)
    if vals_check.size and vals_check[0] < -tol * max(1.0, float(vals_check[-1])):
        raise NotPSDError("scalar matrix has a negative eigenvalue beyond tolerance")

    v = code.isometry
    k = code.code_dim
    compressed = [e @ v for e in errs]
    for i in range(r):
        for j in range(r):
            m = dagger(compressed[i]) @ compressed[j]
            if frob(m - lam[i, j] * np.eye(k)) > max(tol, 1e-7) * (1.0 + frob(m)):
                raise ConditionViolatedError(
                    f"pair ({i}, {j}) violates the scalar-compression condition"
                )

    dvals, u = _sorted_eigh((lam + dagger(lam)) / 2.0)
    dmax = float(dvals[-1]) if dvals.size else 0.0
    unitaries = []
    syndromes = []  # isometries U_k V whose ranges are the syndrome subspaces
    weights = []
    for idx in range(dvals.size):
        d = float(dvals[idx])
        if d <= tol * max(1.0, dmax):
            continue
        fv = sum(u[i, idx] * compressed[i] for i in range(r))  # F_k V, never F_k
        c, kept = orthonormal_columns(list((fv / np.sqrt(d)).T))
        if len(kept) != k:
            raise ConditionViolatedError("recombined error collapses the code")  # pragma: no cover
        q, _ = np.linalg.qr(np.hstack([v, c]))
        a, b = dagger(q) @ v, dagger(q) @ c
        rotation = b @ dagger(a) + complete_isometry(b) @ dagger(complete_isometry(a))
        unitaries.append(np.eye(n) + q @ (rotation - np.eye(len(rotation))) @ dagger(q))
        syndromes.append(c)
        weights.append(d)

    kraus = [v @ dagger(c) for c in syndromes]
    proj_sum = np.zeros((n, n), dtype=complex)
    projectors = []
    for c in syndromes:
        p = c @ dagger(c)
        projectors.append(p)
        proj_sum += p
    completion = None
    leftover = np.eye(n) - proj_sum
    if frob(leftover) > tol * n:
        completion = (leftover + dagger(leftover)) / 2.0
        kraus.append(completion)
    return RecoveryChannel(KrausChannel(kraus), projectors, unitaries, np.array(weights), completion)


def verify_recovery(
    channel: KrausChannel,
    recovery: RecoveryChannel,
    code: QuantumCode,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    samples: int = 20,
) -> float:
    """Max Frobenius deviation of recover(transmit(rho)) from rho over all
    code matrix units plus seeded random code densities.

    Evaluated in code coordinates: with every composite Kraus operator A
    restricted to the code, the deviation matrix lives in the joint column
    span, so compressing onto an orthonormal basis of that span is exact.
    """
    if not channel.is_trace_preserving(tol):
        raise NotTracePreservingError("recovery verification requires a trace-preserving channel")
    if channel.dim != code.ambient_dim:
        raise DimensionMismatchError("channel and code dimensions differ")
    v = code.isometry
    k = code.code_dim
    b = [e @ v for e in channel.operators]
    terms = [rk @ bi for rk in recovery.channel.operators for bi in b]
    stack = np.hstack(terms + [v])
    q, _ = np.linalg.qr(stack)
    small = [dagger(q) @ t for t in terms]
    v_small = dagger(q) @ v

    def deviation(sigma: np.ndarray) -> float:
        delta = -v_small @ sigma @ dagger(v_small)
        for a in small:
            delta = delta + a @ sigma @ dagger(a)
        return frob(delta)

    worst = 0.0
    for i in range(k):
        for j in range(k):
            sigma = np.zeros((k, k), dtype=complex)
            sigma[i, j] = 1.0
            worst = max(worst, deviation(sigma))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        sigma = g @ dagger(g)
        worst = max(worst, deviation(sigma / np.trace(sigma).real))
    return worst
