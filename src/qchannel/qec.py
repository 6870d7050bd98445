"""Quantum codes, error detectability, correctability, and constructive
recovery synthesis.

A code is a subspace carried as an isometry V (ambient x code dim) with
projection P = V V†.  Detectability of an operator E is the scalar-compression
condition P E P = lambda P; correctability of an error list is the same
condition on all pairwise products E_i† E_j, and the resulting scalar matrix
drives an explicit recovery channel: diagonalize it, rotate the code onto
range(F_k V) for each recombined error F_k inside span(V, F_k V), and measure
the resulting syndrome projections.  Every test runs on K x K compressions.

The recovery is kept in factored form: per syndrome an N x K isometry C_k and
the rank-2K factors of its unitary, so beside its N x N Kraus list it costs
O(NK) memory per syndrome.  The N x N syndrome projectors and unitaries are
formed only when a caller reads them.
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
    STRUCTURAL_TOL,
    complete_isometry,
    dagger,
    frob,
    hermitian_psd,
    is_identity,
    kron_chain,
    orthonormal_columns,
    require_finite,
    spectral_support,
)
from .qcore import basis_state, random_density


class QuantumCode:
    """Subspace of an N-dimensional space held as an isometry with orthonormal
    columns."""

    __slots__ = ("isometry",)

    def __init__(self, isometry: np.ndarray):
        v = require_finite(np.asarray(isometry, dtype=complex), "code isometry")
        if v.ndim != 2 or v.shape[0] < v.shape[1]:
            raise DimensionMismatchError(f"isometry shape {v.shape} is not tall")
        if v.shape[1] == 0:
            raise DependentInputError("a code needs at least one basis column")
        if not is_identity(dagger(v) @ v, STRUCTURAL_TOL):
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


def _shor9() -> QuantumCode:
    """Shor's nine-qubit code: |0_L>, |1_L> = (|000> +- |111>)^(x3) / 2 sqrt(2)."""
    plus = basis_state(0, 8) + basis_state(7, 8)
    minus = basis_state(0, 8) - basis_state(7, 8)
    norm = 2.0 * np.sqrt(2.0)
    return make_code([kron_chain([plus] * 3) / norm, kron_chain([minus] * 3) / norm])


BUILTIN_CODES = {
    "repetition3": lambda: make_code([basis_state(0, 8), basis_state(7, 8)]),
    "shor9": _shor9,
}


def builtin_code(name: str) -> QuantumCode:
    """Construct a catalogue code by name."""
    try:
        ctor = BUILTIN_CODES[name]
    except KeyError:
        raise UnknownCodeError(f"unknown builtin code {name!r}; known: {', '.join(sorted(BUILTIN_CODES))}") from None
    return ctor()


@dataclass
class DetectionResult:
    detectable: bool
    scalar: complex | None
    residual: float


def _scalar_check(left: np.ndarray, right: np.ndarray, scale, tol: float, lam: np.ndarray | None = None):
    """Test m_ij = left_i† right_j = lambda_ij I for every pair of the stacks
    left (a, N, K) and right (b, N, K), all formed in one batched product.

    lambda_ij is Tr(m_ij) / K unless lam is given.  Returns lam, the residuals
    ||m_ij - lambda_ij I||_F and the first pair in row-major order whose
    residual exceeds tol * (1 + scale_ij), or None."""
    k = left.shape[2]
    m = left.conj().transpose(0, 2, 1)[:, None] @ right[None]
    if lam is None:
        lam = np.trace(m, axis1=2, axis2=3) / k
    residual = np.linalg.norm(m - lam[:, :, None, None] * np.eye(k), axis=(2, 3))
    bad = np.argwhere(residual > tol * (1.0 + scale))
    return lam, residual, (tuple(int(x) for x in bad[0]) if bad.size else None)


def detect(code: QuantumCode, e, tol: float = DEFAULT_TOL) -> DetectionResult:
    """Test P E P = lambda P with lambda estimated as Tr(P E P) / K.

    The residual ||P E P - lambda P||_F is reported whether or not it clears
    the threshold tol * (1 + ||E||_F).  Frobenius norms are isometry-invariant,
    so it is the residual of the K x K compression V† E V.
    """
    e = np.asarray(e, dtype=complex)
    n = code.ambient_dim
    if e.shape != (n, n):
        raise DimensionMismatchError(f"operator shape {e.shape} does not match ambient dim {n}")
    v = code.isometry
    lam, residual, bad = _scalar_check(v[None], (e @ v)[None], frob(e), tol)
    return DetectionResult(bad is None, complex(lam[0, 0]) if bad is None else None, float(residual[0, 0]))


@dataclass
class DetectableSpaceForm:
    """Block form of the detectable set: in a basis whose first K vectors span
    the code, detectable operators are exactly those with scalar top-left
    K x K block."""

    basis_change: np.ndarray
    code_dim: int
    dimension: int

    def contains(self, e, tol: float = DEFAULT_TOL) -> bool:
        """`detect` on the code spanned by the first K basis columns."""
        return detect(QuantumCode(self.basis_change[:, : self.code_dim]), e, tol).detectable


def detectable_space_form(code: QuantumCode) -> DetectableSpaceForm:
    """Basis [V, complete_isometry(V)] (code first) plus the dimension count
    N^2 - K^2 + 1 of the detectable operator space."""
    n, k = code.ambient_dim, code.code_dim
    v = code.isometry
    return DetectableSpaceForm(np.hstack([v, complete_isometry(v)]), k, n * n - k * k + 1)


@dataclass
class CorrectabilityResult:
    correctable: bool
    lambda_matrix: np.ndarray | None
    offending_pair: tuple[int, int] | None


def _pair_check(code: QuantumCode, errors: Sequence[np.ndarray], tol: float, lam: np.ndarray | None = None):
    """Knill-Laflamme test of every pair on the (r, N, K) stack B_i = E_i V at
    tol * (1 + ||E_i V||_F ||E_j V||_F); returns B, lambda and the first
    failing pair or None."""
    errs = [np.asarray(e, dtype=complex) for e in errors]
    n, k = code.ambient_dim, code.code_dim
    if any(e.shape != (n, n) for e in errs):
        raise DimensionMismatchError("all error operators must match the ambient dimension")
    b = np.array([e @ code.isometry for e in errs], dtype=complex).reshape(len(errs), n, k)
    norms = np.linalg.norm(b, axis=(1, 2))
    lam, _, bad = _scalar_check(b, b, np.outer(norms, norms), tol, lam)
    return b, lam, bad


def correctability(code: QuantumCode, errors: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CorrectabilityResult:
    """Knill-Laflamme test V† E_i† E_j V = lambda_ij I, lambda_ij = Tr / K, at
    tol * (1 + ||E_i V||_F ||E_j V||_F) for every pair; on success returns the
    Hermitian PSD scalar matrix (lambda_ij, `hermitian_psd`), otherwise the
    first failing pair in row-major order (0-based).
    """
    _, lam, bad = _pair_check(code, errors, tol)
    if bad is not None:
        return CorrectabilityResult(False, None, bad)
    try:
        hermitian_psd(lam, tol, "scalar matrix")
    except NotPSDError:  # pragma: no cover
        return CorrectabilityResult(False, None, (0, 0))
    return CorrectabilityResult(True, lam, None)


@dataclass
class RecoveryChannel:
    """Recovery map together with its syndrome data, held as factors.

    `syndromes` are the N x K isometries C_k whose ranges are the syndrome
    subspaces, and `rotations` the pairs (Q_k, M_k), Q_k an N x m isometry
    (m <= 2K) and M_k an m x m unitary, with U_k = I + Q_k (M_k - I) Q_k†.
    The channel applies the syndrome projections and undoes the per-syndrome
    unitaries; `completion` is the leftover projector (identity correction)
    when the syndromes do not already resolve the identity.

    `projectors` (C_k C_k†) and `unitaries` (U_k) are N x N and recomputed
    from the factors on each access.
    """

    channel: KrausChannel
    syndromes: list[np.ndarray]
    rotations: list[tuple[np.ndarray, np.ndarray]]
    weights: np.ndarray
    completion: np.ndarray | None

    @property
    def projectors(self) -> list[np.ndarray]:
        return [c @ dagger(c) for c in self.syndromes]

    @property
    def unitaries(self) -> list[np.ndarray]:
        n = self.channel.dim
        return [np.eye(n) + q @ (m - np.eye(len(m))) @ dagger(q) for q, m in self.rotations]


def _sorted_eigh(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ordered by ascending eigenvalue; exact ties are
    broken by entrywise lexicographic comparison of the eigenvectors (larger
    leading entries first), which keeps diag inputs in natural order."""
    vals, vecs = np.linalg.eigh(lam)
    # Keys (-Re v_0, -Im v_0, -Re v_1, ...) per column; lexsort ranks by its last key first.
    entries = np.stack([-vecs.real, -vecs.imag], axis=1).reshape(2 * vals.size, vals.size)
    order = np.lexsort(np.vstack([entries[::-1], vals[None]]))
    return vals[order], vecs[:, order]


def build_recovery(
    code: QuantumCode,
    errors: Sequence[np.ndarray],
    lam: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> RecoveryChannel:
    """Synthesize the recovery channel for a correctable error list.

    lam must pass `hermitian_psd` at tol (else NotPSDError) and every pair
    test at tol * (1 + ||E_i V||_F ||E_j V||_F) (else ConditionViolatedError).

    Diagonalizes the scalar matrix and recombines the errors along its
    eigenvectors.  On the code each recombination F_k acts as sqrt(d_k) times
    an isometry C_k = F_k V / sqrt(d_k), which is all its polar unitary needs
    to match there.  The syndrome unitary U_k is built inside span(V, C_k):
    with Q the reduced QR factor of [V C_k] (at most 2K columns), a = Q† V and
    b = Q† C_k, the small unitary M = b a† + W_b W_a† (W the `complete_isometry`
    complements) gives U_k = I + Q (M - I) Q†, so U_k V = C_k and U_k fixes
    the orthogonal complement of the span; only the factors (Q, M) are kept.
    The channel's Kraus operators are V C_k† for the mutually orthogonal
    syndrome projections C_k C_k† (completed with the leftover projector
    unless they pass the identity rule).  Recombinations outside the
    spectral support of lam (floor 1) act as zero on the code and are
    skipped.
    """
    n = code.ambient_dim
    lam = np.asarray(lam, dtype=complex)
    r = len(errors)
    if lam.shape != (r, r):
        raise DimensionMismatchError(f"scalar matrix shape {lam.shape} does not match {r} errors")
    hermitian_psd(lam, tol, "scalar matrix")
    images, _, bad = _pair_check(code, errors, tol, lam)
    if bad is not None:
        raise ConditionViolatedError(f"pair {bad} violates the scalar-compression condition")

    v, k = code.isometry, code.code_dim
    dvals, u = _sorted_eigh((lam + dagger(lam)) / 2.0)
    syndromes = []  # isometries C_k = U_k V whose ranges are the syndrome subspaces
    rotations = []
    weights = []
    for idx in np.flatnonzero(spectral_support(dvals, tol, 1.0)):
        d = float(dvals[idx])
        fv = sum(u[i, idx] * images[i] for i in range(r))  # F_k V, never F_k
        c, kept = orthonormal_columns(list((fv / np.sqrt(d)).T))
        if len(kept) != k:
            raise ConditionViolatedError("recombined error collapses the code")  # pragma: no cover
        q, _ = np.linalg.qr(np.hstack([v, c]))
        a, b = dagger(q) @ v, dagger(q) @ c
        rotations.append((q, b @ dagger(a) + complete_isometry(b) @ dagger(complete_isometry(a))))
        syndromes.append(c)
        weights.append(d)

    kraus = [v @ dagger(c) for c in syndromes]
    completion = None
    # Summed one projector at a time, in syndrome order, as `projectors` lists them.
    covered = np.zeros((n, n), dtype=complex)
    for c in syndromes:
        covered += c @ dagger(c)
    if not is_identity(covered, tol):
        leftover = np.eye(n) - covered
        completion = (leftover + dagger(leftover)) / 2.0
        kraus.append(completion)
    return RecoveryChannel(KrausChannel(kraus), syndromes, rotations, np.array(weights), completion)


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

    Multiplies the delivered Kraus operators R_j (so it checks what callers
    receive), one product R_j [E_1 V ... E_r V] per R_j, and evaluates in
    code coordinates: restricted to the code every composite R_j E_i lives in
    the joint column span of the R_j E_i V and V, so compressing onto an
    orthonormal basis of that span is exact.  All densities are then checked
    in one batched contraction.
    """
    if not channel.is_trace_preserving(tol):
        raise NotTracePreservingError("recovery verification requires a trace-preserving channel")
    if channel.dim != code.ambient_dim:
        raise DimensionMismatchError("channel and code dimensions differ")
    v = code.isometry
    k = code.code_dim
    images = np.hstack([e @ v for e in channel.operators])
    terms = np.hstack([rk @ images for rk in recovery.channel.operators])  # R_j E_i V, j-major
    q, _ = np.linalg.qr(np.hstack([terms, v]))
    small = (dagger(q) @ terms).reshape(q.shape[1], -1, k)
    v_small = dagger(q) @ v

    rng = np.random.default_rng(seed)
    units = np.eye(k * k, dtype=complex).reshape(k * k, k, k)  # E_ij in row-major order
    densities = np.reshape([random_density(k, rng) for _ in range(samples)], (samples, k, k))
    sigmas = np.concatenate([units, densities])
    delta = np.einsum("atk,skl,btl->sab", small, sigmas, small.conj(), optimize=True)
    delta -= np.einsum("ak,skl,bl->sab", v_small, sigmas, v_small.conj(), optimize=True)
    return float(np.max(np.linalg.norm(delta, axis=(1, 2)), initial=0.0))
