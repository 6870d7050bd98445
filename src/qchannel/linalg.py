"""Dense complex linear algebra substrate.

Tensor products, Hermitian eigendecomposition, polar decomposition, numerical
null spaces, and the Hilbert-Schmidt inner product, all on plain complex
numpy arrays.  Tolerances are relative and Frobenius-scaled; every decision
routine accepts an explicit override.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import NotHermitianError, ShapeMismatchError, SizeLimitError

# Target dimensions stay small (<= ~1024), so double precision leaves ample
# headroom around this default.
DEFAULT_TOL = 1e-9

# Largest superoperator-sized array the package builds: a Choi matrix, a
# channel superoperator or the commutant's constraint stack.  256 MiB holds an
# N^2 x N^2 complex matrix up to N = 64.  The routines that build one hold a
# few arrays of that size at once (fixed_point_set also holds the identity,
# the difference and both SVD factors), so the limit sits well below the
# memory of a small machine.  Larger requests raise SizeLimitError before
# anything is allocated.
MAX_SUPEROPERATOR_BYTES = 256 * 2**20


def require_superoperator_size(nbytes: int, what: str) -> None:
    """Refuse an array of nbytes above MAX_SUPEROPERATOR_BYTES."""
    if nbytes > MAX_SUPEROPERATOR_BYTES:
        raise SizeLimitError(
            f"{what} needs {nbytes / 2**30:.3g} GiB, above the "
            f"{MAX_SUPEROPERATOR_BYTES // 2**20} MiB superoperator limit"
        )


def as_operator(a) -> np.ndarray:
    """Coerce to a 2-D complex array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"expected a matrix, got ndim={arr.ndim}")
    return arr


def require_finite(a, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product with block (i, j) equal to a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_chain(ops) -> np.ndarray:
    """Left-to-right tensor product of a sequence of matrices or vectors."""
    return reduce(np.kron, [np.asarray(op, dtype=complex) for op in ops])


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a† b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def is_hermitian(h, tol: float = DEFAULT_TOL) -> bool:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False
    return frob(h - dagger(h)) <= tol * (1.0 + frob(h))


def is_unitary(u, tol: float = DEFAULT_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    n = u.shape[0]
    return frob(dagger(u) @ u - np.eye(n)) <= tol * n


class EigenDecomposition(NamedTuple):
    """Ascending real eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(h, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError when ||h - h†||_F exceeds tol * (1 + ||h||_F).
    """
    h = as_operator(h)
    if h.shape[0] != h.shape[1]:
        raise NotHermitianError(f"matrix is {h.shape[0]}x{h.shape[1]}, not square")
    if not is_hermitian(h, tol):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    return EigenDecomposition(vals, vecs)


def polar(a, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition a = u @ p with u unitary and p = sqrt(a† a) PSD.

    On the support of p, u carries right singular vectors to left singular
    vectors.  When a is singular the image columns for the kernel are
    `complete_isometry` of the supported left singular vectors, a Householder
    QR complement, so u is a deterministic function of the SVD.
    """
    a = as_operator(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeMismatchError("polar decomposition requires a square matrix")
    left, sing, vh = np.linalg.svd(a)
    right = vh.conj().T
    smax = float(sing[0]) if n else 0.0
    p = (right * sing) @ vh
    p = (p + dagger(p)) / 2.0

    support = sing > tol * smax if smax > 0 else np.zeros(n, dtype=bool)
    image_cols = np.array(left)
    image_cols[:, ~support] = complete_isometry(left[:, support])
    u = image_cols @ vh
    return u, p


def complete_isometry(v) -> np.ndarray:
    """Orthonormal columns W with [v W] unitary, for v with orthonormal columns.

    W is the trailing n - k columns of the complete Householder QR factor of
    the n x k isometry v: deterministic for a given v, O(n^2 k) to form, and
    orthogonal to range(v) to machine precision.
    """
    v = np.asarray(v, dtype=complex)
    return np.linalg.qr(v, mode="complete")[0][:, v.shape[1]:]


def null_space_basis(a, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of a.

    Rank decisions use singular values <= tol * sigma_max.  Callers that know
    the natural magnitude of the map can pass it as `scale`; it floors the
    threshold so that a constraint matrix which is zero up to roundoff (e.g.
    commutators of an abelian family) yields the full space instead of
    treating its noise as rank.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=complex)
    # A tall constraint stack needs only the right singular vectors; the
    # thin SVD skips the rows x rows U that the full one would build.
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    smax = float(s[0]) if s.size else 0.0
    cutoff = tol * (smax if scale is None else max(smax, scale))
    rank = int(np.sum(s > cutoff)) if smax > 0 else 0
    return vh[rank:].conj().T


def orthonormal_columns(vectors, drop_tol: float = 1e-10) -> tuple[np.ndarray, list[int]]:
    """Modified Gram-Schmidt over the given vectors, preserving input order.

    Returns the orthonormal columns and the indices of the inputs that
    survived; inputs whose residual falls below drop_tol * max(1, ||v||) are
    dropped as dependent.
    """
    kept = []
    cols = []
    for idx, v in enumerate(vectors):
        w = np.asarray(v, dtype=complex).reshape(-1).copy()
        scale = max(1.0, float(np.linalg.norm(w)))
        for _ in range(2):
            for q in cols:
                w = w - q * np.vdot(q, w)
        norm = np.linalg.norm(w)
        if norm > drop_tol * scale:
            cols.append(w / norm)
            kept.append(idx)
    if not cols:
        return np.zeros((len(np.asarray(vectors[0]).reshape(-1)) if len(vectors) else 0, 0), dtype=complex), []
    return np.column_stack(cols), kept


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary from a QR-corrected Ginibre draw."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
