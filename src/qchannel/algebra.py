"""Noise-commutant machinery: interaction-algebra closure, commutants and
fixed-point sets, the unitality equivalence between them, block structure of
finite-dimensional †-closed operator algebras, noiseless-subsystem encoders,
and the dead-subspace test for singular images of the identity.

Operators are vectorized row-major throughout, and subspace work reduces to
numerical null spaces.  Commutants are solved in block coordinates: the
eigenbasis of one random Hermitian element of the generated algebra leaves
only the entries inside its eigenvalue clusters unknown.  Algebra closures
grow by generator words in batched Krylov rounds, and the centre is solved in
the coefficient coordinates of the algebra's basis.  Only `fixed_point_set`
builds an N^2 x N^2 superoperator, and it refuses above
linalg.MAX_SUPEROPERATOR_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# classify stays bound here: bench/tracing.py wraps it under this module.
from .channels import KrausChannel, classify  # noqa: F401
from .errors import (
    DimensionMismatchError,
    NotAnAlgebraError,
    NotTracePreservingError,
    NotUnitalError,
    StructureResolutionError,
)
from .linalg import (
    DEFAULT_TOL,
    dagger,
    frob,
    kron,
    null_space_basis,
    orthonormal_columns,
    require_superoperator_size,
)


def _vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=complex).reshape(-1)


class OperatorSpace:
    """Subspace of N x N operators carried as a Hilbert-Schmidt-orthonormal
    basis; `vecs` stacks the basis as columns of an N^2 x dim isometry."""

    __slots__ = ("basis", "vecs", "ambient_dim")

    def __init__(self, basis: Sequence[np.ndarray]):
        mats = [np.asarray(b, dtype=complex) for b in basis]
        if not mats:
            raise DimensionMismatchError("an operator space needs at least one basis element")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise DimensionMismatchError("basis elements must share one square shape")
        self.basis = mats
        self.vecs = np.column_stack([_vec(m) for m in mats])
        self.ambient_dim = int(n)
        gram = dagger(self.vecs) @ self.vecs
        if frob(gram - np.eye(len(mats))) > 1e-8 * len(mats):
            raise DimensionMismatchError("basis is not HS-orthonormal")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, op) -> np.ndarray:
        v = _vec(op)
        return (self.vecs @ (dagger(self.vecs) @ v)).reshape(self.ambient_dim, self.ambient_dim)

    def residual(self, op) -> float:
        op = np.asarray(op, dtype=complex)
        return frob(op - self.project(op))

    def contains(self, op, tol: float = DEFAULT_TOL) -> bool:
        return self.residual(op) <= tol * max(1.0, frob(op))

    def __repr__(self) -> str:
        return f"OperatorSpace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _space_from_vec_columns(cols: np.ndarray, n: int) -> OperatorSpace:
    return OperatorSpace([cols[:, j].reshape(n, n) for j in range(cols.shape[1])])


def spaces_equal(a: OperatorSpace, b: OperatorSpace, tol: float = DEFAULT_TOL) -> bool:
    """Mutual-projection test; dimension agreement alone is not enough."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return all(b.residual(m) <= tol for m in a.basis) and all(
        a.residual(m) <= tol for m in b.basis
    )


def _new_directions(candidates: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the candidates' components outside
    range(cols): two projections (CGS2), then a thin SVD that keeps singular
    values above 1e-10 * max(1, largest candidate norm)."""
    scale = max(1.0, float(np.max(np.linalg.norm(candidates, axis=0), initial=0.0)))
    for _ in range(2):
        candidates = candidates - cols @ (dagger(cols) @ candidates)
    u, s, _ = np.linalg.svd(candidates, full_matrices=False)
    return u[:, s > 1e-10 * scale]


def _closure(seed_ops: Sequence[np.ndarray], n: int, include_adjoints: bool, include_identity: bool) -> OperatorSpace:
    """Smallest multiplicatively closed subspace containing the seeds,
    optionally seeded with adjoints and the identity.

    Krylov rounds over generator words: span(words <= L) is span(words <= L-1)
    plus S * span(words <= L-1) for the seed set S, so each round multiplies
    only the fresh directions of the last round by the seeds, in one batched
    matmul.  The dimension is capped by N^2, which bounds the iteration.
    """
    seeds = np.stack([np.asarray(e, dtype=complex) for e in seed_ops])
    if include_adjoints:
        seeds = np.concatenate([seeds, seeds.conj().transpose(0, 2, 1)])
    if include_identity:
        seeds = np.concatenate([np.eye(n, dtype=complex)[None], seeds])
    cols = _new_directions(seeds.reshape(len(seeds), n * n).T, np.zeros((n * n, 0), dtype=complex))
    # The orthonormal seed span: products of HS-unit matrices have HS norm <= 1.
    gens = cols.T.reshape(-1, n, n)
    fresh = cols
    while fresh.shape[1] > 0 and cols.shape[1] < n * n:
        words = gens[:, None] @ fresh.T.reshape(-1, n, n)[None]
        fresh = _new_directions(words.reshape(-1, n * n).T, cols)
        cols = np.hstack([cols, fresh])
    return _space_from_vec_columns(cols, n)


def interaction_algebra(ch: KrausChannel) -> OperatorSpace:
    """†-closed unital algebra generated by the channel's Kraus operators."""
    return _closure(ch.operators, ch.dim, include_adjoints=True, include_identity=True)


def commutant(generators: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> OperatorSpace:
    """Operators commuting with every generator and every adjoint.

    Random-element block diagonalisation: every such X commutes with the
    Hermitian H = sum c_i G_i + h.c., so in an eigenbasis W of H the matrix
    W† X W is block diagonal over H's eigenvalue clusters.  Only those
    p = sum m_c^2 within-cluster entries are unknowns of the commutator
    null space.  The fixed draw of the c_i only sets p: merged clusters make
    p larger (N^2 when H is scalar), never the answer wrong.  Raises
    SizeLimitError when the 2k N^2 x p constraint stack of k generators would
    exceed linalg.MAX_SUPEROPERATOR_BYTES.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise DimensionMismatchError("need at least one generator")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise DimensionMismatchError("generators must share one square shape")
    gens = np.stack(mats)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    a = np.tensordot(c, gens, axes=1)
    vals, w = np.linalg.eigh(a + dagger(a))
    # Clusters relative to ||H||, not to the spread: a scalar H plus rounding
    # noise must stay one cluster.
    norm = float(np.max(np.abs(vals)))
    groups = _cluster(vals / norm if norm > 0 else vals)
    ia = np.concatenate([np.repeat(g, len(g)) for g in groups])
    ib = np.concatenate([np.tile(g, len(g)) for g in groups])
    k = np.arange(ia.size)
    require_superoperator_size(
        32 * len(mats) * n * n * ia.size, f"commutant constraint stack with {ia.size} unknowns at dimension {n}"
    )
    rows = []
    for g in dagger(w) @ gens @ w:
        for h in (g, dagger(g)):
            # Column k is vec(h E_ab - E_ab h) for the unknown (a, b) = (ia[k], ib[k]).
            col = np.zeros((n, n, ia.size), dtype=complex)
            col[:, ib, k] = h[:, ia]
            col[ia, :, k] -= h[ib, :]
            rows.append(col.reshape(n * n, ia.size))
    scale = max(1.0, max(frob(g) for g in mats))
    coeffs = null_space_basis(np.vstack(rows), tol, scale=scale)
    y = np.zeros((coeffs.shape[1], n, n), dtype=complex)
    y[:, ia, ib] = coeffs.T
    return OperatorSpace(list(w @ y @ dagger(w)))


def channel_superoperator(ch: KrausChannel) -> np.ndarray:
    """N^2 x N^2 matrix of the channel on row-major vectorized operators.

    Raises SizeLimitError above linalg.MAX_SUPEROPERATOR_BYTES."""
    require_superoperator_size(16 * ch.dim**4, f"channel superoperator at dimension {ch.dim}")
    total = np.zeros((ch.dim**2, ch.dim**2), dtype=complex)
    for e in ch.operators:
        total += kron(e, e.conj())
    return total


def fixed_point_set(ch: KrausChannel, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """Kernel of (channel - identity) on vectorized operators."""
    phi = channel_superoperator(ch)
    cols = null_space_basis(phi - np.eye(ch.dim**2), tol, scale=1.0)
    return _space_from_vec_columns(cols, ch.dim)


class FixVsCommutant(NamedTuple):
    equal: bool
    unital: bool


def fix_equals_commutant(ch: KrausChannel, tol: float = DEFAULT_TOL) -> FixVsCommutant:
    """Compare the fixed-point set against the noise commutant; the two agree
    exactly for unital channels, and both facts are computed independently."""
    if not ch.is_trace_preserving(tol):
        raise NotTracePreservingError("fixed-point comparison requires a trace-preserving channel")
    fix = fixed_point_set(ch, tol)
    comm = commutant(ch.operators, tol)
    return FixVsCommutant(spaces_equal(fix, comm, tol), ch.is_unital(tol))


def adjoints_in_algebra(ch: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Whether every adjoint Kraus operator already lies in the algebra
    generated by the Kraus operators alone (no adjoints seeded)."""
    if not ch.is_unital(tol):
        raise NotUnitalError("adjoint-closure test is stated for unital channels")
    a0 = _closure(ch.operators, ch.dim, include_adjoints=False, include_identity=False)
    return all(a0.contains(dagger(e), tol) for e in ch.operators)


# ---------------------------------------------------------------------------
# Block structure of †-closed algebras
# ---------------------------------------------------------------------------


@dataclass
class AlgebraStructure:
    """Blocks (multiplicity m, size n) plus the unitary basis change under
    which every algebra element is block diagonal with each block an
    m-fold ampliation of an arbitrary n x n matrix."""

    blocks: list[tuple[int, int]]
    basis_change: np.ndarray
    block_offsets: list[int]


class _ResolutionMiss(Exception):
    """Internal: ambiguous random split, retry with another seed."""


def _verify_algebra(space: OperatorSpace, tol: float) -> None:
    n = space.ambient_dim
    check = max(tol, 1e-9)
    if not space.contains(np.eye(n), check * n):
        raise NotAnAlgebraError("space does not contain the identity")
    for b in space.basis:
        if not space.contains(dagger(b), check):
            raise NotAnAlgebraError("space is not adjoint-closed")
    for a in space.basis:
        for b in space.basis:
            if not space.contains(a @ b, check):
                raise NotAnAlgebraError("space is not closed under products")


def _cluster(vals: np.ndarray, rel_gap: float = 1e-6) -> list[list[int]]:
    """Group ascending eigenvalues, splitting at gaps above rel_gap times the
    total spread."""
    spread = float(vals[-1] - vals[0]) if vals.size else 0.0
    gap = rel_gap * max(spread, 1.0)
    groups = [[0]]
    for i in range(1, vals.size):
        if vals[i] - vals[i - 1] > gap:
            groups.append([i])
        else:
            groups[-1].append(i)
    return groups


def _hermitian_basis(mats: Sequence[np.ndarray], tol: float) -> list[np.ndarray]:
    """Real-orthonormal Hermitian basis spanning a †-closed complex span.

    The rank comes from a thin SVD of the candidates' stacked real vectors
    [re; im], cut at max(tol, 1e-9) * sigma_max: near-dependent Hermitian and
    anti-Hermitian parts of a mixed basis leave residuals far above machine
    precision, which a fixed Gram-Schmidt drop would keep as spurious
    elements.  Real singular vectors of Hermitian candidates are Hermitian.
    """
    n = mats[0].shape[0]
    herm = []
    for m in mats:
        herm.append((m + dagger(m)) / 2.0)
        herm.append((m - dagger(m)) / 2.0j)
    flat = np.stack(herm).reshape(len(herm), n * n)
    u, s, _ = np.linalg.svd(np.vstack([flat.real.T, flat.imag.T]), full_matrices=False)
    u = u[:, s > max(tol, 1e-9) * s[0]]
    return list((u[: n * n] + 1j * u[n * n :]).T.reshape(-1, n, n))


def _center(space: OperatorSpace, tol: float) -> list[np.ndarray]:
    """Intersection of the algebra with its own commutant, solved in the
    coefficient coordinates of the given basis."""
    n = space.ambient_dim
    basis = np.stack(space.basis)
    d = len(basis)
    rows = [(b @ basis - basis @ b).reshape(d, n * n).T for b in basis]
    coeffs = null_space_basis(np.vstack(rows), tol, scale=1.0)
    return list(np.tensordot(coeffs.T, basis, axes=1))


def _random_hermitian(hbasis: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal(len(hbasis))
    return sum(wi * h for wi, h in zip(w, hbasis))


def _align_block(
    comp_cols: np.ndarray, dim: int, n_block: int, m_block: int, rng: np.random.Generator, tol: float
) -> np.ndarray:
    """Basis of C^dim (dim = m*n) realizing the ampliation pattern for one
    block, built from eigen-clusters of a random Hermitian algebra element
    aligned across clusters by a generic intertwining algebra element."""
    comp_mats = [comp_cols[:, j].reshape(dim, dim) for j in range(comp_cols.shape[1])]
    hbasis = _hermitian_basis(comp_mats, tol)
    for _ in range(4):
        h = _random_hermitian(hbasis, rng)
        vals, vecs = np.linalg.eigh(h)
        groups = _cluster(vals)
        if len(groups) == n_block and all(len(g) == m_block for g in groups):
            break
    else:
        raise _ResolutionMiss
    eigenspaces = [vecs[:, g] for g in groups]
    for _ in range(4):
        coeff = rng.standard_normal(len(comp_mats)) + 1j * rng.standard_normal(len(comp_mats))
        g = sum(c * m for c, m in zip(coeff, comp_mats))
        aligned = [eigenspaces[0]]
        ok = True
        for i in range(1, n_block):
            m = dagger(eigenspaces[i]) @ g @ eigenspaces[0]
            c2 = float(np.vdot(m, m).real) / m_block
            # The compression of the algebra between two eigen-clusters is one
            # dimensional, so m must be a scalar multiple of a unitary.
            if c2 <= 1e-12 or frob(dagger(m) @ m - c2 * np.eye(m_block)) > 1e-7 * c2 * m_block:
                ok = False
                break
            aligned.append(eigenspaces[i] @ (m / np.sqrt(c2)))
        if ok:
            cols = np.zeros((dim, dim), dtype=complex)
            for alpha in range(m_block):
                for i in range(n_block):
                    cols[:, alpha * n_block + i] = aligned[i][:, alpha]
            return cols
    raise _ResolutionMiss


def _resolve_structure(space: OperatorSpace, tol: float, seed: int) -> AlgebraStructure:
    n = space.ambient_dim
    rng = np.random.default_rng(seed)
    hcenter = _hermitian_basis(_center(space, tol), tol)
    z = _random_hermitian(hcenter, rng)
    vals, vecs = np.linalg.eigh(z)
    raw_blocks = []
    for group in _cluster(vals):
        w = vecs[:, group]  # ambient isometry onto the central block
        d_spatial = len(group)
        comp = [dagger(w) @ b @ w for b in space.basis]
        comp_cols, _ = orthonormal_columns([_vec(c) for c in comp])
        d_alg = comp_cols.shape[1]
        n_block = math.isqrt(d_alg)
        if n_block * n_block != d_alg or d_spatial % n_block != 0:
            raise _ResolutionMiss
        m_block = d_spatial // n_block
        if n_block == 1:
            block_cols = w
        else:
            block_cols = w @ _align_block(comp_cols, d_spatial, n_block, m_block, rng, tol)
        raw_blocks.append((m_block, n_block, block_cols))

    if sum(nb * nb for _, nb, _ in raw_blocks) != space.dim:
        raise _ResolutionMiss
    order = sorted(range(len(raw_blocks)), key=lambda i: (-raw_blocks[i][1], -raw_blocks[i][0], i))
    blocks = [(raw_blocks[i][0], raw_blocks[i][1]) for i in order]
    basis_change = np.hstack([raw_blocks[i][2] for i in order])
    offsets = []
    pos = 0
    for m_block, n_block in blocks:
        offsets.append(pos)
        pos += m_block * n_block
    structure = AlgebraStructure(blocks, basis_change, offsets)
    if structure_residual(space, structure) > max(tol, 1e-9):
        raise _ResolutionMiss
    return structure


def wedderburn_structure(space: OperatorSpace, tol: float = DEFAULT_TOL, seed: int = 0) -> AlgebraStructure:
    """Resolve a †-closed unital operator algebra into ampliated full matrix
    blocks with a deterministic (seeded) basis change.

    Blocks come out sorted by (n, m) descending.  Ambiguous random splits are
    retried with successive seeds before giving up.  Raises SizeLimitError up
    front when the centre's d N^2 x d stack exceeds the superoperator limit.
    """
    n, d = space.ambient_dim, space.dim
    require_superoperator_size(16 * d * d * n * n, f"centre stack of a {d}-dimensional algebra at dimension {n}")
    _verify_algebra(space, tol)
    last = None
    for attempt in range(5):
        try:
            return _resolve_structure(space, tol, seed + attempt)
        except _ResolutionMiss as miss:
            last = miss
    raise StructureResolutionError("could not resolve block structure after 5 seeded retries") from last


def structure_residual(space: OperatorSpace, structure: AlgebraStructure) -> float:
    """Fraction of Frobenius mass of the conjugated basis falling outside the
    block-ampliation pattern."""
    w = structure.basis_change
    total_sq = 0.0
    off_sq = 0.0
    for b in space.basis:
        x = dagger(w) @ b @ w
        recon = np.zeros_like(x)
        for (m_block, n_block), off in zip(structure.blocks, structure.block_offsets):
            size = m_block * n_block
            sub = x[off : off + size, off : off + size]
            avg = np.zeros((n_block, n_block), dtype=complex)
            for alpha in range(m_block):
                avg += sub[alpha * n_block : (alpha + 1) * n_block, alpha * n_block : (alpha + 1) * n_block]
            avg /= m_block
            recon[off : off + size, off : off + size] = kron(np.eye(m_block), avg)
        off_sq += frob(x - recon) ** 2
        total_sq += frob(x) ** 2
    return float(np.sqrt(off_sq / total_sq)) if total_sq > 0 else 0.0


# ---------------------------------------------------------------------------
# Noiseless subsystems and the dead-subspace phenomenon
# ---------------------------------------------------------------------------


@dataclass
class NoiselessBlock:
    """Protected block of the noise commutant: densities encoded through
    `encode` pass through the channel unchanged.  Multiplicity one is the
    decoherence-free special case."""

    multiplicity: int
    block_dim: int
    decoherence_free: bool
    encode: Callable[[np.ndarray], np.ndarray]


def noiseless_subsystems(ch: KrausChannel, tol: float = DEFAULT_TOL, seed: int = 0) -> list[NoiselessBlock]:
    """Blocks of the noise commutant with size at least 2, each with an
    encoder mapping an n x n density onto the ambient space (normalized
    ampliation on the multiplicity factor)."""
    if not ch.is_trace_preserving(tol):
        raise NotTracePreservingError("noiseless subsystems are stated for channels")
    if not ch.is_unital(tol):
        raise NotUnitalError("noise-commutant protection requires a unital channel")
    space = commutant(ch.operators, tol)
    structure = wedderburn_structure(space, tol, seed)
    n = ch.dim
    out = []
    for (m_block, n_block), off in zip(structure.blocks, structure.block_offsets):
        if n_block < 2:
            continue
        w = structure.basis_change

        def encode(sigma, _w=w, _off=off, _m=m_block, _n=n_block):
            sigma = np.asarray(sigma, dtype=complex)
            if sigma.shape != (_n, _n):
                raise DimensionMismatchError(f"expected a {_n}x{_n} block state")
            x = np.zeros((n, n), dtype=complex)
            x[_off : _off + _m * _n, _off : _off + _m * _n] = kron(np.eye(_m) / _m, sigma)
            return _w @ x @ dagger(_w)

        out.append(NoiselessBlock(m_block, n_block, m_block == 1, encode))
    return out


@dataclass
class DeadSubspaceResult:
    """Range projection of the image of the identity, its complement, and
    whether every Kraus operator is compressed by the range (in which case
    the channel annihilates everything supported on the complement)."""

    range_projector: np.ndarray
    perp_projector: np.ndarray
    hypothesis_holds: bool


def dead_subspace(ch: KrausChannel, tol: float = DEFAULT_TOL) -> DeadSubspaceResult | None:
    """None when the image of the identity is invertible; otherwise the
    complement data for the annihilated subspace."""
    n = ch.dim
    a = sum(e @ dagger(e) for e in ch.operators)
    a = (a + dagger(a)) / 2.0
    vals, vecs = np.linalg.eigh(a)
    vmax = float(vals[-1]) if vals.size else 0.0
    if vmax > 0 and float(vals[0]) > tol * vmax:
        return None
    pos = vals > tol * vmax if vmax > 0 else np.zeros(n, dtype=bool)
    vpos = vecs[:, pos]
    p = vpos @ dagger(vpos)
    hypothesis = all(frob(e - p @ e @ p) <= tol * (1.0 + frob(e)) for e in ch.operators)
    return DeadSubspaceResult(p, np.eye(n) - p, hypothesis)
