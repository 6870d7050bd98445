"""Noise-commutant machinery: interaction-algebra closure, commutants and
fixed-point sets, the unitality equivalence between them, block structure of
finite-dimensional †-closed operator algebras, noiseless-subsystem encoders,
and the dead-subspace test for singular images of the identity.

Operators are vectorized row-major throughout, so conjugation maps become
Kronecker factors and subspace work reduces to numerical null spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import KrausChannel, classify
from .errors import (
    DimensionMismatchError,
    NotAnAlgebraError,
    NotTracePreservingError,
    NotUnitalError,
    StructureResolutionError,
)
from .linalg import DEFAULT_TOL, dagger, frob, kron, null_space_basis, orthonormal_columns


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


def _closure(seed_ops: Sequence[np.ndarray], n: int, include_adjoints: bool, include_identity: bool) -> OperatorSpace:
    """Smallest multiplicatively closed subspace containing the seeds,
    optionally seeded with adjoints and the identity.

    Each round multiplies fresh basis elements against the whole current
    basis and orthonormalizes; the dimension is capped by N^2, which bounds
    the iteration.
    """
    seeds = [np.asarray(e, dtype=complex) for e in seed_ops]
    if include_adjoints:
        seeds = seeds + [dagger(e) for e in seeds]
    if include_identity:
        seeds = [np.eye(n, dtype=complex)] + seeds
    cols, _ = orthonormal_columns([_vec(s) for s in seeds])
    fresh = cols
    while fresh.shape[1] > 0 and cols.shape[1] < n * n:
        mats = [cols[:, j].reshape(n, n) for j in range(cols.shape[1])]
        new_mats = [fresh[:, j].reshape(n, n) for j in range(fresh.shape[1])]
        candidates = []
        for a in new_mats:
            for b in mats:
                candidates.append(_vec(a @ b))
                candidates.append(_vec(b @ a))
        added = []
        for c in candidates:
            w = c.copy()
            scale = max(1.0, float(np.linalg.norm(w)))
            for _ in range(2):
                w = w - cols @ (dagger(cols) @ w)
                if added:
                    amat = np.column_stack(added)
                    w = w - amat @ (dagger(amat) @ w)
            norm = np.linalg.norm(w)
            if norm > 1e-10 * scale:
                added.append(w / norm)
        if not added:
            break
        cols = np.column_stack([cols] + added)
        fresh = np.column_stack(added)
    return _space_from_vec_columns(cols, n)


def interaction_algebra(ch: KrausChannel) -> OperatorSpace:
    """†-closed unital algebra generated by the channel's Kraus operators."""
    return _closure(ch.operators, ch.dim, include_adjoints=True, include_identity=True)


def commutant(generators: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> OperatorSpace:
    """Operators commuting with every generator and every adjoint, from the
    null space of the stacked vectorized commutator maps."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise DimensionMismatchError("need at least one generator")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise DimensionMismatchError("generators must share one square shape")
    eye = np.eye(n)
    rows = []
    for g in mats:
        for h in (g, dagger(g)):
            rows.append(kron(h, eye) - kron(eye, h.T))
    scale = max(1.0, max(frob(g) for g in mats))
    cols = null_space_basis(np.vstack(rows), tol, scale=scale)
    return _space_from_vec_columns(cols, n)


def channel_superoperator(ch: KrausChannel) -> np.ndarray:
    """N^2 x N^2 matrix of the channel on row-major vectorized operators."""
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
    comm = commutant(ch.operators, tol)
    fix = fixed_point_set(ch, tol)
    return FixVsCommutant(spaces_equal(fix, comm, tol), classify(ch, tol).unital)


def adjoints_in_algebra(ch: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Whether every adjoint Kraus operator already lies in the algebra
    generated by the Kraus operators alone (no adjoints seeded)."""
    if not classify(ch, tol).unital:
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


def _hermitian_basis(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Real-orthonormal Hermitian basis spanning a †-closed complex span."""
    candidates = []
    for m in mats:
        candidates.append((m + dagger(m)) / 2.0)
        candidates.append((m - dagger(m)) / 2.0j)
    cols, kept = orthonormal_columns([_vec(c) for c in candidates])
    n = mats[0].shape[0]
    out = []
    for j in range(cols.shape[1]):
        h = cols[:, j].reshape(n, n)
        out.append((h + dagger(h)) / 2.0)
    return out


def _center(space: OperatorSpace, tol: float) -> list[np.ndarray]:
    """Intersection of the algebra with its own commutant, solved in the
    coefficient coordinates of the given basis."""
    n = space.ambient_dim
    eye = np.eye(n)
    rows = []
    for b in space.basis:
        rows.append((kron(b, eye) - kron(eye, b.T)) @ space.vecs)
    coeffs = null_space_basis(np.vstack(rows), tol, scale=1.0)
    cols = space.vecs @ coeffs
    return [cols[:, j].reshape(n, n) for j in range(cols.shape[1])]


def _random_hermitian(hbasis: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal(len(hbasis))
    return sum(wi * h for wi, h in zip(w, hbasis))


def _align_block(comp_cols: np.ndarray, dim: int, n_block: int, m_block: int, rng: np.random.Generator) -> np.ndarray:
    """Basis of C^dim (dim = m*n) realizing the ampliation pattern for one
    block, built from eigen-clusters of a random Hermitian algebra element
    aligned across clusters by a generic intertwining algebra element."""
    comp_mats = [comp_cols[:, j].reshape(dim, dim) for j in range(comp_cols.shape[1])]
    hbasis = _hermitian_basis(comp_mats)
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
    hcenter = _hermitian_basis(_center(space, tol))
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
            block_cols = w @ _align_block(comp_cols, d_spatial, n_block, m_block, rng)
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
    retried with successive seeds before giving up.
    """
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
    if not classify(ch, tol).unital:
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
