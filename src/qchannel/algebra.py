"""Noise-commutant machinery: interaction algebras, commutants and
fixed-point sets, the unitality equivalence between them, block structure of
finite-dimensional †-closed operator algebras, noiseless-subsystem encoders,
and the dead-subspace test for singular images of the identity.

Operators are vectorized row-major throughout: an operator space is one
(d, N, N) basis array with a (d, N^2) row view, and membership and equality
project whole stacks in batched products.  One resolver finds the block
structure (+) I_m (x) M_n of the †-algebra generated by a list of matrices
from random elements of it (Murota, Kanno, Kojima & Kojima, Japan J. Indust.
Appl. Math. 27, 2010); the interaction algebra, the commutant, the Wedderburn
structure, the noiseless subsystems and the fixed-point set are all read off
it.  The fixed-point set costs one (n_k n_l)^2 null space per pair of
blocks, numerically, so Fix = commutant for a unital channel is checked block
by block: each ker(Phi_kk - id) is C I and each kernel with k != l is 0.
Emitted bases are certified orthonormal through their factors (W† W and the
block kernels' Gram matrices), not a d x d Gram matrix; they and the largest
block map refuse above linalg.MAX_SUPEROPERATOR_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

# bench/tracing.py wraps classify, null_space_basis and orthonormal_columns
# under this module, so all three stay bound here.
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
    STRUCTURAL_TOL,
    dagger,
    frob,
    is_identity,
    kron,
    null_space_basis,
    orthonormal_columns,  # noqa: F401
    require_finite,
    require_superoperator_size,
    spectral_support,
)


def _chunks(count: int, n: int) -> list[slice]:
    """Slices of at most 2^20 / N^2 matrices, so batched N x N work on a long
    list holds about 16 MiB per temporary."""
    step = max(1, 2**20 // (n * n))
    return [slice(start, start + step) for start in range(0, count, step)]


class OperatorSpace:
    """Subspace of N x N operators carried as a Hilbert-Schmidt-orthonormal
    basis: `basis` is one C-contiguous complex (d, N, N) array and `vecs` its
    (d, N^2) row view, one row-major vectorized element per row.  Membership
    projects a whole (k, N, N) stack in batches of `_chunks`.  The zero space
    is a (0, N, N) array; a list must hold at least one matrix, which fixes N.

    A caller's basis is checked through its d x d Gram matrix,
    ||V V† - I||_F <= STRUCTURAL_TOL * d.  The spaces this module emits from
    a block structure are certified through their factors instead
    (`_certify_factors`), which implies the same rule without forming the
    Gram matrix, and are built by `_certified`."""

    __slots__ = ("basis", "vecs", "ambient_dim")

    def __init__(self, basis: Sequence[np.ndarray] | np.ndarray):
        try:
            mats = np.ascontiguousarray(basis, dtype=complex)
        except ValueError:  # a ragged list
            mats = np.empty(0)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] == 0:
            raise DimensionMismatchError("a basis is a (d, N, N) array or one or more matrices of one square shape")
        self._hold(mats)
        if not is_identity(self.vecs.conj() @ self.vecs.T, STRUCTURAL_TOL):
            raise DimensionMismatchError("basis is not HS-orthonormal")

    @classmethod
    def _certified(cls, basis: np.ndarray) -> OperatorSpace:
        """Space of a C-contiguous complex (d, N, N) basis whose orthonormality
        `_certify_factors` has already established."""
        space = cls.__new__(cls)
        space._hold(basis)
        return space

    def _hold(self, mats: np.ndarray) -> None:
        self.basis = mats
        self.ambient_dim = int(mats.shape[1])
        self.vecs = mats.reshape(len(mats), self.ambient_dim**2)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residual(self, ops) -> float | np.ndarray:
        """Frobenius distance from the space of one operator, or of each of a (k, N, N) stack."""
        ops = np.asarray(ops, dtype=complex)
        n = self.ambient_dim
        stack = ops.reshape(-1, n, n)
        out = np.empty(len(stack))
        for part in _chunks(len(stack), n):
            x = stack[part].reshape(-1, n * n)
            # Coefficients <b_j, x> as conj(x^* . b_j), without a conjugated copy of the basis.
            out[part] = np.linalg.norm(x - (x.conj() @ self.vecs.T).conj() @ self.vecs, axis=1)
        return float(out[0]) if ops.ndim == 2 else out

    def contains(self, ops, tol: float = DEFAULT_TOL) -> bool | np.ndarray:
        """Membership within tol * max(1, ||X||_F), of one operator or of each of a stack."""
        ops = np.asarray(ops, dtype=complex)
        inside = self.residual(ops) <= tol * np.maximum(1.0, np.linalg.norm(ops, axis=(-2, -1)))
        return bool(inside) if ops.ndim == 2 else inside

    def __repr__(self) -> str:
        return f"OperatorSpace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def spaces_equal(a: OperatorSpace, b: OperatorSpace, tol: float = DEFAULT_TOL) -> bool:
    """Mutual-projection test; dimension agreement alone is not enough."""
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return bool(np.all(b.residual(a.basis) <= tol) and np.all(a.residual(b.basis) <= tol))


def _certify_factors(w: np.ndarray, dim: int, eta: float = 0.0) -> None:
    """Factor rule: raise DimensionMismatchError unless a dim-dimensional basis
    emitted as V = (W (x) conj W) T meets the Gram rule of `OperatorSpace`.

    T embeds the block kernels Y (the exact isometry of the pattern units
    I_m (x) E_ij / sqrt(m) for `_pattern_span`, eta = 0), so T† T is block
    diagonal with copies of each small Gram matrix Y† Y and
    eta = ||T† T - I||_F.  The Gram matrix is G = T† (P (x) conj P) T with
    P = W† W = I + E, eps = ||E||_F, and P (x) conj P - I =
    E (x) I + I (x) conj E + E (x) conj E, so with rho = min(N, dim)

        ||G - I||_F <= (1 + eta) (2 sqrt(rho) eps + eps^2) + eta

    (each linear term is at most ||T||_2 ||E||_2 ||T||_F and at most
    ||T||_2^2 sqrt(N) eps; for pattern spans this is 2 sqrt(N) eps + eps^2 or
    less).  The rule holds the bound to half of STRUCTURAL_TOL * dim, i.e.
    eps <= b / (sqrt(rho) + sqrt(rho + b)) with
    b = (STRUCTURAL_TOL * dim / 2 - eta) / (1 + eta); the other half is
    headroom for rounding in the emitted entries.  Passing it therefore
    implies ||V V† - I||_F <= STRUCTURAL_TOL * dim.  Costs one N x N product.
    """
    if dim == 0:
        return
    n = len(w)
    p = w.conj().T @ w
    p.flat[:: n + 1] -= 1.0
    eps = float(np.sqrt(np.vdot(p, p).real))
    rho = min(n, dim)
    budget = (STRUCTURAL_TOL * dim / 2 - eta) / (1 + eta)
    if not (budget >= 0 and eps <= budget / (np.sqrt(rho) + np.sqrt(rho + budget))):
        raise DimensionMismatchError(
            f"basis factors are not orthonormal within the factor rule (||W†W - I||_F = {eps:.3g}, kernels {eta:.3g})"
        )


def fixed_point_set(ch: KrausChannel, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """Operators X with Phi(X) = X, read off the certified block structure of
    the interaction algebra (Blume-Kohout, Ng, Poulin & Viola, Phys. Rev. A
    82, 062306, 2010).

    With W† E_i W = (+)_k I_{m_k} (x) e_i^(k), the channel acts on block
    (k, l) of W† X W as id (x) Phi_kl, Phi_kl(Y) = sum_i e_i^(k) Y e_i^(l)†, so
    Fix(Phi) = W ((+)_{k,l} M_{m_k x m_l} (x) ker(Phi_kl - id)) W†.  Each
    kernel is the null space of one (n_k n_l)^2 matrix on row-major
    vectorized Y, at tol with floor 1.  When no draw certifies a structure
    (`_resolve`), the one block m = 1, n = N with W = I is used, whose kernel
    is that of the whole N^2 x N^2 superoperator.  Raises SizeLimitError when
    the largest block map, or then the d N^2 basis, would exceed
    linalg.MAX_SUPEROPERATOR_BYTES.  The basis is certified through W† W and
    the small Gram matrix of each kernel (`_certify_factors`), not through
    its d x d Gram matrix.
    """
    n = ch.dim
    try:
        structure = _resolve(ch.operators, tol, 0)
    except StructureResolutionError:
        structure = AlgebraStructure([(1, n)], np.eye(n, dtype=complex), [0])
    return _fixed_points(ch, structure, tol)


def _fixed_points(ch: KrausChannel, structure: AlgebraStructure, tol: float) -> OperatorSpace:
    """`fixed_point_set` on a structure that certifies the interaction algebra
    of ch (or the one block M_N)."""
    n = ch.dim
    largest = max(n_block for _, n_block in structure.blocks)
    require_superoperator_size(16 * largest**4, f"{largest**2} x {largest**2} fixed-point block map at dimension {n}")
    # copies[k][:, alpha] is V_k,alpha: column alpha * n_k + i of block k holds its alpha-th copy.
    w = structure.basis_change
    copies = [
        w[:, off : off + m_block * n_block].reshape(n, m_block, n_block)
        for (m_block, n_block), off in zip(structure.blocks, structure.block_offsets)
    ]
    kraus = np.array(ch.operators)
    compressed = [dagger(v[:, 0]) @ kraus @ v[:, 0] for v in copies]
    kernels = []
    # The basis is (W (x) conj W) T, where T holds m_k m_l copies of each kernel Y_kl.
    eta_sq = 0.0
    for vk, ek in zip(copies, compressed):
        for vl, el in zip(copies, compressed):
            size = ek.shape[1] * el.shape[1]
            # Phi_kl[(a, c), (b, d)] = sum_i e_i^(k)[a, b] conj(e_i^(l)[c, d])
            phi = np.tensordot(ek, el.conj(), axes=(0, 0)).transpose(0, 2, 1, 3).reshape(size, size)
            phi.flat[:: size + 1] -= 1.0
            ys = null_space_basis(phi, tol, scale=1.0)
            if ys.shape[1]:
                gram = ys.conj().T @ ys
                gram.flat[:: len(gram) + 1] -= 1.0
                eta_sq += vk.shape[1] * vl.shape[1] * np.vdot(gram, gram).real
            kernels.append((vk, vl, ys.T.reshape(-1, ek.shape[1], el.shape[1])))
    dim = sum(vk.shape[1] * vl.shape[1] * len(ys) for vk, vl, ys in kernels)
    require_superoperator_size(16 * dim * n * n, f"{dim}-dimensional fixed-point basis at dimension {n}")
    _certify_factors(w, dim, float(np.sqrt(eta_sq)))
    basis = np.empty((dim, n, n), dtype=complex)
    start = 0
    for vk, vl, ys in kernels:
        left, right = vk.transpose(1, 0, 2), vl.transpose(1, 2, 0).conj()
        count = len(left) * len(right) * len(ys)
        # Element (alpha, beta, j) is V_k,alpha Y_j V_l,beta†.
        out = basis[start : start + count].reshape(len(left), len(right), len(ys), n, n)
        np.matmul((left[:, None] @ ys[None])[:, None], right[None, :, None], out=out)
        start += count
    return OperatorSpace._certified(basis)


class FixVsCommutant(NamedTuple):
    equal: bool
    unital: bool


def fix_equals_commutant(ch: KrausChannel, tol: float = DEFAULT_TOL) -> FixVsCommutant:
    """Compare the fixed-point set against the noise commutant; the two agree
    exactly for unital channels.  Both are read off one resolved structure
    of the interaction algebra (StructureResolutionError when no draw
    certifies): the commutant is W ((+) M_m (x) I_n) W† by the structure
    theorem, while each ker(Phi_kl - id) of `fixed_point_set` is a numerical
    null space, so the theorem is checked block by block (C I on k = l, 0 on
    k != l)."""
    if not ch.is_trace_preserving(tol):
        raise NotTracePreservingError("fixed-point comparison requires a trace-preserving channel")
    structure = _resolve(ch.operators, tol, 0)
    fix = _fixed_points(ch, structure, tol)
    comm = _commutant_span(structure)
    return FixVsCommutant(spaces_equal(fix, comm, tol), ch.is_unital(tol))


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


def _cluster_starts(vals: np.ndarray, gap: float) -> np.ndarray:
    """First indices of the groups of ascending eigenvalues, split where
    neighbours differ by more than gap."""
    return np.concatenate([[0], np.flatnonzero(np.diff(vals) > gap) + 1])


def _assemble(raw: list[tuple[int, int, np.ndarray]], w: np.ndarray) -> AlgebraStructure:
    """Structure from (m, n, column indices into w) blocks, sorted by (n, m)
    descending; the basis change is one gather of the columns of w."""
    order = sorted(range(len(raw)), key=lambda i: (-raw[i][1], -raw[i][0], i))
    blocks = [(raw[i][0], raw[i][1]) for i in order]
    offsets = list(accumulate((m * n for m, n in blocks[:-1]), initial=0))
    return AlgebraStructure(blocks, w[:, np.concatenate([raw[i][2] for i in order])], offsets)


def _draw_structure(gens: np.ndarray, cut: float, degree: int, rng: np.random.Generator) -> AlgebraStructure | None:
    """One random draw of the block structure of the unital †-algebra
    generated by the stack `gens`, or None when the draw is inconsistent.

    The eigenvalue clusters of a random Hermitian H in the algebra are its
    minimal projections, each m times.  H is the Hermitian part of the words
    R_0 ... R_t (t < degree, each scaled to unit norm, R_j random in
    span{G_i, G_i†}) plus sum r_i G_i† G_i + s_i G_i G_i†: anticommuting
    generators leave low-degree words with one spectrum on two blocks, and
    rank-deficient ones (|0><i|) leave short products degenerate in a block.
    K = R + R† joins two clusters when its block between them exceeds
    cut * ||K||_F.  Along a maximum-weight spanning tree of each component,
    a child cluster is aligned to its parent by the polar factor of
    M = K_{child, parent} A_parent (M sqrt(m) / ||M||_F when M is a multiple
    of a unitary, as within one block), so tree blocks of K become scalars.
    Since polar(K A) = polar(K) A for unitary A, the polar factors of all
    tree edges of a component come from one batched SVD; the aligned
    columns are one product W A with A block diagonal, gathered into blocks.
    """
    k, n = gens.shape[0], gens.shape[1]
    c = rng.standard_normal((2, degree + 1, k)) + 1j * rng.standard_normal((2, degree + 1, k))
    flat = gens.reshape(k, n * n)
    rand = (c[0] @ flat).reshape(-1, n, n)
    rand += (c[1] @ flat).reshape(-1, n, n).conj().transpose(0, 2, 1)
    r = rng.standard_normal((2, k))
    h = np.zeros((n, n), dtype=complex)
    word = np.eye(n)
    for factor in rand[:degree]:
        word = word @ factor
        size = frob(word)
        if size == 0:
            break
        h += (word + dagger(word)) / size
    for part in _chunks(k, n):
        g = gens[part]
        gt = g.conj().transpose(0, 2, 1)
        h += (r[0, part] @ (gt @ g).reshape(len(g), -1) + r[1, part] @ (g @ gt).reshape(len(g), -1)).reshape(n, n)
    vals, w = np.linalg.eigh(h)
    # Gaps relative to ||H||, not to the spread: a scalar H plus rounding
    # noise must stay one cluster.
    starts = _cluster_starts(vals, cut * float(np.max(np.abs(vals))))
    sizes = np.diff(np.append(starts, n))
    kw = dagger(w) @ (rand[degree] + dagger(rand[degree])) @ w
    weight = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(kw) ** 2, starts, axis=0), starts, axis=1))
    np.fill_diagonal(weight, 0.0)
    floor = cut * frob(kw)

    # Prim's algorithm over the clusters; a new component starts whenever no
    # open cluster has an edge above the floor.
    count = len(starts)
    parent = np.full(count, -1)
    best = np.zeros(count)
    done = np.zeros(count, dtype=bool)
    components: list[list[int]] = []
    for _ in range(count):
        open_best = np.where(done, -1.0, best)
        j = int(np.argmax(open_best))
        if open_best[j] <= floor:
            j = int(np.argmin(done))
            parent[j] = -1
            components.append([])
        done[j] = True
        components[-1].append(j)
        closer = ~done & (weight[j] > best)
        best[closer] = weight[j, closer]
        parent[closer] = j

    raw = []
    align = np.zeros((n, n), dtype=complex)  # block diagonal: A_j on the span of cluster j
    for comp in components:
        m = int(sizes[comp[0]])
        if any(sizes[j] != m for j in comp):
            return None
        rows = starts[comp][:, None] + np.arange(m)  # rows[t] indexes cluster comp[t]
        spans = [slice(starts[j], starts[j] + m) for j in comp]
        align[spans[0], spans[0]] = np.eye(m)
        if len(comp) > 1:
            # polar(K_jp A_p) = polar(K_jp) A_p for unitary A_p: one batched SVD
            # of the tree edges, composed in Prim order (parents come first).
            pos = {j: t for t, j in enumerate(comp)}
            up = [pos[parent[j]] for j in comp[1:]]
            u, _, vh = np.linalg.svd(kw[rows[1:, :, None], rows[up][:, None, :]])
            polars = u @ vh
            for t, p in enumerate(up, start=1):
                align[spans[t], spans[t]] = polars[t - 1] @ align[spans[p], spans[p]]
        # Column alpha * n + i holds the alpha-th aligned vector of cluster i.
        raw.append((m, len(comp), rows.T.ravel()))
    return _assemble(raw, w @ align)


def _resolve(generators: Sequence[np.ndarray], tol: float, seed: int) -> AlgebraStructure:
    """Block structure of the unital †-algebra generated by `generators`.

    Certificate: every generator, scaled to unit norm, fits the pattern
    (+) I_m (x) M_n within max(tol, DEFAULT_TOL) (`structure_residual`).  The
    generated algebra then lies inside the pattern, and it is all of it: the
    spectral projectors of H and the nonzero blocks of K between clusters
    are elements of the algebra that generate every I (x) E_ij.  A draw that
    fails the certificate is retried with the next seed and one more word
    degree, five draws in all.
    """
    gens = np.array(generators, dtype=complex)
    norms = np.linalg.norm(gens, axis=(1, 2))
    gens /= np.where(norms > 0, norms, 1.0)[:, None, None]
    cut = max(tol, DEFAULT_TOL)
    for attempt in range(5):
        structure = _draw_structure(gens, cut, attempt + 2, np.random.default_rng(seed + attempt))
        if structure is not None and _pattern_residual(gens, structure) <= cut:
            return structure
    raise StructureResolutionError("could not resolve block structure after 5 seeded retries")


def _commutant_structure(structure: AlgebraStructure) -> AlgebraStructure:
    """Structure of the commutant (+) M_m (x) I_n of (+) I_m (x) M_n: the same
    columns, re-indexed within each block so that it reads (+) I_n (x) M_m."""
    raw = []
    for (m_block, n_block), off in zip(structure.blocks, structure.block_offsets):
        # column i * m + alpha of the commutant's block is column alpha * n + i
        raw.append((n_block, m_block, off + (np.arange(m_block) * n_block + np.arange(n_block)[:, None]).ravel()))
    return _assemble(raw, structure.basis_change)


def _pattern_span(structure: AlgebraStructure, what: str) -> OperatorSpace:
    """HS-orthonormal basis W (I_m (x) E_ij) W† / sqrt(m) of the algebra with
    this structure.  Element (i, j) of a block is V_i V_j†, where the N x m
    matrix V_i holds the i-th column of each of the m copies; each block is
    one batched product.  Orthonormality is certified through the N x N
    product W† W (`_certify_factors`: ||G - I||_F <= 2 sqrt(N) eps + eps^2
    with eps = ||W† W - I||_F), not through the d x d Gram matrix G.  Raises
    SizeLimitError when the d N^2 basis would exceed
    linalg.MAX_SUPEROPERATOR_BYTES."""
    w = structure.basis_change
    n = w.shape[0]
    dim = sum(n_block * n_block for _, n_block in structure.blocks)
    require_superoperator_size(16 * dim * n * n, f"{dim}-dimensional {what} basis at dimension {n}")
    _certify_factors(w, dim)
    basis = np.empty((dim, n, n), dtype=complex)
    start = 0
    for (m_block, n_block), off in zip(structure.blocks, structure.block_offsets):
        # v[i] = V_i; m^(-1/4) on both factors gives the 1/sqrt(m) normalisation.
        v = w[:, off : off + m_block * n_block].reshape(n, m_block, n_block).transpose(2, 0, 1) / m_block**0.25
        out = basis[start : start + n_block**2].reshape(n_block, n_block, n, n)
        np.matmul(v[:, None], v.conj().transpose(0, 2, 1)[None], out=out)
        start += n_block**2
    return OperatorSpace._certified(basis)


def interaction_algebra(ch: KrausChannel, tol: float = DEFAULT_TOL) -> OperatorSpace:
    """†-closed unital algebra generated by the channel's Kraus operators,
    emitted as W (+) (I_m (x) M_n) W† from its certified block structure
    (`_resolve`; tol reaches its certificate).  Raises SizeLimitError when
    the d N^2 basis would exceed linalg.MAX_SUPEROPERATOR_BYTES, and
    StructureResolutionError when no draw certifies."""
    return _pattern_span(_resolve(ch.operators, tol, 0), "interaction algebra")


def commutant(generators: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> OperatorSpace:
    """Operators commuting with every generator and every adjoint.

    The commutant of the †-algebra (+) I_m (x) M_n generated by the
    generators is W (+) (M_m (x) I_n) W†, emitted directly from the certified
    block structure (`_resolve`; tol reaches its certificate).  Raises
    SizeLimitError when the d N^2 basis would exceed
    linalg.MAX_SUPEROPERATOR_BYTES, StructureResolutionError when no draw
    certifies, and InvalidParameterError on a non-finite generator.
    """
    mats = [require_finite(g, "generator") for g in generators]
    if not mats:
        raise DimensionMismatchError("need at least one generator")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise DimensionMismatchError("generators must share one square shape")
    return _commutant_span(_resolve(mats, tol, 0))


def _commutant_span(structure: AlgebraStructure) -> OperatorSpace:
    """Basis of the commutant of the algebra with this structure."""
    return _pattern_span(_commutant_structure(structure), "commutant")


def _require_algebra(space: OperatorSpace, tol: float) -> None:
    """Raise NotAnAlgebraError unless the identity, every adjoint and the
    product of two random unit-norm elements lie in the space."""
    n = space.ambient_dim
    check = max(tol, DEFAULT_TOL)
    if not space.contains(np.eye(n), check * n):
        raise NotAnAlgebraError("space does not contain the identity")
    if not np.all(space.contains(space.basis.conj().transpose(0, 2, 1), check)):
        raise NotAnAlgebraError("space is not adjoint-closed")
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((space.dim, 2)) + 1j * rng.standard_normal((space.dim, 2))).T @ space.vecs
    if not space.contains((a / np.linalg.norm(a)).reshape(n, n) @ (b / np.linalg.norm(b)).reshape(n, n), check):
        raise NotAnAlgebraError("space is not closed under products")


def wedderburn_structure(space: OperatorSpace, tol: float = DEFAULT_TOL, seed: int = 0) -> AlgebraStructure:
    """Resolve a †-closed unital operator algebra into ampliated full matrix
    blocks with a deterministic (seeded) basis change.

    The basis is resolved as a generator list (`_resolve`).  Certificate:
    every basis element fits the block pattern within max(tol, DEFAULT_TOL)
    and sum n^2 equals the dimension, so the span is the whole pattern
    algebra.  Blocks come out sorted by (n, m) descending.  When no draw
    certifies, the identity, the adjoints and one random product pick
    NotAnAlgebraError over StructureResolutionError.  No array beyond a few
    copies of the basis is formed.
    """
    try:
        structure = _resolve(space.basis, tol, seed)
    except StructureResolutionError:
        _require_algebra(space, tol)
        raise
    generated = sum(n_block * n_block for _, n_block in structure.blocks)
    if generated != space.dim:
        _require_algebra(space, tol)
        raise StructureResolutionError(f"the basis generates a {generated}-dimensional algebra, not {space.dim}")
    return structure


def _pattern_residual(mats: np.ndarray, structure: AlgebraStructure) -> float:
    """Fraction of the Frobenius mass of W† X W, over the X in the (k, N, N)
    stack `mats`, outside the block-ampliation pattern."""
    w = structure.basis_change
    total_sq = off_sq = 0.0
    for part in _chunks(len(mats), w.shape[0]):
        x = dagger(w) @ mats[part] @ w
        total_sq += float(np.vdot(x, x).real)
        for (m_block, n_block), off in zip(structure.blocks, structure.block_offsets):
            diag = [slice(off + a * n_block, off + (a + 1) * n_block) for a in range(m_block)]
            avg = sum(x[:, s, s] for s in diag) / m_block
            for s in diag:
                x[:, s, s] -= avg
        off_sq += float(np.vdot(x, x).real)
    return float(np.sqrt(off_sq / total_sq)) if total_sq > 0 else 0.0


def structure_residual(space: OperatorSpace, structure: AlgebraStructure) -> float:
    """Fraction of Frobenius mass of the conjugated basis falling outside the
    block-ampliation pattern."""
    return _pattern_residual(space.basis, structure)


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
    ampliation on the multiplicity factor).  The commutant's structure is
    read off the resolved interaction algebra; no basis is formed."""
    if not ch.is_trace_preserving(tol):
        raise NotTracePreservingError("noiseless subsystems are stated for channels")
    if not ch.is_unital(tol):
        raise NotUnitalError("noise-commutant protection requires a unital channel")
    structure = _commutant_structure(_resolve(ch.operators, tol, seed))
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
    a = sum(e @ dagger(e) for e in ch.operators)
    vals, vecs = np.linalg.eigh((a + dagger(a)) / 2.0)
    pos = spectral_support(vals, tol)
    if pos.all():
        return None
    vpos = vecs[:, pos]
    p = vpos @ dagger(vpos)
    hypothesis = all(frob(e - p @ e @ p) <= tol * (1.0 + frob(e)) for e in ch.operators)
    return DeadSubspaceResult(p, np.eye(ch.dim) - p, hypothesis)
