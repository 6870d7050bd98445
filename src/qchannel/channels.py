"""Completely positive maps in Kraus form.

Covers application to states, the Choi matrix and the extraction of Kraus
operators from it, CP/TP/unital classification, the unitary freedom between
Kraus lists for one map, and the catalogue of named example channels.

Choi convention: block (i, j) of the N^2 x N^2 matrix is the image of the
matrix unit e_ij, which makes the extraction loop auditable entry by entry.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    UnknownChannelError,
)
from .linalg import DEFAULT_TOL, complete_isometry, dagger, frob, hermitian_psd, is_hermitian, is_identity, is_unitary
from .linalg import kron, psd_floor, require_finite, require_superoperator_size, spectral_support
from .qcore import basis_state, embed_single, gate


class KrausChannel:
    """Ordered list of equal-shape noise operators defining rho -> sum E rho E†.

    Instances are treated as immutable values.  `is_trace_preserving(tol)`
    and `is_unital(tol)` apply the identity rule to sum E†E and sum E E†,
    formed on each call; `tp_residual` is ||sum E†E - I||_F and
    `trace_preserving` the first decision at the default tolerance.
    """

    __slots__ = ("operators", "dim")

    def __init__(self, operators: Sequence[np.ndarray]):
        ops = tuple(require_finite(np.asarray(e, dtype=complex), "Kraus operator") for e in operators)
        if not ops:
            raise InvalidParameterError("a channel needs at least one Kraus operator")
        n = ops[0].shape[0]
        if any(e.shape != (n, n) for e in ops):
            raise DimensionMismatchError("all Kraus operators must be square with one shape")
        self.operators = ops
        self.dim = int(n)

    @property
    def tp_residual(self) -> float:
        return frob(sum(dagger(e) @ e for e in self.operators) - np.eye(self.dim))

    @property
    def trace_preserving(self) -> bool:
        return self.is_trace_preserving(DEFAULT_TOL)

    def is_trace_preserving(self, tol: float = DEFAULT_TOL) -> bool:
        return is_identity(sum(dagger(e) @ e for e in self.operators), tol)

    def is_unital(self, tol: float = DEFAULT_TOL) -> bool:
        return is_identity(sum(e @ dagger(e) for e in self.operators), tol)

    def __call__(self, rho) -> np.ndarray:
        return apply_channel(self, rho)

    def __repr__(self) -> str:
        return f"KrausChannel(dim={self.dim}, operators={len(self.operators)}, tp={self.trace_preserving})"


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Evaluate sum_i E_i rho E_i†."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise DimensionMismatchError(f"state shape {rho.shape} does not match dim {ch.dim}")
    out = np.zeros_like(rho)
    for e in ch.operators:
        out += e @ rho @ dagger(e)
    return out


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """N^2 x N^2 Choi matrix with block (i, j) equal to the image of e_ij.

    Raises SizeLimitError above linalg.MAX_SUPEROPERATOR_BYTES."""
    require_superoperator_size(16 * ch.dim**4, f"Choi matrix at dimension {ch.dim}")
    cols = [e.T.reshape(-1) for e in ch.operators]
    r = np.zeros((ch.dim**2, ch.dim**2), dtype=complex)
    for c in cols:
        r += np.outer(c, c.conj())
    return r


def choi_block(choi: np.ndarray, i: int, j: int) -> np.ndarray:
    n = _choi_block_dim(choi)
    return choi[i * n : (i + 1) * n, j * n : (j + 1) * n]


def _choi_block_dim(choi: np.ndarray) -> int:
    n = math.isqrt(choi.shape[0])
    if n * n != choi.shape[0] or choi.shape[0] != choi.shape[1]:
        raise DimensionMismatchError("Choi matrix must be square with perfect-square size")
    return n


class Classification(NamedTuple):
    completely_positive: bool
    trace_preserving: bool
    unital: bool


def classify(ch_or_choi, tol: float = DEFAULT_TOL) -> Classification:
    """Decide complete positivity (Choi positivity), trace preservation, and
    unitality for a Kraus channel or a raw Choi matrix."""
    if isinstance(ch_or_choi, KrausChannel):
        choi = choi_matrix(ch_or_choi)
        tp, unital = ch_or_choi.is_trace_preserving(tol), ch_or_choi.is_unital(tol)
    else:
        choi = np.asarray(ch_or_choi, dtype=complex)
        n = _choi_block_dim(choi)
        # blocks[i, a, j, b] is entry (a, b) of block (i, j).  Tr of block
        # (i, j) is entry (j, i) of sum E† E; the diagonal blocks sum to the
        # image of the identity.
        blocks = choi.reshape(n, n, n, n)
        tp = is_identity(np.einsum("iaja->ji", blocks), tol)
        unital = is_identity(np.einsum("iaib->ab", blocks), tol)
    cp = is_hermitian(choi, tol) and psd_floor(np.linalg.eigvalsh((choi + dagger(choi)) / 2.0), tol)
    return Classification(bool(cp), bool(tp), bool(unital))


def kraus_from_choi(choi, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Extract Kraus operators from a PSD Choi matrix.

    Raises NotPSDError unless the matrix passes `hermitian_psd`.  Each
    eigenvector in the spectral support is scaled by the square root of its
    eigenvalue and unstacked column-block-wise into one operator, so the
    result reproduces the input Choi matrix and carries at most N^2
    operators.
    """
    choi = np.asarray(choi, dtype=complex)
    n = _choi_block_dim(choi)
    vals, vecs = hermitian_psd(choi, tol, "Choi matrix")
    support = spectral_support(vals, tol)
    ops = [(np.sqrt(lam) * v).reshape(n, n, order="F") for lam, v in zip(vals[support], vecs.T[support])]
    if not ops:
        ops = [np.zeros((n, n), dtype=complex)]
    return KrausChannel(ops)


def choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"channel dims {a.dim} and {b.dim} differ")
    return frob(choi_matrix(a) - choi_matrix(b))


def channels_equal(a: KrausChannel, b: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Equality of maps, decided on the Choi Frobenius distance."""
    return choi_distance(a, b) <= tol * a.dim


def kraus_intertwiner(a: KrausChannel, b: KrausChannel, tol: float = DEFAULT_TOL):
    """Scalar unitary U with a's operators equal to U-combinations of b's.

    Lists are zero-padded to a common length r.  The least-squares solution of
    the vectorized system is completed to a unitary when b's operators are
    linearly dependent (the solution set is then an affine family and the
    minimum-norm member is not unitary): `complete_isometry` of each side
    pairs their complements.  Returns None when the channels differ or
    verification fails.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"channel dims {a.dim} and {b.dim} differ")
    if not channels_equal(a, b, tol):
        return None
    r = max(len(a.operators), len(b.operators))
    n = a.dim
    zero = np.zeros((n, n), dtype=complex)
    ea = list(a.operators) + [zero] * (r - len(a.operators))
    eb = list(b.operators) + [zero] * (r - len(b.operators))
    ka = np.stack([e.reshape(-1) for e in ea])  # r x N^2
    kb = np.stack([e.reshape(-1) for e in eb])

    w, s, vh = np.linalg.svd(kb, full_matrices=False)
    rank = int(np.count_nonzero(spectral_support(s, tol)))
    ws = w[:, :rank]
    c = ka @ vh[:rank].conj().T / s[:rank]  # solves U @ ws = c
    if not is_identity(dagger(c) @ c, tol):
        return None
    u = c @ dagger(ws)
    if rank < r:
        u = u + complete_isometry(c) @ dagger(complete_isometry(ws))

    scale = max(1.0, max(frob(e) for e in ea))
    residual = max(frob(ea[i] - sum(u[i, j] * eb[j] for j in range(r))) for i in range(r))
    if residual > tol * scale or not is_identity(dagger(u) @ u, tol):
        return None
    return u


# ---------------------------------------------------------------------------
# Named example channels
# ---------------------------------------------------------------------------


def _check_prob(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"{name} must lie strictly between 0 and 1, got {p}")
    return p


def _check_weights(weights, count: int | None = None) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidParameterError("weights must be a non-empty 1-D list")
    if count is not None and w.size != count:
        raise InvalidParameterError(f"expected {count} weights, got {w.size}")
    if np.any(w <= 0) or abs(w.sum() - 1.0) > DEFAULT_TOL:
        raise InvalidParameterError("weights must be positive and sum to 1")
    return w


def bit_flip(p: float) -> KrausChannel:
    """Flip |0> and |1> with probability p."""
    p = _check_prob(p, "p")
    return KrausChannel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * gate("X")])


def phase_flip(p: float) -> KrausChannel:
    """Flip the relative phase (|+> to |->) with probability p."""
    p = _check_prob(p, "p")
    return KrausChannel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * gate("Z")])


def constant_half() -> KrausChannel:
    """Send every qubit density operator to the maximally mixed state.

    Kraus list: the halved identity together with the three spin-1/2 Pauli
    operators.
    """
    return KrausChannel([np.eye(2) / 2, gate("X") / 2, gate("Y") / 2, gate("Z") / 2])


def amplitude_damping(r: float) -> KrausChannel:
    """Energy-dissipation channel with decay probability r."""
    r = _check_prob(r, "r")
    e1 = np.array([[1, 0], [0, np.sqrt(1 - r)]], dtype=complex)
    e2 = np.array([[0, np.sqrt(r)], [0, 0]], dtype=complex)
    return KrausChannel([e1, e2])


def random_unitary_channel(weights, unitaries) -> KrausChannel:
    """Convex mixture of unitary conjugations: rho -> sum r_i U_i rho U_i†."""
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    w = _check_weights(weights, len(us))
    n = us[0].shape[0]
    for u in us:
        if u.shape != (n, n):
            raise DimensionMismatchError("unitaries must share one square shape")
        if not is_unitary(u):
            raise InvalidParameterError("random-unitary channel requires unitary inputs")
    return KrausChannel([np.sqrt(wi) * u for wi, u in zip(w, us)])


def entanglement_breaking(psis, phis) -> KrausChannel:
    """Channel rho -> sum_k |psi_k><psi_k| <phi_k|rho|phi_k|.

    The psi_k must be unit vectors; the map is trace preserving exactly when
    the phi_k resolve the identity, which is left to the caller and reflected
    in the channel's trace_preserving flag.
    """
    psis = [np.asarray(v, dtype=complex) for v in psis]
    phis = [np.asarray(v, dtype=complex) for v in phis]
    if len(psis) != len(phis) or not psis:
        raise InvalidParameterError("need matching non-empty lists of kets")
    for v in psis:
        if abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
            raise InvalidParameterError("output kets must be unit vectors")
    return KrausChannel([np.outer(p, q.conj()) for p, q in zip(psis, phis)])


def zz_dephasing(p: float) -> KrausChannel:
    """Two-qubit dephasing generated by Z tensor Z with probability p."""
    p = _check_prob(p, "p")
    zz = kron(gate("Z"), gate("Z"))
    return KrausChannel([np.sqrt(1 - p) * np.eye(4), np.sqrt(p) * zz])


def collective_spin(n: int, axis: str) -> np.ndarray:
    """Total spin-1/2 component J_axis = sum over qubits of sigma_axis."""
    if axis not in ("x", "y", "z"):
        raise InvalidParameterError(f"axis must be x, y, or z, got {axis!r}")
    sigma = gate(axis.upper()) / 2.0
    total = np.zeros((2**n, 2**n), dtype=complex)
    for m in range(1, n + 1):
        total += embed_single(sigma, m, n)
    return total


def collective_rotation(
    n: int,
    thetas: Sequence[float] = (1.0, 1.0, 1.0),
    weights: Sequence[float] | None = None,
) -> KrausChannel:
    """Random-unitary mixture of exp(i theta_k J_k) for k = x, y, z.

    The angle/weight parametrization is a constructor convention; defaults are
    one radian per axis with uniform weights.
    """
    if n < 1:
        raise InvalidParameterError("register size must be at least 1")
    thetas = [float(t) for t in thetas]
    if len(thetas) != 3:
        raise InvalidParameterError("need three rotation angles (x, y, z)")
    w = _check_weights(weights if weights is not None else [1 / 3] * 3, 3)
    us = []
    for theta, axis in zip(thetas, "xyz"):
        j = collective_spin(n, axis)
        vals, vecs = np.linalg.eigh(j)
        us.append((vecs * np.exp(1j * theta * vals)) @ dagger(vecs))
    return random_unitary_channel(w, us)


def permutation_unitary(perm: Sequence[int], d: int) -> np.ndarray:
    """Unitary permuting tensor factors: slot m of the output carries input
    factor perm[m] (0-based) on (C^d) to the n."""
    # Column idx of the identity, its rows split into n digits (slot 1 most
    # significant); output digit m is input digit perm[m].
    n = len(perm)
    eye = np.eye(d**n, dtype=complex).reshape((d,) * n + (d**n,))
    return eye.transpose(list(perm) + [n]).reshape(d**n, d**n)


def permutation_channel(d: int, n: int, weights: Sequence[float] | None = None) -> KrausChannel:
    """Random-unitary channel over the factor-permutation representation of
    the symmetric group on n letters acting on (C^d) to the n."""
    if d < 2 or n < 2:
        raise InvalidParameterError("need d >= 2 and n >= 2")
    perms = list(itertools.permutations(range(n)))
    w = _check_weights(weights if weights is not None else [1 / len(perms)] * len(perms), len(perms))
    return random_unitary_channel(w, [permutation_unitary(p, d) for p in perms])


def dead_row(d: int) -> KrausChannel:
    """Trace-preserving map with operators |0><i|; the identity evolves to
    d |0><0|, so the image of the identity is singular."""
    if d < 2:
        raise InvalidParameterError("dimension must be at least 2")
    e0 = basis_state(0, d)
    return KrausChannel([np.outer(e0, basis_state(i, d).conj()) for i in range(d)])


BUILTIN_CHANNELS = {
    "bit_flip": bit_flip,
    "constant_half": constant_half,
    "amplitude_damping": amplitude_damping,
    "random_unitary": random_unitary_channel,
    "entanglement_breaking": entanglement_breaking,
    "phase_flip": phase_flip,
    "zz_dephasing": zz_dephasing,
    "collective_rotation": collective_rotation,
    "permutation": permutation_channel,
    "dead_row": dead_row,
}


def builtin_channel(name: str, **params) -> KrausChannel:
    """Construct a catalogue channel by name."""
    try:
        ctor = BUILTIN_CHANNELS[name]
    except KeyError:
        raise UnknownChannelError(
            f"unknown builtin channel {name!r}; known: {', '.join(sorted(BUILTIN_CHANNELS))}"
        ) from None
    try:
        return ctor(**params)
    except (TypeError, ValueError) as exc:  # a missing, extra or non-numeric parameter
        raise InvalidParameterError(f"bad parameters for {name}: {exc}") from None
