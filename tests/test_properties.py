"""Property tests for the completion kernels and Knill-Laflamme recovery.

Hypothesis draws the structure (sizes, ranks, error sets, qubit order) and a
seed; numpy draws the numerical content from that seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qchannel.channels import KrausChannel, permutation_unitary
from qchannel.linalg import complete_isometry, dagger, frob, haar_random_unitary, kron_chain, polar
from qchannel.qcore import gate
from qchannel.qec import QuantumCode, _sorted_eigh, build_recovery, correctability, verify_recovery

PAULIS = [np.eye(2, dtype=complex), gate("X"), gate("Y"), gate("Z")]
SEEDS = st.integers(0, 2**32 - 1)


def _unitary_error(u) -> float:
    return frob(dagger(u) @ u - np.eye(u.shape[1]))


@st.composite
def isometries(draw):
    """n x k isometries, 1 <= n <= 16, 0 <= k <= n: Haar columns or permuted
    standard basis columns (sparse inputs with exact zeros)."""
    n = draw(st.integers(1, 16))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        return haar_random_unitary(n, rng)[:, :k]
    return np.eye(n, dtype=complex)[:, rng.permutation(n)[:k]]


@settings(deadline=None)
@given(isometries())
def test_complete_isometry_gives_unitary(v):
    w = complete_isometry(v)
    assert w.shape == (v.shape[0], v.shape[0] - v.shape[1])
    assert _unitary_error(np.hstack([v, w])) <= 1e-12


@settings(deadline=None)
@given(st.integers(1, 12), st.data())
def test_polar_rank_deficient(n, data):
    rank = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(SEEDS))
    left = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    right = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    a = left @ right
    u, p = polar(a)
    assert frob(a - u @ p) <= 1e-10 * (1.0 + frob(a))
    assert _unitary_error(u) <= 1e-10
    assert frob(p - dagger(p)) <= 1e-12 * (1.0 + frob(p))


@st.composite
def correctable_instances(draw):
    """Codes |psi> (x) range(W) on `anc` ancilla and `data` data qubits, in a
    random qubit order, with Pauli errors acting on the ancillas only.

    Every E_i† E_j then compresses to <psi|P_i P_j|psi> times the identity,
    so the Knill-Laflamme condition holds with a generic, often singular,
    scalar matrix."""
    anc = draw(st.integers(1, 2))
    data = draw(st.integers(0, 4 - anc))
    k = draw(st.integers(1, 2**data))
    labels = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * anc), min_size=1, max_size=5, unique=True)
    )
    perm = draw(st.permutations(range(anc + data)))
    rng = np.random.default_rng(draw(SEEDS))
    psi = rng.standard_normal(2**anc) + 1j * rng.standard_normal(2**anc)
    psi /= np.linalg.norm(psi)
    w = haar_random_unitary(2**data, rng)[:, :k]
    reorder = permutation_unitary(perm, 2)
    v = reorder @ np.kron(psi[:, None], w)
    data_eye = np.eye(2**data, dtype=complex)
    errors = [reorder @ kron_chain([PAULIS[i] for i in label] + [data_eye]) @ dagger(reorder) for label in labels]
    return QuantumCode(v), errors, rng.dirichlet(np.ones(len(errors)))


@settings(deadline=None)
@given(correctable_instances())
def test_knill_laflamme_implies_recovery(instance):
    code, errors, probs = instance
    result = correctability(code, errors)
    assert result.correctable
    lam = result.lambda_matrix
    rec = build_recovery(code, errors, lam)
    v = code.isometry
    dvals, u = _sorted_eigh((lam + dagger(lam)) / 2.0)
    kept = [idx for idx in range(dvals.size) if dvals[idx] > 1e-9 * max(1.0, dvals[-1])]
    assert len(rec.unitaries) == len(kept)
    for uk, pk, idx in zip(rec.unitaries, rec.projectors, kept):
        syndrome = sum(u[i, idx] * errors[i] for i in range(len(errors))) @ v / np.sqrt(dvals[idx])
        assert _unitary_error(uk) <= 1e-10
        assert frob(uk @ v - syndrome) <= 1e-9
        assert frob(pk - syndrome @ dagger(syndrome)) <= 1e-9
    noisy = KrausChannel([np.sqrt(p) * e for p, e in zip(probs, errors)])
    assert verify_recovery(noisy, rec, code) <= 1e-9
