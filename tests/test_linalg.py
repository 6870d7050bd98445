import tracemalloc

import numpy as np
import pytest

from qchannel.errors import NotHermitianError, ShapeMismatchError
from qchannel.linalg import (
    complete_isometry,
    dagger,
    frob,
    haar_random_unitary,
    hermitian_eigen,
    hs_inner,
    kron,
    null_space_basis,
    orthonormal_columns,
    polar,
)
from qchannel.qcore import gate


def random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_xx_maps_zero_to_three(self):
        xx = kron(gate("X"), gate("X"))
        assert xx[3, 0] == 1.0
        assert np.count_nonzero(xx[:, 0]) == 1

    def test_zz_diagonal(self):
        assert np.allclose(kron(gate("Z"), gate("Z")), np.diag([1, -1, -1, 1]))

    def test_bilinear_associative_mixed(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b, c, d = (random_matrix(2, rng) for _ in range(4))
            assert frob(kron(a + b, c) - kron(a, c) - kron(b, c)) <= 1e-12
            assert frob(kron(kron(a, b), c) - kron(a, kron(b, c))) <= 1e-12
            assert frob(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)) <= 1e-12


class TestHermitianEigen:
    def test_z_gate(self):
        vals, vecs = hermitian_eigen(gate("Z"))
        assert np.allclose(vals, [-1, 1])
        assert abs(abs(vecs[1, 0]) - 1) <= 1e-12  # |1> for eigenvalue -1
        assert abs(abs(vecs[0, 1]) - 1) <= 1e-12  # |0> for eigenvalue +1

    def test_hadamard_spectrum(self):
        vals, _ = hermitian_eigen(gate("H"))
        assert np.allclose(vals, [-1, 1])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        a = random_matrix(8, rng)
        h = a + dagger(a)
        vals, vecs = hermitian_eigen(h)
        assert frob((vecs * vals) @ dagger(vecs) - h) <= 1e-10 * (1 + frob(h))
        assert frob(dagger(vecs) @ vecs - np.eye(8)) <= 1e-10

    def test_psd_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(2)
        a = random_matrix(6, rng)
        g = a @ dagger(a)
        vals, _ = hermitian_eigen(g)
        assert vals[0] >= -1e-10 * vals[-1]

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPolar:
    def test_unitary_input(self):
        u = gate("H")
        w, p = polar(u)
        assert frob(w - u) <= 1e-12
        assert frob(p - np.eye(2)) <= 1e-12

    def test_positive_diagonal(self):
        u, p = polar(np.diag([2.0, 3.0]).astype(complex))
        assert frob(u - np.eye(2)) <= 1e-12
        assert np.allclose(p, np.diag([2, 3]))

    def test_random_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_matrix(7, rng)
            u, p = polar(a)
            assert frob(a - u @ p) <= 1e-10 * (1 + frob(a))
            assert frob(dagger(u) @ u - np.eye(7)) <= 1e-10
            assert np.linalg.eigvalsh((p + dagger(p)) / 2)[0] >= -1e-10

    def test_singular_completion(self):
        a = np.zeros((4, 4), dtype=complex)
        a[:, 0] = 0.5
        u, p = polar(a)
        assert frob(a - u @ p) <= 1e-12
        assert frob(dagger(u) @ u - np.eye(4)) <= 1e-12

    def test_repetition_code_x1_case(self):
        # polar of X1 P restricted to the code acts exactly as X1
        from qchannel.qcore import embed_single
        from qchannel.qec import builtin_code

        code = builtin_code("repetition3")
        x1 = embed_single(gate("X"), 1, 3)
        u, _ = polar(0.7 * x1 @ code.projection)
        assert frob(u @ code.isometry - x1 @ code.isometry) <= 1e-10


class TestNullSpace:
    def test_zero_matrix(self):
        ns = null_space_basis(np.zeros((4, 4)))
        assert ns.shape == (4, 4)
        assert frob(dagger(ns) @ ns - np.eye(4)) <= 1e-12

    def test_identity(self):
        assert null_space_basis(np.eye(3)).shape == (3, 0)

    def test_commutation_with_x(self):
        # operators commuting with X: kernel of the stacked commutator map is
        # exactly span{vec(I), vec(X)}
        x = gate("X")
        eye = np.eye(2)
        system = np.vstack([kron(x, eye) - kron(eye, x.T), kron(x, eye) - kron(eye, x.T)])
        ns = null_space_basis(system)
        assert ns.shape[1] == 2
        for target in (eye, x):
            v = target.reshape(-1)
            assert np.linalg.norm(v - ns @ (dagger(ns) @ v)) <= 1e-10

    def test_rank_and_annihilation(self):
        rng = np.random.default_rng(4)
        left = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        right = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        a = left @ right  # rank 3 almost surely
        ns = null_space_basis(a)
        assert ns.shape[1] == 6 - 3
        assert frob(a @ ns) <= 1e-9 * frob(a)
        assert frob(dagger(ns) @ ns - np.eye(ns.shape[1])) <= 1e-10

    def test_tall_stack_skips_left_factor(self):
        # a full-matrices SVD would allocate a 4000 x 4000 complex U (256 MB)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4000, 8)) + 1j * rng.standard_normal((4000, 8))
        a[:, 7] = a[:, 0] + a[:, 1]
        tracemalloc.start()
        try:
            ns = null_space_basis(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert ns.shape == (8, 1)
        assert frob(a @ ns) <= 1e-9 * frob(a)


class TestHSInner:
    def test_values(self):
        assert hs_inner(gate("X"), gate("X")) == pytest.approx(2)
        assert hs_inner(gate("X"), gate("Z")) == pytest.approx(0)
        assert hs_inner(np.eye(4), np.eye(4)) == pytest.approx(4)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = random_matrix(3, rng), random_matrix(3, rng)
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            hs_inner(np.eye(2), np.eye(3))


def test_orthonormal_columns_preserves_order():
    rng = np.random.default_rng(6)
    v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cols, kept = orthonormal_columns([v1, v2, v1 + v2])
    assert kept == [0, 1]
    assert np.linalg.norm(cols[:, 0] - v1 / np.linalg.norm(v1)) <= 1e-12


def test_complete_isometry():
    rng = np.random.default_rng(7)
    u = haar_random_unitary(6, rng)
    v = u[:, :2]
    w = complete_isometry(v)
    full = np.hstack([v, w])
    assert frob(dagger(full) @ full - np.eye(6)) <= 1e-10
