import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qchannel import linalg
from qchannel.errors import InvalidParameterError, NotHermitianError, NotPSDError, ShapeMismatchError
from qchannel.linalg import (
    complete_isometry,
    dagger,
    frob,
    haar_random_unitary,
    hermitian_eigen,
    hermitian_psd,
    hs_inner,
    is_hermitian,
    is_identity,
    kron,
    null_space_basis,
    orthonormal_columns,
    polar,
    psd_floor,
    require_finite,
    spectral_support,
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


@pytest.mark.parametrize("bad", [complex(1.0, np.nan), complex(np.inf, 0.0), complex(-np.inf, 2.0)])
def test_require_finite_sees_either_part(bad):
    a = np.eye(3, dtype=complex)
    assert require_finite(a) is a
    a[1, 2] = bad
    with pytest.raises(InvalidParameterError, match="non-finite"):
        require_finite(a, "probe")


class TestTolerancePolicy:
    """Each shared rule just inside (factor 0.9) and just outside (1.1) its
    threshold."""

    TOL = 1e-9

    def test_identity_rule(self):
        bump = np.zeros((4, 4), dtype=complex)
        bump[0, 1] = 1.0
        assert is_identity(np.eye(4) + 0.9 * self.TOL * 4 * bump, self.TOL)
        assert not is_identity(np.eye(4) + 1.1 * self.TOL * 4 * bump, self.TOL)

    def test_identity_rule_holds_one_copy(self):
        x = np.eye(512, dtype=complex)
        tracemalloc.start()
        try:
            assert is_identity(x, self.TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.nbytes

    @pytest.mark.parametrize(("factor", "hermitian"), [(0.9, True), (1.1, False)])
    def test_hermitian_rule(self, factor, hermitian):
        h = np.diag([3.0, 1.0, 0.5]).astype(complex)
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 2], skew[2, 0] = 1.0, -1.0  # ||skew - skew†||_F = 2 sqrt(2)
        x = h + skew * factor * self.TOL * (1.0 + frob(h)) / (2.0 * np.sqrt(2.0))
        assert is_hermitian(x, self.TOL) is hermitian

    @pytest.mark.parametrize("top", [0.5, 5.0])
    def test_psd_floor(self, top):
        scale = max(1.0, top)
        assert psd_floor(np.array([-0.9 * self.TOL * scale, top]), self.TOL)
        assert not psd_floor(np.array([-1.1 * self.TOL * scale, top]), self.TOL)
        assert psd_floor(np.array([]), self.TOL)

    def test_spectral_support(self):
        vals = np.array([0.9 * self.TOL * 4.0, 1.1 * self.TOL * 4.0, 4.0])
        assert spectral_support(vals, self.TOL).tolist() == [False, True, True]
        # The floor lifts the threshold above tol * lambda_max.
        small = np.array([0.9 * self.TOL, 1.1 * self.TOL, 0.5])
        assert spectral_support(small, self.TOL, 1.0).tolist() == [False, True, True]
        assert spectral_support(small, self.TOL).tolist() == [True, True, True]
        assert not spectral_support(np.array([-1.0, 0.0]), self.TOL).any()

    def test_hermitian_psd_raises_on_either_rule(self):
        vals, _ = hermitian_psd(np.diag([-0.9 * self.TOL, 1.0]), self.TOL)
        assert vals[0] < 0
        with pytest.raises(NotPSDError, match="negative eigenvalue"):
            hermitian_psd(np.diag([-1.1 * self.TOL, 1.0]), self.TOL)
        with pytest.raises(NotPSDError, match="not Hermitian"):
            hermitian_psd(np.array([[0.0, 1.0], [0.0, 0.0]]), self.TOL)


def _module_constant_nodes(tree: ast.Module) -> set[int]:
    return {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None
        for node in ast.walk(stmt.value)
    }


def test_tolerance_literals_live_in_linalg_constants():
    """Numbers in (0, 1e-6] are tolerances; the only ones in the package are
    the values of linalg's module-level constants (DEFAULT_TOL,
    STRUCTURAL_TOL)."""
    package = Path(linalg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _module_constant_nodes(tree) if path.name == "linalg.py" else set()
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) in (int, float)
            and 0 < node.value <= 1e-6
            and id(node) not in allowed
        ]
    assert found == []


def _unused_imports(source: str, name: str) -> list[str]:
    """Names a module imports and never reads, skipping `from __future__`
    and import lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{name}:{alias.lineno} {bound}")
    return unused


def test_package_imports_are_used():
    """Every name a module of the package imports is read in that module,
    unless its import line says `# noqa: F401`; `__init__.py` re-exports."""
    package = Path(linalg.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            found += _unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []
    assert _unused_imports("import numpy as np\nfrom .linalg import dagger, frob\nfrob(np.eye(2))\n", "m.py") == [
        "m.py:2 dagger"
    ]
