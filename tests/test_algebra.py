import math
import tracemalloc

import numpy as np
import pytest

from qchannel import algebra
from qchannel.algebra import (
    OperatorSpace,
    commutant,
    dead_subspace,
    fix_equals_commutant,
    fixed_point_set,
    interaction_algebra,
    noiseless_subsystems,
    spaces_equal,
    structure_residual,
    wedderburn_structure,
)
from qchannel.channels import (
    KrausChannel,
    choi_matrix,
    classify,
    amplitude_damping,
    apply_channel,
    bit_flip,
    collective_rotation,
    constant_half,
    dead_row,
    permutation_channel,
    phase_flip,
    random_unitary_channel,
    zz_dephasing,
)
from qchannel.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotAnAlgebraError,
    NotTracePreservingError,
    NotUnitalError,
    SizeLimitError,
    StructureResolutionError,
)
from qchannel.linalg import dagger, frob, haar_random_unitary, kron, kron_chain, require_superoperator_size
from qchannel.qcore import basis_state, gate, pure_density, random_density
from test_properties import _reference_fixed_points

E00 = np.array([[1, 0], [0, 0]], dtype=complex)


def unital_instances(seed=21):
    rng = np.random.default_rng(seed)
    return [
        ("bit_flip", bit_flip(0.3)),
        ("phase_flip", phase_flip(0.25)),
        ("constant_half", constant_half()),
        ("zz_dephasing", zz_dephasing(0.25)),
        (
            "random_unitary",
            random_unitary_channel([0.5, 0.5], [haar_random_unitary(4, rng) for _ in range(2)]),
        ),
        ("collective_rotation", collective_rotation(3)),
        ("permutation", permutation_channel(2, 3)),
    ]


class TestInteractionAlgebra:
    def test_phase_flip_diagonals(self):
        space = interaction_algebra(phase_flip(0.25))
        assert space.dim == 2
        assert space.contains(np.diag([2.0, -1.0]))
        assert not space.contains(gate("X"))

    def test_amplitude_damping_full(self):
        assert interaction_algebra(amplitude_damping(0.5)).dim == 4

    def test_identity_channel(self):
        assert interaction_algebra(KrausChannel([np.eye(3)])).dim == 1

    def test_rank_one_generators(self):
        # the |0><i| generate M_5, yet every sum c_i |0><i| + h.c. has rank 2
        ch = dead_row(5)
        assert interaction_algebra(ch).dim == 25
        assert commutant(ch.operators).dim == 1

    def test_tolerance_reaches_certificate(self):
        # Kraus operators perturbed by 1e-8 noise: the rotation algebra
        # M_4 (+) I_2 (x) M_2 certifies at tol 1e-6; at 1e-9 only M_8 does.
        ops = np.stack(collective_rotation(3).operators)
        rng = np.random.default_rng(1)
        noisy = KrausChannel(ops + 1e-8 * (rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)))
        assert interaction_algebra(noisy, 1e-6).dim == 20
        assert interaction_algebra(noisy).dim == 64

    def test_closure_properties(self):
        for name, ch in unital_instances():
            space = interaction_algebra(ch)
            assert space.contains(np.eye(ch.dim)), name
            rng = np.random.default_rng(1)
            for _ in range(5):
                i, j = rng.integers(0, space.dim, 2)
                assert space.residual(space.basis[i] @ space.basis[j]) <= 1e-8, name


class TestCommutant:
    def test_phase_flip_generators(self):
        space = commutant([np.eye(2), gate("Z")])
        assert space.dim == 2
        assert space.contains(np.diag([1.0, 0.0]))

    def test_zz_block_pattern(self):
        space = commutant([np.eye(4), kron(gate("Z"), gate("Z"))])
        assert space.dim == 8
        pattern = np.zeros((4, 4), dtype=complex)
        pattern[0, 0], pattern[0, 3], pattern[3, 0], pattern[3, 3] = 1, 2, 3, 4
        pattern[1, 1], pattern[1, 2], pattern[2, 1], pattern[2, 2] = 5, 6, 7, 8
        assert space.contains(pattern, 1e-8)
        off_pattern = np.zeros((4, 4), dtype=complex)
        off_pattern[0, 1] = 1
        assert not space.contains(off_pattern, 1e-8)

    def test_identity_generator_gives_everything(self):
        assert commutant([np.eye(3)]).dim == 9

    def test_anticommuting_generators(self):
        # five anticommuting Paulis generate M_4 (+) M_4, whose two blocks
        # no Hermitian sum of words of degree <= 2 tells apart
        paulis = {"I": np.eye(2), "X": gate("X"), "Y": gate("Y"), "Z": gate("Z")}
        gens = [kron_chain([paulis[c] for c in s]) for s in ("XII", "YII", "ZXI", "ZYI", "ZZZ")]
        assert commutant(gens).dim == 2
        assert interaction_algebra(KrausChannel(gens)).dim == 32

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generators_refused(self, bad):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            commutant([np.array([[bad, 0], [0, 1]])])
        with pytest.raises(InvalidParameterError, match="non-finite"):
            commutant([np.eye(2), np.array([[1, 0], [0, 1j * bad]])])

    def test_output_commutes(self):
        for name, ch in unital_instances():
            space = commutant(ch.operators)
            for b in space.basis:
                for g in ch.operators:
                    assert frob(b @ g - g @ b) <= 1e-8, name
                    assert frob(b @ dagger(g) - dagger(g) @ b) <= 1e-8, name


class TestFixedPoints:
    def test_identity_channel(self):
        assert fixed_point_set(KrausChannel([np.eye(2)])).dim == 4

    def test_bit_flip_span(self):
        space = fixed_point_set(bit_flip(0.3))
        assert space.dim == 2
        assert space.contains(np.eye(2))
        assert space.contains(gate("X"))

    def test_amplitude_damping_ground_state(self):
        space = fixed_point_set(amplitude_damping(0.5))
        assert space.dim == 1
        assert space.residual(E00) <= 1e-9

    def test_unital_commutant_is_fixed(self):
        for name, ch in unital_instances():
            reference = _reference_fixed_points(ch)
            assert np.all(reference.residual(commutant(ch.operators).basis) <= 1e-8), name

    @pytest.mark.parametrize("noise, tol", [(1e-7, 1e-6), (1e-10, 1e-9)])
    def test_unresolved_channels_use_one_block(self, noise, tol):
        # Noise about tol / 10 leaves no certified structure (the commutant
        # refuses); Fix is then the kernel of the whole superoperator.
        for ch, dim in ((collective_rotation(3), 5), (permutation_channel(2, 3), 20)):
            rng = np.random.default_rng(1)
            noisy = KrausChannel(
                [e + noise * (rng.standard_normal(e.shape) + 1j * rng.standard_normal(e.shape)) for e in ch.operators]
            )
            with pytest.raises(StructureResolutionError):
                commutant(noisy.operators, tol)
            space = fixed_point_set(noisy, tol)
            assert space.dim == dim
            assert spaces_equal(space, _reference_fixed_points(noisy, tol), 1e-8)


class TestOneArrayLayout:
    """An operator space is one complex (d, N, N) array with a row view."""

    def test_zero_space_is_a_zero_length_array(self):
        zero = OperatorSpace(np.zeros((0, 3, 3)))
        assert (zero.dim, zero.ambient_dim, zero.vecs.shape) == (0, 3, (0, 9))
        assert zero.residual(np.eye(3)) == pytest.approx(math.sqrt(3))
        assert not zero.contains(np.eye(3)) and zero.contains(np.zeros((3, 3)))
        assert spaces_equal(zero, OperatorSpace(np.zeros((0, 3, 3))))
        assert not spaces_equal(zero, OperatorSpace([np.eye(3) / math.sqrt(3)]))
        with pytest.raises(NotAnAlgebraError):
            wedderburn_structure(zero)
        for bad in ([], np.zeros((0,)), np.zeros((2, 0, 0)), np.zeros((0, 2, 3))):
            with pytest.raises(DimensionMismatchError):
                OperatorSpace(bad)

    def test_caller_bases_keep_the_gram_check(self):
        with pytest.raises(DimensionMismatchError, match="HS-orthonormal"):
            OperatorSpace([np.eye(2), gate("X")])  # orthogonal, norm sqrt(2) each
        with pytest.raises(DimensionMismatchError, match="HS-orthonormal"):
            OperatorSpace([E00, (E00 + np.diag([0.0, 1.0])) / math.sqrt(2)])  # unit norm, not orthogonal
        with pytest.raises(DimensionMismatchError, match="HS-orthonormal"):
            OperatorSpace([np.array([[np.nan, 0], [0, 0]])])
        assert OperatorSpace([E00, np.diag([0.0, 1.0])]).dim == 2

    def test_fixed_points_refuse_a_non_unitary_basis_change(self):
        # At tol 1e-6 the kernels still see the maps of W (1 + 1e-8) as fixing,
        # while ||W†W - I||_F = 5.7e-8 is far past the factor threshold.
        ch = collective_rotation(3)
        structure = algebra._resolve(ch.operators, 1e-6, 0)
        assert algebra._fixed_points(ch, structure, 1e-6).dim == 5
        structure.basis_change = structure.basis_change * (1 + 1e-8)
        with pytest.raises(DimensionMismatchError, match="factor rule"):
            algebra._fixed_points(ch, structure, 1e-6)

    def test_fixed_points_of_a_strict_contraction(self):
        # Phi(X) = X / 4 fixes only 0.
        space = fixed_point_set(KrausChannel([np.eye(2) / 2]))
        assert space.dim == 0 and space.basis.shape == (0, 2, 2)

    def test_basis_is_one_array_and_vecs_a_view(self):
        spaces = {
            "commutant": commutant(collective_rotation(3).operators),
            "interaction_algebra": interaction_algebra(collective_rotation(3)),
            "fix": fixed_point_set(bit_flip(0.3)),
            "list": OperatorSpace([E00, np.diag([0.0, 1.0])]),
        }
        for name, space in spaces.items():
            n = space.ambient_dim
            assert isinstance(space.basis, np.ndarray), name
            assert space.basis.dtype == complex and space.basis.shape == (space.dim, n, n), name
            assert space.basis.flags.c_contiguous, name
            assert space.vecs.shape == (space.dim, n * n), name
            assert np.shares_memory(space.vecs, space.basis), name

    def test_batched_residual_matches_each_element(self):
        # N = 64 gives 256 operators per chunk, so 300 operators span two.
        n, d, k = 64, 5, 300
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((n * n, d)) + 1j * rng.standard_normal((n * n, d)))
        space = OperatorSpace(q.T.reshape(d, n, n))
        stack = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        stack[::7] = np.tensordot(rng.standard_normal((len(stack[::7]), d)), space.basis, axes=1)
        batched = space.residual(stack)
        coeffs = np.einsum("jab,kab->kj", space.basis.conj(), stack)
        reference = np.linalg.norm(stack - np.tensordot(coeffs, space.basis, axes=1), axis=(1, 2))
        assert batched.shape == (k,)
        assert np.max(np.abs(batched - reference)) <= 1e-12 * max(1.0, np.max(reference))
        assert all(space.residual(x) == pytest.approx(r, abs=1e-12 * max(1.0, r)) for x, r in zip(stack[:3], batched))
        inside = space.contains(stack)
        assert inside.shape == (k,) and inside[::7].all() and not inside[1::7].any()
        assert space.contains(stack[0]) is True

    def test_commutant_peak_memory(self):
        # The basis is certified through W†W, so no d x d Gram matrix is
        # formed and the peak is about the basis itself;
        # test_emitted_bases_peak_near_their_size holds it to 1.5x.
        tracemalloc.start()
        try:
            space = commutant([np.eye(24)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.dim == 576
        assert peak <= 4 * space.basis.nbytes

    def test_emitted_bases_peak_near_their_size(self):
        # d = N^2 = 576: the commutant of the identity, and the interaction
        # algebra M_24 of two Haar unitaries.  Only the basis is d N^2 in size.
        rng = np.random.default_rng(3)
        u, v = haar_random_unitary(24, rng), haar_random_unitary(24, rng)
        builds = {
            "commutant": lambda: commutant([np.eye(24)]),
            "interaction_algebra": lambda: interaction_algebra(KrausChannel([u / math.sqrt(2), v / math.sqrt(2)])),
        }
        for name, build in builds.items():
            tracemalloc.start()
            try:
                space = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert space.dim == 576, name
            assert peak <= 1.5 * space.basis.nbytes, name

    def test_fixed_points_in_block_coordinates(self):
        # N = 64: the superoperator alone would be 256 MiB; the block maps
        # are at most 49 x 49.
        ch = collective_rotation(6)
        tracemalloc.start()
        try:
            space = fixed_point_set(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.dim == 132
        assert peak <= 4 * space.basis.nbytes


class TestSizeGuard:
    def test_superoperators_refused_before_allocating(self):
        ch = KrausChannel([np.eye(128)])
        tracemalloc.start()
        try:
            for build in (choi_matrix, classify, fixed_point_set, fix_equals_commutant):
                with pytest.raises(SizeLimitError):
                    build(ch)
            # a scalar generator leaves all N^2 entries unknown
            with pytest.raises(SizeLimitError):
                commutant(ch.operators)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_generic_fixed_points_refused_at_the_block_map(self):
        # A generic channel generates all of M_65: one 65^2 x 65^2 block map.
        n = 65
        rng = np.random.default_rng(0)
        v, _ = np.linalg.qr(rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n)))
        ch = KrausChannel([v[:n], v[n:]])
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="block map"):
                fixed_point_set(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_commutant_basis_refused_before_allocating(self):
        # C I_65 has the commutant M_65: 16 * 65^4 bytes of basis > 256 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                commutant([np.eye(65)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_limit_admits_dimension_64(self):
        require_superoperator_size(16 * 64**4, "N = 64")
        with pytest.raises(SizeLimitError):
            require_superoperator_size(16 * 65**4, "N = 65")


class TestFixVsCommutant:
    def test_unital_cases(self):
        for ch in (phase_flip(0.25), zz_dephasing(0.25), bit_flip(0.3),
                   collective_rotation(3), permutation_channel(2, 3)):
            assert fix_equals_commutant(ch) == (True, True)

    def test_amplitude_damping(self):
        assert fix_equals_commutant(amplitude_damping(0.5)) == (False, False)
        # dimensions agree (both 1) but the spans differ
        fix = fixed_point_set(amplitude_damping(0.5))
        comm = commutant(amplitude_damping(0.5).operators)
        assert fix.dim == comm.dim == 1
        assert not spaces_equal(fix, comm)

    def test_unitary_conjugation(self):
        u = haar_random_unitary(3, np.random.default_rng(2))
        assert fix_equals_commutant(KrausChannel([u])) == (True, True)

    def test_resolves_once(self, monkeypatch):
        calls = []
        resolve = algebra._resolve

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(algebra, "_resolve", counted)
        for n in (3, 4):
            calls.clear()
            assert fix_equals_commutant(collective_rotation(n)) == (True, True)
            assert len(calls) == 1

    def test_unresolvable_channel_raises(self):
        # 1e-7 noise at tol 1e-6 leaves no certified structure (see
        # TestFixedPoints.test_unresolved_channels_use_one_block).
        rng = np.random.default_rng(1)
        noisy = KrausChannel(
            [e + 1e-7 * (rng.standard_normal(e.shape) + 1j * rng.standard_normal(e.shape))
             for e in collective_rotation(3).operators]
        )
        with pytest.raises(StructureResolutionError):
            fix_equals_commutant(noisy, 1e-6)


class TestWedderburn:
    def test_diagonal_algebra(self):
        space = OperatorSpace([E00, np.diag([0.0, 1.0]).astype(complex)])
        structure = wedderburn_structure(space)
        assert structure.blocks == [(1, 1), (1, 1)]

    def test_zz_commutant(self):
        space = commutant([np.eye(4), kron(gate("Z"), gate("Z"))])
        structure = wedderburn_structure(space)
        assert structure.blocks == [(1, 2), (1, 2)]
        assert structure_residual(space, structure) <= 1e-7

    def test_full_matrix_algebra(self):
        space = commutant([np.eye(3)])
        structure = wedderburn_structure(space)
        assert structure.blocks == [(1, 3)]

    def test_full_matrix_algebra_m17(self):
        # the full M_17 (d = 289) resolves as one block
        space = OperatorSpace(list(np.eye(17 * 17, dtype=complex).reshape(-1, 17, 17)))
        structure = wedderburn_structure(space)
        assert structure.blocks == [(1, 17)]
        assert structure_residual(space, structure) <= 1e-9

    def test_scalar_commutant(self):
        # the commutant of an irreducible family is the scalars
        space = commutant([gate("X"), gate("Z")])
        assert space.dim == 1
        assert wedderburn_structure(space).blocks == [(2, 1)]

    def test_collective_rotation_structure(self):
        space = commutant(collective_rotation(3).operators)
        assert space.dim == 5
        structure = wedderburn_structure(space)
        assert sorted(structure.blocks) == [(2, 2), (4, 1)]
        assert sum(m * n for m, n in structure.blocks) == 8
        assert sum(n * n for _, n in structure.blocks) == space.dim
        assert structure_residual(space, structure) <= 1e-7

    def test_collective_rotation_five_qubits(self):
        # N = 32: the centre computation stacks 43008 x 42 constraints
        space = commutant(collective_rotation(5).operators)
        assert space.dim == 42
        structure = wedderburn_structure(space)
        assert sorted(structure.blocks) == [(2, 5), (4, 4), (6, 1)]
        assert structure_residual(space, structure) <= 1e-7

    def test_structure_invariants_across_instances(self):
        for name, ch in unital_instances():
            space = commutant(ch.operators)
            structure = wedderburn_structure(space)
            assert sum(m * n for m, n in structure.blocks) == ch.dim, name
            assert sum(n * n for _, n in structure.blocks) == space.dim, name
            assert structure_residual(space, structure) <= 1e-7, name
            w = structure.basis_change
            assert frob(dagger(w) @ w - np.eye(ch.dim)) <= 1e-8, name

    def test_schur_weyl_match(self):
        # the collective-rotation commutant and the algebra generated by the
        # factor permutations are the same structure, computed two ways
        rot = commutant(collective_rotation(3).operators)
        perm = interaction_algebra(permutation_channel(2, 3))
        assert rot.dim == perm.dim == 5
        s1 = wedderburn_structure(rot)
        s2 = wedderburn_structure(perm)
        assert sorted(s1.blocks) == sorted(s2.blocks)

    def test_resolves_remixed_collective_rotation_commutants(self):
        patterns = {3: [(2, 2), (4, 1)], 4: [(1, 2), (3, 3), (5, 1)]}
        for n, pattern in patterns.items():
            for seed in range(40):
                rng = np.random.default_rng([n, seed])
                space = commutant(collective_rotation(n, rng.uniform(0.7, 1.1, 3)).operators)
                basis = np.tensordot(haar_random_unitary(space.dim, rng), np.stack(space.basis), axes=1)
                mixed = OperatorSpace(list(basis))
                structure = wedderburn_structure(mixed, seed=seed)
                assert sorted(structure.blocks) == pattern, (n, seed)
                assert structure_residual(mixed, structure) <= 1e-7, (n, seed)

    def test_rejects_non_algebra(self):
        with pytest.raises(NotAnAlgebraError):
            wedderburn_structure(OperatorSpace([E00]))  # no identity
        x01 = np.zeros((2, 2), dtype=complex)
        x01[0, 1] = 1.0
        with pytest.raises(NotAnAlgebraError):
            wedderburn_structure(OperatorSpace([np.eye(2) / np.sqrt(2), x01]))  # not dagger-closed
        with pytest.raises(NotAnAlgebraError):
            # holds the identity and every adjoint, but XZ = -iY is missing
            wedderburn_structure(OperatorSpace([m / np.sqrt(2) for m in (np.eye(2), gate("X"), gate("Z"))]))


class TestNoiselessSubsystems:
    def test_tolerance_reaches_trace_preservation(self):
        # sum E†E = (1 + 1e-8) I: trace preserving at tol 1e-6, not at 1e-9
        ch = KrausChannel([np.sqrt(1 + 1e-8) * e for e in zz_dephasing(0.25).operators])
        assert classify(ch, 1e-6).trace_preserving
        blocks = noiseless_subsystems(ch, tol=1e-6)
        assert [(b.multiplicity, b.block_dim) for b in blocks] == [(1, 2), (1, 2)]
        assert fix_equals_commutant(ch, tol=1e-6) == (True, True)
        assert not classify(ch).trace_preserving
        with pytest.raises(NotTracePreservingError):
            noiseless_subsystems(ch)
        with pytest.raises(NotTracePreservingError):
            fix_equals_commutant(ch)

    def test_zz_dephasing(self):
        blocks = noiseless_subsystems(zz_dephasing(0.25))
        assert [(b.multiplicity, b.block_dim) for b in blocks] == [(1, 2), (1, 2)]
        assert all(b.decoherence_free for b in blocks)

    def test_phase_flip_has_none(self):
        assert noiseless_subsystems(phase_flip(0.25)) == []

    def test_collective_rotation_protected_qubit(self):
        ch = collective_rotation(3)
        blocks = noiseless_subsystems(ch)
        assert [(b.multiplicity, b.block_dim) for b in blocks] == [(2, 2)]
        assert not blocks[0].decoherence_free
        rng = np.random.default_rng(6)
        for _ in range(20):
            sigma = random_density(2, rng)
            enc = blocks[0].encode(sigma)
            assert frob(apply_channel(ch, enc) - enc) <= 1e-8
            assert abs(np.trace(enc).real - 1) <= 1e-10

    def test_zz_encoded_states_invariant(self):
        ch = zz_dephasing(0.25)
        rng = np.random.default_rng(7)
        for block in noiseless_subsystems(ch):
            for _ in range(20):
                enc = block.encode(random_density(2, rng))
                assert frob(apply_channel(ch, enc) - enc) <= 1e-8

    def test_requires_unital(self):
        with pytest.raises(NotUnitalError):
            noiseless_subsystems(amplitude_damping(0.5))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_collective_rotation_multiplicities(self, n):
        # spin j appears in (C^2)^n with multiplicity C(n, k) - C(n, k - 1),
        # k = n/2 - j; it protects a block of that size, ampliated 2j + 1 times
        expected = []
        for k in range(n // 2 + 1):
            mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            if mult >= 2:
                expected.append((n - 2 * k + 1, mult))
        expected.sort(key=lambda b: (-b[1], -b[0]))
        blocks = noiseless_subsystems(collective_rotation(n))
        assert [(b.multiplicity, b.block_dim) for b in blocks] == expected


class TestBicommutant:
    def test_dimension_agreement(self):
        for name, ch in unital_instances():
            algebra_dim = interaction_algebra(ch).dim
            double = commutant(commutant(ch.operators).basis)
            assert double.dim == algebra_dim, name


class TestDeadSubspace:
    def test_single_projector_map(self):
        ch = KrausChannel([E00])
        result = dead_subspace(ch)
        assert result is not None
        assert np.allclose(result.perp_projector, np.diag([0.0, 1.0]))
        assert result.hypothesis_holds
        dead_state = pure_density(basis_state(1, 2))
        assert frob(apply_channel(ch, dead_state)) == 0.0

    def test_invertible_image_absent(self):
        assert dead_subspace(bit_flip(0.3)) is None

    def test_dead_row_hypothesis_fails(self):
        d = 4
        ch = dead_row(d)
        result = dead_subspace(ch)
        assert result is not None
        assert not result.hypothesis_holds
        image = sum(e @ dagger(e) for e in ch.operators)
        assert np.allclose(image, d * pure_density(basis_state(0, d)))
