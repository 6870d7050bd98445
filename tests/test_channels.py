import tracemalloc

import numpy as np
import pytest

from qchannel.channels import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    bit_flip,
    builtin_channel,
    channels_equal,
    choi_block,
    choi_distance,
    choi_matrix,
    classify,
    collective_rotation,
    constant_half,
    dead_row,
    entanglement_breaking,
    kraus_from_choi,
    kraus_intertwiner,
    permutation_channel,
    phase_flip,
    random_unitary_channel,
    zz_dephasing,
)
from qchannel.errors import DimensionMismatchError, InvalidParameterError, NotPSDError, UnknownChannelError
from qchannel.linalg import dagger, frob, haar_random_unitary, kron
from qchannel.qcore import basis_state, gate, pure_density, random_density

E00 = np.array([[1, 0], [0, 0]], dtype=complex)
E01 = np.array([[0, 1], [0, 0]], dtype=complex)
E10 = np.array([[0, 0], [1, 0]], dtype=complex)
E11 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = pure_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
MINUS = pure_density(np.array([1, -1], dtype=complex) / np.sqrt(2))


def builtin_instances(seed=11):
    """One concrete instance per catalogue channel, all with dim <= 8."""
    rng = np.random.default_rng(seed)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    return [
        ("bit_flip", bit_flip(0.3)),
        ("constant_half", constant_half()),
        ("amplitude_damping", amplitude_damping(0.5)),
        (
            "random_unitary",
            random_unitary_channel([0.6, 0.4], [haar_random_unitary(2, rng) for _ in range(2)]),
        ),
        (
            "entanglement_breaking",
            entanglement_breaking([basis_state(0, 2), basis_state(1, 2)], [plus, minus]),
        ),
        ("phase_flip", phase_flip(0.25)),
        ("zz_dephasing", zz_dephasing(0.25)),
        ("collective_rotation", collective_rotation(3)),
        ("permutation", permutation_channel(2, 3)),
        ("dead_row", dead_row(4)),
    ]


class TestApply:
    def test_bit_flip_on_zero(self):
        out = apply_channel(bit_flip(0.3), E00)
        assert frob(out - (0.7 * E00 + 0.3 * E11)) <= 1e-12

    def test_constant_half(self):
        ch = constant_half()
        rng = np.random.default_rng(0)
        for _ in range(5):
            out = apply_channel(ch, random_density(2, rng))
            assert frob(out - np.eye(2) / 2) <= 1e-12

    def test_identity_channel(self):
        rho = random_density(4, np.random.default_rng(1))
        assert np.allclose(apply_channel(KrausChannel([np.eye(4)]), rho), rho)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(bit_flip(0.3), np.eye(4))


class TestChoi:
    def test_identity_channel_choi(self):
        r = choi_matrix(KrausChannel([np.eye(2)]))
        expected = sum(kron(unit, unit) for unit in (E00, E01, E10, E11))
        assert np.allclose(r, expected)
        vals = np.linalg.eigvalsh(r)
        assert np.count_nonzero(vals > 1e-12) == 1
        assert np.trace(r).real == pytest.approx(2)

    def test_transpose_map_not_cp(self):
        # Choi assembled directly from blocks (i, j) = e_ji is the swap
        # matrix, whose spectrum contains -1.
        units = [[E00, E01], [E10, E11]]
        r = np.block([[units[j][i] for j in range(2)] for i in range(2)])
        vals = np.linalg.eigvalsh(r)
        assert vals[0] == pytest.approx(-1)
        cls = classify(r)
        assert not cls.completely_positive

    def test_amplitude_damping_blocks(self):
        # hand evaluation of the operator sum on all four matrix units, r=0.5
        r = 0.5
        ch = amplitude_damping(r)
        choi = choi_matrix(ch)
        expected = {
            (0, 0): E00,
            (0, 1): np.sqrt(1 - r) * E01,
            (1, 0): np.sqrt(1 - r) * E10,
            (1, 1): r * E00 + (1 - r) * E11,
        }
        for (i, j), block in expected.items():
            assert frob(choi_block(choi, i, j) - block) <= 1e-12
            assert frob(apply_channel(ch, np.outer(basis_state(i, 2), basis_state(j, 2))) - block) <= 1e-12


class TestClassify:
    def test_bit_flip(self):
        assert classify(bit_flip(0.3)) == (True, True, True)

    def test_amplitude_damping(self):
        r = 0.5
        ch = amplitude_damping(r)
        assert classify(ch) == (True, True, False)
        image_of_identity = sum(e @ dagger(e) for e in ch.operators)
        assert np.allclose(image_of_identity, np.diag([1 + r, 1 - r]))

    def test_unital_at_its_own_tolerance(self):
        # sum E E† = (1 + 1e-8) I: unital at tol 1e-6, not at the default
        ch = KrausChannel([np.sqrt(1 + 1e-8) * e for e in bit_flip(0.3).operators])
        assert ch.is_unital(1e-6) and classify(ch, 1e-6).unital
        assert not ch.is_unital() and not classify(ch).unital
        assert not amplitude_damping(0.5).is_unital()

    def test_unital_random_unitary_classes(self):
        for name in ("collective_rotation", "permutation"):
            ch = dict(builtin_instances())[name]
            cls = classify(ch)
            assert cls.completely_positive and cls.trace_preserving and cls.unital

    @pytest.mark.parametrize(("factor", "hermitian"), [(0.5, True), (1.5, False)])
    def test_choi_positivity_uses_the_hermitian_rule(self, factor, hermitian):
        # ||C - C†||_F = factor * tol * (1 + ||C||_F).  classify and
        # kraus_from_choi share one Hermitian rule, so they agree on both sides.
        tol = 1e-9
        choi = choi_matrix(bit_flip(0.3))
        rng = np.random.default_rng(0)
        g = rng.standard_normal(choi.shape) + 1j * rng.standard_normal(choi.shape)
        skew = (g - dagger(g)) / 2.0
        perturbed = choi + skew * (factor * tol * (1.0 + frob(choi)) / (2.0 * frob(skew)))
        assert classify(perturbed, tol).completely_positive is hermitian
        if hermitian:
            assert len(kraus_from_choi(perturbed, tol).operators) == 2
        else:
            with pytest.raises(NotPSDError, match="not Hermitian"):
                kraus_from_choi(perturbed, tol)


class TestKrausFromChoi:
    def test_identity_channel(self):
        ch = kraus_from_choi(choi_matrix(KrausChannel([np.eye(2)])))
        assert len(ch.operators) == 1
        e = ch.operators[0]
        phase = e[0, 0] / abs(e[0, 0])
        assert frob(e / phase - np.eye(2)) <= 1e-10

    def test_bit_flip_roundtrip(self):
        orig = bit_flip(0.3)
        back = kraus_from_choi(choi_matrix(orig))
        assert len(back.operators) == 2  # rank of the 4x4 Choi matrix
        for i in range(2):
            for j in range(2):
                unit = np.outer(basis_state(i, 2), basis_state(j, 2))
                assert frob(apply_channel(orig, unit) - apply_channel(back, unit)) <= 1e-10

    def test_rejects_non_psd(self):
        units = [[E00, E01], [E10, E11]]
        swap = np.block([[units[j][i] for j in range(2)] for i in range(2)])
        with pytest.raises(NotPSDError):
            kraus_from_choi(swap)

    def test_roundtrip_all_builtins(self):
        for name, ch in builtin_instances():
            back = kraus_from_choi(choi_matrix(ch))
            assert choi_distance(ch, back) <= 1e-9 * ch.dim, name
            assert len(back.operators) <= ch.dim**2, name


class TestEquality:
    def remix(self, ch, rng):
        r = len(ch.operators)
        v = haar_random_unitary(r, rng)
        return KrausChannel(
            [sum(v[i, j] * ch.operators[j] for j in range(r)) for i in range(r)]
        ), v

    def test_remix_equal(self):
        rng = np.random.default_rng(2)
        for name, ch in builtin_instances():
            mixed, _ = self.remix(ch, rng)
            assert channels_equal(ch, mixed), name
            assert choi_distance(ch, mixed) <= 1e-10 * ch.dim, name

    def test_identity_vs_x(self):
        a = KrausChannel([np.eye(2)])
        b = KrausChannel([gate("X")])
        assert not channels_equal(a, b)
        assert frob(apply_channel(a, E00) - apply_channel(b, E00)) > 0.5

    def test_self_equal(self):
        ch = amplitude_damping(0.4)
        assert channels_equal(ch, ch)

    def test_intertwiner_recovers_remix(self):
        rng = np.random.default_rng(3)
        for name, ch in builtin_instances():
            mixed, _ = self.remix(ch, rng)
            u = kraus_intertwiner(ch, mixed)
            assert u is not None, name
            r = u.shape[0]
            ops = list(ch.operators) + [np.zeros((ch.dim, ch.dim))] * (r - len(ch.operators))
            mixed_ops = list(mixed.operators) + [np.zeros((ch.dim, ch.dim))] * (r - len(mixed.operators))
            residual = max(
                frob(ops[i] - sum(u[i, j] * mixed_ops[j] for j in range(r))) for i in range(r)
            )
            assert residual <= 1e-9, name
            assert frob(dagger(u) @ u - np.eye(r)) <= 1e-9, name

    def test_intertwiner_identity_for_same_channel(self):
        ch = bit_flip(0.3)
        u = kraus_intertwiner(ch, ch)
        assert u is not None
        assert frob(u - np.eye(2)) <= 1e-9

    @pytest.mark.parametrize(("eps", "found"), [(0.4e-9, True), (1e-9, False)])
    def test_intertwiner_unitarity_at_rank_scale(self, eps, found):
        # Three copies of 0.1 I: rank 1 of r = 3.  Scaling every operator by
        # 1 + eps leaves the channels equal but gives the rank x rank solution
        # ||c†c - I||_F = 2 eps + eps^2, tested at tol * rank.
        b = KrausChannel([0.1 * np.eye(2)] * 3)
        a = KrausChannel([(1 + eps) * 0.1 * np.eye(2)] * 3)
        assert channels_equal(a, b, 1e-9)
        assert (kraus_intertwiner(a, b, 1e-9) is not None) is found

    def test_no_intertwiner_for_different_channels(self):
        assert kraus_intertwiner(bit_flip(0.3), phase_flip(0.3)) is None
        a = choi_matrix(bit_flip(0.3))
        b = choi_matrix(phase_flip(0.3))
        assert frob(choi_block(a, 0, 1) - choi_block(b, 0, 1)) > 0.1


class TestBuiltins:
    def test_phase_flip_on_plus(self):
        p = 0.25
        out = apply_channel(phase_flip(p), PLUS)
        assert frob(out - ((1 - p) * PLUS + p * MINUS)) <= 1e-12

    def test_entanglement_breaking_tp_condition(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        resolving = entanglement_breaking([basis_state(0, 2), basis_state(1, 2)], [plus, minus])
        assert resolving.trace_preserving
        lopsided = entanglement_breaking([basis_state(0, 2), basis_state(1, 2)], [plus, plus])
        assert not lopsided.trace_preserving

    def test_dead_row_image_of_identity(self):
        d = 4
        ch = dead_row(d)
        image = sum(e @ dagger(e) for e in ch.operators)
        assert np.allclose(image, d * pure_density(basis_state(0, d)))
        assert ch.trace_preserving  # sum E† E telescopes to the identity

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            bit_flip(0.0)
        with pytest.raises(InvalidParameterError):
            amplitude_damping(1.5)
        with pytest.raises(InvalidParameterError):
            random_unitary_channel([0.5, 0.4], [np.eye(2), gate("X")])
        with pytest.raises(InvalidParameterError):
            entanglement_breaking([2 * basis_state(0, 2)], [basis_state(0, 2)])
        with pytest.raises(UnknownChannelError):
            builtin_channel("nope")

    def test_builtin_dispatch(self):
        ch = builtin_channel("bit_flip", p=0.3)
        assert channels_equal(ch, bit_flip(0.3))


class TestChannelProperties:
    def test_tp_builtins_preserve_density(self):
        rng = np.random.default_rng(4)
        for name, ch in builtin_instances():
            if not ch.trace_preserving:
                continue
            for _ in range(10):
                out = apply_channel(ch, random_density(ch.dim, rng))
                assert frob(out - dagger(out)) <= 1e-9, name
                assert np.linalg.eigvalsh((out + dagger(out)) / 2)[0] >= -1e-9, name
                assert abs(np.trace(out).real - 1) <= 1e-10, name

    def test_choi_additive_over_kraus_concatenation(self):
        a = bit_flip(0.3)
        b = phase_flip(0.4)
        joint = KrausChannel(list(a.operators) + list(b.operators))
        assert frob(choi_matrix(joint) - choi_matrix(a) - choi_matrix(b)) <= 1e-12

    def test_construction_forms_no_operator_product(self):
        # One 1024 x 1024 complex array is 16 MiB; sum E† E would need several.
        ops = [np.eye(1024, dtype=complex), np.zeros((1024, 1024), dtype=complex)]
        tracemalloc.start()
        try:
            ch = KrausChannel(ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert ch.tp_residual == 0.0 and ch.trace_preserving
