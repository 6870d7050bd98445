"""Exactly verifiable small-dimension quantum information toolkit.

Kraus channels and their Choi matrices, error detection and correction with
explicit recovery synthesis, noise commutants and noiseless subsystems, and
oracle-based query algorithms, all over dense complex numpy arrays.
"""

from .algebra import (
    AlgebraStructure,
    NoiselessBlock,
    OperatorSpace,
    commutant,
    dead_subspace,
    fix_equals_commutant,
    fixed_point_set,
    interaction_algebra,
    noiseless_subsystems,
    structure_residual,
    wedderburn_structure,
)
from .algorithms import (
    AlgorithmVerdict,
    BooleanOracle,
    deutsch,
    deutsch_jozsa,
    modular_adder,
    oracle_unitary,
    quantum_parallelism,
)
from .channels import (
    KrausChannel,
    apply_channel,
    builtin_channel,
    channels_equal,
    choi_distance,
    choi_matrix,
    classify,
    kraus_from_choi,
    kraus_intertwiner,
)
from .linalg import (
    DEFAULT_TOL,
    dagger,
    hermitian_eigen,
    hs_inner,
    kron,
    kron_chain,
    null_space_basis,
    polar,
)
from .qcore import (
    basis_state,
    cnot_embed,
    embed_single,
    evolve,
    gate,
    ket,
    measure_state,
    sample_measurement,
)
from .qec import (
    QuantumCode,
    build_recovery,
    builtin_code,
    correctability,
    detect,
    detectable_space_form,
    make_code,
    verify_recovery,
)

__version__ = "0.1.0"
