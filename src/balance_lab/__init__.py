"""balance-lab: couplings, duals and balance between state-preserving quantum
Markov semigroups on finite matrix algebras."""

from .kernel import (
    DEFAULT_TOL,
    frob_distance,
    is_psd,
    kron,
    mat_exp,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    partial_trace,
)
from .states import (
    FaithfulState,
    System,
    canonicalize_density_matrix,
    gns_vector,
    new_faithful_state,
    state_from_json,
)
from .channels import (
    QuantumChannel,
    ReversingOperation,
    apply,
    channel_from_json,
    channel_from_kraus,
    compose_channels,
    constant_channel,
    dual,
    fixed_point_space,
    identity_channel,
    kms_dual,
    theta_kms_dual,
    validate_ucp,
)
from .couplings import (
    Coupling,
    compose,
    coupling_from_channel,
    coupling_from_json,
    diagonal_coupling,
    extract_channel,
    flip_coupling,
    is_orthogonal,
    is_trivial,
    kms_flip,
    product_coupling,
    validate_coupling,
)
from .lindblad import (
    LindbladGenerator,
    ScenarioSpec,
    build_generator,
    cycle_generator,
    dual_generator,
    scenario_build,
    scenario_coupling,
    scenario_from_json,
    scenario_predict,
    scenario_state,
    semigroup,
)
from .balance import (
    BalanceReport,
    check_theta_sqdb,
    convergence_probe,
    disjointness_probe,
    dual_order_check,
    is_balanced,
    is_ergodic,
    is_kms_symmetric,
    kms_symmetry_flip_check,
    sampled_balance,
)

__version__ = "0.1.0"
