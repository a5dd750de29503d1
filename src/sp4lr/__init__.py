"""Lewis-Riesenfeld invariants and Dyson maps for PT-symmetric coupled
oscillators on the symplectic sp(4) algebra."""

from .algebra import (
    GeneratorId,
    adjoint,
    commutator,
    from_matrix,
    group_conjugate,
    matrix_of,
    parity_action,
    pt_map,
    structure_constants,
    to_matrix,
)
from .errors import (
    ArctanhDomain,
    ChiPlusZero,
    ConfigInvalid,
    DegenerateAlpha,
    EqualFrequencies,
    GridTooCoarse,
    NonCommuting,
    ProfileDomain,
    ProjectionLeak,
    Sp4lrError,
    StepNotConverged,
)
from .hamiltonian import (
    CoupledOscillatorParams,
    Regime,
    build_H_modified,
    classify_regime,
    instantaneous_eigenvalues,
)
from .lr_ode import (
    ClosedFormParams,
    assemble_invariant,
    closed_form_c,
    closed_form_on_grid,
    evolve,
    invariant_matrix,
    involution_residuals,
    lr_residual,
)
from .numerics import central_diff, cumulative_simpson, eig4, expm
from .point_transform import (
    DysonParams,
    EPState,
    PointTransformParams,
    dyson_static,
    dyson_time,
    ep_state,
    hermitian_hamiltonian_h,
    hermitian_invariant_Ih,
    invariant_IH,
    pde_constraint_residuals,
    pushforward,
    target_coefficients,
    tdde_residual,
)
from .profiles import ScalarProfile

__version__ = "0.1.0"
