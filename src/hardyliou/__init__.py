"""Hardy-space calculus for Liouville operators of holomorphic vector fields.

Polynomials truncated at a fixed order stand in for Hardy-space functions;
evaluation and derivative kernels, occupation kernels along trajectories,
operator truncations and their adjoints, spectral constructions, and
weighted-composition norm certificates all act on that shared
representation.  The :mod:`hardyliou.dmd` submodule fits the data-driven
compression from trajectory snapshots.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AliasingError,
    CompositionOutOfDiskError,
    CompositionWarning,
    ConfigError,
    DiskDomainError,
    DiskExitError,
    EigenConvergenceError,
    HardyliouError,
    IllConditionedError,
    InsufficientDataError,
    InvalidIndexError,
    InvalidKernelSpecError,
    LogDomainError,
    LowConfidenceWarning,
    SingularSymbolError,
    StepBudgetError,
    SymbolHasZerosError,
    SymbolOverflowError,
    TrajectoryIngestionError,
    TrajectoryMismatchWarning,
)
from .series import (
    DEFAULT_ORDER,
    BoundaryGrid,
    TaylorPolynomial,
    antiderivative,
    compose,
    default_boundary_size,
    derivative,
    derivative_kernel,
    exp_series,
    geometric_tail,
    inner_product,
    kernel,
    kernel_tail,
    monomial,
    multiply,
    norm,
    outer_from_modulus,
    project_h2,
    reciprocal,
    szego_kernel,
    to_boundary,
    unit_circle_points,
)
from .operators import (
    OperatorMatrix,
    SmirnovPair,
    adjoint_apply_boundary,
    adjoint_battery,
    adjoint_matrix,
    adjoint_on_derivative_kernel,
    hermitian_defect,
    liouville_adjoint_apply,
    liouville_matrix,
    modulus_identity_defect,
    scaled_liouville_matrix,
    smirnov_decompose,
    weighted_liouville_matrix,
)
from .spectral import (
    Eigendecomposition,
    eigendecompose,
    exp_eigenfunction,
    flow_check,
    hk_eigenfunction,
    zero_eigenspace,
    zero_free_certificate,
)
from .occupation import (
    OccupationKernel,
    Trajectory,
    endpoint_kernel_difference,
    field_defect,
    integrate_ode,
    liouville_occupation_residual,
    occupation_kernel,
    read_trajectory_csv,
    weighted_occupation_residual,
    write_trajectory_csv,
)
from .weighted import (
    BlaschkeProduct,
    BoundednessResult,
    HsNormResult,
    RadialProfile,
    SelfAdjointDefect,
    blaschke_ratio_profile,
    boundedness_bound,
    hs_norm,
    normalized_kernel_action_sq,
    occupation_self_adjoint_relation,
    polar_grid,
    self_adjoint_symbol_relation,
    weighted_adjoint_on_kernel,
)
from . import dmd

__version__ = "0.1.0"

# every imported public name; dmd is the one submodule in the public API
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_")
    and (name == "dmd" or not isinstance(value, _ModuleType))
)
