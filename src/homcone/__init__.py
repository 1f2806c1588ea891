"""Positive semidefinite matrix cones with homogeneous chordal sparsity.

Recognition and ordering of the patterns, zero-fill multifrontal kernels,
log-det barrier calculus, primal-dual scalings, and a nonsymmetric
interior-point solver over the cone and its completable dual.
"""

from . import errors, factor, io_cli, ipm, matrix, pattern, scaling
from .errors import (
    HomconeError,
    NonpositiveCurvature,
    NotCompletable,
    NotPositiveDefinite,
    OrderingError,
    ParseError,
    PatternError,
    SingularFactor,
    SingularNormalMatrix,
    StructuralError,
)
from .factor import (
    CholFactor,
    adjoint_map,
    barrier,
    cholesky,
    dual_barrier,
    dual_gradient,
    forward_map,
    hess_apply,
    inv_hess_apply,
    inverse_adjoint_map,
    inverse_forward_map,
    maxdet_factor,
    projected_inverse,
)
from .ipm import (
    ConicProblem,
    SolveReport,
    SolverOptions,
    SolveStatus,
    random_problem,
    solve,
)
from .matrix import (
    LowerSparse,
    Structure,
    SymSparse,
    from_triplets,
    identity,
    inner,
    norm,
    project,
    to_dense,
    to_triplets,
    tri_inverse,
    tri_mul,
)
from .pattern import (
    EliminationTree,
    Ordering,
    OrderingClass,
    SparsityPattern,
    SupernodePartition,
    build_etree,
    homogeneous_extension,
    lbfs_order,
    random_homogeneous_pattern,
    supernode_partition,
    verify_ordering,
)
from .scaling import (
    ScalingOperator,
    ScalingPoint,
    ScalingState,
    apply_scaling,
    bfgs_update,
    pd_factor,
    scaling_point,
    shadow_state,
)

__version__ = "0.1.0"
