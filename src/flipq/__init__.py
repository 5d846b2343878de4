"""Fiberwise moment-map quotients across a wall.

Families of circle moment maps on a split Hermitian bundle over an
annulus, their quotient charts through the wall (including the rank-one
tensor cone at the wall), spherical-blowup coordinates with the extended
scaling action, perturbed defining functions with their verification, and
the closed-form orbit rescaling that matches a perturbed wall
hypersurface onto the moment level set.
"""

from . import kernels
from .blowup import (
    BlowupPoint,
    BoundaryPoint,
    boundary_coords,
    cstar_act_blowup,
    from_blowup,
    make_blowup_point,
    to_blowup,
    to_blowup_batch,
)
from .config_io import (
    RunConfig,
    build_model,
    config_digest,
    load_run_config,
    parse_run_config,
    phi_from_config,
)
from .core import (
    BasePoint,
    FiberPoint,
    MetricFieldSpec,
    ModelConfig,
    ValidationIssue,
    ValidationReport,
    cstar_act,
    fiber_norms,
    min_metric_eigenvalue,
    validate_config,
)
from .errors import (
    BoundViolated,
    ConfigInvalid,
    ConfigParse,
    DegenerateBranch,
    DegenerateDerivative,
    DimensionMismatch,
    FlipQError,
    NoConvergence,
    NoRoot,
    NotOnBoundary,
    NotStable,
    OnCenter,
    OnExceptionalLocus,
    OutOfDomain,
    ZeroScalar,
)
from .perturbation import (
    ConditionReport,
    PerturbationSpec,
    PerturbationTerm,
    RestBoundReport,
    RhoSolution,
    chi_eval,
    chi_eval_batch,
    extract_graph,
    matching_map,
    matching_map_batch,
    phi_graph,
    phi_moment,
    phi_quadratic,
    renorm_eval,
    rest_bound_scan,
    solve_rho,
    solve_rho_blowup,
    taylor_rest,
    verify_conditions,
)
from .quotient import (
    ChartCoords,
    FiberType,
    StabilityClass,
    TildeCoords,
    classify,
    fiber_type,
    level_rho_batch,
    moment_value,
    moment_value_batch,
    normalize_to_level,
    quotient_chart,
    segre_point,
    tilde_coords,
)

__version__ = "0.1.0"
