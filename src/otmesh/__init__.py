"""Optimal-transportation meshfree particle dynamics.

Numerical toolkit for many-particle Lagrangian systems: transport costs from
minimizing extremals, optimal assignment of sampled marginals, the midpoint
variational integrator with its discrete stationarity equations, empirical
measures on path space, and refinement studies that verify the convergence of
the whole scheme as the particle count grows and the time step shrinks.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    HorizonError,
    NewtonError,
    OtmeshError,
    SolverError,
)
from .integrators import (
    BvpResult,
    FlowResult,
    discrete_flow,
    el_residual,
    reference_flow,
    solve_bvp,
)
from .measures import (
    ConcentrationReport,
    EmpiricalPathMeasure,
    bl_distance_bound,
    concentration_diagnostics,
    marginal_at_time,
)
from .models import (
    LagrangianModel,
    MODEL_CATALOG,
    closed_form_cost,
    cosine_potential,
    double_well,
    free_particle,
    harmonic_oscillator,
    has_closed_form_cost,
    make_model,
)
from .paths import (
    Path,
    PhasePoint,
    TimeGrid,
    continuous_action,
    many_particle_action,
    midpoint_action,
    uniform_distance,
)
from .pipeline import (
    ConvergenceReport,
    ConvergenceRow,
    MarginalSpec,
    OtmResult,
    StationarityLevel,
    StationarityReport,
    build_recovery_measure,
    check_horizon,
    run_convergence_study,
    run_stationarity_study,
    sample_marginal,
    solve_discrete_otm,
)
from .transport import (
    AssignmentPlan,
    PointCloud,
    brute_force_assignment,
    cost_matrix,
    solve_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentPlan",
    "BlowUpError",
    "BvpResult",
    "ConcentrationReport",
    "ConfigError",
    "ConvergenceReport",
    "ConvergenceRow",
    "DimensionMismatchError",
    "EmpiricalPathMeasure",
    "FlowResult",
    "HorizonError",
    "LagrangianModel",
    "MODEL_CATALOG",
    "MarginalSpec",
    "NewtonError",
    "OtmResult",
    "OtmeshError",
    "Path",
    "PhasePoint",
    "PointCloud",
    "SolverError",
    "StationarityLevel",
    "StationarityReport",
    "TimeGrid",
    "bl_distance_bound",
    "brute_force_assignment",
    "build_recovery_measure",
    "check_horizon",
    "closed_form_cost",
    "concentration_diagnostics",
    "continuous_action",
    "cosine_potential",
    "cost_matrix",
    "discrete_flow",
    "double_well",
    "el_residual",
    "free_particle",
    "harmonic_oscillator",
    "has_closed_form_cost",
    "make_model",
    "many_particle_action",
    "marginal_at_time",
    "midpoint_action",
    "reference_flow",
    "run_convergence_study",
    "run_stationarity_study",
    "sample_marginal",
    "solve_assignment",
    "solve_bvp",
    "solve_discrete_otm",
    "uniform_distance",
]
