"""Solver for infinite-horizon discounted optimal control with monotone
non-decreasing controls, via a fully discrete semi-Lagrangian finite-element
scheme and fixed-point (Picard/Howard) iteration."""

__version__ = "0.1.0"

from .bellman import PolicyField, apply, apply_fixed_control, build_table, greedy_policy
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidProblemDataError,
    MeshConstructionError,
    NonConvergenceError,
    OutOfDomainError,
    UnknownProblemError,
)
from .fespace import (
    ControlGrid,
    GridFunction,
    admissible,
    control_grid,
    evaluate,
    level_index,
    sup_norm,
    sup_norm_diff,
)
from .feedback import Trajectory, cost_consistency, simulate
from .harness import (
    SweepRow,
    brute_force_oracle,
    fit_rate,
    phi_T,
    phi_n,
    run_sweep,
    tail_bound,
    theoretical_envelope,
)
from .mesh import (
    BarycentricCoords,
    MeshReport,
    Triangulation,
    build_uniform,
    check_hypotheses,
    locate,
    snap_mesh_size,
)
from .problem import (
    BUILTIN_PROBLEMS,
    ProblemSpec,
    builtin,
    estimate_constants,
    holder_exponent,
)
from .solver import (
    SolveOptions,
    SolveReport,
    solve,
    solve_finite_horizon,
)
