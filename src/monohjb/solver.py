"""Fixed-point solvers for the discrete value function.

`solve` is the one entry: it validates the options, gets the transition
table (`bellman.table_for`), runs Picard iteration (the contractive Bellman
operator from the zero function; `bellman.Sweeper.picard`, whose level
elimination the bellman module docstring derives) or Howard iteration
(evaluation of a frozen policy, carried as far as the stop rule needs,
then greedy improvement; `bellman.Sweeper.howard`, whose evaluation the
bellman module docstring describes) as `opts.method` says, and certifies
the result with the a posteriori bound
||u_n - u*|| <= Delta_n * (1 - lambda h) / (lambda h).
The solver reads no stencil of the table itself: both iterations are one
`Sweeper`'s.

`solve_finite_horizon` runs the backward recursion u_n = A(u_{n-1}) from
the zero terminal value.  Its first step is known, A(0) = h f with every
zero +0.0, so it starts from there and sweeps mu - 1 times; the values are
those of mu sweeps from zero, bit for bit (its docstring says why).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# apply, apply_policy and sup_norm_diff are not called here but stay module
# attributes: perfbench/spans.py traces them under these names.
from .bellman import (  # noqa: F401
    PolicyField, Sweeper, TransitionTable, _check_step, apply, apply_policy, table_for,
)
from .errors import ConfigurationError, NonConvergenceError, check_count, is_boolean
from .fespace import ControlGrid, GridFunction, sup_norm_diff  # noqa: F401
from .mesh import Triangulation
from .problem import ProblemSpec


@dataclass
class SolveOptions:
    h: float
    method: str = "picard"            # "picard" | "howard"
    stop_rule: str = "paper"          # "paper" (Delta <= h^2) | "target_bound"
    target: Optional[float] = None    # guaranteed-error target for target_bound
    max_iterations: int = 10_000

    def validate(self, discount: float):
        _check_step(self.h, discount)
        if self.method not in ("picard", "howard"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.stop_rule not in ("paper", "target_bound"):
            raise ConfigurationError(f"unknown stop rule {self.stop_rule!r}")
        target = self.target
        # a boolean would pass as the target 1.0
        if self.stop_rule == "target_bound" and (
                target is None or is_boolean(target)
                or not math.isfinite(target) or target <= 0):
            raise ConfigurationError(
                f"target_bound stop rule needs a positive finite target, got {target}")
        if self.stop_rule == "paper" and self.target is not None:
            raise ConfigurationError("target is read only by the target_bound stop rule")
        check_count(self.max_iterations, "max_iterations", 1)

    def residual_threshold(self, discount: float) -> float:
        if self.stop_rule == "paper":
            return self.h * self.h
        # guaranteed_error = Delta * (1 - lambda h)/(lambda h) <= target
        lam_h = discount * self.h
        return self.target * lam_h / (1.0 - lam_h)


@dataclass
class SolveReport:
    iterations: int
    residual_history: list = field(default_factory=list)
    guaranteed_error: float = float("inf")
    wall_time: float = 0.0
    method: str = "picard"
    converged: bool = False
    # per outer Howard iteration, the passes over each block of levels, summed
    evaluation_iterations: list = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("inf")


def solve(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    opts: SolveOptions,
    table: TransitionTable | None = None,
) -> tuple[GridFunction, PolicyField, SolveReport]:
    """Solve for the fixed point with the iteration `opts.method` names.

    A supplied `table` is swept only if it was built for opts.h from these
    spec, grid and tri objects; otherwise the table is built here (see
    `bellman.table_for`).  Returns the value, its greedy policy and a
    report whose guaranteed_error bounds the sup-norm distance of the
    value to the fixed point.  If the stop rule is not met within
    opts.max_iterations, or Howard stalls above it (`Sweeper.howard`), raises
    NonConvergenceError carrying all three.
    """
    opts.validate(spec.discount)
    table = table_for(spec, tri, grid, opts.h, table)
    threshold = opts.residual_threshold(spec.discount)
    t0 = time.perf_counter()
    # one sweeper, freed as its iteration returns: held while the results
    # are copied below, it raised certified_howard's peak RSS by 1.2 MB
    if opts.method == "picard":
        u, choice, history = Sweeper(table).picard(threshold, opts.max_iterations)
        evaluations = []
    else:
        u, choice, history, evaluations = Sweeper(table).howard(threshold, opts.max_iterations)
    value, policy = GridFunction(u.T.copy()), PolicyField(choice.T.copy())
    lam_h = spec.discount * opts.h
    report = SolveReport(
        iterations=len(history), residual_history=history,
        guaranteed_error=history[-1] * (1.0 - lam_h) / lam_h,
        wall_time=time.perf_counter() - t0, method=opts.method,
        converged=history[-1] <= threshold, evaluation_iterations=evaluations,
    )
    if not report.converged:
        residual = report.final_residual
        if report.iterations < opts.max_iterations:
            reason = (f"stalled after {report.iterations} iterations at residual "
                      f"{residual:.3e}, above the threshold {threshold:.3e}: its greedy "
                      f"policy repeats the policy it evaluated and the residual did not fall")
        else:
            reason = (f"did not meet the stop rule within {opts.max_iterations} iterations "
                      f"(last residual {residual:.3e}, threshold {threshold:.3e})")
        raise NonConvergenceError(f"{opts.method.capitalize()} iteration {reason}",
                                  value=value, policy=policy, report=report)
    return value, policy, report


def solve_finite_horizon(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    mu: int,
    table: TransitionTable | None = None,
) -> GridFunction:
    """Backward recursion over horizon T = mu*h from the zero terminal value.

    The first step is known: every candidate of the zero function is
    beta * 0 + h f, so u_1 = A(0) is the sweeper's own map of a zero
    interpolant, and mu - 1 sweeps follow.  That is A(0) bit for bit: the
    sweep interpolates zeros with the weights of a table `build_table`
    built, which `locate_many` clips with np.maximum(w, 0.0), so they are
    nonnegative and never -0.0; every interpolant is then +0.0 and every
    row's minimum beta * +0.0 + h f, which is +0.0 where h f is -0.0 (plain
    h f would keep -0.0 there, as the paper's cost gives at a = 0).  mu = 0
    returns zeros and builds no table.
    """
    _check_step(h, spec.discount)
    check_count(mu, "mu")
    shape = (grid.n_levels, tri.n_vertices)
    if mu == 0:
        return GridFunction(np.zeros(shape[::-1]))
    sweeper = Sweeper(table_for(spec, tri, grid, h, table))
    u = sweeper._bellman(np.zeros(shape[0] * shape[1])).reshape(shape)
    for _ in range(mu - 1):
        u = sweeper(u)
    return GridFunction(u.T.copy())
