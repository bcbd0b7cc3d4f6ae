"""Fixed-point solvers for the discrete value function.

`solve` is the one entry: it validates the options, gets the transition
table (`bellman.table_for`), runs Picard iteration (the contractive Bellman
operator from the zero function; `bellman.Sweeper.picard`, whose level
elimination the bellman module docstring derives) or Howard iteration
(evaluation of a frozen policy, carried as far as the stop rule needs,
then greedy improvement) as `opts.method` says, and certifies the result
with the a posteriori bound
||u_n - u*|| <= Delta_n * (1 - lambda h) / (lambda h).

Howard evaluates each frozen policy top level first (`_evaluate`), as the
paper's finite sequence of stopping-time problems: the operator never
lowers the level, so each level reads only itself and levels already
evaluated.  It walks blocks of consecutive whole levels that fit a fixed
row budget (`_BLOCK_ROWS`) and iterates each block jointly, so a pass is a
few numpy calls on several levels where the levels are small.  Every row
of a block iterates one map (`bellman._frozen`, built for that block when
it is reached) with its weight on its own position solved exactly (none if
it switches), so a change is not damped at Picard's rate 1 - lambda h.
However accurate that evaluation is, the certificate comes from the greedy
sweep's residual after it, as for Picard.  The solver reads no stencil of
the table itself: the sweeps and the frozen maps are bellman's.
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
    PolicyField, Sweeper, TransitionTable, _check_step, _frozen, _interpolate, apply,
    apply_policy, table_for,
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


# Rows per block of levels that _evaluate iterates jointly.  A block holds
# whole levels, at least one; on the paper problem all 11 levels at
# k = h = 0.1, 5 at 0.05 and one at 0.025 and finer.  Smaller blocks pay
# numpy's per-call overhead on every pass; larger ones keep passing over
# levels that have settled (one block of all levels is about a third
# slower than one level per block at 0.025).
_BLOCK_ROWS = 8192


def _evaluate(values: np.ndarray, choice: np.ndarray, table: TransitionTable,
              tolerance: float, max_iterations: int):
    """The value of the frozen policy `choice`, one block of levels at a time.

    The operator never lowers the level, so a level reads only itself and
    the levels above it.  The levels are walked in blocks of consecutive
    whole levels, top block first, each as many levels as fit
    `_BLOCK_ROWS` rows (at least one): the levels above a block are final
    when it is reached.  Each block's map (`bellman._frozen`) and pass
    buffers are built when the block is reached, so only one block's are
    held at a time.  Starting from `values`, every row of the block iterates
    v <- base + interp(w; scaled) (`bellman._interpolate`), each row's own
    weight solved exactly, until a pass changes the block by at most
    `tolerance`, or for max_iterations passes.  A pass is Jacobi over the
    block: a row that switches to a level of its own block reads that
    level's previous iterate, one that switches to a finished level reads
    its final value.  A stay row then has a frozen residual of at most
    beta (1 - p) * tolerance, a switching row at most beta * tolerance.
    Returns the level-major values and the number of passes over blocks.
    """
    nl, n_nodes = values.shape
    w = values.copy()
    flat = w.ravel()
    per_block = max(1, _BLOCK_ROWS // n_nodes)
    passes = 0
    for top in range(nl, 0, -per_block):
        low = max(top - per_block, 0)
        idx, wts, b = _frozen(choice, table, low, top)
        block = flat[low * n_nodes:top * n_nodes]
        new, tmp = np.empty(block.size), np.empty(block.size)
        for _ in range(max_iterations):
            _interpolate(flat, idx, wts, new, tmp)
            new += b
            passes += 1
            change = float(np.abs(new - block).max())
            block[:] = new
            if change <= tolerance:
                break
    return w, passes


def _howard(table: TransitionTable, threshold: float, max_iterations: int):
    """Policy iteration: evaluate a frozen policy, then improve greedily.

    The first policy is the stay policy, choice[a, i] = a: the greedy
    policy of the zero function, since ties go to the smallest b.  Each
    policy is evaluated block of levels by block, top block first
    (`_evaluate`), warm-started from the last greedy value, each block until
    a pass changes it by at most threshold * lambda*h.  Stops once the
    residual ||A w - w|| of the evaluated value w is at most threshold and
    returns A w with its greedy policy, so the returned value carries the
    same guaranteed-error contract as Picard's, however accurate the
    evaluation: the bound holds whether or not the policy has settled.
    Stops short of it once the greedy policy repeats the policy just
    evaluated and the residual did not fall below the previous one: the
    residual then sits at the sweeps' rounding floor, and repeating the
    evaluation would keep it there.  max_iterations caps the outer
    iterations and the passes of each block.
    Returns level-major (values, choice), the residual history and, per
    outer iteration, the evaluation's passes over each block, summed.
    """
    eval_tolerance = threshold * table.discount * table.h
    sweeper = Sweeper(table)
    u = np.zeros(table.stage_cost.shape)
    choice = np.repeat(np.arange(len(u))[:, None], u.shape[1], axis=1)
    history, evaluations = [], []
    for _ in range(max_iterations):
        w, passes = _evaluate(u, choice, table, eval_tolerance, max_iterations)
        evaluations.append(passes)
        # improvement step doubles as the residual check
        u, greedy = sweeper(w, policy=True)
        history.append(float(np.abs(u - w).max()))
        # the greedy policy is the one just evaluated and the residual did
        # not fall: the next iteration would evaluate that policy again, to
        # the same rounding floor, so stop (`solve` raises)
        stalled = len(history) > 1 and history[-1] >= history[-2] and np.array_equal(greedy, choice)
        choice = greedy
        if history[-1] <= threshold or stalled:
            break
    return u, choice, history, evaluations


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
    opts.max_iterations, or Howard stalls above it (`_howard`), raises
    NonConvergenceError carrying all three.
    """
    opts.validate(spec.discount)
    table = table_for(spec, tri, grid, opts.h, table)
    threshold = opts.residual_threshold(spec.discount)
    t0 = time.perf_counter()
    if opts.method == "picard":
        u, choice, history = Sweeper(table).picard(threshold, opts.max_iterations)
        evaluations = []
    else:
        u, choice, history, evaluations = _howard(table, threshold, opts.max_iterations)
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
    """Backward recursion over horizon T = mu*h from the zero terminal value."""
    _check_step(h, spec.discount)
    check_count(mu, "mu")
    u = np.zeros((grid.n_levels, tri.n_vertices))
    if mu > 0:
        sweeper = Sweeper(table_for(spec, tri, grid, h, table))
    for _ in range(mu):
        u = sweeper(u)
    return GridFunction(u.T.copy())
