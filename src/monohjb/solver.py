"""Fixed-point solvers for the discrete value function.

`solve` is the one entry: it validates the options, gets the transition
table (`bellman.table_for`), runs Picard iteration (the contractive Bellman
operator from the zero function) or Howard iteration (evaluation of a
frozen policy, carried as far as the stop rule needs, then greedy
improvement) as `opts.method` says, and certifies the result with the a
posteriori bound ||u_n - u*|| <= Delta_n * (1 - lambda h) / (lambda h).

Howard evaluates each frozen policy level by level, top level first
(`_evaluate`), as the paper's finite sequence of stopping-time problems:
the operator never lowers the level, so a row that switches reads only
levels already evaluated, and the rows that stay iterate on their own level
with each row's weight on its own node solved exactly, so a change is not
damped at Picard's rate 1 - lambda h.  However accurate that evaluation is,
the certificate comes from the greedy sweep's residual after it, as for
Picard.
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
    PolicyField, TransitionTable, _bellman, _check_step, apply, apply_policy, policy_index,
    sweep, table_for,
)
from .errors import ConfigurationError, NonConvergenceError, check_count
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
        if self.stop_rule == "target_bound" and (
                target is None or not math.isfinite(target) or target <= 0):
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
    # per outer Howard iteration, the stay-row passes over all levels
    evaluation_iterations: list = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("inf")


def _picard(table: TransitionTable, threshold: float, max_iterations: int):
    """Iterate u_n = A(u_{n-1}) from u_0 = 0 until the residual is at most
    threshold.

    The iterates are value-only sweeps on level-major vectors; the returned
    (values, choice) come from one policy sweep of the previous iterate,
    whose values equal the last iterate exactly.  Returns level-major
    (values, choice) and the residual history.
    """
    u = np.zeros(table.stage_cost.shape)
    history = []
    for _ in range(max_iterations):
        prev, u = u, sweep(u, table)
        history.append(float(np.abs(u - prev).max()))
        if history[-1] <= threshold:
            break
    u, choice = sweep(prev, table, policy=True)
    return u, choice, history, []


def _own_split(table: TransitionTable):
    """The frozen-policy evaluation's view of every stay row, per `_howard` call.

    Row (a, i) puts weight p on its own node i (the stencil positions
    a*N + i, duplicates summed).  If it stays at level a, its frozen
    equation v = h f + beta (p v + interp(w_a; woff)), with woff the
    weights off node i and beta = 1 - lambda h, solves for its own value as
    v = (h f + beta interp(w_a; woff)) / (1 - beta p).  Returns, level-major
    over the rows, the stencils as node ids, woff * beta / (1 - beta p) and
    h f / (1 - beta p), so that v = base + interp(w_a; scaled).
    """
    nl, n_nodes = table.stage_cost.shape
    nodes = table.indices - np.repeat(np.arange(nl) * n_nodes, n_nodes)
    own = nodes == np.tile(np.arange(n_nodes), nl)
    beta = 1.0 - table.discount * table.h
    denom = 1.0 - beta * np.where(own, table.weights, 0.0).sum(axis=0)
    scaled = np.where(own, 0.0, table.weights) * (beta / denom)
    return nodes, scaled, table.h * table.stage_cost.ravel() / denom


def _evaluate(values: np.ndarray, choice: np.ndarray, split, table: TransitionTable,
              tolerance: float, max_iterations: int):
    """The value of the frozen policy `choice`, one level at a time, top first.

    The operator never lowers the level, so a row that switches
    (choice[a, i] > a) reads only levels above a, which are final when
    level a is reached: one `_bellman` at the policy's stencil sets it.  The
    stay rows read level a itself; starting from `values`, they iterate
    v <- base + interp(w_a; scaled) (`_own_split`), each row's own weight
    solved exactly, until a pass changes them by at most `tolerance`, or
    for max_iterations passes.  Returns the level-major values and the
    number of stay-row passes over all levels.
    """
    nl, n_nodes = values.shape
    nodes, scaled, base = split
    index = policy_index(choice, table)
    w = values.copy()
    flat = w.ravel()
    passes = 0
    for a in range(nl - 1, -1, -1):
        stay = choice[a] == a
        switch = np.flatnonzero(~stay) + a * n_nodes
        flat[switch] = _bellman(flat, index[:, switch], table.weights[:, switch], table, switch)
        rows = np.flatnonzero(stay)
        if not len(rows):
            continue
        cols = rows + a * n_nodes
        idx, wts, b = nodes[:, cols], scaled[:, cols], base[cols]
        level, v = w[a], w[a, rows]
        out, terms = np.empty(len(rows)), np.empty(idx.shape)
        for _ in range(max_iterations):
            # one gather over all stencil vertices: a pass is a few numpy
            # calls on one level, so their count sets its cost
            level.take(idx, out=terms, mode="clip")
            terms *= wts
            new = np.add.reduce(terms, axis=0, out=out)
            new += b
            passes += 1
            change = float(np.abs(new - v).max())
            level[rows] = new
            v, out = new, v
            if change <= tolerance:
                break
    return w, passes


def _howard(table: TransitionTable, threshold: float, max_iterations: int):
    """Policy iteration: evaluate a frozen policy, then improve greedily.

    The first policy is the stay policy, choice[a, i] = a: the greedy
    policy of the zero function, since ties go to the smallest b.  Each
    policy is evaluated level by level, top level first (`_evaluate`),
    warm-started from the last greedy value, each level's stay rows until a
    pass changes them by at most threshold * lambda*h.  Stops once the
    residual ||A w - w|| of the evaluated value w is at most threshold and
    returns A w with its greedy policy, so the returned value carries the
    same guaranteed-error contract as Picard's, however accurate the
    evaluation: the bound holds whether or not the policy has settled.
    max_iterations caps the outer iterations and the passes of each level.
    Returns level-major (values, choice), the residual history and, per
    outer iteration, the evaluation's stay-row passes over all levels.
    """
    eval_tolerance = threshold * table.discount * table.h
    split = _own_split(table)
    u = np.zeros(table.stage_cost.shape)
    choice = np.indices(u.shape)[0]
    history, evaluations = [], []
    for _ in range(max_iterations):
        w, passes = _evaluate(u, choice, split, table, eval_tolerance, max_iterations)
        evaluations.append(passes)
        # improvement step doubles as the residual check
        u, choice = sweep(w, table, policy=True)
        history.append(float(np.abs(u - w).max()))
        if history[-1] <= threshold:
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
    opts.max_iterations, raises NonConvergenceError carrying all three.
    """
    opts.validate(spec.discount)
    table = table_for(spec, tri, grid, opts.h, table)
    threshold = opts.residual_threshold(spec.discount)
    t0 = time.perf_counter()
    loop = _picard if opts.method == "picard" else _howard
    u, choice, history, evaluations = loop(table, threshold, opts.max_iterations)
    value, policy = GridFunction(u.T.copy()), PolicyField(choice.T.copy())
    lam_h = spec.discount * opts.h
    report = SolveReport(
        iterations=len(history), residual_history=history,
        guaranteed_error=history[-1] * (1.0 - lam_h) / lam_h,
        wall_time=time.perf_counter() - t0, method=opts.method,
        converged=history[-1] <= threshold, evaluation_iterations=evaluations,
    )
    if not report.converged:
        raise NonConvergenceError(
            f"{opts.method.capitalize()} iteration did not meet the stop rule within "
            f"{opts.max_iterations} iterations (last residual "
            f"{report.final_residual:.3e}, threshold {threshold:.3e})",
            value=value, policy=policy, report=report,
        )
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
    check_count(mu, "mu")
    if mu > 0:
        table = table_for(spec, tri, grid, h, table)
    u = np.zeros((grid.n_levels, tri.n_vertices))
    for _ in range(mu):
        u = sweep(u, table)
    return GridFunction(u.T.copy())
