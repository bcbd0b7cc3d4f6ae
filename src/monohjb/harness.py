"""Convergence studies, theoretical bound shapes, and brute-force oracles.

The bound shapes follow the error analysis of the scheme: the envelope
(h + k/sqrt(h))^gamma, the finite-horizon tail (M_f/lambda) e^{-lambda T},
and the growth factors phi(T), phi(n) whose case split depends on the sign
of lip_g - discount.  Multiplicative constants are existential and never
estimated; sweep checks compare shapes only.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bellman import build_table
from .errors import BudgetExceededError, ConfigurationError, NonConvergenceError
from .fespace import GridFunction, control_grid
from .mesh import build_uniform, locate_many, snap_mesh_size
from .problem import ProblemSpec, holder_exponent
from .solver import SolveOptions, solve, solve_finite_horizon


@dataclass
class BoundParams:
    gamma: float
    lip_g: float
    discount: float
    bound_f: float
    T: float
    h: float
    k: float

    @classmethod
    def from_spec(cls, spec: ProblemSpec, T: float, h: float, k: float) -> "BoundParams":
        return cls(
            gamma=holder_exponent(spec),
            lip_g=spec.lip_g,
            discount=spec.discount,
            bound_f=spec.bound_f,
            T=T,
            h=h,
            k=k,
        )


def theoretical_envelope(params: BoundParams) -> float:
    """Shape of the total error bound, (h + k/sqrt(h))^gamma."""
    if params.h <= 0 or params.k < 0:
        raise ConfigurationError("need h > 0 and k >= 0")
    if params.lip_g < params.discount:
        gamma = 1.0
    elif params.lip_g > params.discount:
        gamma = params.discount / params.lip_g
    else:
        gamma = params.gamma
        if gamma is None or not 0.0 < gamma < 1.0:
            raise ConfigurationError(
                "lip_g equals discount: envelope needs gamma in (0,1)"
            )
    return (params.h + params.k / math.sqrt(params.h)) ** gamma


def phi_T(spec: ProblemSpec, T: float) -> float:
    """Growth factor of the space-discretization bound over horizon T."""
    if T < 0:
        raise ConfigurationError("T must be nonnegative")
    lg, lam = spec.lip_g, spec.discount
    if lg < lam:
        return 1.0
    if lg > lam:
        return math.exp((lg - lam) * T)
    return T


def phi_n(spec: ProblemSpec, n: int, h: float, T: float) -> float:
    """Growth factor of the time-discretization bound at backward step n."""
    if not 0 <= n * h <= T + 1e-12:
        raise ConfigurationError(f"step {n} outside horizon T={T} at h={h}")
    lg, lam = spec.lip_g, spec.discount
    if lg > lam:
        return math.exp((lg - lam) * T + lam * n * h)
    if lg == lam:
        return T * math.exp(lg * n * h)
    return math.exp(lg * n * h)


def tail_bound(spec: ProblemSpec, T: float) -> float:
    """Distance bound between the horizon-T value and the infinite-horizon one."""
    return spec.bound_f / spec.discount * math.exp(-spec.discount * T)


@dataclass
class SweepRow:
    k: float
    h: float
    coupling: str
    iterations: int
    error_vs_reference: float
    error_vs_analytic: float
    envelope: float
    guaranteed_error: float
    converged: bool = True


def _coupled_h(k: float, coupling: str, c: float) -> float:
    if coupling == "h=k":
        h = k
    elif coupling == "h=c*k^(2/3)":
        h = c * k ** (2.0 / 3.0)
    else:
        raise ConfigurationError(f"unknown coupling rule {coupling!r}")
    # snap so that 1/h is an integer
    m = max(1, int(round(1.0 / h)))
    return 1.0 / m


def run_sweep(
    spec: ProblemSpec,
    k_list: Sequence[float],
    coupling: str = "h=k",
    c: float = 1.0,
    method: str = "picard",
    stop_rule: str = "paper",
    target: Optional[float] = None,
    max_iterations: int = 10_000,
) -> list[SweepRow]:
    """Solve over a ladder of mesh sizes and tabulate errors.

    method, stop_rule, target and max_iterations are the SolveOptions of
    every solve; h comes from k and the coupling rule.

    error_vs_reference compares each solution against the finest-k run at the
    coarse nodes and at control levels shared by both grids;
    error_vs_analytic compares the a=1 slice against the problem's closed
    form when one is registered.
    """
    if not k_list:
        raise ConfigurationError("k_list must be nonempty")
    ks = sorted(set(float(k) for k in k_list), reverse=True)
    solutions = {}
    rows = []
    for k in ks:
        h = _coupled_h(k, coupling, c)
        tri = build_uniform(spec.domain, k)
        grid = control_grid(h)
        opts = SolveOptions(h=h, method=method, stop_rule=stop_rule, target=target,
                            max_iterations=max_iterations)
        try:
            u, _, report = solve(spec, tri, grid, opts)
            converged = True
        except NonConvergenceError as exc:
            u, report = exc.value, exc.report
            converged = False
        if spec.analytic_top_slice is not None:
            exact = np.array([spec.analytic_top_slice(x) for x in tri.vertices])
            err_an = float(np.abs(u.values[:, grid.m] - exact).max())
        else:
            err_an = float("nan")
        env = theoretical_envelope(BoundParams.from_spec(spec, T=math.inf, h=h, k=k))
        solutions[k] = (tri, grid, u)
        rows.append(SweepRow(
            k=k, h=h, coupling=coupling, iterations=report.iterations,
            error_vs_reference=0.0, error_vs_analytic=err_an, envelope=env,
            guaranteed_error=report.guaranteed_error, converged=converged,
        ))

    ref_k = ks[-1]
    ref_tri, ref_grid, ref_u = solutions[ref_k]
    for row in rows:
        tri, grid, u = solutions[row.k]
        if row.k == ref_k:
            continue
        idx, wts, _ = locate_many(ref_tri, tri.vertices)
        err = 0.0
        for j, a in enumerate(grid.levels):
            jr = a * ref_grid.m
            jri = int(round(jr))
            if abs(jr - jri) > 1e-9:
                continue  # level absent from the reference grid
            ref_vals = np.einsum("ij,ij->i", wts, ref_u.values[idx, jri])
            err = max(err, float(np.abs(u.values[:, j] - ref_vals).max()))
        row.error_vs_reference = err
    return rows


def fit_rate(ks: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(k)."""
    ks = np.asarray(ks, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    if keep.sum() < 2:
        raise ConfigurationError("rate fit needs at least 2 rows with positive errors")
    slope, _ = np.polyfit(np.log(ks[keep]), np.log(errors[keep]), 1)
    return float(slope)


def fit_rate_rows(rows: Sequence[SweepRow], use: str = "analytic") -> float:
    errs = [r.error_vs_analytic if use == "analytic" else r.error_vs_reference for r in rows]
    return fit_rate([r.k for r in rows], errs)


def sweep_csv(rows: Sequence[SweepRow], rate: Optional[float] = None) -> str:
    out = io.StringIO()
    out.write("k,h,coupling,iterations,error_ref,error_analytic,envelope\n")
    for r in rows:
        out.write(
            f"{r.k:.17g},{r.h:.17g},{r.coupling},{r.iterations},"
            f"{r.error_vs_reference:.17g},{r.error_vs_analytic:.17g},{r.envelope:.17g}\n"
        )
    if rate is not None:
        out.write(f"rate,,,,,{rate:.17g},\n")
    return out.getvalue()


def brute_force_oracle(
    spec: ProblemSpec,
    tri,
    grid,
    h: float,
    mu: int,
    budget: int = 10 ** 6,
) -> GridFunction:
    """Finite-horizon value by exhaustive enumeration of monotone control paths.

    For each start (node, level a) every nondecreasing level sequence of
    length mu with a_0 = a is costed on the interpolation chain: the running
    state is a weight vector over nodes, stage costs are taken at the nodes,
    and one step multiplies by the level's interpolation stencil.  This is an
    independent unrolling of the backward recursion and must agree with it.
    """
    if mu < 0:
        raise ConfigurationError("mu must be nonnegative")
    count = math.comb(mu + grid.m, grid.m)
    if count > budget:
        raise BudgetExceededError(
            f"{count} monotone control sequences exceed the budget of {budget}",
            count=count,
        )
    N = tri.n_vertices
    out = np.zeros((N, grid.n_levels))
    if mu == 0:
        return GridFunction(out)
    table = build_table(spec, tri, grid, h)
    beta = 1.0 - spec.discount * h
    # dense per-level chain matrices: row i holds the stencil weights of node i
    steps = np.zeros((grid.n_levels, N, N))
    node_rows = np.repeat(np.arange(N), tri.dim + 1)
    for aj in range(grid.n_levels):
        np.add.at(
            steps[aj], (node_rows, table.indices[aj].ravel()), table.weights[aj].ravel()
        )
    for ai in range(grid.n_levels):
        if mu == 1:
            tails = [()]
        else:
            tails = itertools.combinations_with_replacement(range(ai, grid.n_levels), mu - 1)
        best = np.full(N, np.inf)
        for tail in tails:
            seq = (ai,) + tail
            dist = np.eye(N)  # row i = chain distribution started at node i
            cost = np.zeros(N)
            disc = 1.0
            for aj in seq:
                cost += disc * h * dist @ table.stage_cost[:, aj]
                disc *= beta
                dist = dist @ steps[aj]
            np.minimum(best, cost, out=best)
        out[:, ai] = best
    return GridFunction(out)
