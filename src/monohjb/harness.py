"""Convergence studies, theoretical bound shapes, and the finite-horizon oracle.

The bound shapes follow the error analysis of the scheme: the envelope
(h + k/sqrt(h))^gamma, the finite-horizon tail (M_f/lambda) e^{-lambda T},
and the growth factors phi(T), phi(n) whose case split depends on the sign
of lip_g - discount.  Multiplicative constants are existential and never
estimated; sweep checks compare shapes only.

`brute_force_oracle` computes the scheme's finite-horizon value, the
closed-loop minimum over the next level at every node and step, one node at
a time through `bellman.lookahead`, the one-point operator of the closed
loop too.  It builds no transition table and never calls `bellman.sweep`,
so it checks the kernel every solver runs instead of repeating it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bellman import _check_step, lookahead
from .errors import ConfigurationError, NonConvergenceError, check_count
from .fespace import GridFunction, control_grid
from .mesh import build_uniform, locate_many, snap_mesh_size
from .problem import ProblemSpec, holder_exponent
from .solver import SolveOptions, solve, solve_finite_horizon


def theoretical_envelope(spec: ProblemSpec, h: float, k: float) -> float:
    """Shape of the total error bound, (h + k/sqrt(h))^gamma, with gamma the
    Holder exponent of the value function (`problem.holder_exponent`)."""
    if h <= 0 or k < 0:
        raise ConfigurationError("need h > 0 and k >= 0")
    return (h + k / math.sqrt(h)) ** holder_exponent(spec)


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
    if not 0.0 < h < math.inf:
        raise ConfigurationError(f"coupled step h={h} at k={k} is not positive and finite")
    # snap so that 1/h is an integer
    m = max(1, int(round(1.0 / h)))
    return 1.0 / m


def run_sweep(
    spec: ProblemSpec,
    k_list: Sequence[float],
    coupling: str = "h=k",
    c: float = 1.0,
    **options,
) -> list[SweepRow]:
    """Solve over a ladder of mesh sizes and tabulate errors.

    `options` are the SolveOptions fields other than h (method, stop_rule,
    target, max_iterations) of every solve; h comes from k and the coupling
    rule.

    The finest k is solved first and kept as the one reference:
    error_vs_reference compares each coarser solution against it, as soon
    as that row is solved, at the coarse nodes and at the control levels
    shared by both grids (0.0 on the finest row itself);
    error_vs_analytic compares the a=1 slice against the problem's closed
    form when one is registered.  Rows are returned in descending k.
    """
    if not k_list:
        raise ConfigurationError("k_list must be nonempty")
    rows = []
    ref = None
    for k in sorted(set(float(k) for k in k_list)):
        h = _coupled_h(k, coupling, c)
        tri = build_uniform(spec.domain, k)
        grid = control_grid(h)
        try:
            u, _, report = solve(spec, tri, grid, SolveOptions(h=h, **options))
            converged = True
        except NonConvergenceError as exc:
            u, report = exc.value, exc.report
            converged = False
        if spec.analytic_top_slice is not None:
            exact = spec.analytic_top_slice(tri.vertices)
            err_an = float(np.abs(u.values[:, grid.m] - exact).max())
        else:
            err_an = float("nan")
        env = theoretical_envelope(spec, h, k)
        err_ref = 0.0
        if ref is None:
            ref = (tri, grid, u)
        else:
            ref_tri, ref_grid, ref_u = ref
            idx, wts = locate_many(ref_tri, tri.vertices)
            for j, a in enumerate(grid.levels):
                jr = a * ref_grid.m
                jri = int(round(jr))
                if abs(jr - jri) > 1e-9:
                    continue  # level absent from the reference grid
                ref_vals = np.einsum("ij,ij->i", wts, ref_u.values[idx, jri])
                err_ref = max(err_ref, float(np.abs(u.values[:, j] - ref_vals).max()))
        rows.append(SweepRow(
            k=k, h=h, coupling=coupling, iterations=report.iterations,
            error_vs_reference=err_ref, error_vs_analytic=err_an, envelope=env,
            guaranteed_error=report.guaranteed_error, converged=converged,
        ))
    return rows[::-1]


def fit_rate(ks: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(k)."""
    ks = np.asarray(ks, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    if keep.sum() < 2:
        raise ConfigurationError("rate fit needs at least 2 rows with positive errors")
    slope, _ = np.polyfit(np.log(ks[keep]), np.log(errors[keep]), 1)
    return float(slope)


def _fits_analytic(rows: Sequence[SweepRow]) -> bool:
    """Whether `fit_rate_rows` fits the analytic-slice errors: every row has
    a finite one."""
    return all(math.isfinite(r.error_vs_analytic) for r in rows)


def fit_rate_rows(rows: Sequence[SweepRow]) -> float:
    """Rate fit of the analytic-slice errors when every row has a finite one,
    otherwise of the errors against the finest row."""
    analytic = _fits_analytic(rows)
    errs = [r.error_vs_analytic if analytic else r.error_vs_reference for r in rows]
    return fit_rate([r.k for r in rows], errs)


def sweep_csv(rows: Sequence[SweepRow], rate: Optional[float] = None) -> str:
    out = io.StringIO()
    out.write("k,h,coupling,iterations,error_ref,error_analytic,envelope,guaranteed_error\n")
    for r in rows:
        out.write(
            f"{r.k:.17g},{r.h:.17g},{r.coupling},{r.iterations},"
            f"{r.error_vs_reference:.17g},{r.error_vs_analytic:.17g},{r.envelope:.17g},"
            f"{r.guaranteed_error:.17g}\n"
        )
    # the rate of fit_rate_rows goes under the error column it was fitted from
    if rate is not None and _fits_analytic(rows):
        out.write(f"rate,,,,,{rate:.17g},,\n")
    elif rate is not None:
        out.write(f"rate,,,,{rate:.17g},,,\n")
    return out.getvalue()


def brute_force_oracle(
    spec: ProblemSpec,
    tri,
    grid,
    h: float,
    mu: int,
) -> GridFunction:
    """Finite-horizon value over mu steps of h, node by node.

    From the zero terminal value, each backward step sets every (node i,
    level a) to the smallest of the `bellman.lookahead` candidates: the
    previous step's P1 interpolant at each admissible level b >= a at the
    Euler image of node i, discounted, plus the stage cost.  The minimum is
    taken inside the interpolation at every node and step, so this is the
    closed-loop value of the scheme, which `solve_finite_horizon` must equal.
    Every value goes through `problem.level_data` and the scalar locator;
    no transition table is built and `bellman.sweep` is never called, so the
    oracle is independent of the kernel it checks.  Costs mu * N * n_levels
    one-point steps, each one call of `dynamics` and of `cost`.
    """
    check_count(mu, "mu")
    _check_step(h, spec.discount)
    levels = grid.levels.tolist()
    u = np.zeros((tri.n_vertices, grid.n_levels))
    for _ in range(mu):
        new = np.empty_like(u)
        for i in range(tri.n_vertices):
            node = tri.vertices[i:i + 1]
            for a in range(grid.n_levels):
                new[i, a] = lookahead(u, spec, tri, h, node, a, levels[a], f"node {i}")[2].min()
        u = new
    return GridFunction(u)
