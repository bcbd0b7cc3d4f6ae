"""End-to-end acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
single PASS line on success (run with -s to see them).  Expensive solves are
shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from monohjb import (
    GridFunction,
    SolveOptions,
    apply,
    brute_force_oracle,
    build_table,
    build_uniform,
    control_grid,
    simulate,
    solve,
    solve_finite_horizon,
    sup_norm,
    sup_norm_diff,
)
from monohjb.fespace import nodal_csv
from monohjb.harness import fit_rate


@pytest.fixture(scope="module")
def setups(paper):
    out = {}
    for hk in (0.5, 0.2, 0.1, 0.05):
        tri = build_uniform(paper.domain, hk)
        grid = control_grid(hk)
        table = build_table(paper, tri, grid, hk)
        out[hk] = (tri, grid, table)
    return out


@pytest.fixture(scope="module")
def picard(paper, setups):
    out = {}
    for hk, (tri, grid, table) in setups.items():
        out[hk] = solve(paper, tri, grid, SolveOptions(h=hk), table=table)
    return out


def _ok(msg):
    print(f"PASS {msg}")


def test_criterion_01_contraction_suite(paper, setups):
    tri, grid, table = setups[0.1]
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    shape = (tri.n_vertices, grid.n_levels)
    for _ in range(100):
        w = GridFunction(rng.uniform(-10, 10, size=shape))
        wbar = GridFunction(rng.uniform(-10, 10, size=shape))
        aw, _ = apply(w, paper, tri, grid, 0.1, table=table)
        awbar, _ = apply(wbar, paper, tri, grid, 0.1, table=table)
        assert sup_norm_diff(aw, awbar) <= 0.9 * sup_norm_diff(w, wbar) + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(f"criterion 1: contraction on 100 random pairs (k=h=0.1) in {elapsed:.2f}s")


def test_criterion_02_oracle_equivalence(paper, toy_1d):
    t0 = time.perf_counter()
    cases = [(0.5, 1), (0.5, 2), (0.5, 4), (0.25, 3), (0.25, 4), (0.2, 4)]
    for hk, mu in cases:
        tri = build_uniform(paper.domain, hk)
        grid = control_grid(hk)
        gap = sup_norm_diff(
            solve_finite_horizon(paper, tri, grid, hk, mu),
            brute_force_oracle(paper, tri, grid, hk, mu),
        )
        assert gap <= 1e-10, f"builtin k=h={hk} mu={mu}: gap {gap}"
    tri1 = build_uniform(toy_1d.domain, 1.0 / 3.0)
    grid1 = control_grid(0.5)
    assert tri1.n_vertices == 5 and grid1.m == 2
    gap = sup_norm_diff(
        solve_finite_horizon(toy_1d, tri1, grid1, 0.5, 5),
        brute_force_oracle(toy_1d, tri1, grid1, 0.5, 5),
    )
    assert gap <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(f"criterion 2: oracle equivalence (builtin k=h=0.5 mu=1,2,4, k=h=0.25 mu=3,4, "
        f"k=h=0.2 mu=4; 1-D toy mu=5) in {elapsed:.2f}s")


def test_criterion_03_fixed_point_contract(paper, setups, picard):
    for hk in (0.5, 0.2, 0.1):
        tri, grid, table = setups[hk]
        u, _, report = picard[hk]
        au, _ = apply(u, paper, tri, grid, hk, table=table)
        assert sup_norm_diff(au, u) <= report.final_residual + 1e-14
        assert sup_norm(u) <= paper.bound_f / paper.discount + report.guaranteed_error
    _ok("criterion 3: fixed-point residual and boundedness at h=k in {0.5, 0.2, 0.1}")


def test_criterion_04_benchmark_iteration_counts(picard):
    t0 = time.perf_counter()
    expected = {0.5: 1, 0.1: 10, 0.05: 33}
    for hk, target in expected.items():
        got = picard[hk][2].iterations
        assert target / 2 <= got <= target * 2, f"h=k={hk}: {got} vs table {target}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    counts = {hk: picard[hk][2].iterations for hk in expected}
    _ok(f"criterion 4: iteration counts {counts} within factor 2 of table {{1, 10, 33}}")


def test_criterion_05_horizon_tail(paper, setups, picard):
    tri, grid, table = setups[0.1]
    ustar, _, report = picard[0.1]
    bounds = {1.0: 0.6438, 2.0: 0.2368, 4.0: 0.0321}
    for T, numeric in bounds.items():
        mu = int(round(T / 0.1))
        uT = solve_finite_horizon(paper, tri, grid, 0.1, mu, table=table)
        gap = sup_norm_diff(uT, ustar)
        bound = paper.bound_f / paper.discount * np.exp(-paper.discount * T)
        assert abs(bound - numeric) < 5e-4  # frozen numeric value of the bound
        assert gap <= bound + report.guaranteed_error
    _ok("criterion 5: finite-horizon tail bounds at T in {1, 2, 4} (0.6438, 0.2368, 0.0321)")


def test_criterion_06_analytic_slice_convergence(paper, setups, picard):
    t0 = time.perf_counter()
    errs = {}
    for hk in (0.2, 0.1, 0.05):
        tri, grid, _ = setups[hk]
        u = picard[hk][0]
        exact = np.array([paper.analytic_top_slice(x) for x in tri.vertices])
        errs[hk] = float(np.abs(u.values[:, grid.m] - exact).max())
    assert errs[0.2] > errs[0.1] > errs[0.05]
    assert errs[0.05] <= errs[0.2] / 2
    rate = fit_rate(list(errs.keys()), list(errs.values()))
    assert rate >= 0.25
    elapsed = time.perf_counter() - t0
    assert elapsed < 90.0
    _ok(f"criterion 6: analytic-slice errors {errs} strictly decreasing, rate {rate:.3f} >= 0.25")


def test_criterion_07_method_agreement(paper, setups, picard):
    tri, grid, table = setups[0.1]
    up, _, rp = picard[0.1]
    uh, _, rh = solve(
        paper, tri, grid, SolveOptions(h=0.1, method="howard"), table=table
    )
    diff = sup_norm_diff(up, uh)
    budget = rp.guaranteed_error + rh.guaranteed_error
    assert diff <= budget
    _ok(f"criterion 7: Picard/Howard agreement {diff:.4f} <= {budget:.4f}")


def test_criterion_08_monotone_feedback(paper, setups, picard):
    tri, grid, _ = setups[0.05]
    u = picard[0.05][0]
    rng = np.random.default_rng(7)
    for _ in range(5):
        x0 = rng.uniform(tri.lower, tri.upper)
        a0 = int(rng.integers(0, grid.n_levels))
        traj = simulate(paper, tri, grid, u, x0, a0, 0.05, 40)
        assert np.all(np.diff(traj.control_indices) >= 0)
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), grid.m, 0.05, 300)
    assert np.all(np.diff(traj.control_indices) >= 0)
    assert abs(traj.discounted_total - 0.15) <= 0.05
    _ok(f"criterion 8: monotone controls; |{traj.discounted_total:.4f} - 0.15| <= 0.05")


def test_criterion_09_rerun_determinism(paper, setups):
    tri, grid, table = setups[0.1]
    u1, _, _ = solve(paper, tri, grid, SolveOptions(h=0.1), table=table)
    u2, _, _ = solve(paper, tri, grid, SolveOptions(h=0.1))
    csv1 = nodal_csv(u1, tri, grid)
    csv2 = nodal_csv(u2, tri, grid)
    assert csv1.encode() == csv2.encode()
    _ok("criterion 9: two Picard solves emit bit-identical nodal CSV")


def test_criterion_10_admissible_set_monotonicity(picard):
    u = picard[0.1][0].values
    n_levels = u.shape[1]
    for a in range(n_levels - 1):
        tail_min_a = u[:, a:].min(axis=1)
        tail_min_next = u[:, a + 1:].min(axis=1)
        assert np.all(tail_min_a <= tail_min_next + 1e-15)
    _ok("criterion 10: min over admissible tail nonincreasing as the floor drops (k=h=0.1)")
