import dataclasses
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    GridFunction,
    NonConvergenceError,
    PolicyField,
    ProblemSpec,
    SolveOptions,
    apply,
    brute_force_oracle,
    build_table,
    build_uniform,
    control_grid,
    greedy_policy,
    simulate,
    solve,
    solve_finite_horizon,
    sup_norm,
    sup_norm_diff,
    tail_bound,
)
from monohjb import bellman
from monohjb.bellman import apply_policy, sweep
from monohjb.fespace import nodal_csv


def setup(spec, hk):
    tri = build_uniform(spec.domain, hk)
    grid = control_grid(hk)
    return tri, grid


def test_options_validation(paper):
    with pytest.raises(ConfigurationError):
        SolveOptions(h=1.5).validate(1.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(h=0.1, method="newton").validate(1.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(h=0.1, stop_rule="target_bound").validate(1.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(h=0.1, target=1e-6).validate(1.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(h=0.1, max_iterations=0).validate(1.0)
    for target in (np.nan, np.inf, 0.0, -1e-6, True, np.True_):
        with pytest.raises(ConfigurationError, match="positive finite target"):
            SolveOptions(h=0.1, stop_rule="target_bound", target=target).validate(1.0)


class TestPicard:
    def test_paper_coarse_one_iteration(self, paper):
        tri, grid = setup(paper, 0.5)
        _, _, report = solve(paper, tri, grid, SolveOptions(h=0.5))
        assert report.iterations == 1
        assert report.converged

    def test_paper_medium_iteration_count(self, paper):
        tri, grid = setup(paper, 0.1)
        _, _, report = solve(paper, tri, grid, SolveOptions(h=0.1))
        assert 5 <= report.iterations <= 20  # observed: 10

    def test_zero_cost_fixed_point_is_zero(self, zero_cost_2d):
        tri, grid = setup(zero_cost_2d, 0.5)
        u, _, report = solve(zero_cost_2d, tri, grid, SolveOptions(h=0.5))
        assert report.iterations == 1
        assert sup_norm(u) == 0.0
        assert report.guaranteed_error == 0.0

    @pytest.mark.parametrize("hk", [0.5, 0.2, 0.1])
    def test_fixed_point_residual_and_bound(self, paper, hk):
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        u, _, report = solve(paper, tri, grid, SolveOptions(h=hk), table=table)
        au, _ = apply(u, paper, tri, grid, hk, table=table)
        assert sup_norm_diff(au, u) <= report.final_residual + 1e-14
        assert sup_norm(u) <= paper.bound_f / paper.discount + report.guaranteed_error

    def test_geometric_residual_decay(self, paper):
        tri, grid = setup(paper, 0.1)
        _, _, report = solve(paper, tri, grid, SolveOptions(h=0.1))
        hist = report.residual_history
        for a, b in zip(hist, hist[1:]):
            assert b <= 0.9 * a + 1e-12

    def test_non_convergence_carries_partial_result(self, paper):
        tri, grid = setup(paper, 0.1)
        with pytest.raises(NonConvergenceError) as exc:
            solve(paper, tri, grid, SolveOptions(h=0.1, max_iterations=2))
        assert exc.value.value is not None
        assert exc.value.report.iterations == 2
        assert not exc.value.report.converged

    def test_target_bound_stop_rule(self, paper):
        tri, grid = setup(paper, 0.1)
        target = 5e-3
        _, _, report = solve(
            paper, tri, grid,
            SolveOptions(h=0.1, stop_rule="target_bound", target=target),
        )
        assert report.guaranteed_error <= target


@pytest.mark.parametrize("hk,paper_rule,tight", [
    (0.5, 1, 25), (0.25, 3, 60), (0.2, 3, 77), (0.1, 10, 162), (0.05, 33, 333),
])
def test_picard_iteration_counts_pinned(paper, hk, paper_rule, tight):
    tri, grid = setup(paper, hk)
    table = build_table(paper, tri, grid, hk)
    _, _, report = solve(paper, tri, grid, SolveOptions(h=hk), table=table)
    assert report.iterations == paper_rule
    opts = SolveOptions(h=hk, stop_rule="target_bound", target=1e-8)
    _, _, report = solve(paper, tri, grid, opts, table=table)
    assert report.iterations == tight
    assert report.guaranteed_error <= 1e-8


def test_picard_returns_last_sweep_and_its_argmin(paper):
    hk = 0.1
    tri, grid = setup(paper, hk)
    table = build_table(paper, tri, grid, hk)
    u, policy, report = solve(paper, tri, grid, SolveOptions(h=hk), table=table)
    short = SolveOptions(h=hk, max_iterations=report.iterations - 1)
    with pytest.raises(NonConvergenceError) as exc:
        solve(paper, tri, grid, short, table=table)
    # u is the iterate whose residual the report certifies
    assert sup_norm_diff(u, exc.value.value) == report.final_residual
    last, last_policy = apply(exc.value.value, paper, tri, grid, hk, table=table)
    np.testing.assert_array_equal(u.values, last.values)
    np.testing.assert_array_equal(policy.choice, last_policy.choice)


def test_picard_decides_rows_once_the_suffix_argmin_repeats(paper, monkeypatch):
    """Picard's first check is the sweep after the first sweep whose
    per-node suffix argmin S repeats the one before; each later one is the
    first whose change is at most half the last check's.  Each is given the
    change of the iterate it sweeps.  The first check gives every row its
    live levels; only checks drop any, and a row is decided once one live
    level is left.  At k = h = 0.1 and at 0.05 (the certified_picard
    benchmark's solve) to 1e-8, every row is decided by the stop, and the
    iterations, the first check's sweep (counted from 1) and the number of
    checks and the live pairs after the first check stay as pinned."""
    call = bellman.Sweeper._sweep

    def record(self, values, change):
        repeats = self.s_repeats
        out = call(self, values, change)
        live = self.live_pairs()
        decided = int((self.decided_levels() >= 0).sum())
        calls.append((repeats, change, None if live is None else len(live[0]), decided))
        return out

    monkeypatch.setattr(bellman.Sweeper, "_sweep", record)
    for hk, iterations, first_check, checks, pairs_after_first in [
            (0.1, 162, 31, 19, 5_379), (0.05, 333, 70, 19, 57_207)]:
        tri, grid = setup(paper, hk)
        calls = []
        opts = SolveOptions(h=hk, stop_rule="target_bound", target=1e-8)
        _, _, report = solve(paper, tri, grid, opts)
        assert report.iterations == len(calls) == iterations
        history = report.residual_history
        first = next(n for n, (repeats, *_) in enumerate(calls) if repeats)
        assert first > 1
        assert all(change is None and pairs is None and decided == 0
                   for _, change, pairs, decided in calls[:first])
        due = None
        for n in range(first, len(calls)):
            change, pairs, _ = calls[n][1:]
            if due is None or history[n - 1] <= due:
                low, high = change
                assert max(high.max(), -low.min()) == history[n - 1]
                due = history[n - 1] / 2
            else:
                assert change is None and pairs == calls[n - 1][2]
            if n > first:
                assert pairs <= calls[n - 1][2]
        rows = tri.n_vertices * grid.n_levels
        assert all(pairs >= rows for _, _, pairs, _ in calls[first:])
        # the top level's rows have one live level from the first check on
        assert calls[first][3] >= tri.n_vertices
        assert calls[-1][2] == calls[-1][3] == rows
        assert first + 1 == first_check
        assert sum(change is not None for _, change, _, _ in calls) == checks
        assert calls[first][2] == pairs_after_first


class TestHoward:
    def test_stalls_at_the_rounding_floor_fails_fast(self, paper):
        """The paper problem with cost + 1000 ("offset") has values near
        1000, and at k = h = 0.1 Howard's residual sits at 3.41e-13 from the
        second outer iteration on, above the 1e-12 target's threshold
        1.1e-13, with an unchanged policy.  The third iteration, which
        repeats the policy it evaluated without a lower residual, raises,
        naming the residual reached."""
        offset = dataclasses.replace(
            paper, cost=lambda x, a: paper.cost(x, a) + 1000.0, bound_f=paper.bound_f + 1000.0)
        tri, grid = setup(offset, 0.1)
        opts = SolveOptions(h=0.1, method="howard", stop_rule="target_bound", target=1e-12)
        t0 = time.perf_counter()
        with pytest.raises(NonConvergenceError, match=r"stalled .* residual 3\.411e-13") as exc:
            solve(offset, tri, grid, opts)
        assert time.perf_counter() - t0 < 1.0
        report = exc.value.report
        assert report.iterations <= 3 and not report.converged
        history = report.residual_history
        assert history[-1] >= history[-2] > opts.residual_threshold(offset.discount)

    def test_zero_cost_converges_to_zero(self, zero_cost_2d):
        tri, grid = setup(zero_cost_2d, 0.5)
        u, _, report = solve(
            zero_cost_2d, tri, grid, SolveOptions(h=0.5, method="howard")
        )
        assert sup_norm(u) <= 1e-12

    def test_agreement_with_picard(self, paper):
        tri, grid = setup(paper, 0.2)
        table = build_table(paper, tri, grid, 0.2)
        up, _, rp = solve(paper, tri, grid, SolveOptions(h=0.2), table=table)
        uh, _, rh = solve(
            paper, tri, grid, SolveOptions(h=0.2, method="howard"), table=table
        )
        assert sup_norm_diff(up, uh) <= rp.guaranteed_error + rh.guaranteed_error

    def test_guaranteed_error_contract(self, paper):
        tri, grid = setup(paper, 0.2)
        table = build_table(paper, tri, grid, 0.2)
        u, _, report = solve(
            paper, tri, grid, SolveOptions(h=0.2, method="howard"), table=table
        )
        au, _ = apply(u, paper, tri, grid, 0.2, table=table)
        # one more sweep contracts, so the residual certifies the bound
        assert sup_norm_diff(au, u) <= report.final_residual + 1e-12


    def test_certified_target_in_few_outer_iterations(self, paper):
        tri, grid = setup(paper, 0.05)
        opts = SolveOptions(h=0.05, method="howard", stop_rule="target_bound", target=1e-8)
        _, _, report = solve(paper, tri, grid, opts)
        assert report.converged
        assert report.iterations <= 3  # observed: 2
        assert report.guaranteed_error <= 1e-12  # observed: 2.1e-15

    def test_evaluation_iterations_per_outer_iteration(self, paper):
        """Each outer iteration records its passes over each block of
        levels, summed: 17 from the stay policy, then one for the one block
        of all 11 levels.  Picard evaluates no policy."""
        tri, grid = setup(paper, 0.1)
        table = build_table(paper, tri, grid, 0.1)
        _, _, rh = solve(paper, tri, grid, SolveOptions(h=0.1, method="howard"), table=table)
        assert len(rh.evaluation_iterations) == rh.iterations
        assert rh.evaluation_iterations == [17, 1]
        _, _, rp = solve(paper, tri, grid, SolveOptions(h=0.1), table=table)
        assert rp.evaluation_iterations == []

    @pytest.mark.parametrize("rule", [{}, {"stop_rule": "target_bound", "target": 1e-8}])
    def test_level_blocks_give_the_bits_of_single_levels(self, paper, rule):
        """At k = h = 0.05 the row budget puts 5 levels in a block (21
        levels in 5 blocks).  Values, policy, residuals and certificate are
        those of one-level blocks, bit for bit, in fewer passes."""
        hk = 0.05
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        opts = SolveOptions(h=hk, method="howard", **rule)
        u, policy, report = solve(paper, tri, grid, opts, table=table)
        with mock.patch.object(bellman, "_BLOCK_ROWS", tri.n_vertices):
            u1, policy1, report1 = solve(paper, tri, grid, opts, table=table)
        assert u.values.tobytes() == u1.values.tobytes()
        np.testing.assert_array_equal(policy.choice, policy1.choice)
        assert report.residual_history == report1.residual_history
        assert report.guaranteed_error == report1.guaranteed_error
        assert report.evaluation_iterations[-1] == 5
        assert report1.evaluation_iterations[-1] == grid.n_levels
        assert report.evaluation_iterations[0] < report1.evaluation_iterations[0]

    def test_paper_rule_stops_on_residual_alone(self, paper):
        """The paper rule stops at the first residual below h^2, settled
        policy or not, and the certificate still bounds the distance to a
        tightly certified solution (Howard's, itself checked against tight
        Picard in test_howard_certificate_against_tight_picard)."""
        hk = 0.05
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        uh, _, rh = solve(paper, tri, grid, SolveOptions(h=hk, method="howard"),
                          table=table)
        assert rh.converged
        assert rh.iterations <= 3  # observed: 2
        tight = SolveOptions(h=hk, method="howard", stop_rule="target_bound", target=1e-10)
        ut, _, rt = solve(paper, tri, grid, tight, table=table)
        assert sup_norm_diff(uh, ut) <= rh.guaranteed_error + rt.guaranteed_error


def test_apply_policy_matches_node_loop(paper):
    hk = 0.25
    tri, grid = setup(paper, hk)
    table = build_table(paper, tri, grid, hk)
    n_nodes, nl = tri.n_vertices, grid.n_levels
    rng = np.random.default_rng(5)
    values = rng.normal(size=(nl, n_nodes))
    choice = np.array([[rng.integers(a, nl) for _ in range(n_nodes)] for a in range(nl)])
    got = apply_policy(values, choice, table)
    assert got.shape == (nl, n_nodes)
    beta = 1.0 - paper.discount * hk
    expected = np.empty_like(values)
    for a in range(nl):
        for i in range(n_nodes):
            b = choice[a, i]
            col = a * n_nodes + i
            interp = sum(
                table.weights[j, col] * values[b, table.indices[j, col] - a * n_nodes]
                for j in range(tri.dim + 1)
            )
            expected[a, i] = beta * interp + hk * table.stage_cost[a, i]
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)


@pytest.fixture(scope="module")
def tight_picard(paper):
    """Picard solutions certified to 1e-12, keyed by k = h."""
    out = {}
    for hk in (0.5, 0.25, 0.2):
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        opts = SolveOptions(h=hk, stop_rule="target_bound", target=1e-12)
        u, _, report = solve(paper, tri, grid, opts, table=table)
        out[hk] = (tri, grid, table, u, report)
    return out


@settings(max_examples=30, deadline=None)
@given(hk=st.sampled_from([0.5, 0.25, 0.2]), target=st.floats(1e-10, 1e-4))
def test_howard_certificate_against_tight_picard(paper, tight_picard, hk, target):
    tri, grid, table, up, rp = tight_picard[hk]
    opts = SolveOptions(h=hk, method="howard", stop_rule="target_bound", target=target)
    uh, _, rh = solve(paper, tri, grid, opts, table=table)
    assert rh.converged
    assert rh.guaranteed_error <= target
    assert sup_norm_diff(uh, up) <= rh.guaranteed_error + rp.guaranteed_error


@pytest.mark.parametrize("hk", [0.5, 0.25, 0.2])
def test_howard_paper_rule_certificate_against_tight_picard(paper, tight_picard, hk):
    tri, grid, table, up, rp = tight_picard[hk]
    uh, _, rh = solve(paper, tri, grid, SolveOptions(h=hk, method="howard"),
                      table=table)
    assert rh.converged
    assert sup_norm_diff(uh, up) <= rh.guaranteed_error + rp.guaranteed_error


class TestFiniteHorizon:
    def test_zero_steps(self, paper):
        tri, grid = setup(paper, 0.5)
        u = solve_finite_horizon(paper, tri, grid, 0.5, 0)
        assert sup_norm(u) == 0.0

    def test_one_step_is_stage_cost(self, paper):
        """The recursion starts at A(0) without a sweep: one step is a sweep
        of the zero function bit for bit, h f where it is not zero.  Four
        entries of h f are -0.0 at k = h = 0.5; the sweep interpolates
        zeros to +0.0, so the value has +0.0 there."""
        tri, grid = setup(paper, 0.5)
        table = build_table(paper, tri, grid, 0.5)
        u = solve_finite_horizon(paper, tri, grid, 0.5, 1, table=table).values
        expected = np.array(
            [[0.5 * paper.cost(x, a) for a in grid.levels] for x in tri.vertices]
        )
        np.testing.assert_allclose(u, expected, atol=1e-14)
        assert u.tobytes() == sweep(np.zeros(table.stage_cost.shape), table).T.tobytes()
        step = (table.h * table.stage_cost).T
        negative_zero = (step == 0.0) & np.signbit(step)
        assert negative_zero.sum() == 4
        assert not np.signbit(u[negative_zero]).any()

    def test_matches_apply_loop(self, paper):
        """mu sweeps of the zero function, bit for bit."""
        for hk in (0.5, 0.1):
            tri, grid = setup(paper, hk)
            table = build_table(paper, tri, grid, hk)
            for mu in (1, 2, 10):
                got = solve_finite_horizon(paper, tri, grid, hk, mu, table=table)
                u = np.zeros(table.stage_cost.shape)
                for _ in range(mu):
                    u = sweep(u, table)
                assert got.values.flags.c_contiguous
                assert got.values.tobytes() == u.T.tobytes(), (hk, mu)

    def test_negative_steps_rejected(self, paper):
        tri, grid = setup(paper, 0.5)
        with pytest.raises(ConfigurationError):
            solve_finite_horizon(paper, tri, grid, 0.5, -1)

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_horizon_tail_bounds(self, paper, T):
        hk = 0.1
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        ustar, _, report = solve(paper, tri, grid, SolveOptions(h=hk), table=table)
        mu = int(round(T / hk))
        uT = solve_finite_horizon(paper, tri, grid, hk, mu, table=table)
        gap = sup_norm_diff(uT, ustar)
        mf_over_lam = paper.bound_f / paper.discount
        assert gap <= (1 - hk) ** mu * mf_over_lam + report.guaranteed_error
        assert gap <= tail_bound(paper, T) + report.guaranteed_error


@pytest.fixture(scope="module")
def mismatched_tables(paper):
    """Per field, (tri, grid, h, table) with a table that differs in that field
    alone from what a call with this mesh, grid and step needs."""
    tri, grid = setup(paper, 0.1)
    fine = control_grid(0.05)
    # the k = 0.5 mesh of [-2, 2]^2 has the 49 nodes of the paper's k = 0.25 mesh
    coarse, coarse_grid = setup(paper, 0.25)
    wide = dataclasses.replace(paper, domain=(np.full(2, -2.0), np.full(2, 2.0)))
    wide_tri = build_uniform(wide.domain, 0.5)
    assert wide_tri.n_vertices == coarse.n_vertices
    return {
        "h": (tri, fine, 0.1, build_table(paper, tri, fine, 0.05)),
        "discount": (tri, grid, 0.1,
                     build_table(dataclasses.replace(paper, discount=0.5), tri, grid, 0.1)),
        "levels": (tri, grid, 0.1, build_table(paper, tri, fine, 0.1)),
        "nodes": (tri, grid, 0.1, build_table(paper, build_uniform(paper.domain, 0.2), grid, 0.1)),
        # same step, discount, levels and nodes: only the problem or mesh differs
        "cost": (tri, grid, 0.1, build_table(
            dataclasses.replace(paper, cost=lambda x, a: np.ones(len(x))), tri, grid, 0.1)),
        "domain": (coarse, coarse_grid, 0.25, build_table(wide, wide_tri, coarse_grid, 0.25)),
    }


TABLE_USERS = {
    "solve_picard": lambda spec, tri, grid, h, table: solve(
        spec, tri, grid, SolveOptions(h=h), table=table),
    "solve_howard": lambda spec, tri, grid, h, table: solve(
        spec, tri, grid, SolveOptions(h=h, method="howard"), table=table),
    "apply": lambda spec, tri, grid, h, table: apply(
        GridFunction.zeros(tri, grid), spec, tri, grid, h, table=table),
    "greedy_policy": lambda spec, tri, grid, h, table: greedy_policy(
        GridFunction.zeros(tri, grid), spec, tri, grid, h, table=table),
    "solve_finite_horizon": lambda spec, tri, grid, h, table: solve_finite_horizon(
        spec, tri, grid, h, 3, table=table),
}


def _plain(out):
    """The arrays and numbers of a result, for exact comparison."""
    if isinstance(out, tuple):
        return [x for part in out for x in _plain(part)]
    if isinstance(out, GridFunction):
        return [out.values]
    if isinstance(out, PolicyField):
        return [out.choice]
    return [out.iterations, out.guaranteed_error, out.residual_history]


@pytest.mark.parametrize("field", ["h", "discount", "levels", "nodes", "cost", "domain"])
@pytest.mark.parametrize("user", sorted(TABLE_USERS))
def test_mismatched_table_is_rebuilt(paper, mismatched_tables, field, user):
    tri, grid, h, table = mismatched_tables[field]
    with pytest.warns(UserWarning, match="does not fit"):
        got = TABLE_USERS[user](paper, tri, grid, h, table)
    want = TABLE_USERS[user](paper, tri, grid, h, None)
    for a, b in zip(_plain(got), _plain(want), strict=True):
        np.testing.assert_array_equal(a, b)


def test_certificate_holds_when_handed_a_table_of_another_step(paper, mismatched_tables):
    """Sweeping the h = 0.05 table under h = 0.1 options certified 0.0786
    against a true distance of 0.166."""
    tri, grid, h, table = mismatched_tables["h"]
    with pytest.warns(UserWarning):
        u, _, report = solve(paper, tri, grid, SolveOptions(h=h), table=table)
    tight = SolveOptions(h=h, stop_rule="target_bound", target=1e-12)
    ut, _, rt = solve(paper, tri, grid, tight)
    assert sup_norm_diff(u, ut) <= report.guaranteed_error + rt.guaranteed_error


@pytest.mark.parametrize("method", ["picard", "howard"])
def test_report_method_follows_options(paper, method):
    tri, grid = setup(paper, 0.5)
    _, _, report = solve(paper, tri, grid, SolveOptions(h=0.5, method=method))
    assert report.method == method


COUNT_ARGUMENTS = {
    "max_iterations": lambda spec, tri, grid, n: solve(
        spec, tri, grid, SolveOptions(h=0.5, max_iterations=n)),
    "mu": lambda spec, tri, grid, n: solve_finite_horizon(spec, tri, grid, 0.5, n),
    "oracle mu": lambda spec, tri, grid, n: brute_force_oracle(spec, tri, grid, 0.5, n),
    "steps": lambda spec, tri, grid, n: simulate(
        spec, tri, grid, GridFunction.zeros(tri, grid), np.array([0.5, 0.5]), 0, 0.5, n),
    "a0_index": lambda spec, tri, grid, n: simulate(
        spec, tri, grid, GridFunction.zeros(tri, grid), np.array([0.5, 0.5]), n, 0.5, 2),
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("name", sorted(COUNT_ARGUMENTS))
def test_count_arguments_reject_fractions_and_booleans(paper, name, value):
    """2.5 raised a bare TypeError (or an IndexError for a0_index), and True
    ran as 1."""
    tri, grid = setup(paper, 0.5)
    with pytest.raises(ConfigurationError, match=f"{name.split()[-1]} must be an integer"):
        COUNT_ARGUMENTS[name](paper, tri, grid, value)


@pytest.mark.parametrize("name", sorted(COUNT_ARGUMENTS))
def test_count_arguments_take_numpy_integers(paper, name):
    tri, grid = setup(paper, 0.5)
    COUNT_ARGUMENTS[name](paper, tri, grid, np.int64(1))


def still_2d():
    """No motion: every Euler image is its node, so each node solves its
    own stopping problem (see stationary_reference).  The cost is smooth,
    and it falls with the level where |x| > 0.5, so rows switch."""
    def cost(x, a):
        return a * (0.25 - (x * x).sum(-1)) + 0.5 * np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])

    return ProblemSpec(
        dynamics=lambda x, a: np.zeros_like(x), cost=cost, discount=1.0,
        domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        lip_g=0.0, bound_g=0.0, lip_f=4.0, bound_f=2.5, name="still_2d",
    )


def stationary_reference(spec, tri, grid, h):
    """The fixed point node by node, with no table and no sweep: at the top
    level u_m = f_m / lambda, below it u_a = min(f_a / lambda, h f_a + beta
    min_{b>a} u_b), staying for ever or switching to the best level above.
    Level-major (n_levels, N)."""
    f = np.array([spec.cost(tri.vertices, a) for a in grid.levels])
    lam, beta = spec.discount, 1.0 - spec.discount * h
    u = f / lam
    best = u[-1].copy()
    for a in range(grid.n_levels - 2, -1, -1):
        u[a] = np.minimum(u[a], h * f[a] + beta * best)
        np.minimum(best, u[a], out=best)
    return u


class TestExactReference:
    """Every solver against a fixed point known in closed form."""

    @pytest.mark.parametrize("hk", [0.1, 0.05])
    @pytest.mark.parametrize("method, target", [("picard", 1e-10), ("howard", 1e-12)])
    def test_still_problem_matches_stationary_reference(self, hk, method, target):
        """Within the certificate plus the rounding of the reference itself.
        Thousands of rows switch (2,811 at 0.1, 24,114 at 0.05), some of them
        to a level of their own block of Howard's evaluation."""
        spec = still_2d()
        tri, grid = setup(spec, hk)
        opts = SolveOptions(h=hk, method=method, stop_rule="target_bound", target=target)
        u, policy, report = solve(spec, tri, grid, opts)
        assert report.guaranteed_error <= target
        exact = stationary_reference(spec, tri, grid, hk)
        assert np.abs(u.values - exact.T).max() <= report.guaranteed_error + 1e-13
        assert (policy.choice > np.arange(grid.n_levels)).sum() > 1000


def contracting_cube():
    """3-D: contracting dynamics whose images stay in the box, and a cost
    that falls with the level outside the ball of radius 0.5."""
    return ProblemSpec(
        dynamics=lambda x, a: -(a + 1.0) * x,
        cost=lambda x, a: a * (0.25 - (x * x).sum(-1)),
        discount=1.0,
        domain=(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])),
        lip_g=2.0, bound_g=2.0, lip_f=3.5, bound_f=2.75, name="contracting_cube",
    )


@pytest.fixture(scope="module")
def cube():
    spec = contracting_cube()
    tri, grid = setup(spec, 0.25)
    return spec, tri, grid, build_table(spec, tri, grid, 0.25)


class TestThreeD:
    """A Kuhn mesh with nu! = 6 simplices per cell through every solver,
    the closed loop and the CSV writer: 343 nodes, 1,296 simplices."""

    def test_mesh_size(self, cube):
        _, tri, grid, _ = cube
        assert (tri.n_vertices, len(tri.simplices), grid.n_levels) == (343, 1296, 5)

    def test_picard_and_howard_agree(self, cube):
        spec, tri, grid, table = cube
        tight = {"stop_rule": "target_bound", "target": 1e-8}
        up, pp, rp = solve(spec, tri, grid, SolveOptions(h=0.25, **tight), table=table)
        uh, ph, rh = solve(spec, tri, grid, SolveOptions(h=0.25, method="howard", **tight),
                           table=table)
        assert rp.guaranteed_error <= 1e-8 and rh.guaranteed_error <= 1e-8
        assert sup_norm_diff(up, uh) <= rp.guaranteed_error + rh.guaranteed_error
        assert np.all(ph.choice >= np.arange(grid.n_levels))

    def test_finite_horizon_matches_oracle(self, cube):
        spec, tri, grid, table = cube
        u = solve_finite_horizon(spec, tri, grid, 0.25, 2, table=table)
        oracle = brute_force_oracle(spec, tri, grid, 0.25, 2)
        assert sup_norm_diff(u, oracle) <= 1e-10

    def test_rollout_and_csv(self, cube):
        spec, tri, grid, table = cube
        u, _, _ = solve(spec, tri, grid, SolveOptions(h=0.25, method="howard"), table=table)
        starts = np.random.default_rng(3).uniform(tri.lower, tri.upper, size=(4, 3))
        for j, x0 in enumerate(starts):
            traj = simulate(spec, tri, grid, u, x0, j % grid.n_levels, 0.25, 20)
            levels = np.append(traj.control_indices, traj.terminal_control)
            assert traj.n_steps == 20
            assert np.all(np.diff(levels) >= 0)
            assert np.all((traj.states >= tri.lower) & (traj.states <= tri.upper))
        lines = nodal_csv(u, tri, grid).splitlines()
        assert lines[0] == "node,x1,x2,x3,a,value"
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        nodes = rows[:, 0].astype(int)
        np.testing.assert_array_equal(nodes, np.repeat(np.arange(tri.n_vertices), grid.n_levels))
        np.testing.assert_array_equal(rows[:, 1:4], tri.vertices[nodes])
        np.testing.assert_array_equal(rows[:, 4], np.tile(grid.levels, tri.n_vertices))
        np.testing.assert_array_equal(rows[:, 5], u.values.ravel())
