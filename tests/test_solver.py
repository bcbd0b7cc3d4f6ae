import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    GridFunction,
    NonConvergenceError,
    PolicyField,
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
from monohjb.bellman import apply_policy, policy_index


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
    for target in (np.nan, np.inf, 0.0, -1e-6):
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


class TestHoward:
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
        """Each outer iteration records its stay-row passes over all
        levels: at least one per level here, where every level keeps some
        rows (observed: 155 and 11).  Picard evaluates no policy."""
        tri, grid = setup(paper, 0.1)
        table = build_table(paper, tri, grid, 0.1)
        _, _, rh = solve(paper, tri, grid, SolveOptions(h=0.1, method="howard"), table=table)
        assert len(rh.evaluation_iterations) == rh.iterations
        assert all(n >= grid.n_levels for n in rh.evaluation_iterations)
        _, _, rp = solve(paper, tri, grid, SolveOptions(h=0.1), table=table)
        assert rp.evaluation_iterations == []

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
    got = apply_policy(values, policy_index(choice, table), table)
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
        tri, grid = setup(paper, 0.5)
        u = solve_finite_horizon(paper, tri, grid, 0.5, 1)
        expected = np.array(
            [[0.5 * paper.cost(x, a) for a in grid.levels] for x in tri.vertices]
        )
        np.testing.assert_allclose(u.values, expected, atol=1e-14)

    def test_matches_apply_loop(self, paper):
        hk, mu = 0.1, 10
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        got = solve_finite_horizon(paper, tri, grid, hk, mu, table=table)
        u = GridFunction.zeros(tri, grid)
        for _ in range(mu):
            u, _ = apply(u, paper, tri, grid, hk, table=table)
        assert got.values.flags.c_contiguous
        np.testing.assert_allclose(got.values, u.values, rtol=0, atol=1e-13)

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
