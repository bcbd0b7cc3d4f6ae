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
    build_table,
    build_uniform,
    control_grid,
    solve_finite_horizon,
    solve_howard,
    solve_picard,
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
        SolveOptions(h=0.1, max_iterations=0).validate(1.0)


class TestPicard:
    def test_paper_coarse_one_iteration(self, paper):
        tri, grid = setup(paper, 0.5)
        _, _, report = solve_picard(paper, tri, grid, SolveOptions(h=0.5))
        assert report.iterations == 1
        assert report.converged

    def test_paper_medium_iteration_count(self, paper):
        tri, grid = setup(paper, 0.1)
        _, _, report = solve_picard(paper, tri, grid, SolveOptions(h=0.1))
        assert 5 <= report.iterations <= 20  # observed: 10

    def test_zero_cost_fixed_point_is_zero(self, zero_cost_2d):
        tri, grid = setup(zero_cost_2d, 0.5)
        u, _, report = solve_picard(zero_cost_2d, tri, grid, SolveOptions(h=0.5))
        assert report.iterations == 1
        assert sup_norm(u) == 0.0
        assert report.guaranteed_error == 0.0

    @pytest.mark.parametrize("hk", [0.5, 0.2, 0.1])
    def test_fixed_point_residual_and_bound(self, paper, hk):
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        u, _, report = solve_picard(paper, tri, grid, SolveOptions(h=hk), table=table)
        au, _ = apply(u, paper, tri, grid, hk, table=table)
        assert sup_norm_diff(au, u) <= report.final_residual + 1e-14
        assert sup_norm(u) <= paper.bound_f / paper.discount + report.guaranteed_error

    def test_geometric_residual_decay(self, paper):
        tri, grid = setup(paper, 0.1)
        _, _, report = solve_picard(paper, tri, grid, SolveOptions(h=0.1))
        hist = report.residual_history
        for a, b in zip(hist, hist[1:]):
            assert b <= 0.9 * a + 1e-12

    def test_non_convergence_carries_partial_result(self, paper):
        tri, grid = setup(paper, 0.1)
        with pytest.raises(NonConvergenceError) as exc:
            solve_picard(paper, tri, grid, SolveOptions(h=0.1, max_iterations=2))
        assert exc.value.value is not None
        assert exc.value.report.iterations == 2
        assert not exc.value.report.converged

    def test_target_bound_stop_rule(self, paper):
        tri, grid = setup(paper, 0.1)
        target = 5e-3
        _, _, report = solve_picard(
            paper, tri, grid,
            SolveOptions(h=0.1, stop_rule="target_bound", target=target),
        )
        assert report.guaranteed_error <= target


class TestHoward:
    def test_zero_cost_converges_to_zero(self, zero_cost_2d):
        tri, grid = setup(zero_cost_2d, 0.5)
        u, _, report = solve_howard(
            zero_cost_2d, tri, grid, SolveOptions(h=0.5, method="howard")
        )
        assert sup_norm(u) <= 1e-12

    def test_agreement_with_picard(self, paper):
        tri, grid = setup(paper, 0.2)
        table = build_table(paper, tri, grid, 0.2)
        up, _, rp = solve_picard(paper, tri, grid, SolveOptions(h=0.2), table=table)
        uh, _, rh = solve_howard(
            paper, tri, grid, SolveOptions(h=0.2, method="howard"), table=table
        )
        assert sup_norm_diff(up, uh) <= rp.guaranteed_error + rh.guaranteed_error

    def test_guaranteed_error_contract(self, paper):
        tri, grid = setup(paper, 0.2)
        table = build_table(paper, tri, grid, 0.2)
        u, _, report = solve_howard(
            paper, tri, grid, SolveOptions(h=0.2, method="howard"), table=table
        )
        au, _ = apply(u, paper, tri, grid, 0.2, table=table)
        # one more sweep contracts, so the residual certifies the bound
        assert sup_norm_diff(au, u) <= report.final_residual + 1e-12


    def test_certified_target_in_few_outer_iterations(self, paper):
        tri, grid = setup(paper, 0.05)
        opts = SolveOptions(h=0.05, method="howard", stop_rule="target_bound", target=1e-8)
        _, _, report = solve_howard(paper, tri, grid, opts)
        assert report.converged
        assert report.iterations <= 3  # observed: 2
        assert report.guaranteed_error <= 5e-10  # observed: 4.2e-10


def test_apply_policy_matches_node_loop(paper):
    hk = 0.25
    tri, grid = setup(paper, hk)
    table = build_table(paper, tri, grid, hk)
    n_nodes, nl = tri.n_vertices, grid.n_levels
    rng = np.random.default_rng(5)
    values = rng.normal(size=(n_nodes, nl))
    choice = np.array([[rng.integers(a, nl) for a in range(nl)] for _ in range(n_nodes)])
    policy = PolicyField(choice)
    flat = apply_policy(values.T.ravel(), policy_index(policy, table), table)
    got = flat.reshape(nl, n_nodes).T
    beta = 1.0 - paper.discount * hk
    expected = np.empty_like(values)
    for i in range(n_nodes):
        for a in range(nl):
            b = choice[i, a]
            interp = sum(
                table.weights[a, i, j] * values[table.indices[a, i, j], b]
                for j in range(tri.dim + 1)
            )
            expected[i, a] = beta * interp + hk * table.stage_cost[i, a]
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)


@pytest.fixture(scope="module")
def tight_picard(paper):
    """Picard solutions certified to 1e-12, keyed by k = h."""
    out = {}
    for hk in (0.5, 0.25, 0.2):
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        opts = SolveOptions(h=hk, stop_rule="target_bound", target=1e-12)
        u, _, report = solve_picard(paper, tri, grid, opts, table=table)
        out[hk] = (tri, grid, table, u, report)
    return out


@settings(max_examples=30, deadline=None)
@given(hk=st.sampled_from([0.5, 0.25, 0.2]), target=st.floats(1e-10, 1e-4))
def test_howard_certificate_against_tight_picard(paper, tight_picard, hk, target):
    tri, grid, table, up, rp = tight_picard[hk]
    opts = SolveOptions(h=hk, method="howard", stop_rule="target_bound", target=target)
    uh, _, rh = solve_howard(paper, tri, grid, opts, table=table)
    assert rh.converged
    assert rh.guaranteed_error <= target
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

    def test_negative_steps_rejected(self, paper):
        tri, grid = setup(paper, 0.5)
        with pytest.raises(ConfigurationError):
            solve_finite_horizon(paper, tri, grid, 0.5, -1)

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_horizon_tail_bounds(self, paper, T):
        hk = 0.1
        tri, grid = setup(paper, hk)
        table = build_table(paper, tri, grid, hk)
        ustar, _, report = solve_picard(paper, tri, grid, SolveOptions(h=hk), table=table)
        mu = int(round(T / hk))
        uT = solve_finite_horizon(paper, tri, grid, hk, mu, table=table)
        gap = sup_norm_diff(uT, ustar)
        mf_over_lam = paper.bound_f / paper.discount
        assert gap <= (1 - hk) ** mu * mf_over_lam + report.guaranteed_error
        assert gap <= tail_bound(paper, T) + report.guaranteed_error
