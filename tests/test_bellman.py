import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    GridFunction,
    InvalidProblemDataError,
    OutOfDomainError,
    apply,
    apply_fixed_control,
    build_table,
    build_uniform,
    control_grid,
    greedy_policy,
    sup_norm_diff,
)


@pytest.fixture(scope="module")
def coarse(paper):
    tri = build_uniform(paper.domain, 0.5)
    grid = control_grid(0.5)
    return tri, grid


@pytest.fixture(scope="module")
def medium(paper):
    tri = build_uniform(paper.domain, 0.1)
    grid = control_grid(0.1)
    return tri, grid, build_table(paper, tri, grid, 0.1)


class TestFixedControl:
    def test_zero_function_gives_stage_cost(self, paper, coarse):
        tri, grid = coarse
        zero = GridFunction.zeros(tri, grid)
        for i in range(tri.n_vertices):
            for ai in range(grid.n_levels):
                expected = 0.5 * paper.cost(tri.vertices[i], grid.levels[ai])
                for b in range(ai, grid.n_levels):
                    got = apply_fixed_control(zero, paper, tri, grid, 0.5, i, ai, b)
                    assert got == pytest.approx(expected, abs=1e-14)

    def test_paper_corner_value(self, paper, coarse):
        tri, grid = coarse
        zero = GridFunction.zeros(tri, grid)
        node = int(np.argmin(np.abs(tri.vertices - [0.5, 0.5]).sum(axis=1)))
        got = apply_fixed_control(zero, paper, tri, grid, 0.5, node, 2, 2)
        assert got == pytest.approx(-0.125)

    def test_constant_input(self, paper, coarse):
        tri, grid = coarse
        c = 1.7
        gf = GridFunction(np.full((tri.n_vertices, grid.n_levels), c))
        got = apply_fixed_control(gf, paper, tri, grid, 0.5, 4, 0, 1)
        expected = 0.5 * c + 0.5 * paper.cost(tri.vertices[4], 0.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_rejects_decreasing_control(self, paper, coarse):
        tri, grid = coarse
        zero = GridFunction.zeros(tri, grid)
        with pytest.raises(ConfigurationError):
            apply_fixed_control(zero, paper, tri, grid, 0.5, 0, 2, 1)

    def test_rejects_bad_step(self, paper, coarse):
        tri, grid = coarse
        zero = GridFunction.zeros(tri, grid)
        with pytest.raises(ConfigurationError):
            apply_fixed_control(zero, paper, tri, grid, 1.5, 0, 0, 0)


class TestApply:
    def test_zero_input(self, paper, coarse):
        tri, grid = coarse
        out, pol = apply(GridFunction.zeros(tri, grid), paper, tri, grid, 0.5)
        expected = np.array(
            [[0.5 * paper.cost(x, a) for a in grid.levels] for x in tri.vertices]
        )
        np.testing.assert_allclose(out.values, expected, atol=1e-14)
        # all candidates tie, smallest admissible b wins
        np.testing.assert_array_equal(
            pol.choice, np.tile(np.arange(grid.n_levels), (tri.n_vertices, 1))
        )

    def test_top_level_singleton(self, paper, coarse):
        tri, grid = coarse
        rng = np.random.default_rng(5)
        gf = GridFunction(rng.normal(size=(tri.n_vertices, grid.n_levels)))
        out, pol = apply(gf, paper, tri, grid, 0.5)
        for i in range(tri.n_vertices):
            expected = apply_fixed_control(gf, paper, tri, grid, 0.5, i, grid.m, grid.m)
            assert out.values[i, grid.m] == pytest.approx(expected, abs=1e-12)
        assert np.all(pol.choice[:, grid.m] == grid.m)

    def test_constant_inputs_contract_exactly(self, paper, coarse):
        tri, grid = coarse
        shape = (tri.n_vertices, grid.n_levels)
        out1, _ = apply(GridFunction(np.full(shape, 2.0)), paper, tri, grid, 0.5)
        out2, _ = apply(GridFunction(np.full(shape, -1.0)), paper, tri, grid, 0.5)
        assert sup_norm_diff(out1, out2) == pytest.approx(0.5 * 3.0, abs=1e-12)

    def test_out_of_domain_is_hard_error(self, coarse):
        from monohjb import ProblemSpec

        tri, grid = coarse
        expanding = ProblemSpec(
            dynamics=lambda x, a: 3.0 * np.asarray(x, dtype=float),
            cost=lambda x, a: 0.0,
            discount=1.0,
            domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            lip_g=3.0, bound_g=4.3, lip_f=0.0, bound_f=0.0,
        )
        with pytest.raises(OutOfDomainError):
            build_table(expanding, tri, grid, 0.5)
        table = build_table(expanding, tri, grid, 0.5, clamp=True)
        assert np.all(table.weights >= 0)

    def test_workers_bit_identical(self, paper, medium):
        tri, grid, table = medium
        rng = np.random.default_rng(11)
        gf = GridFunction(rng.normal(size=(tri.n_vertices, grid.n_levels)))
        out1, pol1 = apply(gf, paper, tri, grid, 0.1, table=table, workers=1)
        out8, pol8 = apply(gf, paper, tri, grid, 0.1, table=table, workers=8)
        np.testing.assert_array_equal(out1.values, out8.values)
        np.testing.assert_array_equal(pol1.choice, pol8.choice)


class TestNonFiniteProblemData:
    """build_table stops at the first non-finite image or cost, before locating it."""

    def build_strict(self, spec, coarse):
        tri, grid = coarse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidProblemDataError) as exc:
                build_table(spec, tri, grid, 0.5)
        return exc.value

    def test_nan_image(self, paper, coarse):
        tri, _ = coarse
        bad = tri.vertices[4]

        def dynamics(x, a):
            if a == 0.5 and np.array_equal(x, bad):
                return np.array([np.nan, 0.0])
            return paper.dynamics(x, a)

        err = self.build_strict(dataclasses.replace(paper, dynamics=dynamics), coarse)
        assert (err.node, err.level) == (4, 1)
        assert np.isnan(err.value[0])
        assert "node 4" in str(err) and "level 1" in str(err)

    def test_inf_cost(self, paper, coarse):
        tri, _ = coarse
        bad = tri.vertices[7]

        def cost(x, a):
            return np.inf if a == 1.0 and np.array_equal(x, bad) else paper.cost(x, a)

        err = self.build_strict(dataclasses.replace(paper, cost=cost), coarse)
        assert (err.node, err.level, err.value) == (7, 2, np.inf)
        assert "node 7" in str(err) and "level 2" in str(err)


class TestOperatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_contraction(self, paper, medium, seed):
        tri, grid, table = medium
        rng = np.random.default_rng(seed)
        shape = (tri.n_vertices, grid.n_levels)
        w = GridFunction(rng.uniform(-5, 5, size=shape))
        wbar = GridFunction(rng.uniform(-5, 5, size=shape))
        aw, _ = apply(w, paper, tri, grid, 0.1, table=table)
        awbar, _ = apply(wbar, paper, tri, grid, 0.1, table=table)
        assert sup_norm_diff(aw, awbar) <= 0.9 * sup_norm_diff(w, wbar) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone(self, paper, medium, seed):
        tri, grid, table = medium
        rng = np.random.default_rng(seed)
        shape = (tri.n_vertices, grid.n_levels)
        low = rng.uniform(-2, 2, size=shape)
        high = low + rng.uniform(0, 1, size=shape)
        alow, _ = apply(GridFunction(low), paper, tri, grid, 0.1, table=table)
        ahigh, _ = apply(GridFunction(high), paper, tri, grid, 0.1, table=table)
        assert np.all(alow.values <= ahigh.values + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(-10, 10))
    def test_constant_shift(self, paper, medium, seed, c):
        tri, grid, table = medium
        rng = np.random.default_rng(seed)
        w = rng.uniform(-2, 2, size=(tri.n_vertices, grid.n_levels))
        aw, _ = apply(GridFunction(w), paper, tri, grid, 0.1, table=table)
        awc, _ = apply(GridFunction(w + c), paper, tri, grid, 0.1, table=table)
        np.testing.assert_allclose(awc.values, aw.values + 0.9 * c, atol=1e-10)


class TestGreedyPolicy:
    def test_all_ties_pick_current_level(self, zero_cost_2d):
        tri = build_uniform(zero_cost_2d.domain, 0.5)
        grid = control_grid(0.5)
        pol = greedy_policy(GridFunction.zeros(tri, grid), zero_cost_2d, tri, grid, 0.5)
        np.testing.assert_array_equal(
            pol.choice, np.tile(np.arange(grid.n_levels), (tri.n_vertices, 1))
        )

    def test_increasing_in_control_stays(self, zero_cost_2d):
        tri = build_uniform(zero_cost_2d.domain, 0.5)
        grid = control_grid(0.5)
        gf = GridFunction(np.tile(np.arange(grid.n_levels, dtype=float), (tri.n_vertices, 1)))
        pol = greedy_policy(gf, zero_cost_2d, tri, grid, 0.5)
        np.testing.assert_array_equal(
            pol.choice, np.tile(np.arange(grid.n_levels), (tri.n_vertices, 1))
        )

    def test_decreasing_in_control_jumps_to_top(self, zero_cost_2d):
        tri = build_uniform(zero_cost_2d.domain, 0.5)
        grid = control_grid(0.5)
        gf = GridFunction(np.tile(-np.arange(grid.n_levels, dtype=float), (tri.n_vertices, 1)))
        pol = greedy_policy(gf, zero_cost_2d, tri, grid, 0.5)
        assert np.all(pol.choice == grid.m)


def test_policy_field_rejects_decrease():
    from monohjb import PolicyField

    with pytest.raises(ConfigurationError):
        PolicyField(np.zeros((4, 3), dtype=int))  # b=0 at a=1,2 decreases
