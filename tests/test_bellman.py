import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    GridFunction,
    InvalidProblemDataError,
    OutOfDomainError,
    ProblemSpec,
    apply,
    brute_force_oracle,
    build_table,
    build_uniform,
    control_grid,
    greedy_policy,
    lookahead,
    solve_finite_horizon,
    sup_norm_diff,
)
from monohjb import bellman
from monohjb.bellman import Sweeper, TransitionTable, apply_policy, sweep
from monohjb.mesh import locate_many


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


def _candidates(values, spec, tri, grid, h, i, a_index):
    """The lookahead candidates of node i under level a_index."""
    a = float(grid.levels[a_index])
    return lookahead(values, spec, tri, h, tri.vertices[i:i + 1], a_index, a, f"node {i}")[2]


class TestFixedControl:
    """The one-point operator under a fixed committed level a."""

    def test_zero_function_gives_stage_cost(self, paper, coarse):
        tri, grid = coarse
        zero = np.zeros((tri.n_vertices, grid.n_levels))
        for i in range(tri.n_vertices):
            x = tri.vertices[i:i + 1]
            for ai, a in enumerate(grid.levels):
                image, f, cand = lookahead(zero, paper, tri, 0.5, x, ai, a, f"node {i}")
                assert f == paper.cost(x, a)[0]
                assert image == (x + 0.5 * paper.dynamics(x, a))[0].tolist()
                assert cand.shape == (grid.n_levels - ai,)
                np.testing.assert_allclose(cand, 0.5 * f, atol=1e-14)

    def test_paper_corner_value(self, paper, coarse):
        tri, grid = coarse
        zero = np.zeros((tri.n_vertices, grid.n_levels))
        node = int(np.argmin(np.abs(tri.vertices - [0.5, 0.5]).sum(axis=1)))
        got = _candidates(zero, paper, tri, grid, 0.5, node, 2)
        assert got.tolist() == pytest.approx([-0.125])

    def test_constant_input(self, paper, coarse):
        tri, grid = coarse
        c = 1.7
        values = np.full((tri.n_vertices, grid.n_levels), c)
        got = _candidates(values, paper, tri, grid, 0.5, 4, 0)
        expected = 0.5 * c + 0.5 * paper.cost(tri.vertices[4], 0.0)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rejects_bad_step(self, paper, coarse):
        """The oracle checks the step once, before any lookahead."""
        tri, grid = coarse
        with pytest.raises(ConfigurationError):
            brute_force_oracle(paper, tri, grid, 1.5, 1)

    @pytest.mark.parametrize("h", [1.5, 0.0, -1.0, np.nan])
    def test_recursion_rejects_bad_step(self, paper, coarse, h):
        """The recursion checks the step as the oracle does, also at mu = 0,
        where it would otherwise return zeros without reading h."""
        tri, grid = coarse
        for run in (brute_force_oracle, solve_finite_horizon):
            with pytest.raises(ConfigurationError, match="time step"):
                run(paper, tri, grid, h, 0)


_TIE_POOL = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def _lookahead_cases(draw):
    """A 1-3-D cube mesh, values with ties and signed zeros, a committed
    level (the top one included) and a point on a node, on a cell face, on
    a Kuhn diagonal (all in-cell offsets equal) or anywhere in the box.  The
    dynamics are zero, so the point is its own Euler image."""
    dim = draw(st.integers(1, 3))
    k = {1: 0.25, 2: 0.25, 3: 0.5}[dim]
    tri = build_uniform((-np.ones(dim), np.ones(dim)), k)
    grid = control_grid(draw(st.sampled_from([0.25, 0.5])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (tri.n_vertices, grid.n_levels)
    values = np.where(rng.random(shape) < draw(st.floats(0.0, 1.0)),
                      rng.choice(_TIE_POOL, shape), rng.uniform(-2, 2, shape))
    a_index = draw(st.integers(0, grid.m))
    kind = draw(st.sampled_from(["node", "face", "diagonal", "uniform"]))
    cells = [draw(st.integers(0, int(n) - 1)) for n in tri.cells_per_axis]
    shared = draw(st.floats(0.0, 1.0))
    offsets = {
        "node": [float(draw(st.integers(0, 1))) for _ in cells],
        "face": [draw(st.sampled_from([0.0, 0.5, 1.0, shared])) for _ in cells],
        "diagonal": [shared] * dim,
        "uniform": [draw(st.floats(0.0, 1.0)) for _ in cells],
    }[kind]
    point = [lo + k * (c + s) for lo, c, s in zip(tri.lower.tolist(), cells, offsets)]
    return tri, grid, values, a_index, np.array([point])


class TestLookaheadGather:
    @settings(max_examples=400, deadline=None)
    @given(_lookahead_cases())
    def test_matches_list_slice_gather(self, case):
        """The candidates equal, bit for bit, the row gather values[ids, a:]
        followed by the map (1 - lambda h) * interp + h f."""
        tri, grid, values, a_index, X = case
        h = grid.h
        spec = ProblemSpec(
            dynamics=lambda X, a: np.zeros_like(X),
            cost=lambda X, a: (a - 0.5) * X.sum(axis=1),
            discount=1.0, domain=(tri.lower - tri.k, tri.upper + tri.k),
            lip_g=0.0, bound_g=0.0, lip_f=2.0, bound_f=3.0,
        )
        a = float(grid.levels[a_index])
        image, f, got = lookahead(values, spec, tri, h, X, a_index, a, "point")
        ids, weights = locate_many(tri, np.array([image]))
        interp = values[ids[0].tolist(), a_index:].T @ np.array(weights[0].tolist())
        expected = (1.0 - spec.discount * h) * interp + h * f
        assert image == X[0].tolist()
        assert f == spec.cost(X, a)[0]
        assert got.shape == (grid.n_levels - a_index,)
        assert got.tobytes() == expected.tobytes()


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
            (expected,) = _candidates(gf.values, paper, tri, grid, 0.5, i, grid.m)
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
            cost=lambda x, a: np.zeros(len(x)),
            discount=1.0,
            domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            lip_g=3.0, bound_g=4.3, lip_f=0.0, bound_f=0.0,
        )
        with pytest.raises(OutOfDomainError):
            build_table(expanding, tri, grid, 0.5)

    def test_repeat_sweep_bit_identical(self, paper, medium):
        tri, grid, table = medium
        rng = np.random.default_rng(11)
        gf = GridFunction(rng.normal(size=(tri.n_vertices, grid.n_levels)))
        out1, pol1 = apply(gf, paper, tri, grid, 0.1, table=table)
        out2, pol2 = apply(gf, paper, tri, grid, 0.1)
        np.testing.assert_array_equal(out1.values, out2.values)
        np.testing.assert_array_equal(pol1.choice, pol2.choice)


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
            g = paper.dynamics(x, a)
            if a == 0.5:
                g[np.all(x == bad, axis=1)] = [np.nan, 0.0]
            return g

        err = self.build_strict(dataclasses.replace(paper, dynamics=dynamics), coarse)
        assert (err.node, err.level) == (4, 1)
        assert np.isnan(err.value[0])
        assert "node 4" in str(err) and "level 1" in str(err)

    def test_inf_cost(self, paper, coarse):
        tri, _ = coarse
        bad = tri.vertices[7]

        def cost(x, a):
            f = paper.cost(x, a)
            if a == 1.0:
                f[np.all(x == bad, axis=1)] = np.inf
            return f

        err = self.build_strict(dataclasses.replace(paper, cost=cost), coarse)
        assert (err.node, err.level, err.value) == (7, 2, np.inf)
        assert "node 7" in str(err) and "level 2" in str(err)


class TestBatchCallbacks:
    """build_table calls each problem callable once per level on all nodes."""

    @pytest.mark.parametrize("name,hk", [("paper", 0.1), ("toy_1d", 0.05)])
    def test_table_matches_node_loop(self, request, name, hk):
        spec = request.getfixturevalue(name)
        tri = build_uniform(spec.domain, hk)
        grid = control_grid(hk)
        table = build_table(spec, tri, grid, hk)
        n_nodes = tri.n_vertices
        for ai, a in enumerate(grid.levels):
            images = np.array([x + hk * spec.dynamics(x, a) for x in tri.vertices])
            idx, w = locate_many(tri, images)
            for i in range(n_nodes):
                for j in range(tri.dim + 1):
                    assert table.indices[j, ai * n_nodes + i] == ai * n_nodes + idx[i, j]
                    assert table.weights[j, ai * n_nodes + i] == w[i, j]
            np.testing.assert_array_equal(
                table.stage_cost[ai], [spec.cost(x, a) for x in tri.vertices]
            )

    def test_one_call_per_level(self, paper):
        calls = {"dynamics": [], "cost": []}

        def counted(name):
            fn = getattr(paper, name)

            def wrapper(x, a):
                calls[name].append(x.shape)
                return fn(x, a)
            return wrapper

        spec = dataclasses.replace(paper, dynamics=counted("dynamics"), cost=counted("cost"))
        tri = build_uniform(paper.domain, 0.1)
        grid = control_grid(0.1)
        build_table(spec, tri, grid, 0.1)
        assert calls["dynamics"] == [tri.vertices.shape] * grid.n_levels
        assert calls["cost"] == [tri.vertices.shape] * grid.n_levels

    @pytest.mark.parametrize("field,result,shapes", [
        ("dynamics", lambda x, a: np.zeros(2), ["(2,)", "(9, 2)"]),
        ("cost", lambda x, a: 0.0, ["()", "(9,)"]),
        ("cost", lambda x, a: np.zeros((len(x), 1)), ["(9, 1)", "(9,)"]),
    ])
    def test_wrong_shape_is_not_broadcast(self, paper, coarse, field, result, shapes):
        tri, grid = coarse
        spec = dataclasses.replace(paper, **{field: result})
        with pytest.raises(InvalidProblemDataError) as exc:
            build_table(spec, tri, grid, 0.5)
        message = str(exc.value)
        assert field in message and "level 0" in message
        assert all(shape in message for shape in shapes)


def make_contracting_3d() -> ProblemSpec:
    """3-D problem with nu! = 6 Kuhn simplices per cell; images stay inside."""
    return ProblemSpec(
        dynamics=lambda x, a: -(0.5 + a) * x + 0.1 * np.sin(3.0 * x[:, ::-1]),
        cost=lambda x, a: (x * x).sum(-1) - 0.4 * a * x[:, 0],
        discount=1.0,
        domain=(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])),
        lip_g=1.8, bound_g=1.8, lip_f=2.4, bound_f=3.4,
        name="contracting_3d",
    )


def level_offsets(nl, n_nodes):
    """a*N for every column a*N + i: a table's position minus its node id."""
    return np.repeat(np.arange(nl) * n_nodes, n_nodes)


def reference_sweep(values, table):
    """Per-node loop over the node ids table.indices[j, a*N + i] - a*N;
    level-major values in and out, smallest b on ties."""
    nl, n_nodes = values.shape
    beta = 1.0 - table.discount * table.h
    out = np.empty_like(values)
    choice = np.empty(values.shape, dtype=int)
    for a in range(nl):
        for i in range(n_nodes):
            best, arg = np.inf, -1
            for b in range(a, nl):
                interp = 0.0
                for j in range(len(table.indices)):
                    col = a * n_nodes + i
                    interp += (table.weights[j, col]
                               * values[b, table.indices[j, col] - a * n_nodes])
                cand = beta * interp + table.h * table.stage_cost[a, i]
                if cand < best:
                    best, arg = cand, b
            out[a, i], choice[a, i] = best, arg
    return out, choice


def level_fold_sweep(values, table, policy=False):
    """The sweep without the suffix-minimum bound: every row (a, i) folds
    every column b >= a, top down, in the same floating-point operations as
    `sweep`.  The bit-for-bit reference of the bound."""
    nl, n_nodes = values.shape
    beta = 1.0 - table.discount * table.h
    idx, wts = table.indices - level_offsets(nl, n_nodes), table.weights
    step = table.h * table.stage_cost.ravel()
    best = np.empty(nl * n_nodes)
    choice = np.full(nl * n_nodes, nl - 1)
    for b in range(nl - 1, -1, -1):
        n = (b + 1) * n_nodes
        c = values[b].take(idx[0, :n]) * wts[0, :n]
        for j in range(1, len(idx)):
            c += values[b].take(idx[j, :n]) * wts[j, :n]
        if policy:
            c = c * beta + step[:n]
        if b == nl - 1:
            best[:] = c
            continue
        if policy:
            choice[:n][c <= best[:n]] = b
        best[:n] = np.minimum(best[:n], c)
    if policy:
        return best.reshape(nl, n_nodes), choice.reshape(nl, n_nodes)
    return (best * beta + step).reshape(nl, n_nodes)


def random_table(rng, nl, n_nodes, stencil, h, stage_cost):
    """Random stencils with about a third of the weights zero."""
    weights = rng.random((stencil, nl * n_nodes))
    weights[rng.random(weights.shape) < 0.3] = 0.0
    weights[0] += weights.sum(axis=0) == 0
    weights /= weights.sum(axis=0)
    return TransitionTable(
        indices=rng.integers(0, n_nodes, size=(stencil, nl * n_nodes))
        + level_offsets(nl, n_nodes),
        weights=weights, stage_cost=stage_cost, h=h, discount=1.0,
    )


def with_crossing(table, gap, rising=False):
    """`table` with two rows whose candidates cross late in Picard's
    iterates, on nodes 0 and 1 of the two top levels T and L = T - 1, with
    beta = 1 - h and the discount 1.  Row (L, 1) reads node 1, whose value
    at L rises as 1 - beta^n, and row (T, 1) reads node 0 at T.  Falling,
    as in `test_candidates_drifting_apart_by_twice_the_certificate`, node
    0 falls to -1 at T as -1 + beta^n, so node 1's value at T falls as
    1 - gap + beta^n: they cross where beta^n = gap / 2.  Rising, as in
    `test_candidates_rising_apart_by_the_range_of_their_change`, node 0
    rises to 1/2 at T as (1 - beta^n) / 2, so node 1's value at T rises as
    1 - gap - beta^n / 2, and all four rows rise: they cross where
    beta^n = 2 gap."""
    nl, n_nodes = table.stage_cost.shape
    indices, weights, cost = table.indices.copy(), table.weights.copy(), table.stage_cost.copy()
    top, low = nl - 1, nl - 2
    beta = 1.0 - table.h
    if rising:
        ends = [0.5, (1.0 - gap - 0.5 * beta) / table.h]
    else:
        ends = [-1.0, (1.0 - gap + beta) / table.h]
    for (a, i), node, f in [((top, 0), 0, ends[0]), ((top, 1), 0, ends[1]),
                            ((low, 0), 0, 0.0), ((low, 1), 1, 1.0)]:
        row = a * n_nodes + i
        indices[:, row] = a * n_nodes + node
        weights[:, row] = 0.0
        weights[0, row] = 1.0
        cost[a, i] = f
    return TransitionTable(indices=indices, weights=weights, stage_cost=cost, h=table.h,
                           discount=table.discount)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.fixture(scope="module", params=["toy_1d", "paper", "contracting_3d"])
def kernel_case(request):
    if request.param == "contracting_3d":
        spec, k, h = make_contracting_3d(), 0.5, 0.25
    else:
        spec, k, h = request.getfixturevalue(request.param), 0.25, 0.25
    tri = build_uniform(spec.domain, k)
    grid = control_grid(h)
    return spec, tri, grid, h, build_table(spec, tri, grid, h)


class TestSweepKernel:
    """The level-major kernel against a per-node loop, in 1-, 2- and 3-D."""

    def test_matches_node_loop(self, kernel_case):
        spec, tri, grid, h, table = kernel_case
        values = np.random.default_rng(3).uniform(-1, 1, size=(grid.n_levels, tri.n_vertices))
        expected, expected_choice = reference_sweep(values, table)
        got, choice = sweep(values, table, policy=True)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(choice, expected_choice)
        np.testing.assert_allclose(sweep(values, table), expected, rtol=0, atol=1e-15)
        gf, pol = apply(GridFunction(values.T), spec, tri, grid, h, table=table)
        np.testing.assert_allclose(gf.values, expected.T, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(pol.choice, expected_choice.T)

    def test_constant_values_pick_current_level(self, kernel_case):
        _, tri, grid, _, table = kernel_case
        values = np.full((grid.n_levels, tri.n_vertices), 0.3)
        _, choice = sweep(values, table, policy=True)
        np.testing.assert_array_equal(
            choice, np.repeat(np.arange(grid.n_levels)[:, None], tri.n_vertices, axis=1)
        )
        # every row's suffix minimum is attained at its own level: all settle
        for policy in (False, True):
            assert len(Sweeper(table).open_rows(values, policy)) == 0

    def test_mismatched_inputs_are_rejected(self, kernel_case):
        _, tri, grid, _, table = kernel_case
        with pytest.raises(ConfigurationError):
            sweep(np.zeros((grid.n_levels, tri.n_vertices + 1)), table)
        bad = table.indices.copy()
        bad[0, 0] = tri.n_vertices
        # a level-1 column holding a level-0 position: a valid node id and
        # in range of the whole level-major vector, but read at the wrong level
        wrong_level = table.indices.copy()
        wrong_level[0, tri.n_vertices] = 0
        for indices, weights, stage_cost in [
            (bad, table.weights, table.stage_cost),
            (wrong_level, table.weights, table.stage_cost),
            (table.indices[:, 1:], table.weights[:, 1:], table.stage_cost),
            (table.indices, table.weights[1:], table.stage_cost),
            (table.indices, table.weights, table.stage_cost.T),
        ]:
            with pytest.raises(ConfigurationError):
                TransitionTable(indices=indices, weights=weights, stage_cost=stage_cost,
                                h=table.h, discount=table.discount)
        levels = np.arange(grid.n_levels)[:, None]
        values = np.zeros((grid.n_levels, tri.n_vertices))
        for choice in [np.full((grid.n_levels, tri.n_vertices), grid.n_levels),
                       np.zeros((tri.n_vertices, grid.n_levels), dtype=int),
                       np.broadcast_to(levels - 1, (grid.n_levels, tri.n_vertices))]:
            with pytest.raises(ConfigurationError):
                apply_policy(values, choice, table)
        choice = np.broadcast_to(levels, (grid.n_levels, tri.n_vertices))
        for values in [np.zeros((tri.n_vertices, grid.n_levels)),
                       np.zeros(grid.n_levels * tri.n_vertices)]:
            with pytest.raises(ConfigurationError):
                apply_policy(values, choice, table)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_table_rejects_a_weight_that_is_negative_or_not_finite(self, bad):
        """The bounds assume nonnegative weights: with weights (2, -1) on
        nodes 0 and 1 for row (0, 0) of 2 levels of 2 nodes, and values
        [[0, 0], [1, 10]], a sweep settled that row at 0.0 while the minimum
        over its levels is -7.2.  A NaN or infinite weight made every value
        NaN.  The table with that weight 0 is accepted."""
        def table(weight):
            weights = np.array([[2.0, 1.0, 1.0, 1.0], [weight, 0.0, 0.0, 0.0]])
            return TransitionTable(
                indices=np.array([[0, 1, 0, 1], [1, 0, 1, 0]]) + level_offsets(2, 2),
                weights=weights, stage_cost=np.zeros((2, 2)), h=0.1, discount=1.0)

        table(0.0)
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            table(bad)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
    )
    def test_value_and_policy_paths_agree(self, seed, nl, n_nodes, stencil, h):
        rng = np.random.default_rng(seed)
        table = random_table(rng, nl, n_nodes, stencil, h, rng.normal(size=(nl, n_nodes)))
        # few distinct values, so that exact ties occur
        values = rng.integers(-2, 3, size=(nl, n_nodes)) * rng.choice([1.0, 0.1])
        with_policy, choice = sweep(values, table, policy=True)
        np.testing.assert_array_equal(sweep(values, table), with_policy)
        expected, expected_choice = reference_sweep(values, table)
        np.testing.assert_allclose(with_policy, expected, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(choice, expected_choice)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
    )
    def test_stay_policy_is_greedy_for_zero_values(self, seed, nl, n_nodes, stencil, h):
        """Howard starts from choice[a, i] = a instead of a policy sweep of
        the zero function, whose candidates all tie at h f."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, nl, n_nodes, stencil, h, rng.normal(size=(nl, n_nodes)))
        _, choice = sweep(np.zeros((nl, n_nodes)), table, policy=True)
        np.testing.assert_array_equal(choice, np.arange(nl)[:, None].repeat(n_nodes, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
    )
    def test_matches_level_fold_kernel(self, seed, nl, n_nodes, stencil, h):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1.0, 0.1])
        # few distinct values and costs, zeros of both signs among them
        table = random_table(rng, nl, n_nodes, stencil, h,
                             rng.integers(-2, 3, size=(nl, n_nodes)) * scale)
        values = rng.integers(-2, 3, size=(nl, n_nodes)) * scale
        values[rng.random(values.shape) < 0.2] = -0.0
        value = sweep(values, table)
        assert_same_bits(value, level_fold_sweep(values, table))
        with_policy, choice = sweep(values, table, policy=True)
        expected, expected_choice = level_fold_sweep(values, table, policy=True)
        assert_same_bits(with_policy, expected)
        np.testing.assert_array_equal(choice, expected_choice)
        np.testing.assert_array_equal(value, with_policy)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(2, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
    )
    def test_reused_sweeper_matches_sweep(self, seed, nl, n_nodes, stencil, h):
        """One Sweeper over a chain of calls gives `sweep`'s bits on both
        paths at every call, and `s_repeats` tells exactly whether S is the
        one of the call before.  Scaling a node's values by a power of two
        keeps S; turning node 0 from rising over the levels (S[a] = a) to
        falling (S[a] = top) changes it.  A call drops no level."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, nl, n_nodes, stencil, h, rng.normal(size=(nl, n_nodes)))
        scale = rng.choice([1.0, 0.1])
        # few distinct values, so that exact ties occur
        values = rng.integers(-2, 3, size=(nl, n_nodes)) * scale
        values[:, 0] = np.arange(nl) * scale
        keeps_s = values * 2.0 ** rng.integers(-3, 4, size=n_nodes)
        changes_s = keeps_s.copy()
        changes_s[:, 0] = -changes_s[:, 0]
        chain = [(values, False, False), (values, False, True), (keeps_s, False, True),
                 (keeps_s, True, True), (keeps_s, False, True), (changes_s, False, False),
                 (changes_s, True, True), (values, False, False)]
        sweeper = Sweeper(table)
        assert not sweeper.s_repeats
        for v, policy, repeats in chain:
            got = sweeper(v, policy)
            assert sweeper.s_repeats == repeats
            want = sweep(v, table, policy)
            if policy:
                assert_same_bits(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            else:
                assert_same_bits(got, want)
        assert np.all(sweeper.decided_levels() == -1) and sweeper.live_pairs() is None

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.1, 0.9),
        tie_share=st.floats(0.0, 1.0),
        gap=st.one_of(st.none(), st.floats(1e-9, 0.5)),
        rising=st.booleans(),
    )
    def test_picard_matches_a_loop_of_fresh_sweeps(self, seed, nl, n_nodes, stencil, h,
                                                   tie_share, gap, rising):
        """`Sweeper.picard` drops levels along its iterates; fresh `sweep`
        calls never do.  To a 1e-12 residual, every iterate, the residual
        history and the returned values and policy agree byte for byte.
        The stage costs have ties and signed zeros, drawn as `_TIE_POOL`
        draws values, and with a gap two live levels of a row cross
        (`with_crossing`, falling or rising), for many draws after the
        first check."""
        rng = np.random.default_rng(seed)
        shape = (nl, n_nodes)
        cost = np.where(rng.random(shape) < tie_share, rng.choice(_TIE_POOL, shape),
                        rng.uniform(-2, 2, shape))
        table = random_table(rng, nl, n_nodes, stencil, h, cost)
        if gap is not None and nl >= 2 and n_nodes >= 2:
            table = with_crossing(table, gap, rising)
        iterates = []
        call = Sweeper._sweep

        def record(self, values, change):
            out = call(self, values, change)
            iterates.append(out)
            return out

        threshold = 1e-12
        with mock.patch.object(Sweeper, "_sweep", record):
            value, choice, history = Sweeper(table).picard(threshold, 10_000)
        u, want, want_history = np.zeros(shape), [], []
        while not want_history or want_history[-1] > threshold:
            prev, u = u, sweep(u, table)
            want.append(u)
            want_history.append(float(np.abs(u - prev).max()))
        assert len(iterates) == len(want)
        for got, expected in zip(iterates, want):
            assert_same_bits(got, expected)
        assert_same_bits(np.array(history), np.array(want_history))
        want_value, want_choice = sweep(prev, table, policy=True)
        assert_same_bits(value, want_value)
        assert_same_bits(choice, want_choice)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(2, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.1, 0.9),
        tie_share=st.floats(0.0, 1.0),
        scale=st.integers(-8, 6),
        gap=st.one_of(st.none(), st.floats(1e-9, 0.5)),
        nonnegative=st.booleans(),
    )
    def test_dropped_levels_stay_above_the_dense_minimum(self, seed, nl, n_nodes, stencil, h,
                                                         tie_share, scale, gap, nonnegative):
        """At every value sweep after Picard's first check, each admissible
        (row, level) that is not live lies strictly above the row's minimum
        over all its candidates, computed densely in the sweeps' own
        product-sum; each row keeps a live level, and only admissible ones.
        Stage costs with ties and signed zeros, scaled by 1e-8 to 1e6, and
        rows whose candidates cross (`with_crossing`).  Nonnegative costs,
        with rising crossings, make every iterate rise from 0, so that the
        smallest change over each closed set of levels is at least 0, where
        the margin is smallest."""
        rng = np.random.default_rng(seed)
        shape = (nl, n_nodes)
        cost = np.where(rng.random(shape) < tie_share, rng.choice(_TIE_POOL, shape),
                        rng.uniform(-2, 2, shape)) * 10.0 ** scale
        if nonnegative:
            cost = np.abs(cost)
        table = random_table(rng, nl, n_nodes, stencil, h, cost)
        if gap is not None and n_nodes >= 2:
            table = with_crossing(table, gap, rising=nonnegative)
        idx, weights = table.indices - level_offsets(nl, n_nodes), table.weights
        own = np.repeat(np.arange(nl), n_nodes)
        admissible = np.arange(nl)[None, :] >= own[:, None]
        checked = []
        call = Sweeper._sweep

        def check(self, values, change):
            live = self.live_pairs()
            if live is not None:
                candidates = np.full((nl * n_nodes, nl), np.inf)
                for b in range(nl):
                    n = (b + 1) * n_nodes
                    c = values[b].take(idx[0, :n]) * weights[0, :n]
                    for j in range(1, len(idx)):
                        c += values[b].take(idx[j, :n]) * weights[j, :n]
                    candidates[:n, b] = c
                kept = np.zeros((nl * n_nodes, nl), dtype=bool)
                kept[live] = True
                assert not np.any(kept & ~admissible) and np.all(kept.any(axis=1))
                rows, levels = np.nonzero(admissible & ~kept)
                smallest = candidates.min(axis=1)
                assert np.all(candidates[rows, levels] > smallest[rows])
                checked.append(len(rows))
            return call(self, values, change)

        with mock.patch.object(Sweeper, "_sweep", check):
            Sweeper(table).picard(1e-12 * 10.0 ** scale, 10_000)
        assert all(later >= earlier for earlier, later in zip(checked, checked[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
    )
    def test_live_levels_fold_as_the_column_fold(self, seed, nl, n_nodes, stencil, h):
        """A check given a change so large that it drops no level leaves
        every admissible level live; a later value sweep then folds them all
        and must give `sweep`'s bits, on values with exact ties and signed
        zeros, where the order of the fold decides which zero a tie keeps."""
        rng = np.random.default_rng(seed)
        scale = rng.choice([1.0, 0.1])
        # a stage cost of -0.0 keeps the sign of a zero minimum in the value
        table = random_table(rng, nl, n_nodes, stencil, h,
                             rng.choice(_TIE_POOL, size=(nl, n_nodes)) * scale)
        sweeper = Sweeper(table)
        sweeper._sweep(np.zeros((nl, n_nodes)), (np.full(nl, -1e100), np.full(nl, 1e100)))
        assert len(sweeper.live_pairs()[0]) == nl * (nl + 1) // 2 * n_nodes
        for _ in range(3):
            # nonnegative, so that many rows' minimum is a zero
            values = rng.choice([-0.0, 0.0, 1.0], size=(nl, n_nodes)) * scale
            assert_same_bits(sweeper(values), sweep(values, table))

    def test_candidates_drifting_apart_by_twice_the_certificate(self):
        """Row (0, 1) reads node 1, whose level-0 value rises as 1 - 0.9^n
        while its level-1 value, read from node 0's falling one, is
        0.99 + 0.9^n.  Their gap 2 * 0.9^n - 0.01 stays just below twice
        the certificate 0.9^n until they cross near n = 50.  So the row is
        decided only after the crossing, at level 1, and every iterate is a
        fresh sweep's; a margin below two certificates would decide it at
        level 0 before the crossing."""
        table = TransitionTable(
            indices=np.array([[0, 1, 2, 2]]), weights=np.ones((1, 4)),
            stage_cost=np.array([[0.0, 1.0], [-1.0, 18.9]]), h=0.1, discount=1.0)
        iterates, levels = [], []
        call = Sweeper._sweep

        def record(self, values, change):
            out = call(self, values, change)
            iterates.append(out)
            levels.append(self.decided_levels()[0, 1])
            return out

        with mock.patch.object(Sweeper, "_sweep", record):
            Sweeper(table).picard(1e-12, 10_000)
        u = np.zeros((2, 2))
        for got in iterates:
            u = sweep(u, table)
            assert_same_bits(got, u)
        first = next(n for n, level in enumerate(levels) if level >= 0)
        assert first > 50 and levels[-1] == 1

    def test_candidates_rising_apart_by_the_range_of_their_change(self):
        """Row (0, 1) reads node 1, whose level-0 value rises as 1 - 0.9^n
        while its level-1 value, read from node 0's rising one, rises as
        0.9975 - 0.5 * 0.9^n.  Every value rises, so the margin of level 1
        is the range of the last change over levels 0 and up less the
        smallest over level 1: about 0.5 * 0.9^n, what the gap
        0.5 * 0.9^n - 0.0025 of the two candidates is yet to lose.  They
        cross near n = 50, so the row is decided only after the crossing,
        at level 1, and every iterate is a fresh sweep's; a margin nine
        tenths as large would decide it at level 0 at the first check."""
        table = TransitionTable(
            indices=np.array([[0, 1, 2, 2]]), weights=np.ones((1, 4)),
            stage_cost=np.array([[0.0, 1.0], [0.5, 5.475]]), h=0.1, discount=1.0)
        iterates, levels = [], []
        call = Sweeper._sweep

        def record(self, values, change):
            out = call(self, values, change)
            iterates.append(out)
            levels.append(self.decided_levels()[0, 1])
            return out

        with mock.patch.object(Sweeper, "_sweep", record):
            Sweeper(table).picard(1e-12, 10_000)
        u = np.zeros((2, 2))
        for got in iterates:
            u = sweep(u, table)
            assert_same_bits(got, u)
        assert np.all(np.diff(np.array(iterates), axis=0) >= 0)
        # the sweep of iterates[n - 1] is the first that may decide level 1
        crossing = next(n for n, u in enumerate(iterates) if u[1, 1] < u[0, 1]) + 1
        first = next(n for n, level in enumerate(levels) if level >= 0)
        assert crossing > 50 and first >= crossing and levels[-1] == 1

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
        offset=st.sampled_from([-1.0, 0.0, 1.0]),
        scale=st.integers(-12, 2),
    )
    def test_margin_is_at_most_the_symmetric_one(self, seed, nl, n_nodes, stencil, h,
                                                 offset, scale):
        """For a change whose per-level ranges have any signs, every
        margin[a, b], b >= a, is at most the margin of the symmetric range
        [-delta, delta] on every level, delta the largest |change|: the
        margin of twice the certificate.  Where the largest change on the
        levels from a up is delta and the smallest from b up is -delta, the
        two are the same number.  Row weight sums spread over [1/2, 1], and
        an offset makes many draws' changes one-signed."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, nl, n_nodes, stencil, h, rng.normal(size=(nl, n_nodes)))
        table = TransitionTable(
            indices=table.indices, weights=table.weights * rng.uniform(0.5, 1.0, nl * n_nodes),
            stage_cost=table.stage_cost, h=h, discount=1.0)
        values = rng.normal(size=(nl, n_nodes))
        low, high = np.sort(rng.normal(size=(2, nl)) + offset * rng.uniform(0, 3), axis=0)
        low, high = low * 10.0 ** scale, high * 10.0 ** scale
        delta = max(high.max(), -low.min())
        sweeper = Sweeper(table)
        margin = sweeper._margin(values, (low, high))
        symmetric = sweeper._margin(values, (np.full(nl, -delta), np.full(nl, delta)))
        admissible = np.triu(np.ones((nl, nl), dtype=bool))
        assert np.all(margin[admissible] <= symmetric[admissible])
        rise = np.maximum.accumulate(high[::-1])[::-1]
        fall = np.minimum.accumulate(low[::-1])[::-1]
        worst = admissible & (rise[:, None] == delta) & (fall[None, :] == -delta)
        np.testing.assert_array_equal(margin[worst], symmetric[worst])

    def test_decided_levels_stay_the_dense_argmin(self, medium):
        """Along Picard's iterates to a 1e-12 certificate on the k = h = 0.1
        paper mesh, each row that an earlier sweep left with one live level,
        a decided row, keeps, at every later sweep, the level where a dense
        evaluation of all its candidates has its minimum (the smallest such
        level on ties)."""
        _, _, table = medium
        nl, n_nodes = table.stage_cost.shape
        idx, weights = table.indices - level_offsets(nl, n_nodes), table.weights
        decided = []
        call = Sweeper._sweep

        def check(self, values, change):
            levels = self.decided_levels().ravel()
            rows = np.flatnonzero(levels >= 0)
            candidates = np.full((nl * n_nodes, nl), np.inf)
            for b in range(nl):
                n = (b + 1) * n_nodes
                c = values[b].take(idx[0, :n]) * weights[0, :n]
                for j in range(1, len(idx)):
                    c += values[b].take(idx[j, :n]) * weights[j, :n]
                candidates[:n, b] = c
            np.testing.assert_array_equal(candidates[rows].argmin(axis=1), levels[rows])
            decided.append(len(rows))
            return call(self, values, change)

        with mock.patch.object(Sweeper, "_sweep", check):
            Sweeper(table).picard(1e-12 * 0.1 / 0.9, 10_000)
        assert decided[0] == 0
        assert decided[-1] > 0.9 * nl * n_nodes

    def test_operator_is_stateless_after_picard(self, medium):
        """After `picard` has dropped levels to a 1e-8 certificate on the
        k = h = 0.1 paper mesh, a call of the same sweeper on other values
        is the operator A on every level: both paths give `sweep`'s bits,
        and the sweeper holds no live levels."""
        _, _, table = medium
        checks = []
        call = Sweeper._sweep

        def record(self, values, change):
            checks.append(change is not None)
            return call(self, values, change)

        sweeper = Sweeper(table)
        with mock.patch.object(Sweeper, "_sweep", record):
            sweeper.picard(1e-8 * 0.1 / 0.9, 10_000)
        assert sum(checks) == 19
        values = np.random.default_rng(7).uniform(-1.0, 1.0, table.stage_cost.shape)
        assert_same_bits(sweeper(values), sweep(values, table))
        got, got_choice = sweeper(values, policy=True)
        want, want_choice = sweep(values, table, policy=True)
        assert_same_bits(got, want)
        assert_same_bits(got_choice, want_choice)
        assert sweeper.live_pairs() is None

    def test_picard_lets_go_of_live_levels_when_it_raises(self, medium):
        """An exception raised in `picard`'s loop after its first check, here
        at the 60th sweep of a 1e-12 solve on the k = h = 0.1 paper mesh,
        reaches the caller, and the sweeper it leaves holds no live levels:
        a call is the operator A on every level, with `sweep`'s bits."""
        _, _, table = medium
        held = []
        call = Sweeper._sweep

        class Interrupted(Exception):
            pass

        def interrupt(self, values, change):
            if len(held) == 59:
                raise Interrupted
            out = call(self, values, change)
            held.append(self.live_pairs() is not None)
            return out

        sweeper = Sweeper(table)
        with mock.patch.object(Sweeper, "_sweep", interrupt), pytest.raises(Interrupted):
            sweeper.picard(1e-12, 10_000)
        assert held[-1]
        assert sweeper.live_pairs() is None
        values = np.random.default_rng(0).uniform(-1.0, 1.0, table.stage_cost.shape)
        assert_same_bits(sweeper(values), sweep(values, table))

    @pytest.mark.parametrize("method", ["picard", "howard"])
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, None])
    def test_iterations_reject_a_bad_max_iterations(self, medium, method, bad):
        """A cap that is no integer of at least 1 raises ConfigurationError
        before any sweep: a loop of no sweep has no iterate to return."""
        _, _, table = medium
        with pytest.raises(ConfigurationError, match="max_iterations"):
            getattr(Sweeper(table), method)(1e-8, bad)

    def test_every_picard_iterate_matches_level_fold_kernel(self, medium):
        _, _, table = medium
        threshold = 1e-8 * 0.1 / 0.9  # a 1e-8 certificate at lambda h = 0.1
        u = np.zeros(table.stage_cost.shape)
        for _ in range(1000):
            value = sweep(u, table)
            assert_same_bits(value, level_fold_sweep(u, table))
            with_policy, choice = sweep(u, table, policy=True)
            expected, expected_choice = level_fold_sweep(u, table, policy=True)
            assert_same_bits(with_policy, expected)
            np.testing.assert_array_equal(choice, expected_choice)
            residual = np.abs(value - u).max()
            u = value
            if residual <= threshold:
                break
        assert residual <= threshold

    def test_rounding_tie_below_the_suffix_argmin_keeps_the_smallest_level(self):
        # level 1 holds the node's minimum (S = 1 at level 0), but level 0 is
        # one ulp above it, which the stage cost rounds away: both candidates
        # of row (0, 0) are 50.5, so the policy path must fold that row
        table = TransitionTable(
            indices=np.zeros((2, 2), dtype=int) + level_offsets(2, 1),
            weights=np.full((2, 2), 0.5),
            stage_cost=np.full((2, 1), 100.0), h=0.5, discount=1.0,
        )
        values = np.array([[1.0 + 2.0**-52], [1.0]])
        np.testing.assert_array_equal(Sweeper(table).open_rows(values, True), [0])
        with_policy, choice = sweep(values, table, policy=True)
        np.testing.assert_array_equal(with_policy, [[50.5], [50.5]])
        np.testing.assert_array_equal(choice, [[0], [1]])
        np.testing.assert_array_equal(choice, level_fold_sweep(values, table, policy=True)[1])

    def test_below_s_bound_settles_rows_whose_minimum_is_above_their_level(self):
        # every node falls to its minimum at level 2 (S = 2 for a <= 2) and
        # rises at level 3, with gaps of at least 0.5 below level 2
        nl, n_nodes = 4, 3
        nodes = np.arange(n_nodes)
        table = TransitionTable(
            indices=np.tile(np.stack([nodes, (nodes + 1) % n_nodes]), nl)
            + level_offsets(nl, n_nodes),
            weights=np.full((2, nl * n_nodes), 0.5),
            stage_cost=np.linspace(-1, 1, nl * n_nodes).reshape(nl, n_nodes),
            h=0.1, discount=1.0,
        )
        values = np.array([3.0, 2.0, 1.0, 5.0])[:, None] + 0.1 * nodes
        assert len(Sweeper(table).open_rows(values, True)) == 0
        with_policy, choice = sweep(values, table, policy=True)
        np.testing.assert_array_equal(choice, np.repeat([[2], [2], [2], [3]], n_nodes, axis=1))
        expected, expected_choice = level_fold_sweep(values, table, policy=True)
        assert_same_bits(with_policy, expected)
        np.testing.assert_array_equal(choice, expected_choice)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(2, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
    )
    def test_below_s_bound_matches_level_fold_kernel(self, seed, nl, n_nodes, stencil, h):
        # S sits above level 0 at every node, and the levels below S are a
        # few ulps above the minimum, so that rounding ties some rows with S
        # and leaves others strictly above it
        rng = np.random.default_rng(seed)
        table = random_table(rng, nl, n_nodes, stencil, h,
                             rng.choice([0.0, 1.0, 100.0]) * rng.normal(size=(nl, n_nodes)))
        s = rng.integers(1, nl, size=n_nodes) if rng.random() < 0.5 else np.full(n_nodes, nl - 1)
        base = rng.choice([-1.0, 0.3, 1.0], size=n_nodes)
        values = np.empty((nl, n_nodes))
        for i in range(n_nodes):
            for b in range(nl):
                v = base[i]
                if b < s[i]:
                    for _ in range(rng.integers(1, 4)):
                        v = np.nextafter(v, np.inf)
                elif b > s[i]:
                    v += rng.choice([0.0, 0.5])
                values[b, i] = v
        assert_same_bits(sweep(values, table), level_fold_sweep(values, table))
        with_policy, choice = sweep(values, table, policy=True)
        expected, expected_choice = level_fold_sweep(values, table, policy=True)
        assert_same_bits(with_policy, expected)
        np.testing.assert_array_equal(choice, expected_choice)

    def test_every_finite_horizon_iterate_matches_level_fold_kernel(self, medium):
        _, _, table = medium
        u = np.zeros(table.stage_cost.shape)
        for _ in range(8):
            u = sweep(u, table)
            with_policy, choice = sweep(u, table, policy=True)
            expected, expected_choice = level_fold_sweep(u, table, policy=True)
            assert_same_bits(with_policy, expected)
            np.testing.assert_array_equal(choice, expected_choice)

    def test_fold_runs_on_every_row_below_the_top(self):
        # even nodes fall with the level (S = top), odd ones rise (S = a), and
        # every stencil pairs an even node with an odd one
        nl, n_nodes = 4, 6
        nodes = np.arange(n_nodes)
        pairs = np.stack([nodes, (nodes + 1) % n_nodes])
        table = TransitionTable(
            indices=np.tile(pairs, nl) + level_offsets(nl, n_nodes),
            weights=np.full((2, nl * n_nodes), 0.5),
            stage_cost=np.linspace(-1, 1, n_nodes * nl).reshape(nl, n_nodes),
            h=0.1, discount=1.0,
        )
        levels = np.arange(nl)[:, None]
        values = np.where(nodes % 2 == 0, -levels, levels).astype(float)
        for policy in (False, True):
            np.testing.assert_array_equal(Sweeper(table).open_rows(values, policy),
                                          np.arange((nl - 1) * n_nodes))
        assert_same_bits(sweep(values, table), level_fold_sweep(values, table))
        with_policy, choice = sweep(values, table, policy=True)
        expected, expected_choice = level_fold_sweep(values, table, policy=True)
        assert_same_bits(with_policy, expected)
        np.testing.assert_array_equal(choice, expected_choice)


def random_choice(rng, nl, n_nodes):
    """An admissible policy, about half its rows staying at their level."""
    levels = np.arange(nl)[:, None]
    switch = levels + rng.integers(0, nl, size=(nl, n_nodes)) % (nl - levels)
    return np.where(rng.random((nl, n_nodes)) < 0.5, levels, switch)


def blocks_of(levels, n_nodes):
    """`Sweeper._evaluate` walking blocks of `levels` whole levels of n_nodes rows."""
    return mock.patch.object(bellman, "_BLOCK_ROWS", levels * n_nodes)


class TestLevelEvaluation:
    """Howard's frozen-policy evaluation, block of levels by block from the top."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.01, 0.99),
        tolerance=st.sampled_from([1e-6, 1e-9, 1e-12]),
        whole_levels=st.booleans(),
        block_levels=st.sampled_from([1, 2, None]),
    )
    def test_is_a_fixed_point_of_the_frozen_operator(self, seed, nl, n_nodes, stencil, h,
                                                     tolerance, whole_levels, block_levels):
        """random_table has duplicate and own-node stencil entries, and with
        one node every row puts all its weight on itself (p = 1).  A block
        of one level, two levels or all levels stops once a pass moves it by
        at most the tolerance, which leaves a stay row a frozen residual of
        at most beta (1 - p) times that and a switching row at most beta
        times that, none if it reads a finished block; also on a level where
        every row switches."""
        rng = np.random.default_rng(seed)
        table = random_table(rng, nl, n_nodes, stencil, h, rng.normal(size=(nl, n_nodes)))
        choice = random_choice(rng, nl, n_nodes)
        if whole_levels:
            for a in np.flatnonzero(rng.random(nl - 1) < 0.5):
                choice[a] = rng.integers(a + 1, nl, size=n_nodes)
        start = rng.uniform(-1, 1, size=(nl, n_nodes))
        with blocks_of(block_levels or nl, n_nodes):
            w, _ = Sweeper(table)._evaluate(start, choice, tolerance, 10_000)
        residual = np.abs(apply_policy(w, choice, table) - w).max()
        assert residual <= (1.0 - h) * tolerance + 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_node_loop_solve(self, seed):
        """The frozen policy's linear system, built by a loop over the rows
        and their stencil entries and solved directly.  With blocks of two
        levels (levels 1-2, then 0) a switching row of level 1 reads its
        own block and one of level 0 a finished block."""
        rng = np.random.default_rng(seed)
        nl, n_nodes, h = 3, 4, 0.25
        table = random_table(rng, nl, n_nodes, 3, h, rng.normal(size=(nl, n_nodes)))
        choice = random_choice(rng, nl, n_nodes)
        beta = 1.0 - table.discount * h
        matrix, own = np.eye(nl * n_nodes), np.zeros(nl * n_nodes)
        for a in range(nl):
            for i in range(n_nodes):
                row, stays = a * n_nodes + i, choice[a, i] == a
                for pos, wt in zip(table.indices[:, row], table.weights[:, row]):
                    matrix[row, choice[a, i] * n_nodes + pos - a * n_nodes] -= beta * wt
                    own[row] += wt if stays and pos - a * n_nodes == i else 0.0
        np.testing.assert_allclose(Sweeper(table)._frozen(choice, 0, nl)[2],
                                   h * table.stage_cost.ravel() / (1 - beta * own),
                                   rtol=1e-15, atol=0)
        exact = np.linalg.solve(matrix, h * table.stage_cost.ravel()).reshape(nl, n_nodes)
        for levels in (1, 2, nl):
            with blocks_of(levels, n_nodes):
                w, _ = Sweeper(table)._evaluate(np.zeros((nl, n_nodes)), choice, 1e-15, 10_000)
            np.testing.assert_allclose(w, exact, rtol=0, atol=1e-13)

    def test_frozen_positions_are_c_ordered(self):
        """Each block's positions are the stored ones shifted to the chosen
        level, as one C-ordered array: `_interpolate` reads one stencil
        vertex's row at a time, and a strided row slows every pass."""
        rng = np.random.default_rng(3)
        nl, n_nodes = 4, 6
        table = random_table(rng, nl, n_nodes, 3, 0.25, rng.normal(size=(nl, n_nodes)))
        choice = random_choice(rng, nl, n_nodes)
        for low, top in ((0, nl), (1, 3), (3, 4)):
            index = Sweeper(table)._frozen(choice, low, top)[0]
            assert index.flags.c_contiguous
            rows = np.arange(low * n_nodes, top * n_nodes)
            shift = (choice[low:top].ravel() - rows // n_nodes) * n_nodes
            np.testing.assert_array_equal(index, table.indices[:, rows] + shift)

    @pytest.mark.parametrize("bad", ["above_top", "far_above_top", "below_own_level",
                                     "node_major", "fraction", "boolean"])
    def test_apply_policy_rejects_a_bad_choice(self, bad):
        """apply_policy takes the policy, not gather positions, and checks
        it: no caller's number reaches the gather's mode="clip"."""
        rng = np.random.default_rng(4)
        nl, n_nodes = 3, 5
        table = random_table(rng, nl, n_nodes, 3, 0.25, rng.normal(size=(nl, n_nodes)))
        values = rng.normal(size=(nl, n_nodes))
        choice = random_choice(rng, nl, n_nodes)
        assert apply_policy(values, choice, table).shape == (nl, n_nodes)
        if bad == "above_top":
            choice[0, 0] = nl
        elif bad == "far_above_top":
            choice = np.full((nl, n_nodes), 10**9)
        elif bad == "below_own_level":
            choice[2, 1] = 1
        elif bad == "node_major":
            choice = np.full((n_nodes, nl), nl - 1)
        elif bad == "fraction":
            choice = choice.astype(float)
            choice[0, 0] = 0.5
        else:
            choice = np.ones((nl, n_nodes), dtype=bool)
        with pytest.raises(ConfigurationError):
            apply_policy(values, choice, table)

    def test_holds_one_block(self, paper):
        """Howard's first evaluation, the stay policy from zero under the
        paper rule's tolerance, at k = h = 0.025, where a block is one level
        of 6,241 rows: its peak stays below half of the table's stencils,
        since each block's map and buffers are built when it is reached."""
        k = 0.025
        tri, grid = build_uniform(paper.domain, k), control_grid(k)
        table = build_table(paper, tri, grid, k)
        values = np.zeros(table.stage_cost.shape)
        choice = np.indices(values.shape)[0]
        # built first: the sweeper's workspace is held for the whole solve
        sweeper = Sweeper(table)
        tracemalloc.start()
        try:
            sweeper._evaluate(values, choice, k * k * paper.discount * k, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (table.indices.nbytes + table.weights.nbytes)


def kernel_outputs(table, values, choice, threshold):
    """The bytes of every kernel path on `table`, one stage at a time: both
    sweeps of `values` and `apply_policy` of `choice`, then Picard with the
    live pairs after each of its value sweeps, then Howard with its
    evaluation passes.  A caller that compares stage by stage stops at the
    first that differs, before a broken kernel runs a solve to its cap."""
    def as_bytes(*arrays):
        return [(a.dtype.str, a.tobytes()) for a in arrays]

    yield as_bytes(sweep(values, table), *sweep(values, table, policy=True),
                   apply_policy(values, choice, table))
    live = []
    call = Sweeper._sweep

    def record(self, v, check):
        out = call(self, v, check)
        pairs = self.live_pairs()
        live.append(None if pairs is None else (pairs[0].tobytes(), pairs[1].tobytes()))
        return out

    with mock.patch.object(Sweeper, "_sweep", record):
        value, policy, history = Sweeper(table).picard(threshold, 1000)
    yield as_bytes(value, policy), history, live
    value, policy, history, passes = Sweeper(table).howard(threshold, 1000)
    yield as_bytes(value, policy), history, passes


def assert_same_outputs(table, values, choice, threshold, rows):
    """`kernel_outputs` with product-sums in blocks of `rows` rows gives
    those of one pass over every row, stage by stage; returns the stages."""
    whole = list(kernel_outputs(table, values, choice, threshold))
    with mock.patch.object(bellman, "_INTERPOLATE_ROWS", rows):
        for got, want in zip(kernel_outputs(table, values, choice, threshold), whole):
            assert got == want
    return whole


class TestInterpolationBlocks:
    """Full-row product-sums walked in blocks of `_INTERPOLATE_ROWS` rows,
    here blocks that do not divide the row count, give the bytes of one
    pass over every row."""

    @pytest.mark.parametrize("rows", [7, 1])
    def test_paper_table(self, paper, rows):
        # 81 nodes and 6 levels: 486 rows, 69 blocks of 7 and one of 3
        k = 0.2
        tri, grid = build_uniform(paper.domain, k), control_grid(k)
        table = build_table(paper, tri, grid, k)
        shape = table.stage_cost.shape
        assert shape[0] * shape[1] % 7 and shape[0] * shape[1] < bellman._INTERPOLATE_ROWS
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, size=shape)
        choice = random_choice(rng, *shape)
        lam_h = paper.discount * k
        _, picard, howard = assert_same_outputs(table, values, choice,
                                                1e-8 * lam_h / (1.0 - lam_h), rows)
        # Picard checks, drops levels and decides rows; Howard evaluates
        # more than one policy
        assert sum(pairs is not None for pairs in picard[2]) > 1 and len(howard[2]) > 1

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nl=st.integers(1, 6),
        n_nodes=st.integers(1, 12),
        stencil=st.integers(2, 4),
        h=st.floats(0.1, 0.9),
        rows=st.sampled_from([7, 1]),
    )
    def test_random_tables(self, seed, nl, n_nodes, stencil, h, rows):
        """Stage costs and values with ties and signed zeros."""
        rng = np.random.default_rng(seed)
        shape = (nl, n_nodes)
        table = random_table(rng, nl, n_nodes, stencil, h, rng.choice(_TIE_POOL, shape))
        values = rng.choice(_TIE_POOL, shape)
        assert_same_outputs(table, values, random_choice(rng, nl, n_nodes), 1e-8, rows)


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


@pytest.mark.parametrize("choice", [
    np.full((2, 3), 7),                      # b above the top level 2
    np.array([[0, 1, 3], [2, 2, 2]]),        # one row above the top
    np.array([[2.0, 2.0, 2.5]]),             # a fraction above the top
    np.array([[0.7, 1.2, 2.0]]),             # fractions in range
    np.array([[0.0, 1.0, np.nan]]),
    np.array([[0.0, 1.0, np.inf]]),
    np.array([0, 1]),                        # not (nodes, levels)
    np.array([[True, True]]),                # booleans are no indices
])
def test_policy_field_rejects_choice_outside_grid(choice):
    from monohjb import PolicyField

    with pytest.raises(ConfigurationError):
        PolicyField(choice)


def test_policy_field_accepts_integral_floats():
    from monohjb import PolicyField

    field = PolicyField(np.array([[0.0, 2.0, 2.0], [1.0, 1.0, 2.0]]))
    assert field.choice.dtype == np.dtype(int)
    np.testing.assert_array_equal(field.choice, [[0, 2, 2], [1, 1, 2]])
