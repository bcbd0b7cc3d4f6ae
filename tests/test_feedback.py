import numpy as np
import pytest

from monohjb import (
    ConfigurationError,
    GridFunction,
    OutOfDomainError,
    ProblemSpec,
    SolveOptions,
    build_uniform,
    control_grid,
    cost_consistency,
    simulate,
    solve,
)
from monohjb.feedback import trajectory_csv
from monohjb.mesh import locate_many
from monohjb.problem import level_data


def test_frozen_system_stationary(frozen_2d):
    tri = build_uniform(frozen_2d.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    traj = simulate(frozen_2d, tri, grid, value, np.array([0.25, -0.25]), 0, 0.5, 10)
    assert traj.discounted_total == 0.0
    np.testing.assert_allclose(traj.states, np.tile([0.25, -0.25], (11, 1)))


def test_top_control_stays_top(paper):
    tri = build_uniform(paper.domain, 0.1)
    grid = control_grid(0.1)
    value = GridFunction.zeros(tri, grid)
    traj = simulate(paper, tri, grid, value, np.array([0.3, 0.3]), grid.m, 0.1, 20)
    assert np.all(traj.control_indices == grid.m)
    assert traj.terminal_control == grid.m
    # with a = 1 the discrete dynamics is an exact geometric contraction
    for j in range(traj.n_steps):
        np.testing.assert_allclose(
            traj.states[j + 1], (1 - 2 * 0.1) * traj.states[j], atol=1e-15
        )


@pytest.fixture(scope="module")
def solved(paper):
    hk = 0.1
    tri = build_uniform(paper.domain, hk)
    grid = control_grid(hk)
    u, _, _ = solve(paper, tri, grid, SolveOptions(h=hk))
    return tri, grid, u


def test_controls_always_monotone(paper, solved):
    tri, grid, u = solved
    rng = np.random.default_rng(2)
    for _ in range(10):
        x0 = rng.uniform(tri.lower, tri.upper)
        a0 = int(rng.integers(0, grid.n_levels))
        traj = simulate(paper, tri, grid, u, x0, a0, 0.1, 50)
        assert np.all(np.diff(traj.control_indices) >= 0)
        assert traj.terminal_control >= traj.control_indices[-1]


def test_discounted_total_near_analytic(paper, solved):
    tri, grid, u = solved
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), grid.m, 0.1, 200)
    assert traj.discounted_total == pytest.approx(0.15, abs=0.05)


def test_truncation_tail(paper, solved):
    tri, grid, u = solved
    short = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), 0, 0.1, 30)
    long = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), 0, 0.1, 60)
    tail = (paper.bound_f / paper.discount) * (1 - 0.1) ** 30
    assert abs(long.discounted_total - short.discounted_total) <= tail + 1e-12


def test_cost_consistency_zero_value_zero_cost(frozen_2d):
    tri = build_uniform(frozen_2d.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    traj = simulate(frozen_2d, tri, grid, value, np.array([0.1, 0.1]), 0, 0.5, 5)
    assert cost_consistency(frozen_2d, tri, grid, value, traj, 0.5) == 0.0


def test_cost_consistency_near_fixed_point(paper, solved):
    tri, grid, u = solved
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), 0, 0.1, 100)
    gap = cost_consistency(paper, tri, grid, u, traj, 0.1)
    assert gap <= 0.1


def test_cost_consistency_rejects_value_of_another_grid(paper, solved):
    tri, grid, u = solved
    coarse_tri, coarse_grid = build_uniform(paper.domain, 0.25), control_grid(0.25)
    coarse_u = GridFunction.zeros(coarse_tri, coarse_grid)
    traj = simulate(paper, coarse_tri, coarse_grid, coarse_u, np.array([0.5, 0.5]), 0, 0.25, 3)
    with pytest.raises(ConfigurationError, match="does not fit"):
        cost_consistency(paper, coarse_tri, coarse_grid, u, traj, 0.25)
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), 0, 0.1, 3)
    with pytest.raises(ConfigurationError, match="does not fit"):
        cost_consistency(paper, tri, grid, coarse_u, traj, 0.1)


def test_cost_consistency_checks_the_step(paper, solved):
    """As in simulate: with discount 1 the step 2.0 gives beta = -1."""
    tri, grid, u = solved
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.5]), 0, 0.1, 3)
    for h in (2.0, 0.0, np.nan):
        with pytest.raises(ConfigurationError, match="time step must satisfy"):
            cost_consistency(paper, tri, grid, u, traj, h)


def test_trajectory_exits_domain():
    expanding = ProblemSpec(
        dynamics=lambda x, a: 2.0 * np.asarray(x, dtype=float),
        cost=lambda x, a: np.zeros(len(x)),
        discount=1.0,
        domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        lip_g=2.0, bound_g=2.9, lip_f=0.0, bound_f=0.0,
    )
    tri = build_uniform(expanding.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(OutOfDomainError) as exc:
        simulate(expanding, tri, grid, value, np.array([0.5, 0.5]), 0, 0.5, 5)
    assert exc.value.context == 0  # leaves at the first step


@pytest.mark.parametrize("h", [1.5, 0.0, -0.5])
def test_step_outside_contraction_range_rejected(paper, h):
    tri = build_uniform(paper.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(ConfigurationError, match="time step"):
        simulate(paper, tri, grid, value, np.array([0.5, 0.5]), 0, h, 5)


def test_nan_start_is_out_of_domain(paper):
    tri = build_uniform(paper.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(OutOfDomainError) as exc:
        simulate(paper, tri, grid, value, np.array([0.0, np.nan]), 0, 0.5, 5)
    assert exc.value.axis == 1


def test_trajectory_csv_layout(paper, solved):
    """Every row prints the running sum simulate recorded, so the last one
    is the total; on this start a second summation of the stage costs
    would round the last digit differently."""
    tri, grid, u = solved
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.25]), 2, 0.1, 40)
    lines = trajectory_csv(traj, grid).strip().split("\n")
    assert lines[0] == "step,x1,x2,a,stage_cost,discounted_cumulative"
    assert len(lines) == 41
    printed = [float(line.split(",")[-1]) for line in lines[1:]]
    assert printed == traj.discounted_cumulative.tolist()
    assert printed[-1] == traj.discounted_total


def test_no_steps_total_is_zero(paper, solved):
    tri, grid, u = solved
    traj = simulate(paper, tri, grid, u, np.array([0.5, 0.25]), 2, 0.1, 0)
    assert traj.discounted_cumulative.shape == (0,)
    assert traj.discounted_total == 0.0
    assert trajectory_csv(traj, grid) == "step,x1,x2,a,stage_cost,discounted_cumulative\n"


def test_non_finite_cost_names_the_step(paper):
    """A cost that turns NaN off the mesh nodes stops the rollout at that step."""
    import dataclasses

    from monohjb import InvalidProblemDataError

    def cost(x, a):
        f = paper.cost(x, a)
        f[np.abs(x[:, 0]) < 0.2] = np.nan
        return f

    spec = dataclasses.replace(paper, cost=cost)
    tri = build_uniform(paper.domain, 0.1)
    grid = control_grid(0.1)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(InvalidProblemDataError) as exc:
        simulate(spec, tri, grid, value, np.array([0.5, 0.5]), grid.m, 0.1, 20)
    # x1 = 0.5 * 0.8^j first drops below 0.2 at step 5
    assert "cost of step 5 under control level 10" in str(exc.value)
    assert exc.value.level == grid.m


def test_start_level_above_the_top_is_config_error(paper):
    tri = build_uniform(paper.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(ConfigurationError, match="initial control index 3 outside the grid"):
        simulate(paper, tri, grid, value, np.array([0.0, 0.0]), grid.m + 1, 0.5, 5)


@pytest.mark.parametrize("x0", [[0.3], [0.3, 0.3, 0.3], 0.3, [[0.3, 0.3]]])
def test_start_of_wrong_shape_is_config_error(paper, x0):
    tri = build_uniform(paper.domain, 0.5)
    grid = control_grid(0.5)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(ConfigurationError, match=r"x0 must have shape \(2,\)"):
        simulate(paper, tri, grid, value, x0, 0, 0.5, 5)


def _reference_rollout(spec, tri, grid, value, x0, a0, h, steps):
    """The rollout loop in numpy form: per step, one batch-of-one
    `level_data` call, a numpy Euler step and one `locate_many` row."""
    beta = 1.0 - spec.discount * h
    y = np.asarray(x0, dtype=float)
    states, controls, costs = [y.copy()], [], []
    total, disc, a = 0.0, 1.0, a0
    for _ in range(steps):
        (g,), (f,) = level_data(spec, y[None, :], float(grid.levels[a]), a)
        f = float(f)
        y_next = y + h * g
        idx, w = locate_many(tri, y_next[None, :])
        interp = value.values[idx[0], a:].T @ w[0]
        b = a + int(np.argmin(beta * interp + h * f))
        controls.append(a)
        costs.append(h * f)
        total += disc * h * f
        disc *= beta
        states.append(y_next.copy())
        y = y_next
        a = b
    return np.array(states), np.array(controls, dtype=int), np.array(costs), total, a


def _assert_rollouts_match_reference(spec, tri, grid, u, h, seed):
    """Several starts, a node and the origin among them, times every initial
    level: simulate gives the reference loop's rollout, bit for bit."""
    rng = np.random.default_rng(seed)
    starts = [*rng.uniform(tri.lower, tri.upper, size=(4, 2)), tri.vertices[100], np.zeros(2)]
    for x0 in starts:
        for a0 in range(grid.n_levels):
            traj = simulate(spec, tri, grid, u, x0, a0, h, 40)
            states, controls, costs, total, terminal = _reference_rollout(
                spec, tri, grid, u, x0, a0, h, 40)
            assert traj.states.tobytes() == states.tobytes()
            np.testing.assert_array_equal(traj.control_indices, controls)
            assert traj.stage_costs.tobytes() == costs.tobytes()
            assert traj.discounted_total == total
            assert traj.terminal_control == terminal


def test_trajectories_match_batch_locator(paper, solved):
    """The scalar step leaves every rollout exactly as the numpy loop on the
    batch locator gives it, at k = h = 0.1."""
    tri, grid, u = solved
    _assert_rollouts_match_reference(paper, tri, grid, u, 0.1, seed=11)


def test_trajectories_match_reference_loop_finer(paper):
    """The same at k = h = 0.05."""
    tri = build_uniform(paper.domain, 0.05)
    grid = control_grid(0.05)
    u, _, _ = solve(paper, tri, grid, SolveOptions(h=0.05))
    _assert_rollouts_match_reference(paper, tri, grid, u, 0.05, seed=12)


def test_wrong_shape_dynamics_names_callable_and_level(paper):
    import dataclasses

    from monohjb import InvalidProblemDataError

    spec = dataclasses.replace(paper, dynamics=lambda x, a: paper.dynamics(x, a)[0])
    tri = build_uniform(paper.domain, 0.1)
    grid = control_grid(0.1)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(InvalidProblemDataError) as exc:
        simulate(spec, tri, grid, value, np.array([0.5, 0.5]), 3, 0.1, 20)
    assert "dynamics under control level 3 (a=0.3" in str(exc.value)
    assert "returned shape (2,) for points of shape (1, 2)" in str(exc.value)
    assert exc.value.level == 3


def test_non_finite_velocity_names_the_step(paper):
    import dataclasses

    from monohjb import InvalidProblemDataError

    def dynamics(x, a):
        g = paper.dynamics(x, a)
        g[np.abs(x[:, 0]) < 0.2, 1] = np.nan
        return g

    spec = dataclasses.replace(paper, dynamics=dynamics)
    tri = build_uniform(paper.domain, 0.1)
    grid = control_grid(0.1)
    value = GridFunction.zeros(tri, grid)
    with pytest.raises(InvalidProblemDataError) as exc:
        simulate(spec, tri, grid, value, np.array([0.5, 0.5]), grid.m, 0.1, 20)
    # x1 = 0.5 * 0.8^j first drops below 0.2 at step 5
    assert "dynamics of step 5 under control level 10 (a=1.0) is not finite" in str(exc.value)
    assert exc.value.level == grid.m
    assert exc.value.node is None
