"""Greedy feedback simulation of the discrete dynamics with monotone controls.

The closed loop mirrors the operator's structure: at step j the committed
level a_j drives the dynamics and the stage cost, and the next level b >= a_j
is chosen to minimize the one-step lookahead of the supplied value function.
The per-step discount factor is (1 - lambda*h), matching the scheme's algebra
rather than exp(-lambda*h).

A step of `simulate` is one `bellman.lookahead`, the one-point operator of
the finite-horizon oracle too, in Python floats: `problem.level_data` checks
the point's velocity and cost on the floats it returns, the Euler update
runs on lists, and the scalar core of `mesh.locate` places the image in
one pass over the axes and one over their order.  Only the candidates over
the admissible levels are numpy: one `take` of the stencil's rows of the
value, one matrix-vector product over the levels from a_j up, and the
discount and stage cost applied in place.

`simulate` alone sums the discounted stage costs; the trajectory keeps the
running sums, which `cost_consistency` and `trajectory_csv` read.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .bellman import _check_step, lookahead
from .errors import ConfigurationError, OutOfDomainError, check_count
from .fespace import ControlGrid, GridFunction, check_fits, evaluate
from .mesh import Triangulation, locate
from .problem import ProblemSpec


@dataclass(eq=False)
class Trajectory:
    """A closed-loop rollout of n steps; discounted_cumulative[j] is the sum
    of beta^i * h f(y_i, a_i) over i <= j, beta = 1 - lambda h, as `simulate` summed it."""

    states: np.ndarray          # (n+1, nu)
    control_indices: np.ndarray  # (n,) level indices a_0..a_{n-1}
    stage_costs: np.ndarray     # (n,) undiscounted h*f(y_j, a_j)
    discounted_cumulative: np.ndarray  # (n,)
    terminal_control: int       # level committed for step n

    @property
    def n_steps(self) -> int:
        return len(self.control_indices)

    @property
    def discounted_total(self) -> float:
        """The last running sum, 0.0 after no steps."""
        return float(self.discounted_cumulative[-1]) if self.n_steps else 0.0


def check_start(tri: Triangulation, grid: ControlGrid, x0, a0_index: int, steps: int):
    """Validate a rollout's start: integers steps >= 0 and a0_index on the
    control grid, x0 of shape (nu,) (ConfigurationError) and inside the
    mesh (OutOfDomainError).  Returns x0 as a float array."""
    check_count(steps, "steps")
    check_count(a0_index, "a0_index")
    if a0_index > grid.m:
        raise ConfigurationError(f"initial control index {a0_index} outside the grid")
    y = np.asarray(x0, dtype=float)
    if y.shape != (tri.dim,):
        raise ConfigurationError(
            f"x0 must have shape ({tri.dim},) on this {tri.dim}-D mesh, got shape {y.shape}"
        )
    locate(tri, y)  # raises if the start is outside the mesh
    return y


def simulate(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    value: GridFunction,
    x0,
    a0_index: int,
    h: float,
    steps: int,
) -> Trajectory:
    """Roll out the greedy policy induced by `value` for a fixed step count.

    Step j works in Python floats (see the module docstring); the callbacks
    get row j of the preallocated states as a (1, nu) batch.  The result is
    what the numpy form of each step gives, bit for bit.  The running
    discounted sum is recorded after every step.
    """
    y = check_start(tri, grid, x0, a0_index, steps)
    check_fits(value, tri, grid)
    _check_step(h, spec.discount)
    beta = 1.0 - spec.discount * h
    levels = grid.levels.tolist()
    V = value.values

    states = np.empty((steps + 1, tri.dim))
    states[0] = y
    controls, stage_costs, cumulative = [], [], []
    total, disc, a = 0.0, 1.0, a0_index
    for j in range(steps):
        try:
            y, f, candidates = lookahead(V, spec, tri, h, states[j:j + 1], a, levels[a],
                                         f"step {j}")
        except OutOfDomainError as exc:
            raise OutOfDomainError(
                f"trajectory left the mesh at step {j} (axis {exc.axis})",
                point=exc.point, axis=exc.axis, context=j,
            ) from exc
        # greedy next level over the admissible tail, smallest on ties
        b = a + int(candidates.argmin())

        controls.append(a)
        stage_costs.append(h * f)
        total += disc * h * f
        cumulative.append(total)
        disc *= beta
        states[j + 1] = y
        a = b

    return Trajectory(
        states=states,
        control_indices=np.array(controls, dtype=int),
        stage_costs=np.array(stage_costs),
        discounted_cumulative=np.array(cumulative),
        terminal_control=a,
    )


def cost_consistency(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    value: GridFunction,
    traj: Trajectory,
    h: float,
) -> float:
    """Residual of the telescoped Bellman identity along the trajectory.

    |sum of discounted stage costs + beta^n * u(y_n, a_n) - u(y_0, a_0)|;
    near zero when the value is close to the fixed point and interpolation
    error along the path is small.  The step is checked as in `simulate`.
    """
    _check_step(h, spec.discount)
    check_fits(value, tri, grid)
    beta = 1.0 - spec.discount * h
    n = traj.n_steps
    a0 = traj.control_indices[0] if n > 0 else traj.terminal_control
    head = evaluate(value, tri, traj.states[0], int(a0))
    tail = evaluate(value, tri, traj.states[-1], traj.terminal_control)
    return abs(traj.discounted_total + beta ** n * tail - head)


def trajectory_csv(traj: Trajectory, grid: ControlGrid) -> str:
    """CSV dump: step,x1,...,a,stage_cost,discounted_cumulative, the last
    column as `traj.discounted_cumulative` holds it, so ending in the total."""
    nu = traj.states.shape[1]
    coord_names = ",".join(f"x{i + 1}" for i in range(nu))
    out = io.StringIO()
    out.write(f"step,{coord_names},a,stage_cost,discounted_cumulative\n")
    for j in range(traj.n_steps):
        coords = ",".join(f"{c:.17g}" for c in traj.states[j])
        a = grid.levels[traj.control_indices[j]]
        out.write(f"{j},{coords},{a:.17g},{traj.stage_costs[j]:.17g},"
                  f"{traj.discounted_cumulative[j]:.17g}\n")
    return out.getvalue()
