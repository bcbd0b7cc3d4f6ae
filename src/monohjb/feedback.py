"""Greedy feedback simulation of the discrete dynamics with monotone controls.

The closed loop mirrors the operator's structure: at step j the committed
level a_j drives the dynamics and the stage cost, and the next level b >= a_j
is chosen to minimize the one-step lookahead of the supplied value function.
The per-step discount factor is (1 - lambda*h), matching the scheme's algebra
rather than exp(-lambda*h).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfDomainError
from .fespace import ControlGrid, GridFunction, evaluate
from .mesh import Triangulation, locate
from .problem import ProblemSpec, level_data


@dataclass(eq=False)
class Trajectory:
    states: np.ndarray          # (n+1, nu)
    control_indices: np.ndarray  # (n,) level indices a_0..a_{n-1}
    stage_costs: np.ndarray     # (n,) undiscounted h*f(y_j, a_j)
    discounted_total: float
    terminal_control: int       # level committed for step n

    @property
    def n_steps(self) -> int:
        return len(self.control_indices)

    def control_levels(self, grid: ControlGrid) -> np.ndarray:
        return grid.levels[self.control_indices]


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
    """Roll out the greedy policy induced by `value` for a fixed step count."""
    if steps < 0:
        raise ConfigurationError("steps must be nonnegative")
    if not 0 <= a0_index <= grid.m:
        raise ConfigurationError(f"initial control index {a0_index} outside the grid")
    if value.values.shape != (tri.n_vertices, grid.n_levels):
        raise ConfigurationError("value function shape does not match mesh/control grid")
    y = np.asarray(x0, dtype=float)
    if y.shape != (tri.dim,):
        raise ConfigurationError(
            f"x0 must have shape ({tri.dim},) on this {tri.dim}-D mesh, got shape {y.shape}"
        )
    lam = spec.discount
    beta = 1.0 - lam * h
    locate(tri, y)  # raises if the start is outside the mesh

    states = [y.copy()]
    controls = []
    stage_costs = []
    total = 0.0
    disc = 1.0
    a = a0_index
    for j in range(steps):
        a_val = float(grid.levels[a])
        (g,), (f_cur,) = level_data(spec, y[None, :], a_val, a, point=f"step {j}")
        f_cur = float(f_cur)
        y_next = y + h * g
        try:
            bc = locate(tri, y_next)
        except OutOfDomainError as exc:
            raise OutOfDomainError(
                f"trajectory left the mesh at step {j} (axis {exc.axis})",
                point=exc.point, axis=exc.axis, context=j,
            ) from exc
        # greedy next level over the admissible tail; f-term is constant in b
        interp = value.values[bc.vertex_indices, a:] .T @ bc.weights
        b = a + int(np.argmin(beta * interp + h * f_cur))

        controls.append(a)
        stage_costs.append(h * f_cur)
        total += disc * h * f_cur
        disc *= beta
        states.append(y_next.copy())
        y = y_next
        a = b

    return Trajectory(
        states=np.array(states),
        control_indices=np.array(controls, dtype=int),
        stage_costs=np.array(stage_costs),
        discounted_total=total,
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
    error along the path is small.
    """
    beta = 1.0 - spec.discount * h
    n = traj.n_steps
    a0 = traj.control_indices[0] if n > 0 else traj.terminal_control
    head = evaluate(value, tri, traj.states[0], int(a0))
    tail = evaluate(value, tri, traj.states[-1], traj.terminal_control)
    return abs(traj.discounted_total + beta ** n * tail - head)


def trajectory_csv(traj: Trajectory, grid: ControlGrid, discount: float, h: float) -> str:
    """CSV dump: step,x1,...,a,stage_cost,discounted_cumulative."""
    nu = traj.states.shape[1]
    coord_names = ",".join(f"x{i + 1}" for i in range(nu))
    beta = 1.0 - discount * h
    out = io.StringIO()
    out.write(f"step,{coord_names},a,stage_cost,discounted_cumulative\n")
    cum = 0.0
    disc = 1.0
    for j in range(traj.n_steps):
        cum += disc * traj.stage_costs[j]
        disc *= beta
        coords = ",".join(f"{c:.17g}" for c in traj.states[j])
        a = grid.levels[traj.control_indices[j]]
        out.write(f"{j},{coords},{a:.17g},{traj.stage_costs[j]:.17g},{cum:.17g}\n")
    return out.getvalue()
