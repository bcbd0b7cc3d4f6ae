"""The one-step dynamic-programming operator on the discrete space.

For each node x^i and control level a, one Euler step of the dynamics gives an
image point whose interpolation weights are fixed throughout a solve.  The
TransitionTable caches those weights, turning each operator sweep into a small
number of gather-and-reduce passes: for every level a the new value is

    min over b >= a of  (1 - lambda*h) * interp(w(., b), x^i + h g(x^i, a))
                        + h * f(x^i, a)

Ties in the minimum always resolve to the smallest admissible b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidProblemDataError, OutOfDomainError
from .fespace import ControlGrid, GridFunction, evaluate
from .mesh import Triangulation, locate_many
from .problem import ProblemSpec


@dataclass(eq=False)
class PolicyField:
    """Chosen next control index b for every (node, current level a); b >= a."""

    choice: np.ndarray  # (n_vertices, n_levels) int

    def __post_init__(self):
        self.choice = np.asarray(self.choice, dtype=int)
        a = np.arange(self.choice.shape[1])
        if np.any(self.choice < a[None, :]):
            raise ConfigurationError("policy would decrease the control level")


@dataclass(eq=False)
class TransitionTable:
    """Interpolation stencils of the Euler images, per control level."""

    indices: np.ndarray     # (n_levels, N, nu+1) int
    weights: np.ndarray     # (n_levels, N, nu+1) float
    stage_cost: np.ndarray  # (N, n_levels) values of f at the nodes
    h: float
    discount: float


def _check_step(h: float, lam: float):
    if not 0.0 < h < 1.0 / lam:
        raise ConfigurationError(
            f"time step must satisfy 0 < h < 1/discount = {1.0 / lam}, got {h}"
        )


def _require_finite(data: np.ndarray, what: str, ai: int, a: float):
    """Raise InvalidProblemDataError at the first node whose row is not finite."""
    bad = ~np.isfinite(data)
    if bad.any():
        node = int(np.argwhere(bad)[0][0])
        raise InvalidProblemDataError(
            f"{what} of node {node} under control level {ai} (a={a}) is not "
            f"finite: {data[node]}",
            node=node, level=ai, value=data[node],
        )


def build_table(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    clamp: bool = False,
) -> TransitionTable:
    """Precompute interpolation stencils for x^i + h g(x^i, a).

    Image points outside the mesh are a hard error naming the node and
    control; clamp=True instead projects them onto the inner box (this
    changes the scheme and is off by default).  A non-finite image or stage
    cost raises InvalidProblemDataError naming the node and level.
    """
    _check_step(h, spec.discount)
    N = tri.n_vertices
    nl = grid.n_levels
    nu = tri.dim
    indices = np.empty((nl, N, nu + 1), dtype=int)
    weights = np.empty((nl, N, nu + 1))
    stage = np.empty((N, nl))
    for ai, a in enumerate(grid.levels):
        a = float(a)
        images = np.array(
            [tri.vertices[i] + h * np.asarray(spec.dynamics(tri.vertices[i], a), dtype=float)
             for i in range(N)]
        )
        stage[:, ai] = [spec.cost(tri.vertices[i], a) for i in range(N)]
        _require_finite(images, "Euler image", ai, a)
        _require_finite(stage[:, ai], "stage cost", ai, a)
        if clamp:
            images = np.clip(images, tri.lower, tri.upper)
        try:
            idx, w, _ = locate_many(tri, images)
        except OutOfDomainError as exc:
            raise OutOfDomainError(
                f"Euler image of node {exc.context} under control a={a} leaves the "
                f"mesh (axis {exc.axis}); the mesh fails the invariance hypothesis "
                f"for this time step",
                point=exc.point,
                axis=exc.axis,
                context=(exc.context, ai),
            ) from exc
        indices[ai] = idx
        weights[ai] = w
    return TransitionTable(
        indices=indices, weights=weights, stage_cost=stage, h=h, discount=spec.discount
    )


def apply_fixed_control(
    gf: GridFunction,
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    node_index: int,
    a_index: int,
    b_index: int,
) -> float:
    """Operator value at one node for a fixed next control b."""
    _check_step(h, spec.discount)
    if b_index < a_index:
        raise ConfigurationError(
            f"next control index {b_index} below current level {a_index}"
        )
    x = tri.vertices[node_index]
    a = float(grid.levels[a_index])
    image = x + h * np.asarray(spec.dynamics(x, a), dtype=float)
    try:
        interp = evaluate(gf, tri, image, b_index)
    except OutOfDomainError as exc:
        raise OutOfDomainError(
            f"Euler image of node {node_index} under control a={a} leaves the mesh",
            point=exc.point,
            axis=exc.axis,
            context=(node_index, a_index),
        ) from exc
    return (1.0 - spec.discount * h) * interp + h * float(spec.cost(x, a))


def _sweep_level(values, table, ai, out_vals, out_pol):
    beta = 1.0 - table.discount * table.h
    idx = table.indices[ai]
    wts = table.weights[ai]
    base = table.h * table.stage_cost[:, ai]
    nl = values.shape[1]
    best = beta * np.einsum("ij,ij->i", wts, values[idx, ai]) + base
    arg = np.full(values.shape[0], ai, dtype=int)
    for b in range(ai + 1, nl):
        cand = beta * np.einsum("ij,ij->i", wts, values[idx, b]) + base
        better = cand < best
        best = np.where(better, cand, best)
        arg[better] = b
    out_vals[:, ai] = best
    out_pol[:, ai] = arg


def apply(
    gf: GridFunction,
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    table: TransitionTable | None = None,
    workers: int = 1,
) -> tuple[GridFunction, PolicyField]:
    """Full Jacobi sweep of the Bellman operator; returns (new values, argmin).

    `workers` is accepted and ignored: the level-parallel thread pool it
    selected was slower than the serial sweep, and the argument goes away
    in a later release.
    """
    if table is None:
        table = build_table(spec, tri, grid, h)
    values = gf.values
    if values.shape != (tri.n_vertices, grid.n_levels):
        raise ConfigurationError("grid function shape does not match mesh/control grid")
    out_vals = np.empty_like(values)
    out_pol = np.empty(values.shape, dtype=int)
    for ai in range(grid.n_levels):
        _sweep_level(values, table, ai, out_vals, out_pol)
    return GridFunction(out_vals), PolicyField(out_pol)


def greedy_policy(
    gf: GridFunction,
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    table: TransitionTable | None = None,
) -> PolicyField:
    """Argmin field of the operator applied to gf (smallest b on ties)."""
    _, pol = apply(gf, spec, tri, grid, h, table=table)
    return pol


def policy_index(policy: PolicyField, table: TransitionTable) -> np.ndarray:
    """Gather index of a frozen policy into level-major values, (n_levels, N, nu+1).

    Row (a, i) of the frozen operator reads the stencil indices[a, i, :] at
    column level b = policy.choice[i, a]; in a level-major vector of length
    n_levels*N, node j at level b sits at b*N + j.
    """
    n_nodes = table.stage_cost.shape[0]
    return table.indices + policy.choice.T[:, :, None] * n_nodes


def apply_policy(values: np.ndarray, index: np.ndarray, table: TransitionTable) -> np.ndarray:
    """One policy-evaluation sweep: the operator with the min frozen at a policy.

    `values` and the result are level-major (n_levels*N,) vectors, that is
    GridFunction values transposed and flattened; `index` is the frozen
    policy's policy_index.
    """
    beta = 1.0 - table.discount * table.h
    out = np.einsum("aij,aij->ai", table.weights, values[index])
    out *= beta
    out += table.h * table.stage_cost.T
    return out.ravel()
