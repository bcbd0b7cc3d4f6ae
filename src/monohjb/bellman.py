"""The one-step dynamic-programming operator on the discrete space.

For each node x^i and control level a, one Euler step of the dynamics gives an
image point whose interpolation weights are fixed throughout a solve.  The
TransitionTable caches those weights; the new value at level a is

    min over b >= a of  (1 - lambda*h) * interp(w(., b), x^i + h g(x^i, a))
                        + h * f(x^i, a)

One kernel, `sweep`, computes it on level-major values (n_levels, N).
Ties in the minimum always resolve to the smallest admissible b.  Only
`_bellman` (one stencil per row) and `_fold` (the minimum over the levels)
map interpolants to these Bellman values.

`lookahead` is the operator at one point before the minimum, every
admissible b at once, from the callbacks and the scalar locator; it reads no
table.  The closed loop (`feedback.simulate`) and the finite-horizon oracle
(`harness.brute_force_oracle`) both run it, so the oracle checks the table
and `sweep` instead of repeating them.

Most rows (a, i) are settled by a bound before any candidate is folded.
Per node, M[a] = min over b >= a of w(., b) is the suffix minimum over the
levels and S[a] the smallest b that attains it.  P1 weights are
nonnegative and floating-point rounding is monotone, so interp(M[a]) at the
image of row (a, i) is at most every candidate interp(w(., b)), b >= a, as
computed.  Where every stencil vertex of the row has the same S = b*, the
bound gathers the very numbers interp(w(., b*)) does: it is a candidate and
therefore the minimum, bit for bit.  With the argmin the bound settles rows
with b* = a outright: their choice a is the smallest admissible level.  For
b* > a a smaller b could tie with b* after rounding, so a second, below-S
bound decides those rows.  Per node, L[a] = min over b in [a, S[a]) of
w(., b); with beta = 1 - lambda*h, every candidate b < b* is at least
beta * interp(L[a]) + h f as computed, by the same monotonicity and that of
x -> beta x + h f.  Where this is strictly above beta * interp(M[a]) + h f,
the candidate of b*, no smaller b ties and the choice is b*.  The rows left
open keep their level-major order, so the rows with a <= b are a prefix of
them, and the column fold walks b from the top down, interpolates column b
at the open rows of that prefix in one product-sum per stencil vertex and
folds the result into a running minimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfDomainError
from .fespace import ControlGrid, GridFunction, check_fits
from .mesh import Triangulation, _locate_point, locate_many
from .problem import ProblemSpec, level_data


@dataclass(eq=False)
class PolicyField:
    """Chosen next control index b for every (node, current level a), with
    a <= b <= m.  Integral floats are accepted; any other choice, a
    fraction, a NaN, a boolean, one above the top level m or below a, raises
    ConfigurationError, as does an array that is not 2-d."""

    choice: np.ndarray  # (n_vertices, n_levels) int

    def __post_init__(self):
        raw = np.asarray(self.choice)
        if raw.ndim != 2:
            raise ConfigurationError(
                f"policy must be a (nodes, levels) array, got shape {raw.shape}")
        # booleans are no control indices; the cast would make them 0 and 1
        if raw.dtype.kind not in "iuf":
            raise ConfigurationError(f"policy choices must be control indices, got {raw.dtype}")
        # checked before the cast, which would truncate fractions
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise ConfigurationError("policy chooses a control index that is not an integer")
        top = raw.shape[1] - 1
        if np.any(raw > top):
            raise ConfigurationError(f"policy chooses a control index above the top level {top}")
        self.choice = np.asarray(raw, dtype=int)
        a = np.arange(self.choice.shape[1])
        if np.any(self.choice < a[None, :]):
            raise ConfigurationError("policy would decrease the control level")


@dataclass(eq=False)
class TransitionTable:
    """Interpolation stencils of the Euler images, per control level.

    One layout, stencil-major and level-major: column a*N + i of `indices`
    and `weights`, shape (nu+1, n_levels*N), is the stencil of the image of
    node i under level a, and row j lists the j-th stencil vertex of every
    such (a, i), as its position a*N + v in level-major values of length
    n_levels*N; adding (b - a)*N reads vertex v at level b.  `stage_cost`
    holds f at the nodes, shape (n_levels, N); its `ravel()` lines up with
    the stencil columns.  The level and node counts are read from its shape.
    `source` is the (spec, tri, grid) that `build_table` read, () for a
    table built by hand.
    """

    indices: np.ndarray     # (nu+1, n_levels*N) int
    weights: np.ndarray     # (nu+1, n_levels*N) float
    stage_cost: np.ndarray  # (n_levels, N) values of f at the nodes
    h: float
    discount: float
    source: tuple = ()

    def __post_init__(self):
        nl, n_nodes = self.stage_cost.shape
        if self.indices.shape != self.weights.shape or self.indices.shape[1:] != (nl * n_nodes,):
            raise ConfigurationError(
                f"stencils of shape {self.indices.shape} and {self.weights.shape} do not "
                f"fit {nl} levels of {n_nodes} nodes"
            )
        # the sweeps gather with mode="clip", which would hide a bad index
        per_level, start = self.indices.reshape(-1, nl, n_nodes), np.arange(nl) * n_nodes
        low, high = per_level.min(axis=(0, 2)) - start, per_level.max(axis=(0, 2)) - start
        if low.min() < 0 or high.max() >= n_nodes:
            raise ConfigurationError("stencil position outside its column's level block")


def _level_major_shape(values: np.ndarray, table: TransitionTable) -> tuple:
    """The table's (n_levels, N), which the level-major values must have."""
    shape = table.stage_cost.shape
    if values.shape != shape:
        raise ConfigurationError(f"values of shape {values.shape} do not match the table's {shape}")
    return shape


def _check_step(h: float, lam: float):
    if not 0.0 < h < 1.0 / lam:
        raise ConfigurationError(
            f"time step must satisfy 0 < h < 1/discount = {1.0 / lam}, got {h}"
        )


def build_table(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
) -> TransitionTable:
    """Precompute interpolation stencils for x^i + h g(x^i, a).

    Image points outside the mesh are a hard error naming the node and
    control.  The problem callables are called once per level on all nodes
    (see `problem.level_data`); a non-finite velocity or stage cost raises
    InvalidProblemDataError naming the node and level.
    """
    _check_step(h, spec.discount)
    N = tri.n_vertices
    nl = grid.n_levels
    nu = tri.dim
    indices = np.empty((nu + 1, nl, N), dtype=int)
    weights = np.empty((nu + 1, nl, N))
    stage_cost = np.empty((nl, N))
    for ai, a in enumerate(grid.levels):
        a = float(a)
        g, stage_cost[ai] = level_data(spec, tri.vertices, a, ai)
        try:
            idx, w = locate_many(tri, tri.vertices + h * g)
        except OutOfDomainError as exc:
            raise OutOfDomainError(
                f"Euler image of node {exc.context} under control a={a} leaves the "
                f"mesh (axis {exc.axis}); the mesh fails the invariance hypothesis "
                f"for this time step",
                point=exc.point,
                axis=exc.axis,
                context=(exc.context, ai),
            ) from exc
        np.add(idx.T, ai * N, out=indices[:, ai])
        weights[:, ai] = w.T
    return TransitionTable(
        indices=indices.reshape(nu + 1, -1), weights=weights.reshape(nu + 1, -1),
        stage_cost=stage_cost, h=h, discount=spec.discount, source=(spec, tri, grid),
    )


def table_for(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    table: TransitionTable | None = None,
) -> TransitionTable:
    """The transition table of step h for this problem, control grid and mesh.

    A supplied table is used when `build_table` built it from these very
    spec, tri and grid objects (they compare by identity) for step h.
    Otherwise, or when none is supplied, the table is built here, with a
    UserWarning for a supplied table that does not fit: sweeping a table of
    another problem, mesh or step while certifying for this one would
    report a bound that does not hold.
    """
    if table is not None:
        if table.source == (spec, tri, grid) and table.h == h:
            return table
        warnings.warn(
            f"transition table of step {table.h} does not fit this problem, control grid, "
            f"mesh and step {h}; building a new one", stacklevel=3,
        )
    return build_table(spec, tri, grid, h)


def lookahead(values: np.ndarray, spec: ProblemSpec, tri: Triangulation, h: float,
              X: np.ndarray, a_index: int, a: float, point: str):
    """The operator at one point for every admissible next level.

    X is one point of shape (1, nu) under committed level a_index, with
    control value a; `point` names it in error messages.  Returns the Euler
    image as a list of floats, the stage cost f and, as one array, the
    candidates (1 - lambda h) * interp(values[:, b], image) + h f for
    b = a_index .. top.  The step is checked by the caller, and an image
    outside the mesh raises the locator's OutOfDomainError.

    values is node-major, (N, n_levels).  The stencil's rows are gathered
    with one `take`, the levels a_index .. top kept as one C-ordered
    (nu+1, levels) block, and interpolated by one matrix-vector product;
    the map to the candidates runs in place, the multiply then the add.
    """
    g, f = level_data(spec, X, a, a_index, point=point)
    image = [xi + h * gi for xi, gi in zip(X.tolist()[0], g)]
    ids, weights = _locate_point(tri, image)
    # the block values[ids, a_index:] gives, without its slower mixed index;
    # the product must see this layout: with the leading dimension of the
    # uncopied slice, BLAS can round a sum of four products differently
    rows = np.ascontiguousarray(values.take(ids, axis=0)[:, a_index:])
    candidates = rows.T @ np.array(weights)
    candidates *= 1.0 - spec.discount * h
    candidates += h * f
    return image, f, candidates


def _interpolate(column, idx, wts, out, tmp):
    """out = sum_j column[idx[j]] * wts[j]: one product-sum per stencil vertex.

    The indices are in range by construction; mode="clip" only skips the
    bounds check of the default mode.
    """
    np.take(column, idx[0], out=out, mode="clip")
    out *= wts[0]
    for j in range(1, len(idx)):
        np.take(column, idx[j], out=tmp, mode="clip")
        tmp *= wts[j]
        out += tmp
    return out


def _bellman(flat, idx, wts, table, rows=slice(None)):
    """(1 - lambda h) * interp(flat) + h f at the stencils idx, wts of `rows`."""
    n = idx.shape[1]
    out = _interpolate(flat, idx, wts, np.empty(n), np.empty(n))
    out *= 1.0 - table.discount * table.h
    out += table.h * table.stage_cost.ravel()[rows]
    return out


def _bound(values: np.ndarray, table: TransitionTable, policy: bool):
    """The suffix-minimum bound of every row and the rows it leaves open.

    Per node, M[a] = min over b >= a of values[b] and S[a] is the smallest
    b that attains it.  Returns the Bellman values of interp(M[a]) at the
    stencil of every row (a, i), level-major, which `sweep` returns as they
    are for a settled row; the sorted level-major numbers of the rows whose
    minimum it does not settle; and S at the first stencil vertex of every
    row, which for a settled row is its common S and, on the policy path,
    its choice.  Open are the rows whose stencil vertices differ in S and,
    on the policy path, those whose common S = b* is above a unless the
    below-S bound settles them: per node, L[a] = min over b in [a, S[a]) of
    values[b], and a row is settled when the Bellman value of interp(L[a])
    is strictly above that of interp(M[a]).
    """
    nl, n_nodes = values.shape
    levels = np.arange(nl, dtype=np.min_scalar_type(nl))[:, None]
    # one top-down pass per array; a loop over levels beats minimum.accumulate
    # along axis 0 by 3-5x
    suffix = values.copy()
    for a in range(nl - 2, -1, -1):
        # np.minimum keeps its second argument on ties, so every M[a] holds
        # the bits of values[S[a]]
        np.minimum(suffix[a + 1], values[a], out=suffix[a])
    # S[a] is the first b >= a whose value is the suffix minimum M[b]: no
    # b in between attains its own, so M stays constant from a to that b
    own = values == suffix
    first = np.where(own, levels, levels.dtype.type(nl))
    for a in range(nl - 2, -1, -1):
        np.minimum(first[a + 1], first[a], out=first[a])
    # row (a, i) reads its stencil at its own level, as the table holds it
    indices = table.indices
    bound = _bellman(suffix.ravel(), indices, table.weights, table)
    s = first.ravel()
    s0 = s.take(indices[0], mode="clip")
    settled = np.ones(nl * n_nodes, dtype=bool)
    for j in range(1, len(indices)):
        settled &= s.take(indices[j], mode="clip") == s0
    if policy:
        raised = (s0.reshape(nl, n_nodes) != levels).ravel()
        candidates = settled & raised
        settled &= ~raised
        if candidates.any():
            # L[a] is +inf where S[a] = a; otherwise S[a] = S[a+1] and
            # L[a] = min(values[a], L[a+1]).  Built only here, so a sweep
            # without candidates pays nothing for the second bound
            below = np.where(own, np.inf, values)
            for a in range(nl - 2, -1, -1):
                np.minimum(below[a + 1], below[a], out=below[a], where=~own[a])
            rows = np.flatnonzero(candidates)
            if 4 * len(rows) < len(candidates):
                idx, wts = indices.take(rows, axis=1), table.weights.take(rows, axis=1)
            else:
                # gathering most rows' stencils costs more than the
                # product-sums it saves
                rows, idx, wts = slice(None), indices, table.weights
            # L is finite at the stencil of a candidate; elsewhere +inf
            # times a zero weight is NaN, which is never compared
            with np.errstate(invalid="ignore"):
                low = _bellman(below.ravel(), idx, wts, table, rows)
            settled[rows] |= candidates[rows] & (low > bound[rows])
    return bound, np.flatnonzero(~settled), s0


def _fold(values, idx, wts, ends, table, rows, policy=False):
    """Top-down column fold over rows kept in level-major order.

    The rows with level a <= b are the first ends[b] columns of the stencils
    idx, wts (nu+1, n_rows); `rows` are their level-major numbers.  Column b
    of values is interpolated at them in one product-sum per stencil vertex
    and folded into a running minimum.  Returns the Bellman values of the
    minimum; with policy=True the candidates are mapped to Bellman values
    before the minimum, so that ties are decided on them, and the
    minimizing b, the smallest on ties, is returned as well.  The map is
    monotone in floating point, so both paths give identical values.
    """
    nl = len(values)
    n_rows = ends[-1]
    beta = 1.0 - table.discount * table.h
    step = table.h * table.stage_cost.ravel()[rows]
    best, cand, tmp = np.empty(n_rows), np.empty(n_rows), np.empty(n_rows)
    if policy:
        choice = np.full(n_rows, nl - 1)
        take = np.empty(n_rows, dtype=bool)
    for b in range(nl - 1, -1, -1):
        n = ends[b]
        if n == 0:
            break
        top = b == nl - 1
        c = _interpolate(values[b], idx[:, :n], wts[:, :n],
                         best if top else cand[:n], tmp[:n])
        if policy:
            c *= beta
            c += step[:n]
        if top:
            continue
        if policy:
            # choice = b where c <= best; b descends, so ties keep the smallest b
            np.less_equal(c, best[:n], out=take[:n])
            np.copyto(choice[:n], b, where=take[:n])
        np.minimum(best[:n], c, out=best[:n])
    return (best, choice) if policy else best * beta + step


def sweep(values: np.ndarray, table: TransitionTable, policy: bool = False):
    """One Bellman sweep on level-major values (n_levels, N).

    Returns the new level-major values; with policy=True returns
    (values, choice), where choice[a, i] is the minimizing column level b,
    the smallest admissible one on ties.

    The minimum over b is settled row by row from per-node suffix minima
    (`_bound`; the module docstring shows why it is exact, bit for bit, on
    both paths), and only the rows left open run the column fold (`_fold`)
    on their gathered stencils.  Those two return the Bellman values, which
    this function takes as they are.
    """
    nl, n_nodes = _level_major_shape(values, table)
    best, rows, common = _bound(values, table, policy)
    # the open rows of levels a <= b are the first ends[b] of rows
    ends = np.searchsorted(rows, np.arange(1, nl + 1) * n_nodes)
    idx = table.indices.take(rows, axis=1)
    # _fold reads one level's column at a time, so by node id
    for a in range(1, nl):
        idx[:, ends[a - 1]:ends[a]] -= a * n_nodes
    wts = table.weights.take(rows, axis=1)
    if policy:
        # a settled row's choice is the S its stencil vertices share
        choice = common.astype(int)
        best[rows], choice[rows] = _fold(values, idx, wts, ends, table, rows, policy=True)
        return best.reshape(nl, n_nodes), choice.reshape(nl, n_nodes)
    best[rows] = _fold(values, idx, wts, ends, table, rows)
    return best.reshape(nl, n_nodes)


def apply(
    gf: GridFunction,
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    table: TransitionTable | None = None,
) -> tuple[GridFunction, PolicyField]:
    """Full Jacobi sweep of the Bellman operator; returns (new values, argmin)."""
    check_fits(gf, tri, grid)
    table = table_for(spec, tri, grid, h, table)
    new, choice = sweep(np.ascontiguousarray(gf.values.T), table, policy=True)
    return GridFunction(new.T.copy()), PolicyField(choice.T.copy())


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


def policy_index(choice: np.ndarray, table: TransitionTable) -> np.ndarray:
    """Stencil-major gather index of a frozen policy, (nu+1, n_levels*N).

    `choice` is level-major, (n_levels, N), as `sweep` returns it: row
    (a, i) of the frozen operator reads its stencil at column level
    b = choice[a, i], which is the table's level-a position shifted by
    (b - a)*N.
    """
    nl, n_nodes = table.stage_cost.shape
    levels = np.arange(nl)[:, None]
    if choice.shape != (nl, n_nodes) or np.any((choice < levels) | (choice >= nl)):
        raise ConfigurationError("policy does not fit the table's levels and nodes")
    return table.indices + ((choice - levels) * n_nodes).ravel()


def apply_policy(values: np.ndarray, index: np.ndarray, table: TransitionTable) -> np.ndarray:
    """One policy-evaluation sweep: the operator with the min frozen at a policy.

    `values` and the result are level-major (n_levels, N), as in `sweep`;
    `index` is the frozen policy's policy_index, which reads `values` as
    one flat vector of length n_levels*N.  `_bellman` returns the values.
    """
    _level_major_shape(values, table)
    return _bellman(values.ravel(), index, table.weights, table).reshape(values.shape)
