"""The one-step dynamic-programming operator on the discrete space.

For each node x^i and control level a, one Euler step of the dynamics gives an
image point whose interpolation weights are fixed throughout a solve.  The
TransitionTable caches those weights; the new value at level a is

    min over b >= a of  (1 - lambda*h) * interp(w(., b), x^i + h g(x^i, a))
                        + h * f(x^i, a)

One kernel, `Sweeper`, computes it on level-major values (n_levels, N): a
call is the operator, `sweep` is one call of a new one, `Sweeper.picard`
runs Picard iteration, the one path that drops levels (below), and
`Sweeper.howard` runs Howard's policy iteration (at the end).  Ties in the
minimum always resolve to the smallest admissible b.  Only `apply_policy`
(one frozen stencil per row), Howard's frozen maps (`Sweeper._frozen`), the
sweeper's two bounds, its live levels and its fold (the minimum over
levels) map interpolants to these values.  The bounds read each row's
stencil at its own level, as the table stores it; `_positions` is the one
reader of given rows' stencils at a chosen level, for the others.

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

A sweeper keeps its workspace for the length of a solve: M (whose buffer
the below-S bound L reuses), S and the S of the bound before it, the mask
where a level attains its own M, S at the stencil vertices, the settled
mask, the product-sum scratch, and h f, computed once.  The fold's buffers
are sized to the open rows and the live levels' to the pairs they hold,
so a sweeper holds little more memory than a sweep of its own uses.  Every
call returns new arrays, never views of the workspace.

Live levels (the classical test for suboptimal actions in value
iteration, MacQueen 1967, applied per level and made exact).  Write s and
s_lo for the largest and the smallest sum of a row's weights (1 up to
rounding for P1 weights) and q = beta s < 1, the contraction factor of A in
the sup norm.  The operator never lowers the level, so the rows of levels b
and above read values on those levels only: for each b they form a closed
system, the paper's finite sequence of stopping-time problems.  On it A is
monotone, the weights being nonnegative, and adding a constant t to the
values adds beta s_j t to row j, s_j its weight sum.  So if the change
Delta = u_n - u_{n-1} of Picard's iterates lies within [l, r] on levels b
and above, the next change lies within [beta s_lo l, q r] there when
l >= 0, and [q l, q r] when l <= 0 <= r (beta s_lo r above when r < 0).
Summed over the later sweeps, as in MacQueen's bounds (J. Math. Anal.
Appl. 14, 1966), every later iterate stays within [down(l), up(r)] of u_n
on those levels, with Q = q / (1 - q), Q_lo = beta s_lo / (1 - beta s_lo),
up(r) = Q r for r >= 0 and Q_lo r below, and down(l) = Q_lo l for l >= 0
and Q l below.  Let r_a be the largest entry of Delta on levels a and
above and l_b the smallest on levels b and above.  In a row of level a, a
candidate interp(u[b]) is a weighted sum of level b's values, so it moves
by at least s_j down(l_b) and the row's smallest, of a level b* >= a, by at
most s_j up(r_a): their gap shrinks by at most

    s (up(r_a) - down(l_b)) = s Q (r_a - l_b + theta (l_b+ + r_a-)),

with l_b+ = max(l_b, 0), r_a- = max(-r_a, 0) and
theta = 1 - Q_lo / Q = (s - s_lo) / (s (1 - beta s_lo)), at most 1.  One of
l_b+ and r_a- is 0, as r_a >= l_b, and both are where r_a >= 0 >= l_b.  So
where a suffix's changes have one sign, s_lo bounds its moves, not q, which
would claim more than rows of smaller weight sums give.  Let level b's
candidate exceed the row's smallest by more than that plus the rounding
allowance below.  Then at every later sweep b's candidate stays strictly
above the smallest's, hence strictly above the row's minimum: it can never
again equal the minimum, let alone undercut it.  Dropping b therefore
changes no later minimum, not even its bits on a tie: a fold's result is
the bits of the levels that attain the minimum, met in their order, and b
is never among them.  With delta = max |Delta|, r_a - l_b <= 2 delta, and
where l_b+ or r_a- is positive, r_a - l_b + theta (l_b+ + r_a-) <= delta:
the margin is at most 2 s Q delta, twice the iterate's own certificate
delta (1 - lambda h) / (lambda h) for s = 1, and equals it where one value
falls by delta while another rises by delta.  Along Picard's iterates on
the paper problem no value falls after sweep 10 and each level's smallest
change grows with the level, so most margins lie far below that: at
k = h = 0.05 the first check's run from 2.2e-6 to 7.3e-3, against 1.5e-2
for twice the certificate.

Picard's loop (`Sweeper.picard`) owns the test.  It checks at the sweep
after the first whose per-node suffix argmin S repeats the one before,
and then at each sweep whose certificate has halved since the last
check; a check is a value sweep given, per level, the smallest and the
largest entry of its iterate's last change (`Sweeper._sweep`), which the
loop takes from the signed difference before it takes its absolute value
for the residual.  The first check (`Sweeper._first_live`) computes every
candidate once and keeps, per row, its live levels: those whose candidate
lies within the margin margin[a, b] (`Sweeper._margin`) of the smallest,
which the sweep has just computed.  The top level's rows keep their own
level alone.  Each later value sweep (`Sweeper._live_min`) reads the values
at the live levels only: one product-sum over every row at its highest live
level, one over the other live levels, and their fold into the minimum by
`np.minimum.at`, each row's levels from the top down.  That is the column
fold's order, and each candidate is the same numbers in the same product
as there, so the minimum keeps its bits.  A later check drops the live
levels that the same test, on its own candidates and margins, rules out
(`Sweeper._drop`).  A row with one live level left is decided: it costs
one product-sum.  Neither the bounds nor the fold run on this
path.  The loop lets the live levels go before its closing policy sweep,
or as an exception leaves it, so every other sweep, and every call, reads
all levels.

The rounding allowance.  Write eps for the largest difference between a
computed sweep and A in exact arithmetic (with the stored weights, beta
and h f), and u = 2^-53.  A product-sum of k = nu + 1 terms is off by at
most gamma s X with gamma = k u / (1 - k u), where X bounds the values;
the multiply by beta and the add of h f round once each, so
eps <= c (s X + P) with c = (k + 4) u and P the largest |h f|.  A computed
sweep maps values bounded by X to values bounded by (q + c s) X + (1 + c) P,
so X = max(|u_n| + delta, (1 + c) P / (1 - q - c s)) bounds u_{n-1} and
every later iterate.  The exact next change A u_n - u_n differs from
A u_n - A u_{n-1} by the rounding of u_n, at most eps, and the computed
iterates stray from the exact ones started at u_n by at most eps / (1 - q).
up and down have slopes at most 1 / (1 - q), so each widens by
2 eps / (1 - q), and the gap's bound by 4 eps / (1 - q).  The ranges come
from the computed difference fl(u_n - u_{n-1}), which is within u |Delta|
of Delta entry by entry: the exact r_a and l_b lie within
u delta / (1 - u) of the computed ones.  Where r_a >= 0 >= l_b that is at
most a factor 1 + 2u on r_a - l_b; elsewhere it is that factor and at most
4u (l_b+ + r_a-) more.  Each computed candidate, at u_n and later, is within gamma s X of its
exact value.  With s rounded up and s_lo down, the margin of level b in a
row of level a is thus

    s (q (r_a - l_b + theta' (l_b+ + r_a-)) + 4 eps) / (1 - q) + 4 gamma s X,

with theta' = min(1, (s - s_lo) / (s (1 - q))) + 4u, at least theta + 4u
as 1 - q <= 1 - beta s_lo, times 1 + 64 u for
the roundings in computing it, in r_a - l_b and in the gap's subtraction
(`Sweeper._margin`).  1 - q is formed as (1 - beta) - beta (s - 1), where
1 - beta is exact for beta >= 1/2.  `_margin` forms half the bracket, so
where r_a = delta and l_b = -delta its number is, bit for bit, the
symmetric margin 2 s (q delta + 2 eps) / (1 - q) + 4 gamma s X times
1 + 64 u.  Along Picard's iterates at k = h = 0.05 the allowance stays near
1e-13.

Every product-sum runs in blocks of rows that fit the L2 cache
(`_interpolate`) once it has more rows than a block: those over all rows
(the bounds, the highest live levels, the first check, `apply_policy`)
and the fold's over many open rows.  The live pairs' product-sums, which
read their weights at given rows, run whole.  Each row's sum keeps its
products and their order, so blocks change no value.

Howard (`Sweeper.howard`) evaluates each frozen policy top level first
(`Sweeper._evaluate`), as the paper's finite sequence of stopping-time
problems: the operator never lowers the level, so each level reads only
itself and levels already evaluated.  It walks blocks of consecutive whole
levels that fit a fixed row budget (`_BLOCK_ROWS`) and iterates each block
jointly, so a pass is a few numpy calls on several levels where the levels
are small.  Every row of a block iterates one map (`Sweeper._frozen`, built
for that block when it is reached, from the sweeper's beta and h f) with
its weight on its own position solved exactly (none if it switches), so a
change is not damped at Picard's rate 1 - lambda h.  However accurate that
evaluation is, the certificate comes from the greedy sweep's residual
after it, as for Picard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, OutOfDomainError, check_count, is_boolean
from .fespace import ControlGrid, GridFunction, check_fits
from .mesh import Triangulation, _euler_images, _locate_point, locate_many
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
    n_levels*N; `_positions` reads it at another level b, as b*N + v.
    `stage_cost` holds f at the nodes, shape (n_levels, N); its `ravel()`
    lines up with the stencil columns.  The level and node counts are read
    from its shape.  `source` is the (spec, tri, grid) that `build_table`
    read, () for a table built by hand.
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
        # the bounds and `_margin` hold for nonnegative weights only, and a
        # NaN weight would make every value NaN
        if not (self.weights.min() >= 0.0 and self.weights.max() < math.inf):
            raise ConfigurationError("stencil weights must be finite and nonnegative")


def _level_major_shape(values: np.ndarray, table: TransitionTable) -> tuple:
    """The table's (n_levels, N), which the level-major values must have."""
    shape = table.stage_cost.shape
    if values.shape != shape:
        raise ConfigurationError(f"values of shape {values.shape} do not match the table's {shape}")
    return shape


def _check_step(h: float, lam: float):
    if is_boolean(h) or not 0.0 < h < 1.0 / lam:
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

    Image points outside the mesh (the test of hip2 in `check_hypotheses`)
    are a hard error naming the node and control.  The problem callables
    are called once per level on all nodes (`mesh._euler_images`); a
    non-finite velocity or stage cost raises InvalidProblemDataError.
    """
    _check_step(h, spec.discount)
    N = tri.n_vertices
    nl = grid.n_levels
    nu = tri.dim
    indices = np.empty((nu + 1, nl, N), dtype=int)
    weights = np.empty((nu + 1, nl, N))
    stage_cost = np.empty((nl, N))
    for ai, (images, f) in enumerate(_euler_images(spec, tri, h, grid.levels)):
        stage_cost[ai] = f
        try:
            idx, w = locate_many(tri, images)
        except OutOfDomainError as exc:
            raise OutOfDomainError(
                f"Euler image of node {exc.context} under control a={float(grid.levels[ai])} "
                f"leaves the mesh (axis {exc.axis}); the mesh fails the invariance hypothesis "
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


def _positions(table: TransitionTable, rows: np.ndarray, level) -> np.ndarray:
    """The stencils of the level-major table rows `rows` as positions at
    `level`, one int or one per row: vertex v of row (a, i), stored as
    a*N + v, becomes level*N + v, so level 0 gives node ids.

    The one place a stored stencil is read at another level than its
    row's.  Returns a new C-ordered (nu+1, len(rows)) array, so that
    `_interpolate` reads each stencil vertex's positions contiguously.
    """
    n_nodes = table.stage_cost.shape[1]
    out, shift = table.indices.take(rows, axis=1), rows // n_nodes
    np.subtract(level, shift, out=shift)
    shift *= n_nodes
    out += shift
    return out


# Rows per block of a full-row product-sum (`_interpolate` without `rows`).
_INTERPOLATE_ROWS = 32768


def _interpolate(column, idx, wts, out, tmp, rows=None, wtmp=None):
    """out = sum_j column[idx[j]] * wts[j]: one product-sum per stencil vertex.
    With `rows`, each wts[j] is read at those rows, into `wtmp`.

    Without `rows`, more than `_INTERPOLATE_ROWS` rows are walked in blocks
    of that many, each block's product-sums in the start of `tmp`.  One
    pass over every row streams the positions, weights, output and scratch
    through the outer cache levels once per stencil vertex; a block's
    operands stay in cache from one vertex to the next (cache blocking,
    Lam, Rothberg & Wolf, ASPLOS 1991).  Each row's sum is the same
    products added in the same order, so the blocks change no bit.  A row's operands take about
    64 B for a 2-D stencil (three positions, three weights, its output and
    its scratch), so 32,768 rows fill a 2 MB L2 cache: on the paper problem
    every call at k = h = 0.05 (31,941 rows) is one block, as before, and
    one at 0.025 (255,881 rows) is eight.  Smaller blocks pay numpy's
    per-call overhead more often, and split the calls at 0.05 too: with
    8,192 rows Picard to 1e-8 there was no faster.  The constant is not `_BLOCK_ROWS`, which sizes the
    blocks of whole levels that Howard's evaluation iterates to a fixed
    point, a trade of passes against per-call overhead: 32,768 rows there
    changed its passes from [140, 5] to [39, 1] at 0.05 and gained no time.

    The positions are in range by construction: the table checks its own,
    and `_positions` shifts them to levels of a checked policy or of one
    the sweep produced.  mode="clip" only skips the default mode's bounds
    check.  The array method skips `np.take`'s Python wrapper, which cost
    about 2 us a call, more than the gather itself on a fold's few rows.
    """
    n_rows = len(out)
    if rows is None and n_rows > _INTERPOLATE_ROWS:
        for start in range(0, n_rows, _INTERPOLATE_ROWS):
            part = slice(start, start + _INTERPOLATE_ROWS)
            block = out[part]
            _interpolate(column, idx[:, part], wts[:, part], block, tmp[:len(block)])
        return out
    column.take(idx[0], out=out, mode="clip")
    out *= wts[0] if rows is None else wts[0].take(rows, out=wtmp, mode="clip")
    for j in range(1, len(idx)):
        column.take(idx[j], out=tmp, mode="clip")
        tmp *= wts[j] if rows is None else wts[j].take(rows, out=wtmp, mode="clip")
        out += tmp
    return out


# Rows per block of levels that `Sweeper._evaluate` iterates jointly.  A
# block holds whole levels, at least one; on the paper problem all 11 levels
# at k = h = 0.1, 5 at 0.05 and one at 0.025 and finer.  Smaller blocks pay
# numpy's per-call overhead on every pass; larger ones keep passing over
# levels that have settled (one block of all levels is about a third
# slower than one level per block at 0.025).
_BLOCK_ROWS = 8192


class Sweeper:
    """The Bellman sweep on one table, with the workspace it reuses.

    Called on level-major values (n_levels, N), it is the operator A: it
    returns the new level-major values; with policy=True it returns
    (values, choice), where choice[a, i] is the minimizing column level b,
    the smallest admissible one on ties.  The returned arrays are new on
    every call.  The finite-horizon recursion calls one sweeper on every
    sweep; `sweep` makes one per call; `picard` runs Picard iteration and
    `howard` Howard's policy iteration: its evaluation (`_evaluate`, block
    by block on `_frozen` maps) reads the sweeper's beta, h f and scratch,
    and its improvement sweeps are calls.

    The minimum over b is settled row by row from per-node suffix minima
    (`_bound`, `_open_rows`), and only the rows left open run the column
    fold (`_fold`) on their gathered stencils (`_gather`).  `picard` alone
    drops levels, by checks of its own iterates (`_sweep` given the range
    of a change on each level): the first keeps every row's live levels
    (`_first_live`), the later value sweeps read each row at its live
    levels alone (`_live_min`) and each later check drops more of them
    (`_drop`).  It lets them go before
    it returns, so a call always reads every level.  The module docstring
    shows why every path is exact, bit for bit.
    """

    def __init__(self, table: TransitionTable):
        self.table = table
        nl, n_nodes = table.stage_cost.shape
        size = nl * n_nodes
        level_type = np.min_scalar_type(nl)
        self._levels = np.arange(nl, dtype=level_type)[:, None]
        self._beta = 1.0 - table.discount * table.h
        self._step = table.h * table.stage_cost.ravel()
        # per node M (`_bound`), S and the S of the bound before
        # (`s_repeats`), the first filled with nl, no level, so that no S
        # repeats it; and where a level attains its own M
        self._suffix = np.empty((nl, n_nodes))
        self._first = np.full((nl, n_nodes), nl, dtype=level_type)
        self._before = np.zeros((nl, n_nodes), dtype=level_type)
        self._own = np.empty((nl, n_nodes), dtype=bool)
        # S at the stencil vertices and the settled mask (`_open_rows`)
        self._s0, self._sj = np.empty(size, dtype=level_type), np.empty(size, dtype=level_type)
        self._settled, self._same = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
        # product-sum scratch
        self._tmp = np.empty(size)
        # `picard`'s live levels (`_keep`), None until its first check and
        # after it returns: every row's stencil at its highest live level,
        # as positions in the values, and the other live (row, level) pairs
        self._live = None
        # the weight sum and |h f| bounds of `_margin`, from its first call
        self._sums = None
        self._last_gather = None

    def __call__(self, values: np.ndarray, policy: bool = False):
        """The operator A on `values`: one sweep of every level."""
        nl, n_nodes = _level_major_shape(values, self.table)
        if policy:
            best = self._bellman(self._bound(values))
            rows = self._open_rows(values, best, policy=True)
            # a settled row's choice is the S its stencil vertices share
            choice = self._s0.astype(int)
            best[rows], choice[rows] = self._fold(values, self._gather(rows), policy=True)
            return best.reshape(nl, n_nodes), choice.reshape(nl, n_nodes)
        return self._sweep(values, None)

    def picard(self, threshold: float, max_iterations: int):
        """Iterate u_n = A(u_{n-1}) from u_0 = 0 until the residual is at most
        threshold, or for max_iterations sweeps (at least 1).

        The sweep of the iterate after the first repeat of the suffix argmin
        S (`s_repeats`), and then each one whose certificate (proportional
        to its change) has halved since the last such sweep, is a check: it
        is given that change's smallest and largest entry on each level and
        drops the levels that no later iterate's minimum can reach (the
        module docstring); the iterates keep their bits.  The live levels
        are let go before the closing policy sweep of the previous iterate,
        whose values equal the last iterate exactly, and also when the loop
        raises.  Returns level-major (values, choice) and the residual
        history.
        """
        check_count(max_iterations, "max_iterations", 1)
        u = np.zeros(self.table.stage_cost.shape)
        # one buffer for the residual: a fresh difference and its absolute
        # value took several times the arithmetic, in allocation
        diff = np.empty(u.shape)
        history = []
        # the change at or below which the next sweep checks, once S repeated,
        # and the next sweep's check: the per-level range of its change
        due, check = None, None
        try:
            for _ in range(max_iterations):
                prev, u = u, self._sweep(u, check)
                np.subtract(u, prev, out=diff)
                history.append(float(np.abs(diff, out=diff).max()))
                if history[-1] <= threshold:
                    break
                check = None
                if self.s_repeats if due is None else history[-1] <= due:
                    due = history[-1] / 2
                    # the signed change again, which the absolute value replaced
                    np.subtract(u, prev, out=diff)
                    check = diff.min(axis=1), diff.max(axis=1)
        finally:
            self._live = None
        u, choice = self(prev, policy=True)
        return u, choice, history

    def howard(self, threshold: float, max_iterations: int):
        """Policy iteration: evaluate a frozen policy, then improve greedily.

        The first policy is the stay policy, choice[a, i] = a: the greedy
        policy of the zero function, since ties go to the smallest b.  Each
        policy is evaluated block of levels by block, top block first
        (`_evaluate`), warm-started from the last greedy value, each block
        until a pass changes it by at most threshold * lambda*h.  Stops once
        the residual ||A w - w|| of the evaluated value w is at most
        threshold and returns A w with its greedy policy, so the returned
        value carries the same guaranteed-error contract as Picard's,
        however accurate the evaluation: the bound holds whether or not the
        policy has settled.  Stops short of it once the greedy policy
        repeats the policy just evaluated and the residual did not fall
        below the previous one: the residual then sits at the sweeps'
        rounding floor, and repeating the evaluation would keep it there.
        max_iterations (at least 1) caps the outer iterations and the
        passes of each block.  Returns level-major (values, choice), the
        residual history and, per outer iteration, the evaluation's passes
        over each block, summed.
        """
        check_count(max_iterations, "max_iterations", 1)
        eval_tolerance = threshold * self.table.discount * self.table.h
        u = np.zeros(self.table.stage_cost.shape)
        choice = np.repeat(np.arange(len(u))[:, None], u.shape[1], axis=1)
        history, evaluations = [], []
        for _ in range(max_iterations):
            # each greedy value is new and read only here: evaluated in place
            w, passes = self._evaluate(u, choice, eval_tolerance, max_iterations)
            evaluations.append(passes)
            # improvement step doubles as the residual check
            u, greedy = self(w, policy=True)
            history.append(float(np.abs(u - w).max()))
            # the greedy policy is the one just evaluated and the residual did
            # not fall: the next iteration would evaluate that policy again, to
            # the same rounding floor, so stop (`solve` raises)
            stalled = (len(history) > 1 and history[-1] >= history[-2]
                       and np.array_equal(greedy, choice))
            choice = greedy
            if history[-1] <= threshold or stalled:
                break
        return u, choice, history, evaluations

    def _evaluate(self, values, choice, tolerance, max_iterations):
        """The value of the frozen policy `choice`, one block of levels at a
        time, computed in place in the C-ordered `values`.

        The operator never lowers the level, so a level reads only itself
        and the levels above it.  The levels are walked in blocks of
        consecutive whole levels, top block first, each as many levels as
        fit `_BLOCK_ROWS` rows (at least one): the levels above a block are
        final when it is reached.  Each block's map (`_frozen`) and pass
        buffer are built when the block is reached, so only one block's are
        held at a time; the product-sum scratch is the sweeper's.  Starting
        from `values`, every row of the block iterates
        v <- base + interp(w; scaled), each row's own weight solved exactly,
        until a pass changes the block by at most `tolerance`, or for
        max_iterations passes.  A pass is Jacobi over the block: a row that
        switches to a level of its own block reads that level's previous
        iterate, one that switches to a finished level reads its final
        value.  A stay row then has a frozen residual of at most
        beta (1 - p) * tolerance, a switching row at most beta * tolerance.
        Returns `values` and the number of passes over blocks.
        """
        nl, n_nodes = values.shape
        flat = values.ravel()
        per_block = max(1, _BLOCK_ROWS // n_nodes)
        passes = 0
        for top in range(nl, 0, -per_block):
            low = max(top - per_block, 0)
            idx, wts, b = self._frozen(choice, low, top)
            block = flat[low * n_nodes:top * n_nodes]
            new = np.empty(block.size)
            for _ in range(max_iterations):
                _interpolate(flat, idx, wts, new, self._tmp[:block.size])
                new += b
                passes += 1
                change = float(np.abs(new - block).max())
                block[:] = new
                if change <= tolerance:
                    break
        return values, passes

    def _frozen(self, choice, low, top):
        """The frozen policy `choice` on levels low .. top-1, as one map
        v <- base + interp(w; scaled) per row.

        Row (a, i) reads its stencil at level b = choice[a, i] (`_positions`)
        and puts weight p on its own position a*N + i (duplicates summed;
        p = 0 if it switches, b > a).  Its frozen equation v = h f + beta
        (p v + interp(w; woff)), with woff the weights off its own position,
        solves for its own value as v = (h f + beta interp(w; woff)) /
        (1 - beta p).  Reads only the block's columns of the table, of h f
        and rows of `choice`, which the sweeper's own sweep produced, so
        they are not checked again.  Returns, level-major over the block's
        rows, the positions in the whole level-major vector (C-ordered),
        woff * beta / (1 - beta p) and h f / (1 - beta p).
        """
        n_nodes = self.table.stage_cost.shape[1]
        span = slice(low * n_nodes, top * n_nodes)
        rows = np.arange(span.start, span.stop)
        index = _positions(self.table, rows, choice[low:top].ravel())
        own = index == rows
        weights = self.table.weights[:, span]
        denom = 1.0 - self._beta * np.where(own, weights, 0.0).sum(axis=0)
        scaled = np.where(own, 0.0, weights) * (self._beta / denom)
        return index, scaled, self._step[span] / denom

    def _sweep(self, values, check):
        """One value sweep of `values`, on the sweeper's live levels once it
        holds them.  A `check`, the smallest and the largest entry on each
        level of the change of `values` from the iterate it was swept from
        (two arrays of n_levels), makes the sweep a check, which keeps or
        drops live levels: only `picard` gives one, on its own iterates."""
        if self._live is not None:
            raw, highest = self._live_min(values, check is not None)
            if check is not None:
                self._drop(values, check, raw, highest)
            return self._bellman(raw).reshape(values.shape)
        raw = self._bound(values)
        gathered = self._gather(self._open_rows(values, None))
        # held until the next value sweep gathers: freed at the end of this
        # one, its pages went back to the system and the next sweep faulted
        # them in again (73,000 against 8,400 minor faults in a paper-rule
        # solve at k = h = 0.025, a tenth of its time)
        self._last_gather = gathered
        raw[gathered[0]] = self._fold(values, gathered)
        if check is not None:
            margin = self._margin(values, check)
            if margin is not None:
                self._keep(*self._first_live(values, raw, margin))
        return self._bellman(raw).reshape(values.shape)

    @property
    def s_repeats(self) -> bool:
        """Whether the suffix argmin S of the last sweep is, bit for bit, the
        one of the sweep before it."""
        return np.array_equal(self._first, self._before)

    def live_pairs(self):
        """The live (row, level) pairs of `picard`'s value sweeps, as
        level-major row numbers and their levels, every row's highest live
        level first; None before its first check and after it returns."""
        if self._live is None:
            return None
        top, rows, pos = self._live[:3]
        n_nodes = self.table.stage_cost.shape[1]
        return (np.concatenate([np.arange(top.shape[1]), rows]),
                np.concatenate([top[0] // n_nodes, pos[0] // n_nodes]))

    def decided_levels(self) -> np.ndarray:
        """The level of each row that has one live level left in `picard`'s
        value sweeps, level-major (n_levels, N); -1 for the rows with more,
        and for every row before its first check and after it returns."""
        nl, n_nodes = self.table.stage_cost.shape
        levels = np.full(nl * n_nodes, -1)
        if self._live is not None:
            top, rows = self._live[:2]
            levels[:] = top[0] // n_nodes
            levels[rows] = -1
        return levels.reshape(nl, n_nodes)

    def open_rows(self, values: np.ndarray, policy: bool = False) -> np.ndarray:
        """The sorted level-major numbers of the rows whose minimum the bounds
        of a sweep of `values` leave open, on the value or the policy path."""
        _level_major_shape(values, self.table)
        return self._open_rows(values, self._bellman(self._bound(values)), policy)

    def _bellman(self, raw):
        """beta * raw + h f in place, on every row."""
        raw *= self._beta
        raw += self._step
        return raw

    def _bound(self, values):
        """The suffix-minimum bound interp(M[a]) of every row, as a new
        level-major array.

        Per node, M[a] = min over b >= a of values[b] and S[a] is the
        smallest b that attains it.  For a settled row the bound is its
        smallest candidate.  Leaves M, S and the mask values[a] == M[a] in
        the workspace, and the S it replaces in `_before`.
        """
        nl = len(values)
        self._first, self._before = self._before, self._first
        suffix, first, own, levels = self._suffix, self._first, self._own, self._levels
        # one top-down pass per array; a loop over levels beats
        # minimum.accumulate along axis 0 by 3-5x
        suffix[-1] = values[-1]
        for a in range(nl - 2, -1, -1):
            # np.minimum keeps its second argument on ties, so every M[a]
            # holds the bits of values[S[a]]
            np.minimum(suffix[a + 1], values[a], out=suffix[a])
        # S[a] is the first b >= a whose value is the suffix minimum M[b]: no
        # b in between attains its own, so M stays constant from a to that b
        np.equal(values, suffix, out=own)
        first.fill(nl)
        np.copyto(first, levels, where=own)
        for a in range(nl - 2, -1, -1):
            np.minimum(first[a + 1], first[a], out=first[a])
        # row (a, i) reads its stencil at its own level, as the table holds it
        return _interpolate(suffix.ravel(), self.table.indices, self.table.weights,
                            np.empty(values.size), self._tmp)

    def _below(self, values):
        """The below-S bound in M's buffer: per node, L[a] = min over b in
        [a, S[a]) of values[b], +inf where S[a] = a.  Where S[a] > a,
        S[a] = S[a+1] and L[a] = min(values[a], L[a+1])."""
        below, own = self._suffix, self._own
        np.copyto(below, values)
        np.copyto(below, np.inf, where=own)
        for a in range(len(values) - 2, -1, -1):
            np.minimum(below[a + 1], below[a], out=below[a], where=~own[a])
        return below

    def _open_rows(self, values, bound, policy=False):
        """The sorted level-major numbers of the rows whose minimum `bound`
        does not settle.

        Leaves S at the first stencil vertex of each row in the workspace,
        which for a settled row is its common S and, on the policy path,
        its choice.  Open are the rows whose stencil vertices differ in S
        and, on the policy path, those whose common S = b* is above a
        unless the below-S bound settles them: a row is settled when the
        Bellman value of interp(L[a]), taken at every row once any row is a
        candidate, is strictly above `bound`, that of interp(M[a]).  Only
        the policy path reads `bound`.
        """
        idx = self.table.indices
        s, s0, settled = self._first.ravel(), self._s0, self._settled
        s.take(idx[0], out=s0, mode="clip")
        settled.fill(True)
        for j in range(1, len(idx)):
            s.take(idx[j], out=self._sj, mode="clip")
            settled &= np.equal(self._sj, s0, out=self._same)
        if policy:
            nl, n_nodes = values.shape
            raised = (s0.reshape(nl, n_nodes) != self._levels).ravel()
            candidates = settled & raised
            settled &= ~raised
            if candidates.any():
                # built only here, so a sweep without candidates pays nothing
                # for the second bound; M is read no more.  L is finite at a
                # candidate's stencil; elsewhere +inf times a zero weight is
                # NaN, which `candidates` masks out
                with np.errstate(invalid="ignore"):
                    low = _interpolate(self._below(values).ravel(), idx, self.table.weights,
                                       np.empty(len(s0)), self._tmp)
                settled |= candidates & (self._bellman(low) > bound)
        return np.flatnonzero(~settled)

    def _first_live(self, values, raw, margin):
        """The live levels of every row: the levels b >= a whose candidate
        lies within margin[a, b] of raw, the row's smallest, from one pass
        over every candidate: for each shift d, from the top down, the rows
        of levels a < nl - d at level a + d.  A row's first live level so met
        is its highest, whose positions the returned `top` holds; the
        returned (rows, levels) list the other live levels in the order
        met, each row's from the top down.  The top level's rows keep their
        own level alone."""
        table = self.table
        nl, n_nodes = values.shape
        flat, cand = values.ravel(), np.empty(values.size)
        # the shift of each row's highest live level, -1 until it is met
        high = np.full(values.size, -1, dtype=np.intp)
        rows, levels = [], []
        for d in range(nl - 1, -1, -1):
            n = (nl - d) * n_nodes
            # the stored positions a*N + v read from level d on: a + d
            c = _interpolate(flat[d * n_nodes:], table.indices[:, :n], table.weights[:, :n],
                             cand[:n], self._tmp[:n])
            c -= raw[:n]
            live = (c.reshape(-1, n_nodes) <= np.diagonal(margin, d)[:, None]).ravel()
            below = np.flatnonzero(live & (high[:n] >= 0))
            np.copyto(high[:n], d, where=live & (high[:n] < 0))
            rows.append(below)
            levels.append((below // n_nodes + d).astype(self._levels.dtype))
        every = np.arange(values.size)
        high += every // n_nodes
        return _positions(table, every, high), np.concatenate(rows), np.concatenate(levels)

    def _keep(self, top, rows, levels):
        """Make the live levels: each row's highest at the positions `top`,
        and the pairs (rows, levels), which list each row's other levels
        from the top down, so that the fold meets them in that order."""
        self._live = (top, rows, _positions(self.table, rows, levels), np.empty(len(rows)),
                      np.empty(min(len(rows), top.shape[1])))

    def _live_min(self, values, check):
        """The smallest candidate of every row over its live levels: one
        product-sum at each row's highest live level, one at every other
        live level, into the pairs' candidate buffer, and their fold into
        the minimum, each row's levels from the top down, as the column
        fold meets them.  With `check`, also returns the candidates at the
        highest live levels, for `_drop`."""
        top, rows, pos, cand, wtmp = self._live
        weights, size = self.table.weights, values.size
        flat = values.ravel()
        raw = _interpolate(flat, top, weights, np.empty(size), self._tmp)
        highest = raw.copy() if check else None
        # in chunks of the row count, so that the row-sized scratch serves
        for start in range(0, len(rows), size):
            part = slice(start, start + size)
            n = len(rows[part])
            _interpolate(flat, pos[:, part], weights, cand[part], self._tmp[:n],
                         rows=rows[part], wtmp=wtmp[:n])
        # pair by pair, each row's levels from the top down: like np.minimum
        # it keeps its second argument on a tie, so each minimum gets the
        # column fold's bits
        np.minimum.at(raw, rows, cand)
        return raw, highest

    def _drop(self, values, check, raw, highest):
        """Drop the live levels b of each row, of level a, whose candidate,
        as the last `_live_min` left it, lies more than margin[a, b]
        (`_margin`) above raw, the row's minimum; `highest` holds the
        candidates at the rows' highest live levels.  A row whose highest
        live level is dropped takes its first kept one instead."""
        top, rows, pos, cand, wtmp = self._live
        if len(rows) == 0:
            # with one live level a row's candidate is its minimum
            return
        margin = self._margin(values, check)
        if margin is None:
            return
        nl, n_nodes = values.shape
        size = len(raw)
        for start in range(0, len(rows), size):
            part = slice(start, start + size)
            cand[part] -= raw.take(rows[part], out=wtmp[:len(rows[part])], mode="clip")
        levels = np.floor_divide(pos[0], n_nodes, casting="unsafe",
                                 out=np.empty(len(rows), dtype=self._levels.dtype))
        kept = cand <= margin[rows // n_nodes, levels]
        # the old pairs are freed as soon as they are read, before the new
        # ones are built
        self._live = None
        del cand, wtmp
        levels, rows = levels[kept], rows[kept]
        del pos, kept
        highest -= raw
        # margin[a, b] at each row's highest live level b
        high = np.take_along_axis(margin, (top[0] // n_nodes).reshape(nl, n_nodes), axis=1)
        dead = np.flatnonzero(highest > high.ravel())
        if len(dead):
            first = np.full(size, len(rows))
            np.minimum.at(first, rows, np.arange(len(rows)))
            heads = first[dead]
            top[:, dead] = _positions(self.table, dead, levels[heads])
            other = np.ones(len(rows), dtype=bool)
            other[heads] = False
            rows, levels = rows[other], levels[other]
        self._keep(top, rows, levels)

    def _margin(self, values, check):
        """margin[a, b], for levels b >= a: the gap above the smallest
        candidate of a row of level a beyond which level b's candidate stays
        above the row's minimum at every later iterate, for an iterate
        `values` whose last change lies on each level c between check[0][c]
        and check[1][c]; None when the weights are too large for a
        contraction.  The module docstring derives it."""
        unit = 2.0 ** -53
        k = len(self.table.indices)
        gamma = k * unit / (1.0 - k * unit)
        c = (k + 4) * unit
        if self._sums is None:
            # the largest weight sum of a row, rounded up, the smallest,
            # rounded down, and the largest |h f|
            sums = self.table.weights.sum(axis=0)
            self._sums = (float(sums.max()) * (1.0 + 2.0 * gamma),
                          float(sums.min()) * (1.0 - 2.0 * gamma), float(np.abs(self._step).max()))
        s, s_low, p = self._sums
        beta = self._beta
        # 1 - q for q = beta s; 1 - beta is exact for beta >= 1/2, so that a
        # small lambda h loses no digits here
        slack = (1.0 - beta) - beta * (s - 1.0)
        if not slack > c * s:
            return None
        low, high = check
        change = max(float(high.max()), -float(low.min()))
        x = max(float(np.abs(values).max()) + change, (1.0 + c) * p / (slack - c * s))
        # the largest change on levels a and above, the smallest on b and above
        rise = np.maximum.accumulate(high[::-1])[::-1]
        fall = np.minimum.accumulate(low[::-1])[::-1]
        # theta' of the module docstring: a one-signed suffix's moves are
        # bounded with the smallest weight sum, and the change was rounded
        theta = min(1.0, (s - s_low) / (s * slack)) + 4.0 * unit
        spread = rise[:, None] - fall
        spread += theta * (np.maximum(fall, 0.0) + np.maximum(-rise, 0.0)[:, None])
        # half of it: for rise = delta and fall = -delta, delta itself, and
        # the margin of twice the certificate, bit for bit
        spread /= 2.0
        drift = (beta * s * spread + 2.0 * c * (s * x + p)) / slack
        return (2.0 * s * drift + 4.0 * gamma * s * x) * (1.0 + 64.0 * unit)

    def _gather(self, rows):
        """The open `rows` as `_fold` reads them: (rows, ends, idx, wts, h f,
        best, cand).

        The open rows of levels a <= b are the first ends[b] of rows; idx
        and wts, (nu+1, len(rows)), are their stencils, idx as node ids,
        since the fold reads one level's column at a time.  best and cand
        are the fold's running minimum and candidates, one per open row.
        """
        table = self.table
        nl, n_nodes = table.stage_cost.shape
        ends = np.searchsorted(rows, np.arange(1, nl + 1) * n_nodes)
        n_rows = len(rows)
        return (rows, ends, _positions(table, rows, 0), table.weights.take(rows, axis=1),
                self._step.take(rows), np.empty(n_rows), np.empty(n_rows))

    def _fold(self, values, gathered, policy=False):
        """Top-down column fold over the gathered open rows.

        Column b of values is interpolated at the open rows of levels
        a <= b in one product-sum per stencil vertex and folded into a
        running minimum, which is returned.  With policy=True the
        candidates are mapped to Bellman values before the minimum, so that
        ties are decided on them, and the minimizing b, the smallest on
        ties, is returned as well.  The value path maps its minimum
        afterwards; the map is monotone in floating point, so both paths
        give identical values.  The minimum is the gather's buffer, valid
        until the next call.
        """
        rows, ends, idx, wts, step, best, cand = gathered
        nl, n_rows = len(values), len(rows)
        tmp = self._tmp[:n_rows]
        if policy:
            choice, take = np.full(n_rows, nl - 1), np.empty(n_rows, dtype=bool)
        for b in range(nl - 1, -1, -1):
            n = ends[b]
            if n == 0:
                break
            top = b == nl - 1
            c = _interpolate(values[b], idx[:, :n], wts[:, :n],
                             best if top else cand[:n], tmp[:n])
            if policy:
                c *= self._beta
                c += step[:n]
            if top:
                continue
            if policy:
                # choice = b where c <= best; b descends, so ties keep the smallest b
                np.less_equal(c, best[:n], out=take[:n])
                np.copyto(choice[:n], b, where=take[:n])
            np.minimum(best[:n], c, out=best[:n])
        if policy:
            return best, choice
        return best


def sweep(values: np.ndarray, table: TransitionTable, policy: bool = False):
    """One Bellman sweep on level-major values (n_levels, N): `Sweeper(table)`
    called once.  Returns the new values, with policy=True (values, choice)."""
    return Sweeper(table)(values, policy)


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


def apply_policy(values: np.ndarray, choice: np.ndarray, table: TransitionTable) -> np.ndarray:
    """One policy-evaluation sweep: the operator with the min frozen at a policy.

    `values`, the policy `choice` and the result are level-major
    (n_levels, N), as in `sweep`: row (a, i) reads its stencil at level
    choice[a, i].  A choice of another shape than the values, or one that
    `PolicyField` rejects, raises ConfigurationError.
    """
    shape = _level_major_shape(values, table)
    if np.shape(choice) != shape:
        raise ConfigurationError(
            f"policy of shape {np.shape(choice)} does not match the table's {shape}")
    rows = np.arange(values.size)
    index = _positions(table, rows, PolicyField(np.asarray(choice).T).choice.T.ravel())
    out = _interpolate(values.ravel(), index, table.weights, np.empty(rows.size), np.empty(rows.size))
    out *= 1.0 - table.discount * table.h
    out += table.h * table.stage_cost.ravel()
    return out.reshape(shape)
