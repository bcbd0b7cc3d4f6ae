"""Uniform simplicial triangulation of a box domain.

The mesh covers the inner box obtained by shrinking the domain by one cell
width k per side.  Each grid cell is split into nu! simplices by the
Kuhn/Freudenthal rule, which in 2-D is the main-diagonal split of every
square.  Simplex diameters are measured in the max norm, so every simplex of
the uniform grid has diameter exactly k.

Point location is O(1): cell arithmetic plus the stable descending order
of the in-cell offsets (ties to the lower axis), which identifies the Kuhn
simplex and yields the barycentric weights directly.  A located point is
its P1 stencil: the ids of the vertices of its simplex and their
barycentric weights, which is all that interpolation reads, and every
locator returns it as that pair.  One point,
`locate(tri, p)`, checks the point's shape and runs the scalar core
`_locate_point` in Python floats and ints on a list of coordinates (the
closed-loop rollout calls that core directly); a batch,
`locate_many(tri, points)`, takes the vectorized path.  Both read the mesh
constants cached on the `Triangulation` (`Triangulation.constants`) and
return the same vertex ids and weights, bit for bit.

The vectorized path sorts nothing.  It ranks each axis against every other
by whole-array comparisons, O(nu^2) of them, and builds the sorted offsets
and the vertex steps by scattering each axis to its rank, one fancy
assignment each.  It clamps and clips by passing the bound second to
np.maximum and np.minimum, which return it on a tie as np.clip does, so a
-0.0 on a 0.0 bound comes out as 0.0, as in the scalar core.  It computes
ids and weights stencil-major, (nu+1, M), and returns their transposes,
Fortran-ordered (M, nu+1) views.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatchError, MeshConstructionError, OutOfDomainError, is_boolean
from .problem import ProblemSpec, level_data

_COMMENSURATE_TOL = 1e-9


class MeshConstants(NamedTuple):
    """Per-mesh constants of point location, as Python numbers for the
    one-point path and as arrays for the batch path."""

    nu: int
    lower: list               # inner-box corners, floats
    upper: list
    k: float
    eps: float                # snap tolerance
    max_cell: list            # cells_per_axis - 1, ints
    node_strides: list        # C-order flat-id strides of the nodes
    node_strides_array: np.ndarray


@dataclass(eq=False)
class Triangulation:
    k: float
    lower: np.ndarray          # corner of the inner box omega_k
    upper: np.ndarray
    cells_per_axis: np.ndarray  # int, shape (nu,)
    vertices: np.ndarray        # (N, nu), lexicographic by grid index
    simplices: np.ndarray       # (S, nu+1) vertex indices

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def nodes_per_axis(self) -> tuple:
        return tuple(int(c) + 1 for c in self.cells_per_axis)

    @property
    def snap_tolerance(self) -> float:
        return 1e-9 * self.k

    @functools.cached_property
    def constants(self) -> MeshConstants:
        """Point-location constants, computed on first use and kept on the
        mesh (the mesh arrays are not modified after construction)."""
        nu = self.dim
        node_strides = _c_strides(self.nodes_per_axis)
        return MeshConstants(
            nu=nu,
            lower=self.lower.tolist(),
            upper=self.upper.tolist(),
            k=float(self.k),
            eps=self.snap_tolerance,
            max_cell=(self.cells_per_axis - 1).tolist(),
            node_strides=node_strides.tolist(),
            node_strides_array=node_strides,
        )


@dataclass
class MeshReport:
    hip1_ok: bool
    hip2_ok: bool
    hip3_margin: float
    chi1: float
    k_over_d_max: float


def _axis_cells(width: float, k: float) -> int:
    """The cells (width - 2k)/k of the inner box on an axis of this width at
    mesh size k, when that is a whole number >= 1 to a relative 1e-9; else 0."""
    ratio = (width - 2.0 * k) / k
    if not ratio > 0.5:  # also NaN, from k = inf
        return 0
    n = round(ratio)
    return n if abs(ratio - n) <= _COMMENSURATE_TOL * max(1.0, ratio) else 0


def _corners(domain) -> tuple[np.ndarray, np.ndarray]:
    """The domain's lower and upper corners as float arrays; MeshConstructionError
    unless every coordinate is finite."""
    lower = np.asarray(domain[0], dtype=float)
    upper = np.asarray(domain[1], dtype=float)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise MeshConstructionError(
            f"domain corners must be finite, got {lower.tolist()} and {upper.tolist()}")
    return lower, upper


def snap_mesh_size(domain, k: float) -> float:
    """The k' = w/n nearest to k, with w the smallest domain width and n >= 3,
    that is within a factor of 2 of k and that `build_uniform` accepts on
    every axis; MeshConstructionError, naming an axis, if there is none."""
    if is_boolean(k) or not 0.0 < k < math.inf:
        raise MeshConstructionError(f"mesh size must be positive and finite, got {k}")
    lower, upper = _corners(domain)
    widths = (upper - lower).tolist()
    w = min(widths)
    lo, hi = max(3, math.ceil(w / (2.0 * k))), math.floor(2.0 * w / k)
    rejected = None  # the nearest candidate and the first axis that rejects it
    # in order of |w/n - k|, the smaller n first on a tie
    for n in sorted(range(lo, hi + 1), key=lambda n: abs(w / n - k)):
        cells = [_axis_cells(width, w / n) for width in widths]
        if all(cells):
            return w / n
        rejected = rejected or (w / n, cells.index(0))
    if rejected is None:
        raise MeshConstructionError(
            f"no mesh size {w}/n with n >= 3 on axis {widths.index(w)} is within a factor "
            f"of 2 of k={k}")
    near_k, ax = rejected
    raise MeshConstructionError(
        f"no mesh size {w}/n within a factor of 2 of k={k} is commensurate with every axis; "
        f"the nearest, {near_k}, is not with axis {ax} width {widths[ax]}")


def build_uniform(domain, k: float) -> Triangulation:
    """Uniform Kuhn triangulation of the inner box [lower+k, upper-k]."""
    lower, upper = _corners(domain)
    if is_boolean(k) or not k > 0:
        raise MeshConstructionError(f"mesh size must be positive, got {k}")
    widths = upper - lower
    nu = lower.shape[0]
    cells = np.array([_axis_cells(width, k) for width in widths.tolist()], dtype=int)
    if not cells.all():
        ax = int(np.argmin(cells))
        if widths[ax] <= 2.0 * k:
            raise MeshConstructionError(f"mesh size k={k} leaves an empty inner box on axis {ax}")
        raise MeshConstructionError(
            f"k={k} is not commensurate with axis {ax} width {widths[ax]}"
            " (use the snap-k option to round it)"
        )

    axes = [lower[ax] + k * np.arange(1, cells[ax] + 2) for ax in range(nu)]
    om_lower = np.array([a[0] for a in axes])
    om_upper = np.array([a[-1] for a in axes])

    grids = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack([g.ravel(order="C") for g in grids], axis=1)

    # Kuhn simplices: the cell's base node, then one unit step along each axis
    # of a permutation in turn; cells in C order, permutations in
    # itertools order.  Flat node ids are C-order strides.
    strides = _c_strides(tuple(int(c) + 1 for c in cells))
    base = np.indices(tuple(int(c) for c in cells)).reshape(nu, -1).T @ strides
    steps = strides[np.array(list(itertools.permutations(range(nu))))]
    offsets = np.zeros((len(steps), nu + 1), dtype=int)
    offsets[:, 1:] = steps.cumsum(axis=1)
    simplices = (base[:, None, None] + offsets[None]).reshape(-1, nu + 1)

    return Triangulation(
        k=float(k),
        lower=om_lower,
        upper=om_upper,
        cells_per_axis=cells,
        vertices=vertices,
        simplices=simplices,
    )


def locate_many(tri: Triangulation, points: np.ndarray):
    """Vectorized point location of a batch of points, shape (M, nu) (or
    one point of shape (nu,), located as a batch of one).

    Returns (vertex index array (M, nu+1), weight array (M, nu+1)), the
    transposes of stencil-major (nu+1, M) arrays, so Fortran-ordered.
    Points within the snap tolerance outside the inner box are clamped;
    anything farther, or NaN, raises OutOfDomainError naming the offending
    coordinate (the first in row-major order).  A last axis other than nu
    raises DimensionMismatchError.

    The simplex follows the stable descending order of the in-cell offsets,
    found without sorting: axis j goes ahead of a lower axis i only where
    its offset is strictly larger, so ties go to the lower axis.  The clamp
    and the weight clip pass the bound second to np.maximum and np.minimum,
    which return it on a tie, so signed zeros come out as in `locate`.

    The sorted offsets and the vertex steps are one scatter each: point j's
    axis goes to the flat slot rank * M + j of the (nu, M) sorted rows.  The
    positions are np.intp, not the int8 of the ranks, because they reach
    nu * M - 1: a 2-D batch of more than 16,384 points passes int16's
    32,767, and intp is the index type numpy takes without a cast.  Each
    point's ranks are a permutation of 0..nu-1 and every offset is finite
    once the inside test has passed, so every slot is written exactly once,
    with the offset and the stride of the axis of that rank.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    c = tri.constants
    nu = c.nu
    if P.ndim != 2:
        raise DimensionMismatchError(f"points must have shape (M, {nu}), got shape {P.shape}")
    if P.shape[1] != nu:
        raise DimensionMismatchError(f"points have {P.shape[1]} coordinates; the mesh has {nu}")
    # stencil-major from here on: one row per axis, one column per point
    X = P.T.copy()
    lower = tri.lower[:, None]
    upper = tri.upper[:, None]
    inside = _inside(tri, X)
    if not inside.all():
        row, ax = np.argwhere(~inside.T)[0]
        raise _out_of_domain(tri, P[row], int(ax), int(row))
    np.maximum(X, lower, out=X)
    np.minimum(X, upper, out=X)
    X -= lower
    q = np.divide(X, c.k, out=X)
    # q >= 0 after the clamp: truncation is the floor, and no cell is negative
    cell = q.astype(int)
    np.minimum(cell, (tri.cells_per_axis - 1)[:, None], out=cell)
    s = q - cell
    M = P.shape[0]

    # rank[ax] is the place of axis ax in the stable descending order of s:
    # it starts behind the lower axes and passes one only where its offset
    # is strictly larger
    rank = np.empty((nu, M), dtype=np.int8)
    rank[:] = np.arange(nu)[:, None]
    for i in range(nu):
        for j in range(i + 1, nu):
            passes = s[i] < s[j]
            rank[i] += passes
            rank[j] -= passes

    # the simplex walks from the cell's base node one unit step along each
    # axis in that order; flat ids are C-order strides.  Point j's axis ax
    # goes to the flat slot rank[ax, j] * M + j of the sorted rows
    strides = c.node_strides_array
    pos = rank.astype(np.intp)
    pos *= M
    pos += np.arange(M)
    pos = pos.ravel()
    s_sorted = np.empty((nu, M))
    s_sorted.ravel()[pos] = s.ravel()
    idx = np.empty((nu + 1, M), dtype=int)
    idx[1:].ravel()[pos] = np.repeat(strides, M)
    cell *= strides[:, None]
    np.sum(cell, axis=0, out=idx[0])
    for m in range(nu):
        idx[m + 1] += idx[m]

    W = np.empty((nu + 1, M))
    np.subtract(1.0, s_sorted[0], out=W[0])
    np.subtract(s_sorted[:-1], s_sorted[1:], out=W[1:nu])
    W[nu] = s_sorted[-1]
    np.maximum(W, 0.0, out=W)
    return idx.T, W.T


def locate(tri: Triangulation, p) -> tuple[np.ndarray, np.ndarray]:
    """Locate one point, shape (nu,), in plain float and int arithmetic.

    Returns (vertex ids, weights), two (nu+1,) arrays: row 0 of each array
    `locate_many(tri, [p])` returns, bit for bit and of the same dtypes
    (see `_locate_point`, which does the work).  Raises the same
    OutOfDomainError, and DimensionMismatchError for any other shape.
    """
    x = np.asarray(p, dtype=float)
    nu = tri.constants.nu
    if x.ndim != 1:
        raise DimensionMismatchError(
            f"locate takes one point of shape ({nu},), got shape {x.shape}"
            " (locate_many takes a batch)"
        )
    if x.shape[0] != nu:
        raise DimensionMismatchError(f"point has {x.shape[0]} coordinates; the mesh has {nu}")
    ids, weights = _locate_point(tri, x.tolist())
    return np.array(ids), np.array(weights)


def _locate_point(tri: Triangulation, xs: list):
    """Scalar core of `locate`: one point as a list of nu Python floats, not
    checked for length.

    Returns (vertex ids, weights) as two lists: the values of row 0 of
    `locate_many(tri, [xs])`, bit for bit.  One pass over the axes, each
    coordinate zipped with its axis constants, does the same clamping (both
    keep the bound on a tie, so signed zeros come out alike), the same cell
    (the truncation of q >= 0, capped at the last cell) and subtraction;
    one pass over the stable descending order of the in-cell offsets, found
    here by a sort, appends each vertex id and each clipped weight together.
    A point outside the mesh raises OutOfDomainError as `locate_many` does,
    with row 0.
    """
    c = tri.constants
    eps = c.eps
    k = c.k
    s = []
    base = 0
    for ax, (xa, lo, hi, top, stride) in enumerate(
            zip(xs, c.lower, c.upper, c.max_cell, c.node_strides)):
        # written so that NaN coordinates count as outside
        if not (lo - xa <= eps and xa - hi <= eps):
            raise _out_of_domain(tri, np.array(xs), ax, 0)
        xa = xa if xa > lo else lo
        xa = xa if xa < hi else hi
        q = (xa - lo) / k
        ci = int(q)
        if ci > top:
            ci = top
        s.append(q - ci)
        base += ci * stride

    ids = [base]
    weights = []
    prev = 1.0
    # descending, ties in axis order (Python's sort stays stable reversed)
    for ax in sorted(range(c.nu), key=s.__getitem__, reverse=True):
        w = prev - s[ax]
        weights.append(w if w > 0.0 else 0.0)
        base += c.node_strides[ax]
        ids.append(base)
        prev = s[ax]
    weights.append(prev if prev > 0.0 else 0.0)
    return ids, weights


def _inside(tri: Triangulation, X: np.ndarray) -> np.ndarray:
    """Whether each coordinate of the stencil-major points X, (nu, M), lies in
    the inner box up to the snap tolerance: the in-mesh test of `locate_many`
    and of hip2 in `check_hypotheses`.  Written so that NaN is outside."""
    inside = tri.lower[:, None] - X <= tri.snap_tolerance
    inside &= X - tri.upper[:, None] <= tri.snap_tolerance
    return inside


def _euler_images(spec: ProblemSpec, tri: Triangulation, h: float, levels):
    """Per level a, the node images x + h g(x, a), (N, nu), and costs f(x, a),
    (N,), from one `problem.level_data` call made when the level is reached."""
    for ai, a in enumerate(levels):
        g, f = level_data(spec, tri.vertices, float(a), ai)
        yield tri.vertices + h * g, f


def _out_of_domain(tri: Triangulation, point: np.ndarray, ax: int, row: int) -> OutOfDomainError:
    return OutOfDomainError(
        f"point {point} lies outside the mesh box on axis {ax}: "
        f"coordinate {float(point[ax])!r} not in "
        f"[{float(tri.lower[ax])!r}, {float(tri.upper[ax])!r}]",
        point=point.copy(),
        axis=ax,
        context=row,
    )


def _c_strides(shape: tuple) -> np.ndarray:
    """Flat-index strides of a C-order array of this shape."""
    return np.array([math.prod(shape[ax + 1:]) for ax in range(len(shape))])


def _max_norm_diameters(tri: Triangulation) -> np.ndarray:
    """Max-norm diameter of every simplex: the largest |difference| of one
    coordinate over every pair of its vertices.  Each (vertex column, axis)
    is gathered once as a contiguous (S,) array; the maximum is exact, so
    the order of the fold does not change the result."""
    coords = tri.vertices.T.copy()
    columns = [[axis.take(column) for axis in coords] for column in tri.simplices.T]
    d = np.zeros(tri.simplices.shape[0])
    diff = np.empty_like(d)
    for i, first in enumerate(columns):
        for second in columns[i + 1:]:
            for x, y in zip(first, second):
                np.subtract(x, y, out=diff)
                np.abs(diff, out=diff)
                np.maximum(d, diff, out=d)
    return d


def _euclidean_inradius(verts: np.ndarray) -> float:
    """Inradius of a single simplex given its (nu+1, nu) vertex array."""
    nu = verts.shape[1]
    if nu == 1:
        return abs(verts[1, 0] - verts[0, 0]) / 2.0
    edges = verts[1:] - verts[0]
    vol = abs(np.linalg.det(edges)) / math.factorial(nu)
    facet_area = 0.0
    for drop in range(nu + 1):
        f = np.delete(verts, drop, axis=0)
        e = f[1:] - f[0]
        gram = e @ e.T
        facet_area += math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(nu - 1)
    return nu * vol / facet_area


def check_hypotheses(
    tri: Triangulation,
    spec: ProblemSpec,
    h: float,
    control_levels: np.ndarray,
    compact: Optional[tuple] = None,
) -> MeshReport:
    """Validate the triangulation against the scheme's mesh hypotheses.

    h must be a positive finite number and control_levels a nonempty 1-d
    array of values in [0, 1], the controls a ProblemSpec's callables accept;
    anything else, booleans among the levels too, raises
    MeshConstructionError.

    hip2_ok tests exactly the points the Bellman operator evaluates: every
    vertex pushed one Euler step under every control level must stay inside
    the inner box by the locator's own test (`_inside`), so it holds exactly
    when `bellman.build_table` accepts them; levels after the first failing
    one are not called, and a non-finite velocity or cost raises
    InvalidProblemDataError naming the node and level.  hip3_margin is the
    distance from a user-supplied compact box to the inner-box boundary (by
    default the domain shrunk by the mesh inset, giving margin 0 at the
    limit; with no compact given we report the inset k itself, the distance
    from the inner box to the domain boundary).
    """
    if is_boolean(h) or not 0 < h < math.inf:
        raise MeshConstructionError(f"time step must be positive and finite, got {h}")
    try:
        # the float cast would read booleans as the levels 0 and 1
        boolean = np.asarray(control_levels).dtype.kind == "b" or (
            isinstance(control_levels, (list, tuple)) and any(map(is_boolean, control_levels)))
        levels = None if boolean else np.asarray(control_levels, dtype=float)
    except (TypeError, ValueError):
        levels = None
    # written so that NaN fails
    if levels is None or levels.ndim != 1 or not levels.size or not np.all(
            (levels >= 0.0) & (levels <= 1.0)):
        raise MeshConstructionError(
            f"control levels must be a nonempty 1-d array of values in [0, 1], "
            f"got {control_levels!r}")
    diam = _max_norm_diameters(tri)
    hip1_ok = bool(abs(diam.max() - tri.k) <= 1e-12 * tri.k and np.all(diam <= tri.k * (1 + 1e-12)))

    # stencil-major, so the test's inner loops run over the nodes; all()
    # stops at the first failing level, before the next level's callbacks
    hip2_ok = all(_inside(tri, images.T.copy()).all()
                  for images, _ in _euler_images(spec, tri, h, levels))

    if compact is not None:
        c_lo = np.asarray(compact[0], dtype=float)
        c_hi = np.asarray(compact[1], dtype=float)
        if c_lo.shape != (tri.dim,) or c_hi.shape != (tri.dim,):
            raise MeshConstructionError(
                f"compact box corners of shapes {c_lo.shape} and {c_hi.shape} do not fit "
                f"the {tri.dim}-d mesh; each must have shape ({tri.dim},)")
        hip3_margin = float(min(np.min(c_lo - tri.lower), np.min(tri.upper - c_hi)))
    else:
        hip3_margin = tri.k

    n_first = math.factorial(tri.dim)
    inradii = [_euclidean_inradius(tri.vertices[s]) for s in tri.simplices[:n_first]]
    chi1 = float(min(inradii) / tri.k)
    k_over_d_max = float((tri.k / diam).max())

    return MeshReport(
        hip1_ok=hip1_ok,
        hip2_ok=hip2_ok,
        hip3_margin=hip3_margin,
        chi1=chi1,
        k_over_d_max=k_over_d_max,
    )


def dump(tri: Triangulation) -> str:
    """Debug dump: one vertex per line 'i x1 x2', one simplex per line 'j v0 v1 v2'."""
    lines = []
    for i, v in enumerate(tri.vertices):
        lines.append(f"{i} " + " ".join(repr(float(c)) for c in v))
    for j, s in enumerate(tri.simplices):
        lines.append(f"{j} " + " ".join(str(int(v)) for v in s))
    return "\n".join(lines) + "\n"
