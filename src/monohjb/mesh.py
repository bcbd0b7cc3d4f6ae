"""Uniform simplicial triangulation of a box domain.

The mesh covers the inner box obtained by shrinking the domain by one cell
width k per side.  Each grid cell is split into nu! simplices by the
Kuhn/Freudenthal rule, which in 2-D is the main-diagonal split of every
square.  Simplex diameters are measured in the max norm, so every simplex of
the uniform grid has diameter exactly k.

Point location is O(1): cell arithmetic plus a coordinate sort that
identifies the Kuhn simplex and yields the barycentric weights directly.
A located point is its P1 stencil: the ids of the vertices of its
simplex and their barycentric weights, which is all that interpolation
reads, and every locator returns it as that pair.  One point,
`locate(tri, p)`, checks the point's shape and runs the scalar core
`_locate_point` in Python floats and ints on a list of coordinates (the
closed-loop rollout calls that core directly); a batch,
`locate_many(tri, points)`, takes the vectorized path.  Both read the mesh
constants cached on the `Triangulation` (`Triangulation.constants`) and
return the same vertex ids and weights, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatchError, MeshConstructionError, OutOfDomainError
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


def snap_mesh_size(domain, k: float) -> float:
    """Round k to the nearest value commensurate with the domain widths."""
    if not 0.0 < k < math.inf:
        raise MeshConstructionError(f"mesh size must be positive and finite, got {k}")
    lower = np.asarray(domain[0], dtype=float)
    upper = np.asarray(domain[1], dtype=float)
    widths = upper - lower
    n = max(3, int(round(float(np.min(widths)) / k)))
    return float(np.min(widths)) / n


def build_uniform(domain, k: float) -> Triangulation:
    """Uniform Kuhn triangulation of the inner box [lower+k, upper-k]."""
    lower = np.asarray(domain[0], dtype=float)
    upper = np.asarray(domain[1], dtype=float)
    if not k > 0:
        raise MeshConstructionError(f"mesh size must be positive, got {k}")
    widths = upper - lower
    nu = lower.shape[0]
    cells = np.empty(nu, dtype=int)
    for ax in range(nu):
        inner = widths[ax] - 2.0 * k
        if inner <= 0:
            raise MeshConstructionError(
                f"mesh size k={k} leaves an empty inner box on axis {ax}"
            )
        ratio = inner / k
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > _COMMENSURATE_TOL * max(1.0, ratio):
            raise MeshConstructionError(
                f"k={k} is not commensurate with axis {ax} width {widths[ax]}"
                " (use the snap-k option to round it)"
            )
        cells[ax] = n

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

    Returns (vertex index array (M, nu+1), weight array (M, nu+1)).  Points
    within the snap tolerance outside the inner box are clamped; anything
    farther, or NaN, raises OutOfDomainError naming the offending coordinate.
    A last axis other than nu raises DimensionMismatchError.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    c = tri.constants
    nu = c.nu
    if P.ndim != 2:
        raise DimensionMismatchError(f"points must have shape (M, {nu}), got shape {P.shape}")
    if P.shape[1] != nu:
        raise DimensionMismatchError(f"points have {P.shape[1]} coordinates; the mesh has {nu}")
    eps = c.eps
    below = tri.lower - P
    above = P - tri.upper
    # written so that NaN coordinates count as outside
    bad = ~((below <= eps) & (above <= eps))
    if bad.any():
        row, ax = np.argwhere(bad)[0]
        raise _out_of_domain(tri, P[row], int(ax), int(row))
    Pc = np.clip(P, tri.lower, tri.upper)
    q = (Pc - tri.lower) / c.k
    cell = np.floor(q).astype(int)
    np.clip(cell, 0, tri.cells_per_axis - 1, out=cell)
    s = q - cell

    order = np.argsort(-s, axis=1, kind="stable")
    s_sorted = np.take_along_axis(s, order, axis=1)

    M = P.shape[0]
    W = np.empty((M, nu + 1))
    W[:, 0] = 1.0 - s_sorted[:, 0]
    if nu > 1:
        W[:, 1:nu] = s_sorted[:, :-1] - s_sorted[:, 1:]
    W[:, nu] = s_sorted[:, -1]
    np.clip(W, 0.0, None, out=W)

    # the simplex walks from the cell's base node one unit step along each
    # axis in `order`; flat ids are C-order strides
    strides = c.node_strides_array
    idx = np.empty((M, nu + 1), dtype=int)
    idx[:, 0] = cell @ strides
    np.cumsum(strides[order], axis=1, out=idx[:, 1:])
    idx[:, 1:] += idx[:, :1]
    return idx, W


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
    `locate_many(tri, [xs])`, bit for bit.  It does the same clamping
    (numpy's `clip` keeps the bound on a tie, so signed zeros come out
    alike), the same floor and subtraction, a stable descending sort of the
    in-cell offsets, and the same weight clip.  A point outside
    the mesh raises OutOfDomainError as `locate_many` does, with row 0.
    """
    c = tri.constants
    eps = c.eps
    k = c.k
    s = []
    base = 0
    for ax, xa in enumerate(xs):
        lo = c.lower[ax]
        hi = c.upper[ax]
        # written so that NaN coordinates count as outside
        if not (lo - xa <= eps and xa - hi <= eps):
            raise _out_of_domain(tri, np.array(xs), ax, 0)
        xa = xa if xa > lo else lo
        xa = xa if xa < hi else hi
        q = (xa - lo) / k
        ci = math.floor(q)
        if ci < 0:
            ci = 0
        elif ci > c.max_cell[ax]:
            ci = c.max_cell[ax]
        s.append(q - ci)
        base += ci * c.node_strides[ax]

    # descending, ties in axis order (Python's sort stays stable reversed)
    order = sorted(range(c.nu), key=s.__getitem__, reverse=True)
    weights = [1.0 - s[order[0]]]
    weights += [s[i] - s[j] for i, j in zip(order, order[1:])]
    weights.append(s[order[-1]])
    weights = [w if w > 0.0 else 0.0 for w in weights]

    ids = [base]
    for ax in order:
        base += c.node_strides[ax]
        ids.append(base)
    return ids, weights


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
    verts = tri.vertices[tri.simplices]  # (S, nu+1, nu)
    d = np.zeros(verts.shape[0])
    n = verts.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            d = np.maximum(d, np.abs(verts[:, i] - verts[:, j]).max(axis=1))
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

    hip2_ok tests exactly the points the Bellman operator evaluates: every
    vertex pushed one Euler step under every control level must stay inside
    the inner box; the problem callables are called once per level (see
    `problem.level_data`), and a non-finite velocity or cost raises
    InvalidProblemDataError naming the node and level.  hip3_margin is the
    distance from a user-supplied compact box to the inner-box boundary (by
    default the domain shrunk by the mesh inset, giving margin 0 at the
    limit; with no compact given we report the inset k itself, the distance
    from the inner box to the domain boundary).
    """
    if not h > 0:
        raise MeshConstructionError(f"time step must be positive, got {h}")
    diam = _max_norm_diameters(tri)
    hip1_ok = bool(abs(diam.max() - tri.k) <= 1e-12 * tri.k and np.all(diam <= tri.k * (1 + 1e-12)))

    eps = tri.snap_tolerance
    hip2_ok = True
    for ai, a in enumerate(np.asarray(control_levels, dtype=float)):
        g, _ = level_data(spec, tri.vertices, float(a), ai)
        images = tri.vertices + h * g
        if np.any(images < tri.lower - eps) or np.any(images > tri.upper + eps):
            hip2_ok = False
            break

    if compact is not None:
        c_lo = np.asarray(compact[0], dtype=float)
        c_hi = np.asarray(compact[1], dtype=float)
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
