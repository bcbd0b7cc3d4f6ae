"""Discrete function space: nodal values over (mesh vertices) x (control levels).

A grid function is piecewise linear in space at each control level; control
levels are always handled by index, never by floating value, so admissible-set
membership is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError
from .mesh import Triangulation, locate

_INV_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ControlGrid:
    h: float
    m: int                 # 1/h
    levels: np.ndarray     # (m+1,), 0 = a_0 < ... < a_m = 1

    @property
    def n_levels(self) -> int:
        return self.m + 1


def control_grid(h: float) -> ControlGrid:
    """Equispaced control levels {i*h}; requires 1/h to be an integer."""
    if not h > 0:
        raise ConfigurationError(f"control step must be positive, got {h}")
    inv = 1.0 / h
    m = int(round(inv))
    if m < 1 or abs(inv - m) > _INV_TOL:
        raise ConfigurationError(f"1/h must be an integer, got 1/{h} = {inv}")
    return ControlGrid(h=float(h), m=m, levels=np.linspace(0.0, 1.0, m + 1))


def level_index(grid: ControlGrid, a: float) -> int:
    """Map a control value to its grid index; the value must sit on the grid."""
    idx = np.rint(a / grid.h)  # NaN for a NaN value, which fails the range check
    if not 0 <= idx <= grid.m or abs(a - idx * grid.h) > _INV_TOL:
        raise ConfigurationError(f"control value {a} is not a grid level (h={grid.h})")
    return int(idx)


@dataclass(eq=False)
class GridFunction:
    values: np.ndarray  # (n_vertices, n_levels)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimensionMismatchError("grid function values must be 2-d")
        if not np.all(np.isfinite(self.values)):
            raise DimensionMismatchError("grid function values must be finite")

    @classmethod
    def zeros(cls, tri: Triangulation, grid: ControlGrid) -> "GridFunction":
        return cls(np.zeros((tri.n_vertices, grid.n_levels)))


def check_fits(gf: GridFunction, tri: Triangulation, grid: ControlGrid | None = None):
    """Raise ConfigurationError unless gf has a row per node of tri and, with
    a grid given, a column per level of grid."""
    want = (tri.n_vertices, gf.values.shape[1] if grid is None else grid.n_levels)
    if gf.values.shape != want:
        raise ConfigurationError(
            f"grid function of shape {gf.values.shape} does not fit the (nodes, levels) "
            f"shape {want} of this mesh and control grid"
        )


def evaluate(gf: GridFunction, tri: Triangulation, p, level_idx: int) -> float:
    """Barycentric interpolation of the nodal values at one control level.

    level_idx must be one of 0..m; a negative index would otherwise wrap
    around to the top levels.
    """
    check_fits(gf, tri)
    m = gf.values.shape[1] - 1
    if not 0 <= level_idx <= m:
        raise ConfigurationError(f"level index {level_idx} outside 0..{m}")
    ids, weights = locate(tri, p)
    return float(weights @ gf.values[ids, level_idx])


def sup_norm(gf: GridFunction) -> float:
    return float(np.abs(gf.values).max())


def sup_norm_diff(gf1: GridFunction, gf2: GridFunction) -> float:
    if gf1.values.shape != gf2.values.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {gf1.values.shape} vs {gf2.values.shape}"
        )
    return float(np.abs(gf1.values - gf2.values).max())


_CSV_BATCH = 64  # nodes per `%` format in nodal_csv


def nodal_csv(gf: GridFunction, tri: Triangulation, grid: ControlGrid) -> str:
    """Dump nodal values as CSV: node,x1,...,a,value (17 significant digits).

    The values are formatted in C, by one bytes `%` per batch of _CSV_BATCH
    nodes, whose template holds each node's `i,x1,...,` prefix and each
    level's `a,` formatted once.  Bytes `%.17g` gives the digits of
    `format(v, ".17g")` (both call `PyOS_double_to_string`).  The batches
    land in one growing bytearray, decoded once at the end: the peak of
    traced memory is about 2.2 times the output.

    Both the one buffer and the fixed batches matter for a run that builds
    a table after writing (fine_horizon in perfbench, k = h = 0.025, about
    20 MB of CSV).  Strings per node or per batch kept for a final join
    fragment the heap: the peak RSS rose from 96 to 110-116 MB.  One bytes
    `%` per node into the buffer leaves the heap in another state for the
    next iteration: its set-up read 32 % and its solve 16 % slower, and in a
    loop of the same phases every other solve took about 3,000 page faults
    against none.  Batches of 64 nodes keep both within noise, at 99 MB.
    """
    check_fits(gf, tri, grid)
    coord_names = ",".join(f"x{i + 1}" for i in range(tri.dim))
    # \0 marks where each line's node prefix goes
    line = "".join(f"\0{a:.17g},%.17g\n" for a in grid.levels.tolist()).encode()
    node = "%d," + "%.17g," * tri.dim
    out = bytearray(f"node,{coord_names},a,value\n".encode())
    vertices = tri.vertices.tolist()
    for s in range(0, len(vertices), _CSV_BATCH):
        e = s + _CSV_BATCH
        template = b"".join(line.replace(b"\0", (node % (i, *x)).encode())
                            for i, x in enumerate(vertices[s:e], s))
        out += template % tuple(gf.values[s:e].ravel().tolist())
    return out.decode()
