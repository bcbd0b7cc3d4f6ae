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


def evaluate(gf: GridFunction, tri: Triangulation, p, level_idx: int) -> float:
    """Barycentric interpolation of the nodal values at one control level."""
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


def nodal_csv(gf: GridFunction, tri: Triangulation, grid: ControlGrid) -> str:
    """Dump nodal values as CSV: node,x1,...,a,value (17 significant digits).

    Each node's `i,x1,...,` prefix and each level's `a,` are formatted once.
    Lines are joined per node first: holding every line as its own string
    until one final join raises the peak memory by about the size of the
    output (some 20 MB at k = h = 0.025).
    """
    coord_names = ",".join(f"x{i + 1}" for i in range(tri.dim))
    levels = [f"{a:.17g}," for a in grid.levels.tolist()]
    chunks = [f"node,{coord_names},a,value\n"]
    for i, (x, row) in enumerate(zip(tri.vertices.tolist(), gf.values)):
        node = f"{i}," + "".join(f"{c:.17g}," for c in x)
        chunks.append("".join([f"{node}{a}{v:.17g}\n" for a, v in zip(levels, row.tolist())]))
    return "".join(chunks)
