"""Discrete function space: nodal values over (mesh vertices) x (control levels).

A grid function is piecewise linear in space at each control level; control
levels are always handled by index, never by floating value, so admissible-set
membership is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, check_count, is_boolean
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
    # a boolean would pass as the step 1.0
    if is_boolean(h):
        raise ConfigurationError(f"control step must be a number, got {h!r}")
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
    if is_boolean(a) or not 0 <= idx <= grid.m or abs(a - idx * grid.h) > _INV_TOL:
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

    level_idx must be an integer in 0..m: a negative index would otherwise
    wrap around to the top levels, and numpy would reject a float or read
    a boolean as 0 or 1.
    """
    check_fits(gf, tri)
    check_count(level_idx, "level_idx")
    m = gf.values.shape[1] - 1
    if level_idx > m:
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

# The 17 correctly rounded digits of `%.17g` (Gay, AT&T NAM 90-10, 1990),
# exactly in float64 arithmetic (Dekker, Numer. Math. 18, 1971)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _split(a):
    """a as hi + lo, each with at most 26 significant bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_TEN = np.array([10.0 ** p for p in range(23)])  # exact up to 10**22
_TEN_HI, _TEN_LO = _split(_TEN)


def _scaled(a, p):
    """a * 10**p as hi + lo exactly (Dekker's two-product), for 0 <= p <= 22."""
    t, t_hi, t_lo = _TEN[p], _TEN_HI[p], _TEN_LO[p]
    a_hi, a_lo = _split(a)
    hi = a * t
    return hi, ((a_hi * t_hi - hi) + a_hi * t_lo + a_lo * t_hi) + a_lo * t_lo


# A row of 24 bytes holds "-0.\0", then the 17 digits zero-padded to 20 as
# five 4-digit groups: digit i at byte 7 + i, and '0' at bytes 4-6.
_HEAD = np.frombuffer(b"-0.\0", np.uint32)[0]
_DIGITS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                   axis=-1).reshape(10000, 4)  # "0000" .. "9999"
_GROUP = _DIGITS.view(np.uint32).ravel()
_GROUP_ZEROS = np.logical_and.accumulate(_DIGITS[:, ::-1] == ord("0"), axis=1).sum(
    axis=1, dtype=np.uint8)


def _layouts():
    """Byte indices into a row laying out `%.17g`'s fixed notation, one
    24-byte layout per exponent X in -4..15 and sign (index 2 * (X + 4) +
    negative); byte 3 is NUL padding."""
    layouts = np.full((40, 24), 3, np.intp)
    for x in range(-4, 16):
        for negative in (0, 1):
            if x >= 0:
                idx = [7 + i for i in range(x + 1)] + [2] + [7 + i for i in range(x + 1, 17)]
            else:
                idx = [1, 2] + [4] * (-x - 1) + [7 + i for i in range(17)]
            idx = [0] * negative + idx
            layouts[2 * (x + 4) + negative, :len(idx)] = idx
    return layouts


def _keep_masks():
    """Row masks, index 2 * digits + dot: the head with its '.' only if
    `dot`, and the first `digits` digits; the rest becomes NUL."""
    masks = np.zeros((18, 2, 24), np.uint8)
    for digits in range(18):
        masks[digits, :, :7 + digits] = 0xFF
        masks[digits, 0, 2] = 0
    return masks.view(np.uint32).reshape(36, 6)


_LAYOUT = _layouts()
_KEEP = _keep_masks()


def _format17(v: np.ndarray) -> list[bytes]:
    """`b"%.17g" % x` for each x of the 1-d float array v.

    For 1e-4 <= |x| < 1e16, %g's fixed notation, the 17 significant digits
    are found exactly in float64: |x| * 10**(16 - X), X the decimal exponent,
    is an exact hi + lo, its rounding D = hi + rint(lo) is correct with ties
    to even (hi >= 2**53 is an even integer), and X is corrected from hi + lo
    itself.  The digits come from 4-digit group tables and are laid out per
    (X, sign) group, with trailing zeros and a bare '.' turned into NUL
    padding, which `S24` drops.  Zeros, subnormals and values outside that
    range go through `%.17g` one by one.
    """
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)  # may be one off near a power of ten
    hi, lo = _scaled(a, 16 - x)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    shift = up.astype(np.intp) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    fix = np.flatnonzero(shift)
    if fix.size:
        x[fix] += shift[fix]
        hi[fix], lo[fix] = _scaled(a[fix], 16 - x[fix])
    # no rounding carries into 10**17: that takes a double within 5e-18 of a
    # power of ten, relative, and none lies so close between 1e-4 and 1e16
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # sort the rows by layout, values on the %.17g path last
    key = (2 * (x + 4) + (v < 0)).astype(np.uint8)
    key[~fast] = len(_LAYOUT)
    counts = np.bincount(key, minlength=len(_LAYOUT) + 1)
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(counts).tolist()
    rank = order[:ends[-2]]
    x, d = x[rank], d[rank]
    d0, d = np.divmod(d, 10 ** 16)
    g1, d = np.divmod(d, 10 ** 12)
    g2, d = np.divmod(d, 10 ** 8)
    g3, g4 = np.divmod(d, 10 ** 4)
    rows = np.empty((len(rank), 6), np.uint32)
    rows[:, 0] = _HEAD
    for j, g in enumerate((d0, g1, g2, g3, g4), 1):
        rows[:, j] = _GROUP[g]
    # rows with trailing zeros: integer digits stay, the '.' only if a digit follows
    t = np.flatnonzero(_GROUP_ZEROS[g4])
    z4, z3, z2, z1 = (_GROUP_ZEROS[g[t]] for g in (g4, g3, g2, g1))
    digits = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1))).astype(np.intp)
    rows[t] &= _KEEP[2 * np.maximum(digits, x[t] + 1) + (digits > x[t] + 1)]
    rows = rows.view(np.uint8)
    laid = np.empty_like(rows)
    for k in np.flatnonzero(counts[:-1]).tolist():
        s, e = ends[k] - counts[k], ends[k]
        np.take(rows[s:e], _LAYOUT[k], axis=1, out=laid[s:e])
    out = np.empty((n, 24), np.uint8)  # rows of the %.17g path are replaced below
    out[rank] = laid
    text = out.view("S24").ravel().tolist()
    slow = order[ends[-2]:]
    for i, value in zip(slow.tolist(), v[slow].tolist()):
        text[i] = b"%.17g" % value
    return text


def nodal_csv(gf: GridFunction, tri: Triangulation, grid: ControlGrid) -> str:
    """Dump nodal values as CSV: node,x1,...,a,value (17 significant digits).

    The text of `_nodal_csv_bytes`, decoded once."""
    return _nodal_csv_bytes(gf, tri, grid).decode()


def _nodal_csv_bytes(gf: GridFunction, tri: Triangulation, grid: ControlGrid) -> bytearray:
    """`nodal_csv` as ASCII bytes, which `monohjb solve` writes as they are.

    Every number is written as `format(v, ".17g")` writes it.  Per batch of
    _CSV_BATCH nodes, `_format17` turns the batch's coordinates and values
    into those bytes in numpy, and one bytes `%` puts them through `%s`
    into a template holding each node's `i,` and each level's `a,`
    (formatted once).  The batches land in one growing bytearray, the
    result: with `nodal_csv`'s decode the peak of traced memory is about
    2.2 times the output.

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
    line = "".join(f"\0{a:.17g},%s\n" for a in grid.levels.tolist()).encode()
    dim = tri.dim
    node = b"%d," + b"%s," * dim
    out = bytearray(f"node,{coord_names},a,value\n".encode())
    for s in range(0, tri.n_vertices, _CSV_BATCH):
        e = min(s + _CSV_BATCH, tri.n_vertices)
        text = _format17(np.concatenate((tri.vertices[s:e].ravel(), gf.values[s:e].ravel())))
        template = b"".join(line.replace(b"\0", node % (s + j, *text[j * dim:(j + 1) * dim]))
                            for j in range(e - s))
        out += template % tuple(text[(e - s) * dim:])
    return out
