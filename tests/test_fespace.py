import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    DimensionMismatchError,
    GridFunction,
    build_uniform,
    control_grid,
    evaluate,
    level_index,
    sup_norm_diff,
)
from monohjb.fespace import nodal_csv

BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_control_grid_half():
    g = control_grid(0.5)
    np.testing.assert_allclose(g.levels, [0.0, 0.5, 1.0])
    assert g.m == 2


def test_control_grid_quarter():
    assert control_grid(0.25).n_levels == 5


def test_control_grid_rejects_non_integer_inverse():
    with pytest.raises(ConfigurationError):
        control_grid(0.3)


@pytest.mark.parametrize("h", [np.nan, 0.0, -0.5])
def test_control_grid_rejects_non_positive_step(h):
    with pytest.raises(ConfigurationError, match="control step must be positive"):
        control_grid(h)


def test_level_index_roundtrip():
    g = control_grid(0.25)
    assert level_index(g, 0.75) == 3
    with pytest.raises(ConfigurationError):
        level_index(g, 0.3)
    for a in (np.nan, np.inf, -0.25, 1.25):
        with pytest.raises(ConfigurationError, match="not a grid level"):
            level_index(g, a)


@pytest.fixture(scope="module")
def tg():
    return build_uniform(BOX, 0.25), control_grid(0.25)


def test_evaluate_constant(tg):
    tri, grid = tg
    gf = GridFunction(np.full((tri.n_vertices, grid.n_levels), 3.25))
    assert evaluate(gf, tri, np.array([0.13, -0.4]), 2) == pytest.approx(3.25, abs=1e-12)


def test_evaluate_reproduces_linear(tg):
    tri, grid = tg
    gf = GridFunction(np.tile(tri.vertices[:, :1], (1, grid.n_levels)))
    for p in ([0.1, 0.2], [-0.6, 0.71], [0.0, 0.0]):
        assert evaluate(gf, tri, np.array(p), 0) == pytest.approx(p[0], abs=1e-12)


def test_evaluate_exact_at_vertices(tg):
    tri, grid = tg
    rng = np.random.default_rng(0)
    gf = GridFunction(rng.normal(size=(tri.n_vertices, grid.n_levels)))
    for i in (0, 10, tri.n_vertices - 1):
        assert evaluate(gf, tri, tri.vertices[i], 3) == pytest.approx(
            gf.values[i, 3], abs=1e-12
        )


def test_sup_norm_diff(tg):
    tri, grid = tg
    shape = (tri.n_vertices, grid.n_levels)
    gf1 = GridFunction(np.full(shape, 3.0))
    gf2 = GridFunction(np.full(shape, 1.0))
    assert sup_norm_diff(gf1, gf1) == 0.0
    assert sup_norm_diff(gf1, gf2) == 2.0
    v = gf2.values.copy()
    v[5, 1] -= 5.0
    assert sup_norm_diff(gf2, GridFunction(v)) == 5.0


def test_sup_norm_dimension_mismatch(tg):
    tri, grid = tg
    with pytest.raises(DimensionMismatchError):
        sup_norm_diff(
            GridFunction(np.zeros((3, 2))),
            GridFunction(np.zeros((tri.n_vertices, grid.n_levels))),
        )


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_sup_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (GridFunction(rng.normal(size=(6, 3))) for _ in range(3))
    lhs = sup_norm_diff(a, c)
    assert lhs <= sup_norm_diff(a, b) + sup_norm_diff(b, c) + 1e-12
    t = rng.normal()
    scaled = GridFunction(t * a.values)
    zero = GridFunction(np.zeros((6, 3)))
    assert sup_norm_diff(scaled, zero) == pytest.approx(
        abs(t) * sup_norm_diff(a, zero), rel=1e-12, abs=1e-12
    )


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_interpolation_monotone_in_values(seed):
    tri = build_uniform(BOX, 0.25)
    grid = control_grid(0.5)
    rng = np.random.default_rng(seed)
    low = rng.normal(size=(tri.n_vertices, grid.n_levels))
    high = low + rng.uniform(0, 1, size=low.shape)
    p = rng.uniform(tri.lower, tri.upper)
    for lvl in range(grid.n_levels):
        assert evaluate(GridFunction(low), tri, p, lvl) <= evaluate(
            GridFunction(high), tri, p, lvl
        ) + 1e-12


def reference_nodal_csv(gf, tri, grid):
    """One formatted line per (node, level), coordinates formatted each time."""
    coord_names = ",".join(f"x{i + 1}" for i in range(tri.dim))
    lines = [f"node,{coord_names},a,value\n"]
    for i, x in enumerate(tri.vertices):
        coords = ",".join(f"{c:.17g}" for c in x)
        for j, a in enumerate(grid.levels):
            lines.append(f"{i},{coords},{a:.17g},{gf.values[i, j]:.17g}\n")
    return "".join(lines)


def random_values(shape):
    rng = np.random.default_rng(4)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)


# signed zeros, the smallest subnormal and normal, both sides of the switches
# between fixed and exponent notation, and the largest finite values
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.9999999999999995e-05,
               1e-4, 1e16, 1e17, 1.7976931348623157e308, -1.7976931348623157e308]


def edge_values(shape):
    return np.resize(EDGE_VALUES, shape)  # cycled over nodes and levels


@pytest.mark.parametrize("box,k,h,values", [
    (BOX, 0.1, 0.1, random_values),
    (BOX, 0.05, 0.05, random_values),
    ((np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 1.0])), 0.25, 0.25, random_values),
    # 99, 81 and 144 nodes: none a whole number of nodal_csv's batches
    ((np.array([-5.0]), np.array([5.0])), 0.1, 0.5, edge_values),
    (BOX, 0.2, 0.2, edge_values),
    ((np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 1.0])), 0.2, 0.125, edge_values),
], ids=["box0-0.1-0.1", "box1-0.05-0.05", "box2-0.25-0.25",  # box-k-h, as without `values`
        "edge-1d", "edge-2d", "edge-3d"])
def test_nodal_csv_matches_line_loop(box, k, h, values):
    tri = build_uniform(box, k)
    grid = control_grid(h)
    gf = GridFunction(values((tri.n_vertices, grid.n_levels)))
    assert nodal_csv(gf, tri, grid).encode() == reference_nodal_csv(gf, tri, grid).encode()


def test_nodal_csv_peak_memory_near_output_size():
    tri = build_uniform(BOX, 0.05)
    grid = control_grid(0.05)
    gf = GridFunction(random_values((tri.n_vertices, grid.n_levels)))
    tracemalloc.start()
    try:
        text = nodal_csv(gf, tri, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the buffer, with its growth margin, and the decoded text live together
    assert peak <= 2.5 * len(text)


@pytest.mark.parametrize("point", [[0.3], [0.3, 0.3, 0.3], 0.3])
def test_evaluate_rejects_wrong_point_size(point):
    tri = build_uniform(BOX, 0.5)
    gf = GridFunction(np.arange(2.0 * tri.n_vertices).reshape(tri.n_vertices, 2))
    with pytest.raises(DimensionMismatchError):
        evaluate(gf, tri, point, 0)


@pytest.mark.parametrize("level_idx", [-1, 3])
def test_evaluate_rejects_level_outside_the_grid(level_idx):
    # a negative index must not wrap around to the top levels
    tri = build_uniform(BOX, 0.5)
    gf = GridFunction(np.arange(27.0).reshape(tri.n_vertices, 3))
    with pytest.raises(ConfigurationError, match=f"level index {level_idx} outside 0..2"):
        evaluate(gf, tri, [0.0, 0.0], level_idx)
    assert evaluate(gf, tri, [0.0, 0.0], 2) == 14.0


def test_nodal_csv_rejects_value_of_another_grid():
    # zip would cut the dump short at the smaller of the two node counts
    fine, coarse = build_uniform(BOX, 0.1), build_uniform(BOX, 0.25)
    gf = GridFunction(np.zeros((coarse.n_vertices, 5)))
    for tri, grid in [(fine, control_grid(0.1)), (coarse, control_grid(0.1))]:
        with pytest.raises(ConfigurationError, match="does not fit"):
            nodal_csv(gf, tri, grid)
    assert nodal_csv(gf, coarse, control_grid(0.25)).count("\n") == 1 + 5 * coarse.n_vertices


def test_evaluate_rejects_value_of_another_mesh():
    # the coarse mesh's node ids would read rows of the fine mesh's values
    fine, coarse = build_uniform(BOX, 0.1), build_uniform(BOX, 0.25)
    gf = GridFunction(np.arange(fine.n_vertices * 2.0).reshape(fine.n_vertices, 2))
    with pytest.raises(ConfigurationError, match="does not fit"):
        evaluate(gf, coarse, [0.1, 0.1], 0)
