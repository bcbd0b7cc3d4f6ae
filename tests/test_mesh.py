import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    DimensionMismatchError,
    InvalidProblemDataError,
    MeshConstructionError,
    OutOfDomainError,
    build_uniform,
    check_hypotheses,
    control_grid,
    locate,
    snap_mesh_size,
)
from monohjb.mesh import dump, locate_many

BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_paper_mesh_half(paper):
    tri = build_uniform(BOX, 0.5)
    assert tri.n_vertices == 9
    assert len(tri.simplices) == 8
    np.testing.assert_allclose(tri.lower, [-0.5, -0.5])
    np.testing.assert_allclose(tri.upper, [0.5, 0.5])


def test_paper_mesh_tenth():
    tri = build_uniform(BOX, 0.1)
    assert tri.n_vertices == 19 * 19
    np.testing.assert_allclose(tri.lower, [-0.9, -0.9])


def test_mesh_size_too_large():
    with pytest.raises(MeshConstructionError):
        build_uniform(BOX, 1.5)


def test_mesh_size_not_commensurate():
    with pytest.raises(MeshConstructionError):
        build_uniform(BOX, 0.3)


def test_snap_mesh_size():
    k = snap_mesh_size(BOX, 0.3)
    assert k == pytest.approx(2.0 / 7.0)
    build_uniform(BOX, k)  # must now succeed


@pytest.mark.parametrize("k", [np.nan, 0.0, -0.1])
def test_mesh_size_not_positive(k):
    with pytest.raises(MeshConstructionError, match="mesh size must be positive"):
        build_uniform(BOX, k)


@pytest.mark.parametrize("k", [np.nan, np.inf, 0.0, -0.1])
def test_snap_mesh_size_not_positive_and_finite(k):
    with pytest.raises(MeshConstructionError, match="mesh size must be positive and finite"):
        snap_mesh_size(BOX, k)


def test_deterministic_construction():
    a = build_uniform(BOX, 0.25)
    b = build_uniform(BOX, 0.25)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.simplices, b.simplices)


def test_hip1_max_norm_diameter_exact():
    tri = build_uniform(BOX, 0.25)
    verts = tri.vertices[tri.simplices]
    diam = np.zeros(len(tri.simplices))
    for i in range(3):
        for j in range(i + 1, 3):
            diam = np.maximum(diam, np.abs(verts[:, i] - verts[:, j]).max(axis=1))
    assert abs(diam.max() - tri.k) <= 1e-12 * tri.k
    assert np.all(np.abs(diam - tri.k) <= 1e-12)


class TestLocate:
    def test_vertex_gives_basis_vector(self):
        tri = build_uniform(BOX, 0.5)
        for i in (0, 4, 8):
            ids, weights = locate(tri, tri.vertices[i])
            j = list(ids).index(i)
            assert weights[j] == pytest.approx(1.0, abs=1e-12)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_centroid_equal_weights(self):
        tri = build_uniform(BOX, 0.5)
        centroid = tri.vertices[tri.simplices[0]].mean(axis=0)
        _, weights = locate(tri, centroid)
        np.testing.assert_allclose(weights, [1 / 3] * 3, atol=1e-12)

    def test_out_of_domain(self):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(OutOfDomainError) as exc:
            locate(tri, np.array([0.6, 0.0]))
        assert exc.value.axis == 0

    def test_out_of_domain_message_has_float_reprs(self, paper):
        tri = build_uniform(paper.domain, 0.025)
        with pytest.raises(OutOfDomainError) as exc:
            locate(tri, [5.0, 0.0])
        msg = str(exc.value)
        assert "coordinate 5.0 not in [-0.975, 0.9750000000000001]" in msg
        assert "np.float64" not in msg

    @pytest.mark.parametrize("point,axis", [([np.nan, 0.0], 0), ([0.0, np.nan], 1)])
    def test_nan_coordinate_is_out_of_domain(self, point, axis):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(OutOfDomainError) as exc:
            locate(tri, np.array(point))
        assert exc.value.axis == axis
        assert f"axis {axis}" in str(exc.value)

    def test_snap_within_tolerance(self):
        tri = build_uniform(BOX, 0.5)
        _, weights = locate(tri, np.array([0.5 + 1e-11, 0.0]))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_partition_of_unity(self, seed):
        tri = build_uniform(BOX, 0.25)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(tri.lower, tri.upper, size=(20, 2))
        idx, w = locate_many(tri, pts)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        recon = np.einsum("ij,ijk->ik", w, tri.vertices[idx])
        np.testing.assert_allclose(recon, pts, atol=1e-12)

    def test_one_dimensional_mesh(self, toy_1d):
        tri = build_uniform(toy_1d.domain, 1.0 / 3.0)
        assert tri.n_vertices == 5
        assert tri.simplices.shape == (4, 2)
        mid = (tri.vertices[0] + tri.vertices[1]) / 2.0
        _, weights = locate(tri, mid)
        np.testing.assert_allclose(sorted(weights), [0.5, 0.5], atol=1e-12)


class TestHypotheses:
    def test_paper_example_hip2_holds(self, paper):
        tri = build_uniform(BOX, 0.5)
        rep = check_hypotheses(tri, paper, 0.5, control_grid(0.5).levels)
        assert rep.hip1_ok and rep.hip2_ok

    def test_large_step_violates_hip2(self, paper):
        tri = build_uniform(BOX, 0.5)
        rep = check_hypotheses(tri, paper, 2.0, control_grid(0.5).levels)
        assert not rep.hip2_ok

    def test_uniform_diameter_ratio(self, paper):
        tri = build_uniform(BOX, 0.5)
        rep = check_hypotheses(tri, paper, 0.5, control_grid(0.5).levels)
        assert rep.k_over_d_max == pytest.approx(1.0)
        # right triangle with legs k: inradius k(2 - sqrt(2))/2
        assert rep.chi1 == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0)
        assert rep.hip3_margin == pytest.approx(0.5)

    def test_compact_margin(self, paper):
        tri = build_uniform(BOX, 0.5)
        rep = check_hypotheses(
            tri, paper, 0.5, control_grid(0.5).levels,
            compact=(np.array([-0.25, -0.25]), np.array([0.25, 0.25])),
        )
        assert rep.hip3_margin == pytest.approx(0.25)


def test_dump_format():
    tri = build_uniform(BOX, 0.5)
    lines = dump(tri).strip().split("\n")
    assert len(lines) == 9 + 8
    assert lines[0].split()[0] == "0"
    assert len(lines[0].split()) == 3   # i x1 x2
    assert len(lines[9].split()) == 4   # j v0 v1 v2


def _loop_simplices(cells):
    """Kuhn simplices built one cell and one permutation at a time."""
    nodes_shape = tuple(c + 1 for c in cells)
    out = []
    for cell in np.ndindex(*cells):
        for perm in itertools.permutations(range(len(cells))):
            v = np.array(cell)
            verts = [np.ravel_multi_index(tuple(v), nodes_shape)]
            for ax in perm:
                v[ax] += 1
                verts.append(np.ravel_multi_index(tuple(v), nodes_shape))
            out.append(verts)
    return np.array(out)


@pytest.mark.parametrize("dim,k", [(1, 0.1), (2, 0.25), (3, 0.25)])
def test_simplices_match_loop_construction(dim, k):
    tri = build_uniform((-np.ones(dim), np.ones(dim)), k)
    expected = _loop_simplices(tuple(int(c) for c in tri.cells_per_axis))
    np.testing.assert_array_equal(tri.simplices, expected)


def test_locate_many_3d_matches_brute_force():
    """Vertices and weights against barycentric coordinates in every simplex
    of a 3-D mesh (6 Kuhn simplices per cell): the located vertex set is a
    simplex of the mesh, the only one containing the point, and the weights
    are the point's barycentric coordinates in it."""
    tri = build_uniform((-np.ones(3), np.ones(3)), 0.4)
    rng = np.random.default_rng(3)
    points = rng.uniform(tri.lower, tri.upper, size=(200, 3))
    idx, wts = locate_many(tri, points)
    row_of = {tuple(sorted(s)): row for row, s in enumerate(tri.simplices.tolist())}
    verts = tri.vertices[tri.simplices]                          # (S, 4, 3)
    # barycentric coordinates solve [vertices^T; 1 ... 1] bary = [p; 1]
    lhs = np.concatenate([verts.transpose(0, 2, 1), np.ones((len(verts), 1, 4))], axis=1)
    inverse = np.linalg.inv(lhs)
    for p, i, w in zip(points, idx, wts):
        row = row_of[tuple(sorted(i.tolist()))]
        bary = inverse @ np.append(p, 1.0)
        inside = np.flatnonzero(np.all(bary >= -1e-12, axis=1))
        assert inside.tolist() == [row]
        expected = dict(zip(tri.simplices[row], bary[row]))
        np.testing.assert_allclose(w, [expected[v] for v in i], atol=1e-12)


def test_check_hypotheses_calls_dynamics_once_per_level(paper):
    calls = []

    def dynamics(x, a):
        calls.append(a)
        return paper.dynamics(x, a)

    tri = build_uniform(paper.domain, 0.1)
    grid = control_grid(0.1)
    spec = dataclasses.replace(paper, dynamics=dynamics)
    assert check_hypotheses(tri, spec, 0.1, grid.levels).hip2_ok
    assert 1 <= len(calls) <= grid.n_levels


def test_check_hypotheses_rejects_nan_images(paper):
    def dynamics(x, a):
        g = paper.dynamics(x, a)
        g[5] = np.nan
        return g

    tri = build_uniform(paper.domain, 0.5)
    spec = dataclasses.replace(paper, dynamics=dynamics)
    with pytest.raises(InvalidProblemDataError) as exc:
        check_hypotheses(tri, spec, 0.5, control_grid(0.5).levels)
    assert (exc.value.node, exc.value.level) == (5, 0)


@functools.lru_cache(maxsize=None)
def _cube_mesh(dim):
    """Kuhn mesh of [-1, 1]^dim with 2-10 cells per axis."""
    return build_uniform((-np.ones(dim), np.ones(dim)), {1: 0.1, 2: 0.25, 3: 0.4, 4: 0.5}[dim])


@st.composite
def _mesh_points(draw):
    """A mesh of dimension 1-4 and a point in its box.  Each coordinate is
    drawn uniformly, on the half-cell grid (vertices and cell faces), at an
    offset into its cell shared by all such axes (exact ties on the Kuhn
    diagonals), or in the snap band around a box face."""
    tri = _cube_mesh(draw(st.integers(1, 4)))
    shared = draw(st.floats(0.0, 1.0))
    eps = tri.snap_tolerance
    coords = []
    for lo, hi, n in zip(tri.lower, tri.upper, tri.cells_per_axis):
        kind = draw(st.sampled_from(["uniform", "grid", "diagonal", "snap"]))
        if kind == "uniform":
            coords.append(draw(st.floats(lo, hi)))
        elif kind == "grid":
            coords.append(lo + tri.k * draw(st.integers(0, 2 * int(n))) / 2)
        elif kind == "diagonal":
            coords.append(lo + tri.k * (draw(st.integers(0, int(n) - 1)) + shared))
        else:
            face = draw(st.sampled_from([lo, hi]))
            coords.append(face + draw(st.floats(-0.99, 0.99)) * eps)
    return tri, np.array(coords)


class TestScalarLocate:
    """`locate` (one point, scalar arithmetic) against the `locate_many` row."""

    @settings(max_examples=400, deadline=None)
    @given(case=_mesh_points())
    def test_matches_batch_row_bit_for_bit(self, case):
        tri, p = case
        idx, w = locate_many(tri, p[None, :])
        ids, weights = locate(tri, p)
        assert ids.dtype == idx.dtype
        np.testing.assert_array_equal(ids, idx[0])
        assert weights.dtype == w.dtype
        assert weights.tobytes() == w[0].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_mesh_vertices_match_batch(self, dim):
        tri = _cube_mesh(dim)
        idx, w = locate_many(tri, tri.vertices)
        for row, p in enumerate(tri.vertices):
            ids, weights = locate(tri, p)
            np.testing.assert_array_equal(ids, idx[row])
            assert weights.tobytes() == w[row].tobytes()

    def test_signed_zero_on_a_zero_corner(self):
        # the inner box starts at exactly 0.0, so -0.0 coordinates reach the
        # clamp and the weight clip as signed zeros
        tri = build_uniform((np.array([-0.5, -0.5]), np.array([1.5, 1.5])), 0.5)
        assert tri.lower.tolist() == [0.0, 0.0]
        points = np.array([[-0.0, 0.3], [0.3, -0.0], [-0.0, -0.0], [-1e-12, 0.0], [1.0, -0.0]])
        idx, w = locate_many(tri, points)
        for row, p in enumerate(points):
            ids, weights = locate(tri, p)
            np.testing.assert_array_equal(ids, idx[row])
            assert weights.tobytes() == w[row].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("where", ["below", "above", "nan"])
    def test_out_of_domain_same_axis(self, dim, where):
        tri = _cube_mesh(dim)
        bad = {"below": tri.lower[0] - 2 * tri.snap_tolerance,
               "above": tri.upper[0] + 2 * tri.snap_tolerance,
               "nan": np.nan}[where]
        for ax in range(dim):
            p = np.zeros(dim)
            p[ax] = bad
            if ax + 1 < dim:
                p[ax + 1] = np.nan  # a later bad axis is not the one reported
            with pytest.raises(OutOfDomainError) as one:
                locate(tri, p)
            with pytest.raises(OutOfDomainError) as many:
                locate_many(tri, p[None, :])
            assert one.value.axis == many.value.axis == ax
            assert str(one.value) == str(many.value)
            assert one.value.context == many.value.context == 0
            np.testing.assert_array_equal(one.value.point, many.value.point)


class TestPointShape:
    """A point must have one coordinate per mesh axis; nothing is broadcast."""

    @pytest.mark.parametrize("point,size", [([0.3], 1), ([0.3, 0.3, 0.3], 3)])
    def test_locate_wrong_coordinate_count(self, point, size):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(DimensionMismatchError, match=f"{size} coordinates; the mesh has 2"):
            locate(tri, point)

    def test_locate_scalar_point(self):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(DimensionMismatchError, match=r"shape \(2,\), got shape \(\)"):
            locate(tri, 0.3)

    def test_locate_rejects_a_batch(self):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(DimensionMismatchError, match="locate_many"):
            locate(tri, np.zeros((1, 2)))

    @pytest.mark.parametrize("points,size", [(np.zeros((4, 1)), 1), (np.zeros((4, 3)), 3),
                                             ([0.3], 1), (0.3, 1)])
    def test_locate_many_wrong_coordinate_count(self, points, size):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(DimensionMismatchError, match=f"{size} coordinates; the mesh has 2"):
            locate_many(tri, points)

    def test_locate_many_rejects_three_axes(self):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(DimensionMismatchError, match=r"shape \(M, 2\)"):
            locate_many(tri, np.zeros((2, 3, 2)))
