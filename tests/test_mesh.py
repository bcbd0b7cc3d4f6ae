import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
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
            bc = locate(tri, tri.vertices[i])
            j = list(bc.vertex_indices).index(i)
            assert bc.weights[j] == pytest.approx(1.0, abs=1e-12)
            assert bc.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_centroid_equal_weights(self):
        tri = build_uniform(BOX, 0.5)
        centroid = tri.vertices[tri.simplices[0]].mean(axis=0)
        bc = locate(tri, centroid)
        np.testing.assert_allclose(bc.weights, [1 / 3] * 3, atol=1e-12)

    def test_out_of_domain(self):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(OutOfDomainError) as exc:
            locate(tri, np.array([0.6, 0.0]))
        assert exc.value.axis == 0

    @pytest.mark.parametrize("point,axis", [([np.nan, 0.0], 0), ([0.0, np.nan], 1)])
    def test_nan_coordinate_is_out_of_domain(self, point, axis):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(OutOfDomainError) as exc:
            locate(tri, np.array(point))
        assert exc.value.axis == axis
        assert f"axis {axis}" in str(exc.value)

    def test_snap_within_tolerance(self):
        tri = build_uniform(BOX, 0.5)
        bc = locate(tri, np.array([0.5 + 1e-11, 0.0]))
        assert bc.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_partition_of_unity(self, seed):
        tri = build_uniform(BOX, 0.25)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(tri.lower, tri.upper, size=(20, 2))
        idx, w, _ = locate_many(tri, pts)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        recon = np.einsum("ij,ijk->ik", w, tri.vertices[idx])
        np.testing.assert_allclose(recon, pts, atol=1e-12)

    def test_one_dimensional_mesh(self, toy_1d):
        tri = build_uniform(toy_1d.domain, 1.0 / 3.0)
        assert tri.n_vertices == 5
        assert tri.simplices.shape == (4, 2)
        mid = (tri.vertices[0] + tri.vertices[1]) / 2.0
        bc = locate(tri, mid)
        np.testing.assert_allclose(sorted(bc.weights), [0.5, 0.5], atol=1e-12)


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
    """Simplex ids, vertices and weights against barycentric coordinates in
    every simplex of a 3-D mesh (6 Kuhn simplices per cell)."""
    tri = build_uniform((-np.ones(3), np.ones(3)), 0.4)
    rng = np.random.default_rng(3)
    points = rng.uniform(tri.lower, tri.upper, size=(200, 3))
    idx, wts, sids = locate_many(tri, points)
    verts = tri.vertices[tri.simplices]                          # (S, 4, 3)
    # barycentric coordinates solve [vertices^T; 1 ... 1] bary = [p; 1]
    lhs = np.concatenate([verts.transpose(0, 2, 1), np.ones((len(verts), 1, 4))], axis=1)
    inverse = np.linalg.inv(lhs)
    for p, i, w, sid in zip(points, idx, wts, sids):
        bary = inverse @ np.append(p, 1.0)
        inside = np.flatnonzero(np.all(bary >= -1e-12, axis=1))
        assert inside.tolist() == [sid]
        np.testing.assert_array_equal(np.sort(i), np.sort(tri.simplices[sid]))
        expected = dict(zip(tri.simplices[sid], bary[sid]))
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
