import dataclasses
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    DimensionMismatchError,
    InvalidProblemDataError,
    MeshConstructionError,
    OutOfDomainError,
    ProblemSpec,
    build_table,
    build_uniform,
    check_hypotheses,
    control_grid,
    locate,
    snap_mesh_size,
)
from monohjb.mesh import _max_norm_diameters, _out_of_domain, dump, locate_many
from monohjb.problem import level_data

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


def test_snap_mesh_size_on_every_axis():
    """1/3, nearest to 0.3 on the narrow axis, leaves 3.5 cells on the wide
    one; 1/4 is the nearest that both axes accept."""
    domain = (np.zeros(2), np.array([1.0, 1.5]))
    with pytest.raises(MeshConstructionError, match="axis 1 width 1.5"):
        build_uniform(domain, 1.0 / 3.0)
    k = snap_mesh_size(domain, 0.3)
    assert k == 0.25
    assert build_uniform(domain, k).nodes_per_axis == (3, 5)


def test_snap_mesh_size_above_two_thirds_of_the_width():
    """k = 1.5 on width 2: w/3 = 2/3 is no longer within a factor of 2."""
    with pytest.raises(MeshConstructionError, match="n >= 3 on axis 0"):
        snap_mesh_size(BOX, 1.5)


def test_snap_mesh_size_incommensurate_axes():
    """No 1/n with 3 <= n <= 6 divides sqrt 2 - 2/n into whole cells."""
    domain = (np.zeros(2), np.array([1.0, math.sqrt(2.0)]))
    with pytest.raises(MeshConstructionError, match="axis 1 width 1.414"):
        snap_mesh_size(domain, 0.3)


@pytest.mark.parametrize("k", [np.nan, 0.0, -0.1])
def test_mesh_size_not_positive(k):
    with pytest.raises(MeshConstructionError, match="mesh size must be positive"):
        build_uniform(BOX, k)


@pytest.mark.parametrize("corner", [np.inf, -np.inf, np.nan])
def test_non_finite_domain_corner(corner):
    # an infinite width used to reach round() and raise OverflowError
    domain = ([-1.0, -1.0], [1.0, corner])
    for make in (build_uniform, snap_mesh_size):
        with pytest.raises(MeshConstructionError, match="domain corners must be finite"):
            make(domain, 0.5)


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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_max_norm_diameters_match_gather_reference(dim, jitter):
    # jittered vertices give every simplex and axis its own differences
    tri = build_uniform((-np.ones(dim), np.ones(dim)), 0.25)
    rng = np.random.default_rng(dim)
    tri = dataclasses.replace(
        tri, vertices=tri.vertices + jitter * rng.uniform(-1, 1, tri.vertices.shape))
    verts = tri.vertices[tri.simplices]  # (S, nu+1, nu)
    expected = np.zeros(len(tri.simplices))
    for i in range(dim + 1):
        for j in range(i + 1, dim + 1):
            expected = np.maximum(expected, np.abs(verts[:, i] - verts[:, j]).max(axis=1))
    assert _max_norm_diameters(tri).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan])
    def test_step_must_be_positive(self, paper, h):
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(MeshConstructionError, match="time step must be positive"):
            check_hypotheses(tri, paper, h, control_grid(0.5).levels)

    def test_large_step_violates_hip2(self, paper):
        tri = build_uniform(BOX, 0.5)
        rep = check_hypotheses(tri, paper, 2.0, control_grid(0.5).levels)
        assert not rep.hip2_ok

    def test_infinite_step_is_rejected(self, paper):
        tri = build_uniform(BOX, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshConstructionError, match="time step must be positive"):
                check_hypotheses(tri, paper, math.inf, control_grid(0.5).levels)

    @pytest.mark.parametrize("levels", [
        [], [[0.0, 1.0]], [0.0, math.nan], [0.0, math.inf], [-0.5, 0.0], [0.0, 1.5], ["low"],
    ], ids=["empty", "2d", "nan", "inf", "below_0", "above_1", "text"])
    def test_control_levels_must_be_a_vector_in_the_unit_interval(self, paper, levels):
        """[] gave hip2_ok after checking no level, and [[0, 1]] let numpy's
        TypeError escape."""
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(MeshConstructionError, match="control levels must be a nonempty 1-d"):
            check_hypotheses(tri, paper, 0.5, levels)

    @pytest.mark.parametrize("levels", [
        [True, False], np.array([True, False]), [0.0, True], [np.bool_(False), 0.5],
    ], ids=["bools", "bool_array", "mixed", "numpy_bool"])
    def test_boolean_control_levels_are_rejected(self, paper, levels):
        """[True, False] gave hip2_ok=True: the float cast read the flags as
        the levels 1 and 0."""
        tri = build_uniform(BOX, 0.5)
        with pytest.raises(MeshConstructionError, match="control levels must be a nonempty 1-d"):
            check_hypotheses(tri, paper, 0.5, levels)

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

    @pytest.mark.parametrize("compact", [
        ([0.0], [1.0]),
        (np.zeros(3), np.ones(3)),
        (np.zeros((1, 2)), np.ones(2)),
        (0.0, [1.0, 1.0]),
    ])
    def test_compact_corners_must_fit_the_mesh(self, paper, compact):
        """A corner of another shape than (nu,) is not broadcast: ([0], [1])
        on the 2-d mesh used to give the margin -0.25."""
        tri = build_uniform(BOX, 0.25)
        shapes = f"{np.shape(compact[0])} and {np.shape(compact[1])}"
        with pytest.raises(MeshConstructionError, match=re.escape(shapes)):
            check_hypotheses(tri, paper, 0.25, control_grid(0.25).levels, compact=compact)


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


def _moved_spec(targets: dict, h: float, dim: int) -> ProblemSpec:
    """A problem on [-1, 1]^dim whose dynamics at level a moves the nodes
    listed in targets[a], {(node, axis): coordinate}, towards that
    coordinate in one step of h, and leaves every other node still."""
    def dynamics(x, a):
        g = np.zeros_like(x)
        for (node, ax), target in targets.get(a, {}).items():
            g[node, ax] = (target - x[node, ax]) / h
        return g

    return ProblemSpec(
        dynamics=dynamics, cost=lambda x, a: np.zeros(len(x)), discount=1.0,
        domain=(-np.ones(dim), np.ones(dim)), lip_g=0.0, bound_g=0.0, lip_f=0.0, bound_f=0.0,
    )


class TestInMeshTest:
    """hip2 of check_hypotheses and the table's OutOfDomainError decide the
    same Euler images inside, and so does the one-point locator."""

    H = 0.5

    def test_one_dimensional_face_example(self):
        # image -0.95000000005 of the node at -0.95: past the face by a hair
        # more than the snap tolerance 5e-11, as lower - x computes it
        spec = dataclasses.replace(
            _moved_spec({}, 0.05, 1), dynamics=lambda x, a: np.full_like(x, -1.000000082740371e-09))
        tri = build_uniform(spec.domain, 0.05)
        grid = control_grid(0.05)
        image = tri.vertices[0] + 0.05 * spec.dynamics(tri.vertices[:1], 0.0)[0]
        assert image.tolist() == [-0.95000000005]
        assert not check_hypotheses(tri, spec, 0.05, grid.levels).hip2_ok
        with pytest.raises(OutOfDomainError) as exc:
            build_table(spec, tri, grid, 0.05)
        assert exc.value.context == (0, 0)
        with pytest.raises(OutOfDomainError):
            locate(tri, image)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hip2_holds_exactly_when_the_table_builds(self, data):
        dim = data.draw(st.integers(1, 3))
        tri = _cube_mesh(dim)
        levels = control_grid(self.H).levels
        eps = tri.snap_tolerance
        targets = {}
        for _ in range(data.draw(st.integers(1, 4))):
            a = float(data.draw(st.sampled_from(levels)))
            node = data.draw(st.integers(0, tri.n_vertices - 1))
            ax = data.draw(st.integers(0, dim - 1))
            lo, hi = tri.lower[ax], tri.upper[ax]
            face = data.draw(st.sampled_from([lo - eps, lo, hi, hi + eps, math.nan]))
            for _ in range(data.draw(st.integers(0, 4))):
                face = np.nextafter(face, data.draw(st.sampled_from([-np.inf, np.inf])))
            targets.setdefault(a, {})[(node, ax)] = float(face)
        spec = _moved_spec(targets, self.H, dim)

        # the locator on every image, level by level, up to the first
        # level it rejects or whose velocities are not finite
        located, finite = True, True
        for a in levels:
            g = spec.dynamics(tri.vertices, float(a))
            if not np.isfinite(g).all():
                finite = False
                break
            for image in tri.vertices + self.H * g:
                try:
                    locate(tri, image)
                except OutOfDomainError:
                    located = False
            if not located:
                break

        try:
            hip2 = check_hypotheses(tri, spec, self.H, levels).hip2_ok
        except InvalidProblemDataError as exc:
            hip2 = (exc.node, exc.level)
        try:
            build_table(spec, tri, control_grid(self.H), self.H)
            built = True
        except OutOfDomainError:
            built = False
        except InvalidProblemDataError as exc:
            built = (exc.node, exc.level)
        assert hip2 == built
        if finite or not located:
            assert hip2 is located
        else:
            assert isinstance(hip2, tuple)

    def test_no_callback_after_the_first_failing_level(self, paper):
        calls = []

        def dynamics(x, a):
            calls.append(("dynamics", a))
            # level 0.5 pushes every node out of the box
            return np.full_like(x, 10.0 * (a == 0.5))

        def cost(x, a):
            calls.append(("cost", a))
            return np.zeros(len(x))

        spec = dataclasses.replace(paper, dynamics=dynamics, cost=cost)
        tri = build_uniform(spec.domain, 0.5)
        assert not check_hypotheses(tri, spec, 0.5, [0.0, 0.5, 1.0]).hip2_ok
        assert calls == [("dynamics", 0.0), ("cost", 0.0), ("dynamics", 0.5), ("cost", 0.5)]


@functools.lru_cache(maxsize=None)
def _cube_mesh(dim):
    """Kuhn mesh of [-1, 1]^dim with 2-10 cells per axis."""
    return build_uniform((-np.ones(dim), np.ones(dim)), {1: 0.1, 2: 0.25, 3: 0.4, 4: 0.5}[dim])


@functools.lru_cache(maxsize=None)
def _corner_mesh(dim):
    """Kuhn mesh of [-0.5, 1.5]^dim with k = 0.5: its inner box [0, 1]^dim
    has a zero corner, so -0.0 coordinates reach the clamp as signed zeros."""
    return build_uniform((np.full(dim, -0.5), np.full(dim, 1.5)), 0.5)


_KINDS = ("uniform", "grid", "diagonal", "snap")


def _draw_point(draw, tri, kinds=_KINDS):
    """A point in the box of tri.  Each coordinate is drawn uniformly, on the
    half-cell grid (vertices and cell faces), at an offset into its cell
    shared by all such axes (exact ties on the Kuhn diagonals), in the snap
    band around a box face, or, with kind "zero", as 0.0 or -0.0."""
    shared = draw(st.floats(0.0, 1.0))
    eps = tri.snap_tolerance
    coords = []
    for lo, hi, n in zip(tri.lower, tri.upper, tri.cells_per_axis):
        kind = draw(st.sampled_from(kinds))
        if kind == "uniform":
            coords.append(draw(st.floats(lo, hi)))
        elif kind == "grid":
            coords.append(lo + tri.k * draw(st.integers(0, 2 * int(n))) / 2)
        elif kind == "diagonal":
            coords.append(lo + tri.k * (draw(st.integers(0, int(n) - 1)) + shared))
        elif kind == "snap":
            face = draw(st.sampled_from([lo, hi]))
            coords.append(face + draw(st.floats(-0.99, 0.99)) * eps)
        else:
            coords.append(draw(st.sampled_from([0.0, -0.0])))
    return np.array(coords)


@st.composite
def _mesh_points(draw):
    """A mesh of dimension 1-4 and a point in its box (see `_draw_point`)."""
    tri = _cube_mesh(draw(st.integers(1, 4)))
    return tri, _draw_point(draw, tri)


@st.composite
def _mesh_batch(draw):
    """A mesh of dimension 1-4, with or without a zero corner, and 1-8 points
    in its box, some coordinates signed zeros (see `_draw_point`).  Now and
    then one or two coordinates are moved beyond the snap band or to NaN."""
    dim = draw(st.integers(1, 4))
    tri = draw(st.sampled_from([_cube_mesh(dim), _corner_mesh(dim)]))
    points = np.array([_draw_point(draw, tri, _KINDS + ("zero",))
                       for _ in range(draw(st.integers(1, 8)))])
    eps = tri.snap_tolerance
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = draw(st.integers(0, len(points) - 1))
        ax = draw(st.integers(0, dim - 1))
        points[row, ax] = draw(st.sampled_from(
            [tri.lower[ax] - 2 * eps, tri.upper[ax] + 2 * eps, -5.0, 5.0, np.nan]))
    return tri, points


def _argsort_locate_many(tri, points):
    """Batch point location by a stable argsort of the in-cell offsets, the
    textbook Kuhn recipe that `locate_many` replaced: the reference that
    its sort-free order must match bit for bit."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    c = tri.constants
    nu = c.nu
    eps = c.eps
    below = tri.lower - P
    above = P - tri.upper
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

    strides = c.node_strides_array
    idx = np.empty((M, nu + 1), dtype=int)
    idx[:, 0] = cell @ strides
    np.cumsum(strides[order], axis=1, out=idx[:, 1:])
    idx[:, 1:] += idx[:, :1]
    return idx, W


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


class TestSortFreeLocate:
    """`locate_many` against the argsort reference, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=_mesh_batch())
    def test_matches_argsort_reference(self, case):
        tri, points = case
        try:
            expected = _argsort_locate_many(tri, points)
        except OutOfDomainError as exc:
            with pytest.raises(OutOfDomainError) as got:
                locate_many(tri, points)
            assert (got.value.axis, got.value.context) == (exc.axis, exc.context)
            assert str(got.value) == str(exc)
            np.testing.assert_array_equal(got.value.point, exc.point)
            return
        idx, w = locate_many(tri, points)
        for got, want in ((idx, expected[0]), (w, expected[1])):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(w), np.signbit(expected[1]))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_returns_stencil_major_transposes(self, dim):
        tri = _cube_mesh(dim)
        idx, w = locate_many(tri, tri.vertices)
        for out in (idx, w):
            assert out.shape == (tri.n_vertices, dim + 1)
            assert out.T.flags.c_contiguous

    def test_table_3d_matches_argsort_reference(self):
        """A 3-D problem's `build_table` equals, bit for bit, the table
        assembled level by level from the reference locator."""
        spec = ProblemSpec(
            dynamics=lambda X, a: -(a + 1.0) * X,
            cost=lambda X, a: a * (X ** 2).sum(axis=1),
            discount=1.0, domain=(-np.ones(3), np.ones(3)),
            lip_g=2.0, bound_g=2.0, lip_f=2.0 * math.sqrt(3.0), bound_f=3.0,
        )
        h = 0.25
        tri = build_uniform(spec.domain, 0.25)
        grid = control_grid(h)
        table = build_table(spec, tri, grid, h)
        N = tri.n_vertices
        indices, weights, costs = [], [], []
        for ai, a in enumerate(grid.levels):
            g, f = level_data(spec, tri.vertices, float(a), ai)
            idx, w = _argsort_locate_many(tri, tri.vertices + h * g)
            indices.append(idx.T + ai * N)
            weights.append(w.T)
            costs.append(f)
        expected = (np.concatenate(indices, axis=1), np.concatenate(weights, axis=1),
                    np.array(costs))
        for got, want in zip((table.indices, table.weights, table.stage_cost), expected):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
