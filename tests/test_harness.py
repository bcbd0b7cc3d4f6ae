import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from monohjb import (
    ConfigurationError,
    GridFunction,
    MeshConstructionError,
    ProblemSpec,
    SolveOptions,
    brute_force_oracle,
    build_table,
    build_uniform,
    check_hypotheses,
    control_grid,
    cost_consistency,
    evaluate,
    fit_rate,
    level_index,
    phi_T,
    phi_n,
    run_sweep,
    simulate,
    snap_mesh_size,
    solve,
    solve_finite_horizon,
    sup_norm_diff,
    tail_bound,
    theoretical_envelope,
)
from monohjb.harness import _coupled_h, fit_rate_rows, sweep_csv


def constants(lip_g, lam, gamma=None):
    """A 1-D spec that carries only the constants the bound shapes read."""
    return ProblemSpec(
        dynamics=lambda x, a: np.zeros_like(x),
        cost=lambda x, a: np.zeros(len(x)),
        discount=lam,
        domain=(np.array([0.0]), np.array([1.0])),
        lip_g=lip_g, bound_g=0.0, lip_f=0.0, bound_f=1.0,
        gamma_override=gamma,
    )


class TestEnvelope:
    def test_linear_case(self):
        assert theoretical_envelope(constants(1.0, 2.0), 0.01, 0.001) == pytest.approx(0.02)

    def test_sublinear_case(self):
        # gamma = discount/lip_g = 1/2
        got = theoretical_envelope(constants(2.0, 1.0), 0.04, 0.04)
        assert got == pytest.approx(math.sqrt(0.04 + 0.04 / 0.2))

    def test_space_exact_limit(self):
        assert theoretical_envelope(constants(2.0, 1.0), 0.09, 0.0) == pytest.approx(0.3)

    def test_equality_needs_gamma(self):
        with pytest.raises(ConfigurationError):
            theoretical_envelope(constants(1.0, 1.0), 0.1, 0.1)
        got = theoretical_envelope(constants(1.0, 1.0, gamma=0.5), 0.1, 0.1)
        assert got == pytest.approx((0.1 + 0.1 / math.sqrt(0.1)) ** 0.5)


class TestBoundShapes:
    def test_phi_T_cases(self, paper, toy_1d):
        assert phi_T(constants(1.0, 2.0), 7.3) == 1.0
        assert phi_T(paper, 4.0) == pytest.approx(math.exp(4.0))
        assert phi_T(toy_1d, 3.0) == 3.0

    def test_phi_n_cases(self, paper, toy_1d):
        assert phi_n(paper, 5, 0.1, 4.0) == pytest.approx(math.exp(4.0 + 0.5))
        assert phi_n(toy_1d, 4, 0.1, 2.0) == pytest.approx(2.0 * math.exp(0.4))
        assert phi_n(constants(1.0, 2.0), 3, 0.1, 1.0) == pytest.approx(math.exp(0.3))

    def test_tail_bound(self, paper):
        assert tail_bound(paper, 0.0) == pytest.approx(1.75)
        assert tail_bound(paper, 4.0) == pytest.approx(1.75 * math.exp(-4.0))

    @pytest.mark.parametrize("T", [-1.0, -1e-300, math.nan, -math.inf])
    @pytest.mark.parametrize("shape", [
        lambda spec, T: phi_T(spec, T),
        lambda spec, T: phi_n(spec, 0, 0.1, T),
        lambda spec, T: tail_bound(spec, T),
    ], ids=["phi_T", "phi_n", "tail_bound"])
    def test_horizon_must_be_nonnegative(self, paper, shape, T):
        with pytest.raises(ConfigurationError, match="horizon T must be nonnegative"):
            shape(paper, T)

    @pytest.mark.parametrize("n", [-1, 41])
    def test_phi_n_step_outside_horizon(self, paper, n):
        with pytest.raises(ConfigurationError, match=f"step {n} outside horizon"):
            phi_n(paper, n, 0.1, 4.0)

    @pytest.mark.parametrize("n,h", [(2, 1.5), (0, 1.0), (0, -5.0), (0, 0.0), (0, math.nan),
                                     (0, True), (0, np.bool_(True))])
    def test_phi_n_time_step_is_checked(self, paper, n, h):
        """phi_n(paper, 2, 1.5, 4.0) returned 1096.63 and phi_n(paper, 0,
        True, 4.0) 54.598; the step is checked as the solver checks it."""
        with pytest.raises(ConfigurationError, match="time step must satisfy"):
            phi_n(paper, n, h, 4.0)

    @pytest.mark.parametrize("n", [0.5, True, np.float64(2.0)])
    def test_phi_n_step_must_be_an_integer(self, paper, n):
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            phi_n(paper, n, 0.1, 1.0)

    def test_infinite_horizon(self, paper, toy_1d):
        assert phi_T(paper, math.inf) == math.inf
        assert phi_T(constants(1.0, 2.0), math.inf) == 1.0
        assert phi_n(paper, 3, 0.1, math.inf) == math.inf
        assert tail_bound(paper, math.inf) == 0.0

    @pytest.mark.parametrize("h,k", [(0.1, math.nan), (0.1, math.inf), (0.1, -0.1),
                                     (math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1)])
    def test_envelope_needs_finite_sizes(self, paper, h, k):
        with pytest.raises(ConfigurationError, match="need finite h > 0 and k >= 0"):
            theoretical_envelope(paper, h, k)


class TestFitRate:
    def test_exact_quadratic(self):
        ks = np.array([0.4, 0.2, 0.1, 0.05])
        assert fit_rate(ks, ks ** 2) == pytest.approx(2.0, abs=1e-10)

    def test_scaled_sqrt(self):
        ks = np.array([0.4, 0.2, 0.1])
        assert fit_rate(ks, 3 * ks ** 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_constant(self):
        ks = np.array([0.4, 0.2, 0.1])
        assert fit_rate(ks, np.full(3, 0.7)) == pytest.approx(0.0, abs=1e-10)

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            fit_rate([0.1], [0.01])


    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_k_must_be_positive_and_finite(self, capfd, bad):
        ks = np.array([0.4, 0.2, bad])
        with pytest.raises(ConfigurationError, match="positive finite k"):
            fit_rate(ks, [0.16, 0.04, 0.01])
        # no numpy warning and no LAPACK message on stderr
        assert capfd.readouterr().err == ""

    def test_inputs_must_line_up(self):
        """A short error list raised numpy's IndexError, and 2-d inputs were
        fitted as one flat list."""
        with pytest.raises(ConfigurationError, match=r"shapes \(3,\) and \(2,\)"):
            fit_rate([0.4, 0.2, 0.1], [0.16, 0.04])
        with pytest.raises(ConfigurationError, match=r"shapes \(2, 2\) and \(2, 2\)"):
            fit_rate([[0.4, 0.2], [0.1, 0.05]], [[0.16, 0.04], [0.01, 0.0025]])

    def test_non_finite_error_is_dropped(self):
        ks = np.array([0.4, 0.2, 0.1, 0.05])
        errors = ks ** 2
        errors[0] = math.inf
        assert fit_rate(ks, errors) == pytest.approx(2.0, abs=1e-10)
        errors[1] = math.nan
        assert fit_rate(ks, errors) == pytest.approx(2.0, abs=1e-10)


# Each entry point that reads a step, a mesh size, a level or a horizon, with
# a flag b in that place; float(True) is 1, which passed every range check.
_BOOLEAN_CALLS = {
    "solve": (lambda c, b: solve(c.spec, c.tri, c.grid, SolveOptions(h=b)), ConfigurationError),
    "build_table": (lambda c, b: build_table(c.spec, c.tri, c.grid, b), ConfigurationError),
    "simulate": (lambda c, b: simulate(c.spec, c.tri, c.grid, c.u, np.zeros(2), 0, b, 1),
                 ConfigurationError),
    "cost_consistency": (lambda c, b: cost_consistency(c.spec, c.tri, c.grid, c.u, c.traj, b),
                         ConfigurationError),
    "solve_finite_horizon": (lambda c, b: solve_finite_horizon(c.spec, c.tri, c.grid, b, 1),
                             ConfigurationError),
    "brute_force_oracle": (lambda c, b: brute_force_oracle(c.spec, c.tri, c.grid, b, 1),
                           ConfigurationError),
    "snap_mesh_size": (lambda c, b: snap_mesh_size(c.spec.domain, b), MeshConstructionError),
    "build_uniform": (lambda c, b: build_uniform((np.full(2, -2.0), np.full(2, 2.0)), b),
                      MeshConstructionError),
    "check_hypotheses": (lambda c, b: check_hypotheses(c.tri, c.spec, b, c.grid.levels),
                         MeshConstructionError),
    "level_index": (lambda c, b: level_index(c.grid, b), ConfigurationError),
    "envelope_h": (lambda c, b: theoretical_envelope(c.spec, b, 0.5), ConfigurationError),
    "envelope_k": (lambda c, b: theoretical_envelope(c.spec, 0.5, b), ConfigurationError),
    "phi_T": (lambda c, b: phi_T(c.spec, b), ConfigurationError),
    "phi_n": (lambda c, b: phi_n(c.spec, 0, 0.5, b), ConfigurationError),
    "phi_n_h": (lambda c, b: phi_n(c.spec, 0, b, 4.0), ConfigurationError),
    "tail_bound": (lambda c, b: tail_bound(c.spec, b), ConfigurationError),
}


@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy_bool"])
@pytest.mark.parametrize("name", sorted(_BOOLEAN_CALLS))
def test_a_boolean_is_not_a_step_size_level_or_horizon(paper, name, flag):
    """At discount 0.5 the step h = True passed as h = 1, and solve certified
    0.25 at it; each entry point now raises the error of its other bad values."""
    spec = dataclasses.replace(paper, discount=0.5)
    tri = build_uniform(spec.domain, 0.5)
    grid = control_grid(0.5)
    u = GridFunction.zeros(tri, grid)
    traj = simulate(spec, tri, grid, u, np.zeros(2), 0, 0.5, 1)
    case = SimpleNamespace(spec=spec, tri=tri, grid=grid, u=u, traj=traj)
    call, error = _BOOLEAN_CALLS[name]
    with pytest.raises(error):
        call(case, flag)


class TestOracle:
    def test_zero_horizon(self, paper):
        tri = build_uniform(paper.domain, 0.5)
        grid = control_grid(0.5)
        u = brute_force_oracle(paper, tri, grid, 0.5, 0)
        assert np.all(u.values == 0)

    def test_single_stage(self, paper):
        tri = build_uniform(paper.domain, 0.5)
        grid = control_grid(0.5)
        u = brute_force_oracle(paper, tri, grid, 0.5, 1)
        ref = solve_finite_horizon(paper, tri, grid, 0.5, 1)
        assert sup_norm_diff(u, ref) <= 1e-14

    @pytest.mark.parametrize("mu", [2, 4])
    def test_matches_recursion_paper(self, paper, mu):
        tri = build_uniform(paper.domain, 0.5)
        grid = control_grid(0.5)
        oracle = brute_force_oracle(paper, tri, grid, 0.5, mu)
        ref = solve_finite_horizon(paper, tri, grid, 0.5, mu)
        assert sup_norm_diff(oracle, ref) <= 1e-10

    def test_matches_recursion_toy_1d(self, toy_1d):
        tri = build_uniform(toy_1d.domain, 1.0 / 3.0)
        grid = control_grid(0.5)
        assert tri.n_vertices == 5
        oracle = brute_force_oracle(toy_1d, tri, grid, 0.5, 5)
        ref = solve_finite_horizon(toy_1d, tri, grid, 0.5, 5)
        assert sup_norm_diff(oracle, ref) <= 1e-10

    def test_negative_horizon_rejected(self, paper):
        tri = build_uniform(paper.domain, 0.5)
        grid = control_grid(0.5)
        with pytest.raises(ConfigurationError):
            brute_force_oracle(paper, tri, grid, 0.5, -1)

    def test_one_callback_pair_per_node_level_and_step(self, paper):
        """The oracle calls the problem once per (node, level, step), not
        once per admissible next level."""
        tri = build_uniform(paper.domain, 0.25)
        grid = control_grid(0.25)
        calls = {"dynamics": 0, "cost": 0}

        def counted(name):
            def call(x, a):
                calls[name] += 1
                return getattr(paper, name)(x, a)
            return call

        spec = dataclasses.replace(paper, dynamics=counted("dynamics"), cost=counted("cost"))
        brute_force_oracle(spec, tri, grid, 0.25, 3)
        assert (tri.n_vertices, grid.n_levels) == (49, 5)
        assert calls == {"dynamics": 3 * 49 * 5, "cost": 3 * 49 * 5}

    def test_independent_of_table_and_sweep(self, paper, monkeypatch):
        """The oracle reaches no transition table and no sweep kernel."""
        import monohjb
        from monohjb import bellman, harness, solver

        tri = build_uniform(paper.domain, 0.25)
        grid = control_grid(0.25)
        ref = solve_finite_horizon(paper, tri, grid, 0.25, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the table kernel")

        names = ("build_table", "table_for", "sweep", "Sweeper", "_interpolate", "apply_policy")
        patched = set()
        for module in (monohjb, bellman, solver, harness):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
                    patched.add(name)
        # a name that no module has any more would forbid nothing
        assert patched == set(names)
        with pytest.raises(AssertionError, match="table kernel"):
            solve_finite_horizon(paper, tri, grid, 0.25, 3)
        oracle = brute_force_oracle(paper, tri, grid, 0.25, 3)
        assert sup_norm_diff(oracle, ref) <= 1e-10


class TestSweep:
    def test_coupling_arithmetic(self):
        assert _coupled_h(0.008, "h=c*k^(2/3)", 1.0) == pytest.approx(0.04)
        assert _coupled_h(0.1, "h=k", 1.0) == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            _coupled_h(0.1, "h=k^9", 1.0)
        for k, coupling, c in [(math.nan, "h=k", 1.0), (0.0, "h=k", 1.0),
                               (0.1, "h=c*k^(2/3)", math.nan), (0.1, "h=c*k^(2/3)", -1.0)]:
            with pytest.raises(ConfigurationError, match="not positive and finite"):
                _coupled_h(k, coupling, c)

    def test_coupling_alias_removed(self):
        with pytest.raises(ConfigurationError):
            _coupled_h(0.008, "k^(2/3)", 1.0)

    def test_singleton(self, paper):
        rows = run_sweep(paper, [0.5])
        assert len(rows) == 1
        assert rows[0].error_vs_reference == 0.0

    def test_errors_decrease(self, paper):
        rows = run_sweep(paper, [0.5, 0.25])
        assert rows[0].error_vs_analytic > rows[1].error_vs_analytic
        assert rows[0].error_vs_reference > 0
        # generous shape check standing in for the existential constant
        for r in rows:
            assert r.error_vs_reference <= 50 * r.envelope

    def test_csv_layout(self, paper):
        rows = run_sweep(paper, [0.5, 0.25])
        text = sweep_csv(rows, rate=0.5)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "k,h,coupling,iterations,error_ref,error_analytic,envelope,guaranteed_error"
        )
        assert len(lines) == 4
        assert lines[-1].startswith("rate,")
        assert all(len(line.split(",")) == 8 for line in lines)

    def test_csv_carries_each_certificate(self, paper):
        rows = run_sweep(paper, [0.5, 0.25])
        lines = sweep_csv(rows).strip().split("\n")[1:]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert float(line.split(",")[7]) == row.guaranteed_error

    def test_rate_fit_falls_back_to_reference_errors(self, toy_1d):
        """toy_1d has no closed form; the default fit read its NaN analytic
        errors and raised "rate fit needs at least 2 rows"."""
        rows = run_sweep(toy_1d, [0.5, 0.25, 0.125])
        assert all(math.isnan(r.error_vs_analytic) for r in rows)
        rate = fit_rate_rows(rows)
        assert rate == fit_rate([r.k for r in rows], [r.error_vs_reference for r in rows])
        assert 1.1 < rate < 1.3

    def test_rate_fit_reads_analytic_errors_when_all_are_finite(self, paper):
        rows = run_sweep(paper, [0.5, 0.25])
        assert fit_rate_rows(rows) == fit_rate([0.5, 0.25], [r.error_vs_analytic for r in rows])

    @pytest.mark.parametrize("name, column", [("toy_1d", "error_ref"),
                                              ("paper", "error_analytic")])
    def test_csv_rate_sits_under_the_fitted_column(self, request, name, column):
        """toy_1d's rate is fitted from error_ref; it was written under
        error_analytic, whose every cell is nan."""
        rows = run_sweep(request.getfixturevalue(name), [0.5, 0.25, 0.125])
        rate = fit_rate_rows(rows)
        header, *_, last = sweep_csv(rows, rate).strip().split("\n")
        cells = dict(zip(header.split(","), last.split(",")))
        assert cells.pop("k") == "rate" and float(cells.pop(column)) == rate
        assert set(cells.values()) == {""}

    def test_empty_rejected(self, paper):
        with pytest.raises(ConfigurationError):
            run_sweep(paper, [])

    def test_c_is_read_only_by_the_two_thirds_coupling(self, paper):
        """Under h=k a c would be ignored; under h=c*k^(2/3) no c means 1."""
        with pytest.raises(ConfigurationError, match=r"c is read only by the h=c\*k\^\(2/3\)"):
            run_sweep(paper, [0.5], coupling="h=k", c=2.0)
        (default,) = run_sweep(paper, [0.5], coupling="h=c*k^(2/3)")
        (one,) = run_sweep(paper, [0.5], coupling="h=c*k^(2/3)", c=1.0)
        assert default == one

    def test_h_option_rejected(self, paper):
        """h comes from k and the coupling; it used to reach SolveOptions
        twice and raise TypeError."""
        with pytest.raises(ConfigurationError, match="takes no h"):
            run_sweep(paper, [0.5], h=0.1)

    @pytest.mark.parametrize("top_free", [False, True])
    @pytest.mark.parametrize("coupling", ["h=k", "h=c*k^(2/3)"])
    def test_reference_error_matches_node_loop(self, paper, coupling, top_free):
        """Each row's error_vs_reference, recomputed node by node from the
        finest solution at the control levels both grids share."""
        spec = paper
        if top_free:
            # no cost at a = 1: the top slice is 0 at every size, so the
            # largest error sits on a lower level (on the paper problem it
            # sits on the top one, shared by every grid)
            spec = dataclasses.replace(paper, cost=lambda x, a: (1.0 - a) * paper.cost(x, a),
                                       analytic_top_slice=None)
        ks = [0.25, 0.5, 0.125]
        rows = run_sweep(spec, ks, coupling=coupling)
        assert [r.k for r in rows] == [0.5, 0.25, 0.125]
        assert rows[-1].error_vs_reference == 0.0

        def solution(row):
            tri, grid = build_uniform(spec.domain, row.k), control_grid(row.h)
            return tri, grid, solve(spec, tri, grid, SolveOptions(h=row.h))[0]

        ref_tri, ref_grid, ref_u = solution(rows[-1])
        M = ref_grid.m
        for row in rows[:-1]:
            tri, grid, u = solution(row)
            m = grid.m
            shared = [j for j in range(m + 1) if j * M % m == 0]
            if coupling != "h=k" and row.k == 0.25:
                assert (m, M, shared) == (3, 4, [0, 3])
            err = max(
                abs(u.values[i, j] - evaluate(ref_u, ref_tri, x, j * M // m))
                for i, x in enumerate(tri.vertices) for j in shared
            )
            assert row.error_vs_reference == err
