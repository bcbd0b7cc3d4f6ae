import dataclasses
import math

import numpy as np
import pytest

from monohjb import (
    ConfigurationError,
    ProblemSpec,
    SolveOptions,
    brute_force_oracle,
    build_uniform,
    control_grid,
    evaluate,
    fit_rate,
    phi_T,
    phi_n,
    run_sweep,
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

        for module in (monohjb, bellman, solver, harness):
            for name in ("build_table", "table_for", "sweep", "_bound", "_fold", "_bellman"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
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
