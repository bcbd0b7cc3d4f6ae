import math

import numpy as np
import pytest

from monohjb import (
    BoundParams,
    BudgetExceededError,
    ConfigurationError,
    brute_force_oracle,
    build_uniform,
    control_grid,
    fit_rate,
    phi_T,
    phi_n,
    run_sweep,
    solve_finite_horizon,
    sup_norm_diff,
    tail_bound,
    theoretical_envelope,
)
from monohjb.harness import _coupled_h, sweep_csv


def params(lip_g, lam, h, k, gamma=None):
    return BoundParams(gamma=gamma, lip_g=lip_g, discount=lam, bound_f=1.0, T=1.0, h=h, k=k)


class TestEnvelope:
    def test_linear_case(self):
        assert theoretical_envelope(params(1.0, 2.0, 0.01, 0.001)) == pytest.approx(0.02)

    def test_sublinear_case(self):
        # gamma = discount/lip_g = 1/2
        got = theoretical_envelope(params(2.0, 1.0, 0.04, 0.04))
        assert got == pytest.approx(math.sqrt(0.04 + 0.04 / 0.2))

    def test_space_exact_limit(self):
        assert theoretical_envelope(params(2.0, 1.0, 0.09, 0.0)) == pytest.approx(0.3)

    def test_equality_needs_gamma(self):
        with pytest.raises(ConfigurationError):
            theoretical_envelope(params(1.0, 1.0, 0.1, 0.1))
        got = theoretical_envelope(params(1.0, 1.0, 0.1, 0.1, gamma=0.5))
        assert got > 0


class TestBoundShapes:
    def test_phi_T_cases(self, paper, toy_1d):
        assert phi_T(_FakeSpec(1.0, 2.0), 7.3) == 1.0
        assert phi_T(paper, 4.0) == pytest.approx(math.exp(4.0))
        assert phi_T(toy_1d, 3.0) == 3.0

    def test_phi_n_cases(self, paper, toy_1d):
        assert phi_n(paper, 5, 0.1, 4.0) == pytest.approx(math.exp(4.0 + 0.5))
        assert phi_n(toy_1d, 4, 0.1, 2.0) == pytest.approx(2.0 * math.exp(0.4))
        assert phi_n(_FakeSpec(1.0, 2.0), 3, 0.1, 1.0) == pytest.approx(math.exp(0.3))

    def test_tail_bound(self, paper):
        assert tail_bound(paper, 0.0) == pytest.approx(1.75)
        assert tail_bound(paper, 4.0) == pytest.approx(1.75 * math.exp(-4.0))


class _FakeSpec:
    def __init__(self, lip_g, discount, bound_f=1.0):
        self.lip_g = lip_g
        self.discount = discount
        self.bound_f = bound_f


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

    def test_budget_refusal(self, paper):
        tri = build_uniform(paper.domain, 0.5)
        grid = control_grid(0.5)
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_oracle(paper, tri, grid, 0.5, 4, budget=10)
        assert exc.value.count == math.comb(4 + 2, 2)


class TestSweep:
    def test_coupling_arithmetic(self):
        assert _coupled_h(0.008, "h=c*k^(2/3)", 1.0) == pytest.approx(0.04)
        assert _coupled_h(0.1, "h=k", 1.0) == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            _coupled_h(0.1, "h=k^9", 1.0)

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
        assert lines[0] == "k,h,coupling,iterations,error_ref,error_analytic,envelope"
        assert len(lines) == 4
        assert lines[-1].startswith("rate,")

    def test_empty_rejected(self, paper):
        with pytest.raises(ConfigurationError):
            run_sweep(paper, [])
