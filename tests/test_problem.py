import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    ProblemSpec,
    UnknownProblemError,
    builtin,
    estimate_constants,
    holder_exponent,
)


def test_builtin_dynamics_value(paper):
    np.testing.assert_allclose(paper.dynamics(np.array([0.5, 0.5]), 1.0), [-1.0, -1.0])


def test_builtin_cost_value(paper):
    assert paper.cost(np.array([0.5, 0.5]), 1.0) == pytest.approx(-0.25)


def test_builtin_cost_vanishes_at_zero_control(paper):
    for x in ([0.0, 0.0], [0.7, -0.3], [-1.0, 1.0]):
        assert paper.cost(np.array(x), 0.0) == 0.0


def test_builtin_constants(paper):
    assert paper.discount == 1.0
    assert paper.lip_g == 2.0
    assert paper.bound_g == pytest.approx(2.0 * math.sqrt(2.0))
    assert paper.bound_f == pytest.approx(7.0 / 4.0)
    np.testing.assert_allclose(paper.domain[0], [-1.0, -1.0])
    np.testing.assert_allclose(paper.domain[1], [1.0, 1.0])


def test_unknown_builtin():
    with pytest.raises(UnknownProblemError):
        builtin("no_such_problem")


@given(x1=st.floats(-1, 1), x2=st.floats(-1, 1), a=st.floats(0, 1))
def test_builtin_cost_affine_in_control(x1, x2, a):
    spec = builtin("paper_example_2d")
    x = np.array([x1, x2])
    assert spec.cost(x, a) == pytest.approx(a * spec.cost(x, 1.0), abs=1e-15)


def _spec_with(lam, lg, gamma=None):
    return ProblemSpec(
        dynamics=lambda x, a: np.zeros_like(x),
        cost=lambda x, a: np.zeros(len(x)),
        discount=lam,
        domain=(np.array([0.0]), np.array([1.0])),
        lip_g=lg,
        bound_g=1.0,
        lip_f=1.0,
        bound_f=1.0,
        gamma_override=gamma,
    )


def test_holder_exponent_branches(paper):
    assert holder_exponent(_spec_with(2.0, 1.0)) == 1.0
    assert holder_exponent(paper) == pytest.approx(0.5)
    assert holder_exponent(_spec_with(1.0, 1.0, gamma=0.3)) == 0.3
    with pytest.raises(ConfigurationError):
        holder_exponent(_spec_with(1.0, 1.0))


@given(lam=st.floats(0.1, 10), lg=st.floats(0.1, 10), scale=st.floats(0.5, 4))
def test_holder_exponent_scale_consistent(lam, lg, scale):
    if abs(lam - lg) < 1e-9 or abs(lam * scale - lg * scale) < 1e-12:
        return
    assert holder_exponent(_spec_with(lam, lg)) == pytest.approx(
        holder_exponent(_spec_with(lam * scale, lg * scale))
    )


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _spec_with(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(
            dynamics=lambda x, a: np.zeros_like(x),
            cost=lambda x, a: np.zeros(len(x)),
            discount=1.0,
            domain=(np.array([1.0]), np.array([0.0])),
            lip_g=1.0, bound_g=1.0, lip_f=1.0, bound_f=1.0,
        )
    with pytest.raises(ConfigurationError):
        _spec_with(1.0, 2.0, gamma=1.5)


class TestEstimateConstants:
    def test_paper_example_within_declared(self, paper):
        est = estimate_constants(paper, 10_000, seed=7)
        assert est.ok
        assert est.bound_f <= 7.0 / 4.0 + 1e-12
        assert est.lip_g <= 2.0 + math.sqrt(2.0)

    def test_constant_dynamics_zero_lipschitz(self):
        spec = ProblemSpec(
            dynamics=lambda x, a: np.full_like(x, 0.3),
            cost=lambda x, a: np.ones(len(x)),
            discount=1.0,
            domain=(np.array([-1.0]), np.array([1.0])),
            lip_g=0.0, bound_g=0.3, lip_f=0.0, bound_f=1.0,
        )
        est = estimate_constants(spec, 500, seed=1)
        assert est.lip_g == 0.0
        assert est.ok

    def test_monotone_in_samples(self, paper):
        small = estimate_constants(paper, 500, seed=3)
        large = estimate_constants(paper, 2_000, seed=3)
        assert large.lip_g >= small.lip_g
        assert large.bound_g >= small.bound_g
        assert large.lip_f >= small.lip_f
        assert large.bound_f >= small.bound_f

    def test_reports_violation_without_raising(self, paper):
        lying = ProblemSpec(
            dynamics=paper.dynamics,
            cost=paper.cost,
            discount=1.0,
            domain=paper.domain,
            lip_g=0.01, bound_g=0.01, lip_f=0.01, bound_f=0.01,
        )
        est = estimate_constants(lying, 200, seed=0)
        assert not est.ok
        assert len(est.violations) == 4

    def test_too_few_samples(self, paper):
        with pytest.raises(ConfigurationError):
            estimate_constants(paper, 1)
