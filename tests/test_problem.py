import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monohjb import (
    ConfigurationError,
    InvalidProblemDataError,
    ProblemSpec,
    UnknownProblemError,
    builtin,
    estimate_constants,
    holder_exponent,
)
from monohjb.problem import level_data


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


def test_top_slice_batch_equals_point_loop(paper):
    X = np.random.default_rng(4).uniform(-1, 1, size=(50, 2))
    one = [paper.analytic_top_slice(x) for x in X]
    assert all(isinstance(v, float) for v in one)
    batch = paper.analytic_top_slice(X)
    assert batch.shape == (50,)
    np.testing.assert_array_equal(batch, one)
    assert paper.analytic_top_slice(np.array([0.5, 0.5])) == pytest.approx(0.25 - 0.1)


def test_builtin_callbacks_match_the_formulas_bit_for_bit(paper):
    X = np.random.default_rng(5).uniform(-1, 1, size=(500, 2))
    r2 = X[:, 0] * X[:, 0] + X[:, 1] * X[:, 1]
    for a in (0.0, 0.25, 0.7, 1.0):
        assert paper.cost(X, a).tobytes() == (a * (0.25 - r2)).tobytes()
        assert paper.cost(X[:1], a).tobytes() == (a * (0.25 - r2[:1])).tobytes()
    assert paper.analytic_top_slice(X).tobytes() == (0.25 - r2 / 5.0).tobytes()


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
    with pytest.raises(ConfigurationError, match="corners must be 1-d arrays of equal length"):
        dataclasses.replace(_spec_with(1.0, 2.0), domain=(np.zeros(1), np.ones(2)))
    with pytest.raises(ConfigurationError, match="bound_f must be nonnegative"):
        dataclasses.replace(_spec_with(1.0, 2.0), bound_f=-1.0)


@pytest.mark.parametrize("field,value,message", [
    ("discount", math.nan, "discount must be positive and finite"),
    ("discount", math.inf, "discount must be positive and finite"),
    ("discount", True, "discount must be positive and finite"),
    ("discount", np.bool_(True), "discount must be positive and finite"),
    ("lip_g", math.nan, "lip_g must be nonnegative"),
    ("bound_g", math.nan, "bound_g must be nonnegative"),
    ("lip_f", math.nan, "lip_f must be nonnegative"),
    ("bound_f", math.nan, "bound_f must be nonnegative"),
])
def test_spec_rejects_non_finite_numbers(paper, field, value, message):
    """A NaN discount surfaced later as "1/discount = nan", a NaN lip_g as
    "discount equals lip_g", and a NaN bound_f as a NaN tail bound."""
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(paper, **{field: value})


@pytest.mark.parametrize("corner", [math.inf, -math.inf, math.nan])
def test_spec_rejects_non_finite_domain_corner(paper, corner):
    with pytest.raises(ConfigurationError, match="domain corners must be finite"):
        dataclasses.replace(paper, domain=([-1.0, -1.0], [1.0, corner]))


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
        # a count that is no integer is named, not a bare TypeError
        for samples in (10.0, 2.5, True):
            with pytest.raises(ConfigurationError, match="samples must be an integer"):
                estimate_constants(paper, samples)


class TestLevelDataOnePoint:
    X = np.array([[0.3, -0.6]])

    def test_python_floats_equal_to_batch_row(self, paper):
        g, f = level_data(paper, self.X, 0.4, 4, point="step 0")
        (gb,), (fb,) = level_data(paper, self.X, 0.4, 4)
        assert type(f) is float and all(type(v) is float for v in g)
        assert g == gb.tolist() and f == float(fb)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_names_the_point(self, paper, bad):
        spec = dataclasses.replace(paper, cost=lambda x, a: np.full(len(x), bad))
        with pytest.raises(InvalidProblemDataError) as exc:
            level_data(spec, self.X, 0.4, 4, point="step 7")
        assert str(exc.value) == f"cost of step 7 under control level 4 (a=0.4) is not finite: {bad}"
        assert exc.value.node is None and exc.value.level == 4

    def test_first_failing_check_wins(self, paper):
        """A NaN velocity is reported before a cost of the wrong shape, as
        for a batch."""
        spec = dataclasses.replace(
            paper,
            dynamics=lambda x, a: np.full(x.shape, math.nan),
            cost=lambda x, a: np.zeros(3),
        )
        with pytest.raises(InvalidProblemDataError) as one:
            level_data(spec, self.X, 0.4, 4, point="step 0")
        with pytest.raises(InvalidProblemDataError) as batch:
            level_data(spec, self.X, 0.4, 4)
        assert str(one.value).startswith("dynamics of step 0 under control level 4")
        assert str(batch.value).startswith("dynamics of node 0 under control level 4")

    def test_wrong_shape_cost(self, paper):
        spec = dataclasses.replace(paper, cost=lambda x, a: np.zeros((1, 1)))
        with pytest.raises(InvalidProblemDataError, match=r"cost under control level 4 "
                           r"\(a=0.4\) returned shape \(1, 1\) for points of shape \(1, 2\)"):
            level_data(spec, self.X, 0.4, 4, point="step 0")
