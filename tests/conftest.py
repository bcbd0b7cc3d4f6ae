import numpy as np
import pytest

from monohjb import ProblemSpec, builtin


@pytest.fixture(scope="session")
def paper():
    return builtin("paper_example_2d")


def make_toy_1d() -> ProblemSpec:
    """1-D problem on (-1,1): contracting dynamics, quadratic-plus-control cost.

    With discount 1 the dynamics Lipschitz constant equals the discount, so a
    gamma override is declared.
    """

    def dynamics(x, a):
        return -0.5 * (1.0 + a) * np.asarray(x, dtype=float)

    def cost(x, a):
        x0 = np.asarray(x, dtype=float)[..., 0]
        return (x0 - 0.2) ** 2 + 0.3 * a * (1.0 - x0)

    return ProblemSpec(
        dynamics=dynamics,
        cost=cost,
        discount=1.0,
        domain=(np.array([-1.0]), np.array([1.0])),
        lip_g=1.0,
        bound_g=1.0,
        lip_f=2.7,
        bound_f=2.1,
        gamma_override=0.5,
        name="toy_1d",
    )


def make_zero_cost_2d() -> ProblemSpec:
    """Paper dynamics with identically zero cost; the value function is zero."""
    base = builtin("paper_example_2d")
    return ProblemSpec(
        dynamics=base.dynamics,
        cost=lambda x, a: np.zeros(len(x)),
        discount=1.0,
        domain=base.domain,
        lip_g=2.0,
        bound_g=base.bound_g,
        lip_f=0.0,
        bound_f=0.0,
        name="zero_cost_2d",
    )


def make_frozen_2d() -> ProblemSpec:
    """No motion, no cost: trajectories are stationary."""
    return ProblemSpec(
        dynamics=lambda x, a: np.zeros_like(x),
        cost=lambda x, a: np.zeros(len(x)),
        discount=1.0,
        domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        lip_g=0.0,
        bound_g=0.0,
        lip_f=0.0,
        bound_f=0.0,
        name="frozen_2d",
    )


@pytest.fixture(scope="session")
def toy_1d():
    return make_toy_1d()


@pytest.fixture(scope="session")
def zero_cost_2d():
    return make_zero_cost_2d()


@pytest.fixture(scope="session")
def frozen_2d():
    return make_frozen_2d()
