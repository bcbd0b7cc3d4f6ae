"""Control problem data: dynamics, running cost, discount and their constants.

A problem is a set of callables plus declared Lipschitz/bound constants on an
axis-aligned box domain.  Controls are scalar, live in [0,1] and may only
increase along a trajectory; that constraint lives in the operators, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigurationError, InvalidProblemDataError, UnknownProblemError, check_count, is_boolean,
)

Vector = np.ndarray


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Immutable problem definition.

    The callables take a batch of points at one control level:
    dynamics(X, a) gets X of shape (M, nu) and a float a, and returns the
    velocities as an (M, nu) array; cost(X, a) returns the running costs as
    an (M,) array.  A single point is passed as an (1, nu) batch.  Results
    must have exactly these shapes: they are never broadcast, and any other
    shape raises InvalidProblemDataError (see `level_data`).  Both must be
    defined on the closed domain box times [0,1].  The declared constants
    are authoritative; `estimate_constants` only cross-checks them.
    """

    dynamics: Callable[[Vector, float], Vector]
    cost: Callable[[Vector, float], Vector]
    discount: float
    domain: tuple[Vector, Vector]
    lip_g: float
    bound_g: float
    lip_f: float
    bound_f: float
    gamma_override: Optional[float] = None
    name: str = "custom"
    # closed-form value on the a=1 slice, when one is known (used as an oracle):
    # one point (nu,) gives a float, a batch (M, nu) gives an (M,) array
    analytic_top_slice: Optional[Callable[[Vector], float | Vector]] = None

    def __post_init__(self):
        lower = np.asarray(self.domain[0], dtype=float)
        upper = np.asarray(self.domain[1], dtype=float)
        object.__setattr__(self, "domain", (lower, upper))
        if is_boolean(self.discount) or not 0 < self.discount < math.inf:
            raise ConfigurationError(
                f"discount must be positive and finite, got {self.discount!r}")
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ConfigurationError("domain corners must be 1-d arrays of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ConfigurationError(
                f"domain corners must be finite, got {lower.tolist()} and {upper.tolist()}")
        if not np.all(lower < upper):
            raise ConfigurationError("domain lower corner must be strictly below upper")
        for c in ("lip_g", "bound_g", "lip_f", "bound_f"):
            value = getattr(self, c)
            # written so that NaN fails
            if not value >= 0:
                raise ConfigurationError(f"{c} must be nonnegative, got {value}")
        if self.gamma_override is not None and not (0.0 < self.gamma_override < 1.0):
            raise ConfigurationError("gamma_override must lie in (0,1)")

    @property
    def dim(self) -> int:
        return self.domain[0].shape[0]


def _control(level, a) -> str:
    return f"control a={a}" if level is None else f"control level {level} (a={a})"


def level_data(spec: ProblemSpec, X: np.ndarray, a: float, level=None, point=None):
    """Velocities dynamics(X, a), (M, nu), and running costs cost(X, a), (M,).

    X is an (M, nu) batch of points and a one control value; `level` is its
    index in the control grid, named in error messages.  A result of any
    other shape raises InvalidProblemDataError naming the callable, the level
    and both shapes; a non-finite entry raises it naming the first such row
    of X (the node) and the level, or `point` when X is one labelled point.

    With `point` given, X is one point of shape (1, nu), and the velocity
    comes back as a list of nu Python floats and the cost as one Python
    float.  Their finiteness is checked on those floats; only a result that
    fails the check goes through the array checks, which raise the same
    errors as for a batch.
    """
    g = np.asarray(spec.dynamics(X, a), dtype=float)
    f = np.asarray(spec.cost(X, a), dtype=float)
    if point is not None and g.shape == X.shape and f.shape == X.shape[:1]:
        (gp,), (fp,) = g.tolist(), f.tolist()
        if all(map(math.isfinite, gp)) and math.isfinite(fp):
            return gp, fp
    for name, out, shape in (("dynamics", g, X.shape), ("cost", f, X.shape[:1])):
        if out.shape != shape:
            raise InvalidProblemDataError(
                f"{name} under {_control(level, a)} returned shape {out.shape} for "
                f"points of shape {X.shape}; expected {shape} (results are never "
                f"broadcast)",
                level=level,
            )
        if not np.isfinite(out).all():
            node = int(np.argwhere(~np.isfinite(out))[0][0])
            raise InvalidProblemDataError(
                f"{name} of {point or f'node {node}'} under {_control(level, a)} "
                f"is not finite: {out[node]}",
                node=None if point else node, level=level, value=out[node],
            )
    return g, f


def holder_exponent(spec: ProblemSpec) -> float:
    """Regularity exponent of the value function.

    1 when discount dominates the dynamics Lipschitz constant, the ratio
    discount/lip_g when it does not, and a user-supplied value in (0,1) in
    the borderline equality case.
    """
    lam, lg = spec.discount, spec.lip_g
    if lam > lg:
        return 1.0
    if lam < lg:
        return lam / lg
    if spec.gamma_override is None:
        raise ConfigurationError(
            "discount equals lip_g: an explicit gamma_override in (0,1) is required"
        )
    return spec.gamma_override


@dataclass
class ConstantsEstimate:
    """Empirical maxima of difference quotients / absolute values, with any
    violations of the declared constants (beyond relative slack)."""

    lip_g: float
    bound_g: float
    lip_f: float
    bound_f: float
    samples: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_REL_SLACK = 1e-6


def estimate_constants(spec: ProblemSpec, samples: int, seed: int = 0) -> ConstantsEstimate:
    """Sample random pairs in domain x [0,1] and bound the constants from below.

    Uses a single sequential random stream, so a larger sample count extends
    (never reshuffles) a smaller one with the same seed.
    """
    check_count(samples, "samples", 2)
    lower, upper = spec.domain
    nu = spec.dim
    rng = np.random.default_rng(seed)
    raw = rng.random((samples, 2 * nu + 2))
    xs = lower + raw[:, :nu] * (upper - lower)
    xbars = lower + raw[:, nu : 2 * nu] * (upper - lower)
    avals = raw[:, 2 * nu]
    abars = raw[:, 2 * nu + 1]

    lg = mg = lf = mf = 0.0
    for s, (x, xb, a, ab) in enumerate(zip(xs, xbars, avals, abars)):
        gx, fx = level_data(spec, x[None, :], float(a), point=f"sample {s}")
        gxb, fxb = level_data(spec, xb[None, :], float(ab), point=f"sample {s}")
        mg = max(mg, float(np.linalg.norm(gx)), float(np.linalg.norm(gxb)))
        mf = max(mf, abs(fx), abs(fxb))
        denom = float(np.linalg.norm(x - xb)) + abs(a - ab)
        if denom > 0:
            lg = max(lg, float(np.linalg.norm(np.subtract(gx, gxb))) / denom)
            lf = max(lf, abs(fx - fxb) / denom)

    est = ConstantsEstimate(lip_g=lg, bound_g=mg, lip_f=lf, bound_f=mf, samples=samples)
    for label, measured, declared in (
        ("lip_g", lg, spec.lip_g),
        ("bound_g", mg, spec.bound_g),
        ("lip_f", lf, spec.lip_f),
        ("bound_f", mf, spec.bound_f),
    ):
        if measured > declared * (1.0 + _REL_SLACK) + 1e-300:
            est.violations.append(
                f"{label}: measured {measured:.6g} exceeds declared {declared:.6g}"
            )
    return est


# ---------------------------------------------------------------------------
# builtin problems


def _paper_example_2d() -> ProblemSpec:
    # x is one point (2,) or a batch (M, 2)
    def dynamics(x, a):
        return -(a + 1.0) * np.asarray(x, dtype=float)

    def cost(x, a):
        sq = np.square(np.asarray(x, dtype=float))
        return a * (0.25 - (sq[..., 0] + sq[..., 1]))

    def top_slice(x):
        sq = np.square(np.asarray(x, dtype=float))
        return 0.25 - (sq[..., 0] + sq[..., 1]) / 5.0

    # On the closed box [-1,1]^2: |grad_x g| <= 2, |d g/d a| = |x| <= sqrt(2),
    # sup|g| = 2*sqrt(2); |grad_x f| <= 2*sqrt(2), |d f/d a| <= 7/4, sup|f| = 7/4.
    return ProblemSpec(
        dynamics=dynamics,
        cost=cost,
        discount=1.0,
        domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        lip_g=2.0,
        bound_g=2.0 * math.sqrt(2.0),
        lip_f=2.0 * math.sqrt(2.0),
        bound_f=7.0 / 4.0,
        name="paper_example_2d",
        analytic_top_slice=top_slice,
    )


BUILTIN_PROBLEMS: dict[str, Callable[[], ProblemSpec]] = {
    "paper_example_2d": _paper_example_2d,
}


def builtin(name: str) -> ProblemSpec:
    """Look up a registered problem by name."""
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown builtin problem {name!r}; known: {sorted(BUILTIN_PROBLEMS)}"
        ) from None
    return factory()
