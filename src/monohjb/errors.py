"""Exception types shared across the solver package, and the checks of count
and boolean arguments that the entry points raise them with."""

import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid parameter combination (bad h, k, missing gamma, unknown config key)."""


def check_count(value, name: str, least: int = 0):
    """Raise ConfigurationError naming `name` unless value is an integer (a
    Python or numpy one, not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigurationError(f"{name} must be at least {least}, got {value}")


def is_boolean(value) -> bool:
    """Whether value is a Python or numpy bool, which a numeric range check
    would read as 0 or 1; no step, size, level or horizon is one."""
    return isinstance(value, (bool, np.bool_))


class UnknownProblemError(LookupError):
    """Requested builtin problem name is not registered."""


class MeshConstructionError(ValueError):
    """Mesh size incompatible with the requested domain."""


class OutOfDomainError(ValueError):
    """A point falls outside the mesh polyhedron beyond the snap tolerance."""

    def __init__(self, message, point=None, axis=None, context=None):
        super().__init__(message)
        self.point = point
        self.axis = axis
        self.context = context


class InvalidProblemDataError(ValueError):
    """A problem callable returned a result of the wrong shape, or a
    non-finite value at a mesh node or point."""

    def __init__(self, message, node=None, level=None, value=None):
        super().__init__(message)
        self.node = node
        self.level = level
        self.value = value


class DimensionMismatchError(ValueError):
    """Grid functions or arrays with incompatible shapes."""


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration hit the iteration cap.

    Carries the partial solution so no work is discarded.
    """

    def __init__(self, message, value=None, policy=None, report=None):
        super().__init__(message)
        self.value = value
        self.policy = policy
        self.report = report

