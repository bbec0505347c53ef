"""Exception types, and the integer check, shared across the package."""

import numpy as np

__all__ = [
    "BlowUpReached",
    "DomainError",
    "EmptyRegion",
    "HypothesisViolated",
    "OutOfRange",
    "SamplingExhausted",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BlowUpReached(ArithmeticError):
    """A closed-form solution was requested at or past its blow-up time."""


class OutOfRange(ValueError):
    """A query time lies outside the interval covered by a trajectory."""


class SamplingExhausted(RuntimeError):
    """The rejection sampler hit its retry budget; the target region is
    empty or too thin for the configured box and band."""


class EmptyRegion(ValueError):
    """No grid point of a scan fell inside the requested region."""


class HypothesisViolated(ValueError):
    """A trajectory's initial state fails the hypothesis of the estimate
    being checked."""


def _require_integer(name: str, value) -> None:
    """Raise TypeError naming ``name`` unless ``value`` is an integer
    (bools excluded); range(), linspace and numpy's seeding would refuse
    a float later, naming no argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
