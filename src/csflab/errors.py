"""Exception types shared across the package, and the type checks raising them."""

import numbers


class CsfError(Exception):
    """Base class for every error raised by this package."""


class InvalidCurveError(CsfError, ValueError):
    """A vertex list does not describe a usable discrete curve."""


class InvalidArgumentError(CsfError, ValueError):
    """An argument is outside the documented domain of an operation."""


class UnsupportedTopologyError(InvalidArgumentError):
    """The operation is not defined for the curve's topology."""


class DiagonalPairError(InvalidArgumentError):
    """A vertex was paired with itself where a proper pair is required."""


class DomainError(InvalidArgumentError):
    """A scalar argument lies outside the domain of a closed-form model."""


class NotOnSphereError(InvalidArgumentError):
    """The curve is not spherical to the tolerance the operation needs."""


class NumericalFailureError(CsfError):
    """A numerical process produced non-finite values or a singular system.

    When raised during a flow run, ``record`` carries the partial run record
    accumulated up to the failing step.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


def require_integer(name: str, value) -> int:
    """``value`` as an ``int``: Python and numpy integers pass, a ``bool``
    or any other type raises ``InvalidArgumentError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(name: str, value) -> float:
    """``value`` as a ``float``: Python and numpy reals pass, a ``bool``
    or any other type raises ``InvalidArgumentError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{name} must be a real number, got {value!r}")
    return float(value)
