"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so that
callers (and the CLI exit-code mapping) can distinguish contract violations
from numerical trouble.
"""

from __future__ import annotations

import math
import operator


class BoostcapError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BoostcapError, ValueError):
    """Input outside the mathematical domain of the operation."""


class RangeError(BoostcapError, ValueError):
    """Input inside the domain but outside the validated accuracy range."""


class SingularConfigurationError(BoostcapError):
    """Geometric configuration where the requested quantity is undefined."""


class ConvergenceError(BoostcapError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best estimate obtained and the associated error bound so a
    caller can decide whether the partial result is still usable; an adaptive
    integral also carries the index of the problem that failed (0 if alone).
    """

    def __init__(self, message: str, estimate: float, error_bound: float,
                 problem: int | None = None):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound
        self.problem = problem


class IntegrityError(BoostcapError):
    """A mathematical identity that must hold numerically was violated."""


class NotAChannelError(BoostcapError, ValueError):
    """Pauli parameters whose probability vector leaves the simplex."""


class ThresholdNotFoundError(BoostcapError):
    """Root bracketing failed: no sign change inside the scan range."""


class PreconditionError(BoostcapError, ValueError):
    """Operation precondition violated (e.g. solver called off its regime)."""


def as_count(value, what: str) -> int:
    """``value`` as an int: Python and numpy integers pass, and anything
    else, 2.0 included, raises :class:`DomainError`."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def is_finite(value, what: str) -> bool:
    """``math.isfinite(value)``, False for an int beyond the float range, and
    :class:`DomainError` naming ``what`` for anything that is not a number."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
    except TypeError:
        raise DomainError(f"{what} must be a real number, got {value!r}") from None
