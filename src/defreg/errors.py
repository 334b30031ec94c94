"""Exception types shared across the package, and the two rules that check every scalar setting."""

import numbers
import sys

TINY = 5e-324  # the least positive float: ``low=TINY`` admits exactly the positive numbers
HUGE = sys.float_info.max  # the greatest float: ``high=HUGE`` admits exactly the finite ones


class DomainError(ValueError):
    """Invalid data passed to an operation (bad coordinates, mismatched shapes, bad labels)."""


class ConfigurationError(ValueError):
    """Inconsistent or unusable configuration (grid too small, bad geometry, bad weights)."""


class NumericalError(ArithmeticError):
    """Optimization produced a non-finite value; carries diagnostic context."""

    def __init__(self, message, *, level=None, iteration=None, weights=None):
        super().__init__(message)
        self.level = level
        self.iteration = iteration
        self.weights = weights


def check_real(value, name: str, low, high, error: type):
    """``value`` if it is a real number, not a bool, with ``low <= value <= high``;
    otherwise an ``error`` naming it and its rule. The comparison also rejects
    NaN; the message is formatted only on failure."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low <= value <= high:
        words = {0: "non-negative ", TINY: "positive "}.get(low, "") + "finite " * (high == HUGE)
        low_set, high_set = low not in (0, TINY, -HUGE), high != HUGE
        limit = (f" in [{low:g}, {high:g}]" if low_set and high_set else
                 f" >= {low:g}" if low_set else f" <= {high:g}" if high_set else "")
        raise error(f"{name} must be a {words}real number{limit}, got {value!r}")
    return value


def check_count(value, name: str, low: int, error: type):
    """``value`` if it is an integer (numpy's included), not a bool, with
    ``value >= low``; otherwise an ``error`` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return value
