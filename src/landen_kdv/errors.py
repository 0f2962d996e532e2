"""Exception and warning types shared across the package, and its number rule.

A caller's number is admitted here alone: _require_real takes a finite int
or float, _require_integer an int, Python or numpy, never a bool or text.
"""

import math

import numpy as np

# concrete types: numbers.Real's isinstance costs ~0.4 us on a float, these ~0.02 us
_REALS = (float, int, np.floating, np.integer)
_INTEGERS = (int, np.integer)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Raised for a number that is not a finite real (or an integer where one
    is asked for), a bool or text in its place, a modulus parameter outside
    [0, 1], a non-positive scale and similar unrecoverable argument errors.
    """


class ConsistencyError(ArithmeticError):
    """An internal cross-check between two independent computations failed.

    This signals a numerical inconsistency (e.g. a quantity that must be
    constant varies beyond tolerance), not bad user input.
    """


class PeriodMismatchError(ValueError):
    """A sampled field is not periodic on the requested grid."""


class InstabilityError(RuntimeError):
    """A time integration blew up (spectral amplitudes diverged)."""


class AliasingWarning(UserWarning):
    """High wavenumbers carry enough energy that spectral products alias."""


def _require_real(value, name: str, domain: str, admits) -> float:
    """value as a float if it is a finite real, not a bool, that ``admits`` takes."""
    if isinstance(value, _REALS) and type(value) is not bool:
        try:
            x = float(value)
        except OverflowError:  # an int past the float range is not finite
            x = math.inf
        if math.isfinite(x) and admits(x):
            return x
    raise DomainError(f"{name} must {domain}, got {value!r}")


def _require_integer(value, name: str, least: int) -> int:
    if isinstance(value, _INTEGERS) and type(value) is not bool and value >= least:
        return int(value)
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_positive(value, name: str) -> float:
    return _require_real(value, name, "be positive", lambda x: x > 0.0)
