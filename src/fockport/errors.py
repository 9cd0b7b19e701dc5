"""Exception types, and the one check of count and real arguments, shared across the package."""

from math import isfinite, nan
from numbers import Real

import numpy as np


class DomainError(ValueError):
    """Input is outside the mathematical domain of an operation."""


class SizeCapError(DomainError):
    """Problem size exceeds a hard cap of a dense/expensive code path."""


class ImpossibleOutcomeError(DomainError):
    """A measurement outcome with zero probability was requested."""


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool, although an int, is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, name: str, lo: int | None) -> int:
    """value as an int if an integer >= lo (None: any); numpy unsigned ones would wrap in q - N."""
    if not _is_integer(value) or lo is not None and value < lo:
        kind = "an" if lo is None else "a positive" if lo else "a non-negative"
        raise DomainError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def _check_real(value, name: str, lo: float | None = None, times: float = 1.0) -> float:
    """value as a float, if it is a real number (bool is not one) finite as a float and >= lo;
    a phase is also finite times `times`, the largest index it multiplies."""
    try:  # float, the common case, goes before the slower ABC test
        x = float(value) if isinstance(value, (float, Real)) and type(value) is not bool else nan
        scaled = x * times
    except OverflowError:  # an integer beyond the float range, as the value or as the index
        x = scaled = nan
    if not isfinite(scaled) or lo is not None and x < lo:
        bound = "" if lo is None else " and non-negative" if lo == 0 else f" and >= {lo}"
        scale = "" if times == 1.0 else f" when multiplied by {times}"
        raise DomainError(f"{name} must be finite{scale}{bound}, got {value!r}")
    return x
