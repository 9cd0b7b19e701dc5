"""Exception types, and the one check of count, real and vector arguments shared by the package."""

import reprlib
from math import isfinite, nan
from numbers import Real

import numpy as np

_NORM_TOL = 1e-10

# refused values are shown by a bounded repr: six items of a sequence, 40 characters of the rest
_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother = 1, 40, 40


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
        raise DomainError(f"{name} must be {kind} integer, got {_shown(value)}")
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
        scale = "" if times == 1.0 else f" when multiplied by {_shown(times)}"
        raise DomainError(f"{name} must be finite{scale}{bound}, got {_shown(value)}")
    return x


def _shown(value) -> str:
    """A repr of value at most a few hundred characters long; an integer beyond 64 bits is
    shown by its size, since its digits may not even print."""
    bits = abs(int(value)).bit_length() if _is_integer(value) else 0
    sign = "a negative" if bits > 64 and value < 0 else "an"
    return f"{sign} integer of {bits} bits" if bits > 64 else _REPR.repr(value)


def _check_unit_norm(amps: np.ndarray, what: str) -> None:
    """Raise DomainError unless each row of amps, a vector or a stack, has unit norm, so is
    finite; summed by np.add.reduce since BLAS's threaded np.linalg.norm costs more than needed."""
    parts = np.ascontiguousarray(amps).view(np.float64)
    for norm in np.sqrt(np.add.reduce(parts * parts, axis=-1)).reshape(-1).tolist():
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise DomainError(f"{what} norm {norm} deviates from 1 by more than {_NORM_TOL}")


def _set_vector(obj, field: str, what: str, dtype: type, length: int | None, unit=True) -> None:
    """Set field of the frozen dataclass obj to a finite 1-D array of dtype, float or complex,
    of the given length (None: any), with unit norm where unit; what names it in refusals."""
    try:
        raw = np.asarray(getattr(obj, field))
    except ValueError:  # a ragged sequence
        raw = np.asarray(None)
    if raw.dtype.kind not in ("iuf" if dtype is float else "iufc"):  # no bool, str or object
        raise DomainError(f"{what} must hold {dtype.__name__} numbers, got dtype {raw.dtype}")
    if raw.ndim != 1 or length not in (None, len(raw)):
        raise DomainError(f"{what} must have length {length or '>= 1'}, got shape {raw.shape}")
    object.__setattr__(obj, field, vec := raw.astype(dtype, copy=False))
    if unit:
        _check_unit_norm(vec, what)
    elif not np.isfinite(vec).all():
        raise DomainError(f"{what} must be finite, got a NaN or infinite entry")
