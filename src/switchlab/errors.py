"""Shared exception types, the one integer and one real-matrix gate, the one scalar gate of every
count, load and probability argument, and the one way a frozen holder owns an array."""

import numbers

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """Structural precondition violated (wrong shape, broken invariant)."""


class ResourceLimitError(RuntimeError):
    """Instance too large for an exhaustive / brute-force routine."""


class ConvergenceError(RuntimeError):
    """Iterative routine exhausted its budget without converging."""


INTEGER_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})  # no bool, no np.bool_


def is_integer(v: object) -> bool:
    return type(v) in INTEGER_TYPES


def check_count(value: object, low: float, message: str) -> None:
    """Refuse with ``DomainError(message)`` all but an integer (never a bool) >= ``low``."""
    if not is_integer(value) or value < low:
        raise DomainError(message)


def check_real(value: object, low: float, high: float, message: str) -> None:
    """Refuse with ``DomainError(message)`` all but a real number in [low, high]: never a bool
    or NaN, and inf only where ``high`` is.  A strict bound is passed as the nearest double
    inside it: ``math.nextafter(1.0, 0.0)`` for < 1, ``sys.float_info.max`` for finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low <= value <= high:
        raise DomainError(message)


def integer_array(value: object, ndim: int) -> "np.ndarray | None":
    """``value`` as an ``ndim``-dimensional int64 array (not copied if it is one), or None if it is ragged,
    of another ``ndim`` or holds a non-integer; an entry past int64 raises :class:`ResourceLimitError`."""
    if isinstance(value, np.ndarray) and value.dtype.kind != "O" and value.dtype != np.uint64:  # by its dtype
        return value.astype(np.int64, copy=False) if value.ndim == ndim and value.dtype.kind in "iu" else None
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(value, (list, tuple, range)):
        return None
    types = set(map(type, value))
    if ndim == 1:  # by the entries' types, as np.asarray reads True as 1
        try:
            return np.array(value, dtype=np.int64) if types <= INTEGER_TYPES else None
        except OverflowError:
            raise ResourceLimitError("an integer entry exceeds the int64 range") from None
    if types == {np.ndarray} and _stackable(value, ndim - 1):  # one stack, no call per array
        return np.stack(value, dtype=np.int64)
    if types <= {list, tuple} and len(set(map(len, value))) == 1:  # equal rows: one flat pass
        flat = integer_array([x for row in value for x in row], ndim - 1)
        return None if flat is None else flat.reshape(len(value), -1, *flat.shape[1:])
    rows = [integer_array(v, ndim - 1) for v in value]
    shapes = {None if r is None else r.shape for r in rows}  # more than one when ragged
    return np.array(rows) if len(shapes) == 1 and None not in shapes else None


def _stackable(arrays: "list | tuple", ndim: int) -> bool:
    """``arrays`` share one ``ndim``-dimensional shape, and each has an integer dtype other than uint64."""
    shapes, dtypes = {a.shape for a in arrays}, {a.dtype for a in arrays}
    return len(shapes) == 1 and len(shapes.pop()) == ndim and all(d.kind in "iu" and d != np.uint64 for d in dtypes)


def real_array(value: object, ndim: int) -> "np.ndarray | None":
    """``value`` as an ``ndim``-dimensional float64 array of finite entries (not copied if it is one), or None if
    it is ragged, of another ``ndim`` or holds a bool, string, None, complex, NaN, inf or a value past the double
    range; Fractions and numpy scalars are real numbers."""
    try:
        if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):  # else by the entries' types
            value = np.array(value, dtype=object)
            if not all(issubclass(t, numbers.Real) and t is not bool for t in set(map(type, value.flat))):
                return None
        with np.errstate(over="ignore"):  # a long double past the double range becomes inf, refused below
            value = value.astype(np.float64, copy=False)
    except (ValueError, OverflowError):  # arrays of ragged shapes; an int or Fraction past the double range
        return None
    return value if value.ndim == ndim and np.isfinite(value).all() else None


def hold_array(holder: object, name: str, value: np.ndarray) -> None:
    """Set field ``name`` of the frozen ``holder`` to a read-only copy of ``value``, not the caller's array."""
    value = value.copy()
    value.flags.writeable = False
    object.__setattr__(holder, name, value)
