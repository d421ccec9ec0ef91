"""Shared exception types, and the one integer gate of the exact core."""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """Structural precondition violated (wrong shape, broken invariant)."""


class ResourceLimitError(RuntimeError):
    """Instance too large for an exhaustive / brute-force routine."""


class ConvergenceError(RuntimeError):
    """Iterative routine exhausted its budget without converging."""


_INTEGER_TYPES = {int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])}  # no bool, no np.bool_


def is_integer(v: object) -> bool:
    return type(v) in _INTEGER_TYPES


def integer_array(value: object, ndim: int) -> "np.ndarray | None":
    """``value`` as an ``ndim``-dimensional int64 array (not copied if it is one), or None if it is ragged,
    of another ``ndim`` or holds a non-integer; an entry past int64 raises :class:`ResourceLimitError`."""
    if isinstance(value, np.ndarray) and value.dtype.kind != "O" and value.dtype != np.uint64:  # by its dtype
        return value.astype(np.int64, copy=False) if value.ndim == ndim and value.dtype.kind in "iu" else None
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(value, (list, tuple, range)):
        return None
    if ndim == 1:  # by the entries' types, as np.asarray reads True as 1
        try:
            return np.array(value, dtype=np.int64) if set(map(type, value)) <= _INTEGER_TYPES else None
        except OverflowError:
            raise ResourceLimitError("an integer entry exceeds the int64 range") from None
    if set(map(type, value)) <= {list, tuple} and len(set(map(len, value))) == 1:  # equal rows: one flat pass
        flat = integer_array([x for row in value for x in row], ndim - 1)
        return None if flat is None else flat.reshape(len(value), -1, *flat.shape[1:])
    rows = [integer_array(v, ndim - 1) for v in value]
    shapes = {None if r is None else r.shape for r in rows}  # more than one when ragged
    return np.array(rows) if len(shapes) == 1 and None not in shapes else None
