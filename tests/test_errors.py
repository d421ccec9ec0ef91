import numpy as np
import pytest

from switchlab.errors import ResourceLimitError, integer_array, is_integer

INT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


@pytest.mark.parametrize("value, ndim, expected", [
    *[(np.array([[0, 1], [2, 3]], dtype=t), 2, [[0, 1], [2, 3]]) for t in INT_DTYPES],
    ([1, np.int8(2), np.uint64(3)], 1, [1, 2, 3]),
    ([[np.int32(1), 0], (0, np.uint16(1))], 2, [[1, 0], [0, 1]]),
    ([np.eye(2, dtype=np.int8), [[0, 1], [1, 0]]], 3, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    (np.array([[1, 2]], dtype=object), 2, [[1, 2]]),
    (np.array([2**63 - 1], dtype=np.uint64), 1, [2**63 - 1]),
    ([2**63 - 1, -2**63], 1, [2**63 - 1, -2**63]),
    ([], 1, []),
    ((), 1, []),
    (range(3), 1, [0, 1, 2]),
    ([[]], 2, [[]]),
    (np.zeros((0, 3), dtype=np.int64), 2, np.zeros((0, 3)).tolist()),
], ids=[*[f"{t.__name__}_array" for t in INT_DTYPES], "numpy_scalars_in_list", "numpy_scalars_in_rows",
        "list_of_arrays_and_lists", "object_array", "uint64_at_int64_max", "int64_extremes", "empty_list",
        "empty_tuple", "range", "empty_row", "empty_array"])
def test_gate_accepts_integers(value, ndim, expected):
    arr = integer_array(value, ndim)
    assert arr is not None and arr.dtype == np.int64 and arr.ndim == ndim
    assert arr.tolist() == expected


@pytest.mark.parametrize("value, ndim", [
    (np.array([True, False]), 1),
    ([True, 0], 1),
    ([np.bool_(True), 0], 1),
    ([[1, False], [0, 1]], 2),
    ([np.eye(2, dtype=np.int64), np.eye(2, dtype=bool)], 3),
    ([1.0, 0], 1),
    (np.array([1.0, 0.0]), 1),
    ([0.5, 1], 1),
    ([None, 1], 1),
    (None, 1),
    ("01", 1),
    (["0", "1"], 1),
    (np.array(["0", "1"]), 1),
    (np.array([1, None], dtype=object), 1),
    ([[1, 2], [3]], 2),
    ([[1, 2], 3], 2),
    ([np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)], 3),
    ([1, 2], 2),
    ([[1, 2]], 1),
    (np.arange(4), 2),
    (5, 1),
    ([], 2),
], ids=["bool_array", "bool_in_list", "np_bool_in_list", "bool_in_rows", "bool_array_in_list", "integral_float",
        "float_array", "half", "none_entry", "none", "string", "string_entries", "string_array", "object_none",
        "ragged", "row_and_scalar", "arrays_of_two_shapes", "too_few_dims", "too_many_dims", "array_of_other_ndim",
        "scalar", "empty_list_of_rows"])
def test_gate_refuses_non_integers(value, ndim):
    assert integer_array(value, ndim) is None


@pytest.mark.parametrize("value, ndim", [
    ([2**70], 1), ([0, -2**63 - 1], 1), ([[1, 2**64]], 2), ([np.uint64(2**63)], 1),
    (np.array([2**63], dtype=np.uint64), 1), (np.array([2**70], dtype=object), 1),
    ([np.zeros(2, dtype=np.int64), np.array([0, 2**63], dtype=np.uint64)], 2),
], ids=["python_int", "below_int64", "in_rows", "uint64_scalar", "uint64_array", "object_array", "array_in_list"])
def test_gate_refuses_entries_past_int64_as_a_resource_limit(value, ndim):
    with pytest.raises(ResourceLimitError):
        integer_array(value, ndim)


def test_gate_does_not_copy_an_int64_array():
    arr = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert integer_array(arr, 2) is arr


def test_is_integer():
    assert all(is_integer(v) for v in (0, -5, 2**70, np.int8(1), np.uint64(2**64 - 1), np.intc(3)))
    assert not any(is_integer(v) for v in (True, np.bool_(False), 1.0, np.float64(1), None, "1", [1], np.array(1)))
