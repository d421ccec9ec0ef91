import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import switchlab
from switchlab import closmodel as cm
from switchlab import contention as ct
from switchlab import deflection as dfl
from switchlab import graphcode as gc
from switchlab import matching as mt
from switchlab import pathswitch as ps
from switchlab import sched
from switchlab.errors import (DomainError, PreconditionError, ResourceLimitError, check_count, check_real,
                             integer_array, is_integer, real_array)

INT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


@pytest.mark.parametrize("value, ndim, expected", [
    *[(np.array([[0, 1], [2, 3]], dtype=t), 2, [[0, 1], [2, 3]]) for t in INT_DTYPES],
    ([1, np.int8(2), np.uint64(3)], 1, [1, 2, 3]),
    ([[np.int32(1), 0], (0, np.uint16(1))], 2, [[1, 0], [0, 1]]),
    ([np.eye(2, dtype=np.int8), [[0, 1], [1, 0]]], 3, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    ([np.eye(2, dtype=np.int8), np.eye(2, dtype=np.uint32)[::-1]], 3, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    (np.array([[1, 2]], dtype=object), 2, [[1, 2]]),
    (np.array([2**63 - 1], dtype=np.uint64), 1, [2**63 - 1]),
    ([2**63 - 1, -2**63], 1, [2**63 - 1, -2**63]),
    ([], 1, []),
    ((), 1, []),
    (range(3), 1, [0, 1, 2]),
    ([[]], 2, [[]]),
    (np.zeros((0, 3), dtype=np.int64), 2, np.zeros((0, 3)).tolist()),
], ids=[*[f"{t.__name__}_array" for t in INT_DTYPES], "numpy_scalars_in_list", "numpy_scalars_in_rows",
        "list_of_arrays_and_lists", "arrays_of_two_integer_dtypes", "object_array", "uint64_at_int64_max",
        "int64_extremes", "empty_list", "empty_tuple", "range", "empty_row", "empty_array"])
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


FLOAT_DTYPES = [np.float16, np.float32, np.float64, np.longdouble]


@pytest.mark.parametrize("value, ndim, expected", [
    *[(np.array([[0, 1], [2, 3]], dtype=t), 2, [[0.0, 1.0], [2.0, 3.0]]) for t in INT_DTYPES + FLOAT_DTYPES],
    ([[0.5, 1], [2, 0.25]], 2, [[0.5, 1.0], [2.0, 0.25]]),
    (((0.5, 1.0), (2.0, 0.25)), 2, [[0.5, 1.0], [2.0, 0.25]]),
    ([[Fraction(1, 4), Fraction(3, 2)]], 2, [[0.25, 1.5]]),
    ([[np.float32(0.5), np.int8(-3)], [np.uint64(2**64 - 1), np.float64(2.0)]], 2, [[0.5, -3.0], [2.0**64, 2.0]]),
    ([np.array([0.5, 1.0]), [2, Fraction(1, 2)]], 2, [[0.5, 1.0], [2.0, 0.5]]),
    (np.array([[Fraction(1, 2), 3]], dtype=object), 2, [[0.5, 3.0]]),
    ([2**70, -1e308], 1, [2.0**70, -1e308]),
    ([[]], 2, [[]]),
    (np.zeros((0, 3)), 2, np.zeros((0, 3)).tolist()),
    ([], 1, []),
], ids=[*[f"{t.__name__}_array" for t in INT_DTYPES + FLOAT_DTYPES], "lists", "tuples", "fractions",
        "numpy_scalars", "array_and_list_rows", "object_array", "large_but_finite", "empty_row", "empty_array",
        "empty_list"])
@pytest.mark.filterwarnings("error")
def test_real_gate_accepts_real_numbers(value, ndim, expected):
    arr = real_array(value, ndim)
    assert arr is not None and arr.dtype == np.float64 and arr.ndim == ndim
    assert arr.tolist() == expected


@pytest.mark.parametrize("value, ndim", [
    (np.eye(2, dtype=bool), 2),
    ([[True, 0.5], [0.5, 0.5]], 2),
    ([[np.bool_(False), 0.5], [0.5, 0.5]], 2),
    ([np.eye(2), np.eye(2, dtype=bool)], 2),
    (None, 2),
    ([[None, 0.5]], 2),
    ("0.5", 1),
    ([["0.5", 1.0]], 2),
    (np.array([["0.5", "1"]]), 2),
    ([[0.5 + 0j, 1.0]], 2),
    (np.array([[0.5, 1.0]], dtype=complex), 2),
    ([[Decimal("0.5"), 1.0]], 2),
    ([[math.nan, 0.5]], 2),
    ([[0.5, math.inf]], 2),
    (np.array([[-np.inf, 0.5]]), 2),
    ([[10**400, 0.5]], 2),
    ([[Fraction(10**400), 0.5]], 2),
    (np.array([[np.longdouble("1e400"), 0.5]]), 2),
    ([[0.5, 0.5], [0.5]], 2),
    ([[0.5, 0.5], 0.5], 2),
    ([np.zeros((2, 2)), np.zeros((2, 3))], 3),
    ([0.5, 0.5], 2),
    ([[0.5]], 1),
    (np.zeros((2, 2, 2)), 2),
    (0.5, 2),
    ([], 2),
], ids=["bool_array", "bool_in_rows", "np_bool_in_rows", "bool_array_in_list", "none", "none_entry", "string",
        "string_entry", "string_array", "complex_entry", "complex_array", "decimal", "nan", "inf", "minus_inf_array",
        "int_past_double", "fraction_past_double", "long_double_past_double", "ragged", "row_and_scalar",
        "arrays_of_two_shapes", "too_few_dims", "too_many_dims", "array_of_other_ndim", "scalar",
        "empty_list_of_rows"])
@pytest.mark.filterwarnings("error")
def test_real_gate_refuses_all_but_finite_real_numbers(value, ndim):
    assert real_array(value, ndim) is None


def test_real_gate_does_not_copy_a_float64_array():
    arr = np.ones((2, 3))
    assert real_array(arr, 2) is arr


def test_is_integer():
    assert all(is_integer(v) for v in (0, -5, 2**70, np.int8(1), np.uint64(2**64 - 1), np.intc(3)))
    assert not any(is_integer(v) for v in (True, np.bool_(False), 1.0, np.float64(1), None, "1", [1], np.array(1)))


def test_count_gate():
    for value, low in ((0, 0), (3, 1), (2**70, 1), (np.int8(-1), -1), (np.uint64(2**64 - 1), 0), (-5, -math.inf)):
        check_count(value, low, "refused")
    for value, low in ((True, 0), (np.bool_(True), 0), (1.0, 0), (math.nan, 0), (-1, 0), ("1", 0), (None, 0)):
        with pytest.raises(DomainError, match="^refused$"):
            check_count(value, low, "refused")


def test_real_gate():
    for value, low, high in ((0, 0.0, 1.0), (1.0, 0.0, 1.0), (np.float32(0.5), 0.0, 1.0), (2**70, 1.0, math.inf),
                             (math.inf, 0.0, math.inf), (-math.inf, -math.inf, 0.0)):
        check_real(value, low, high, "refused")
    for value, low, high in ((True, 0.0, 1.0), (np.bool_(False), 0.0, 1.0), (math.nan, -math.inf, math.inf),
                             (math.inf, 0.0, 1e308), (1.0, 0.0, math.nextafter(1.0, 0.0)), (-0.5, 0.0, 1.0),
                             ("0.5", 0.0, 1.0), (None, 0.0, 1.0), (1j, 0.0, 1.0), (np.array(0.5), 0.0, 1.0)):
        with pytest.raises(DomainError, match="^refused$"):
            check_real(value, low, high, "refused")


# --- the refusal table: each public scalar entry point, bad arguments, the expected type ---

# moved unchanged from tests/test_contention.py::test_scalar_refusals; before
# these refusals the crossbar calls, the brute-force calls and a half level
# ended in TypeError, ZeroDivisionError or AssertionError; the profile returned
# negative, NaN or no levels, or ran for seconds past the cap; carried_load
# and power_stats returned numbers
CONTENTION_ROWS = {
    "crossbar_bools": (ct.simulate_crossbar, (True, True, True), DomainError),
    "crossbar_float_ports": (ct.simulate_crossbar, (4.0, 0.5, 10), DomainError),
    "crossbar_float_slots": (ct.simulate_crossbar, (4, 0.5, 10.0), DomainError),
    "profile_negative_load": (ct.poisson_profile, (-1, 5), DomainError),
    "profile_nan_load": (ct.poisson_profile, (math.nan, 3), DomainError),
    "profile_infinite_load": (ct.poisson_profile, (math.inf, 3), DomainError),
    "profile_half_level": (ct.poisson_profile, (0.5, 2.5), DomainError),
    "profile_negative_levels": (ct.poisson_profile, (0.5, -1), DomainError),
    "profile_levels_at_cap": (ct.poisson_profile, (0.5, ct.PMF_MAX_TERMS), ResourceLimitError),
    "profile_levels_1e6": (ct.poisson_profile, (0.5, 10**6), ResourceLimitError),
    "profile_levels_2e70": (ct.poisson_profile, (True, 2**70), ResourceLimitError),
    "carried_half_port": (ct.carried_load, (0.5, 4.5), DomainError),
    "carried_bool_ports": (ct.carried_load, (0.5, True), DomainError),
    "power_bool_ports": (ct.power_stats, (True, 0.5), DomainError),
    "brute_zero_ports": (ct.maximize_entropy_bruteforce, (0, 0), DomainError),
    "brute_bool_ports": (ct.maximize_entropy_bruteforce, (True, -1), DomainError),
    "brute_float_ports": (ct.maximize_entropy_bruteforce, (2.5, 1), DomainError),
}

# moved unchanged from tests/test_deflection.py::test_non_integer_bool_and_oversized_scalars_are_refused
DEFLECTION_ROWS = {
    "series_nan": (dfl.absorption_series, (0.6, 0.4, math.nan), DomainError),
    "series_fraction": (dfl.absorption_series, (0.6, 0.4, 2.5), DomainError),
    "series_2^70": (dfl.absorption_series, (0.6, 0.4, 2**70), ResourceLimitError),
    "series_10^9": (dfl.absorption_series, (0.6, 0.4, 10**9), ResourceLimitError),
    "series_past_cap": (dfl.absorption_series, (0.6, 0.4, dfl.MAX_STAGES + 1), ResourceLimitError),
    "bound_fraction": (dfl.loss_bound, (1.0, 1.5), DomainError),
    "bound_nan": (dfl.loss_bound, (1.0, math.nan), DomainError),
    "bound_bool_length": (dfl.loss_bound, (1.0, True), DomainError),
    "bound_bool_load": (dfl.loss_bound, (True, 3), DomainError),
    "tail_fraction": (dfl.closed_form_tail, (0.6, 0.4, 1.5), DomainError),
    "tail_bool": (dfl.closed_form_tail, (0.6, 0.4, True), DomainError),
}

_HALVES = sched.WeightSet((0.5, 0.5))

# escapes of the parent tree: each of these returned a value, ran, or raised
# a bare TypeError, ValueError or OverflowError before the scalar gate
ESCAPE_ROWS = {
    "crossbar_bool_load": (ct.simulate_crossbar, (4, True, 10), DomainError),
    "crossbar_half_seed": (partial(ct.simulate_crossbar, seed=1.5), (4, 0.5, 10), DomainError),
    "crossbar_negative_seed": (partial(ct.simulate_crossbar, seed=-1), (4, 0.5, 10), DomainError),
    "carried_bool_load": (ct.carried_load, (True, 4), DomainError),
    "power_bool_load": (ct.power_stats, (4, True), DomainError),
    "psnr_bool": (ct.psnr, (False,), DomainError),
    "boltzmann_bool_load": (ct.boltzmann_pmf, (True,), DomainError),
    "run_size_nan_slots": (ct.check_run_size, (math.nan, 4, "ports"), DomainError),
    "run_size_half_slot": (ct.check_run_size, (1.5, 4, "ports"), DomainError),
    "draws_nan_load": (ct.packet_draws, (math.nan, 4), DomainError),
    "draws_inf_load": (ct.packet_draws, (math.inf, 4), DomainError),
    "draws_nan_bins": (ct.packet_draws, (0.5, math.nan), DomainError),
    "success_string_load": (dfl.success_probability, ("0.5",), DomainError),
    "series_nan_q": (dfl.absorption_series, (0.6, math.nan, 10), DomainError),
    "tail_string_q": (dfl.closed_form_tail, (0.6, "0.4", 10), DomainError),
    "bound_string_load": (dfl.loss_bound, ("0.5", 3), DomainError),
    "deflection_bool_load": (dfl.simulate_deflection, (4, 10, True, 10), DomainError),
    "deflection_bool_seed": (partial(dfl.simulate_deflection, seed=True), (4, 10, 1.0, 10), DomainError),
    "deflection_negative_seed": (partial(dfl.simulate_deflection, seed=-1), (4, 10, 1.0, 10), DomainError),
    "rate_nan_modules": (cm.max_data_rate, (math.nan, 2.0), DomainError),
    "rate_nan_psnr": (cm.max_data_rate, (5, math.nan), DomainError),
    "shannon_nan_bandwidth": (cm.shannon_capacity, (math.nan, 1.0), DomainError),
    "shannon_inf_snr": (cm.shannon_capacity, (1.0, math.inf), DomainError),
    "bsc_bool": (cm.bsc_capacity, (True,), DomainError),
    "coding_string_constant": (cm.random_coding_bound, (3, "2", 2.0), DomainError),
    "random_half_slot": (sched.schedule_random, (_HALVES, 1.5), DomainError),
    "random_negative_seed": (partial(sched.schedule_random, seed=-1), (_HALVES, 10), DomainError),
    "round_bool_modules": (partial(ps.bandlimit_and_round, modules=True), (np.full((2, 2), 0.5), 4), DomainError),
}

# counts past the double range raised a bare OverflowError, and the two
# capacities returned inf for finite arguments
OVERFLOW_ROWS = {
    "carried_ports_past_double": (ct.carried_load, (0.5, 10**400), DomainError),
    "power_ports_past_double": (ct.power_stats, (10**400, 0.5), DomainError),
    "coding_length_past_double": (cm.random_coding_bound, (10**400, 2.0, 2.0), DomainError),
    "bound_length_past_double": (dfl.loss_bound, (1.0, 10**400), DomainError),
    "tail_length_past_double": (dfl.closed_form_tail, (0.6, 0.4, 10**400), DomainError),
    "shannon_overflows": (cm.shannon_capacity, (1e308, 1e308), DomainError),
    "rate_overflows": (cm.max_data_rate, (1e308, 1e308), DomainError),
}

# refused at the parent too: rows that give each public function one
COVERAGE_ROWS = {
    "split_bool_count": (cm.address_split, (3, 2, True), DomainError),
}

_SPEC = cm.ClosSpec(m=1, n=1, k=2)

# requests or edges that are no sequence of pairs raised a bare TypeError, from
# len() or from the message that names the first bad port
PAIR_ROWS = {
    "requests_scalar": (mt.CallRequestSet, (5, _SPEC), PreconditionError),
    "requests_none": (mt.CallRequestSet, (None, _SPEC), PreconditionError),
    "requests_pair_and_scalar": (mt.CallRequestSet, ([[0, 1], 5], _SPEC), PreconditionError),
    "graph_edges_none": (mt.BipartiteGraph, (2, 2, None), PreconditionError),
}

# vertex counts that are no integer >= 0 built a graph; hall_check of the None
# and 2.5 graphs then raised a bare TypeError
GRAPH_COUNT_ROWS = {
    "graph_left_count_none": (mt.BipartiteGraph, (None, 2, []), DomainError),
    "graph_left_count_negative": (mt.BipartiteGraph, (-1, 2, []), DomainError),
    "graph_left_count_float": (mt.BipartiteGraph, (2.5, 2, []), DomainError),
    "graph_left_count_bool": (mt.BipartiteGraph, (True, 2, []), DomainError),
    "graph_right_count_float": (mt.BipartiteGraph, (2, 2.5, []), DomainError),
}

_CODE = gc.TannerCode.from_rows([[1, 1, 0], [0, 1, 1]])

# received words whose entries are not integers 0 or 1, checked by one test of
# the entries' types and one of their values; a bool among integer ones has
# the value of one of them, so only the type test refuses it
WORD_ROWS = {
    "word_bool": (gc.flip_decode, (_CODE, [True, False, False]), DomainError),
    "word_bool_among_ints": (gc.flip_decode, (_CODE, [0, 1, True]), DomainError),
    "word_np_bool": (gc.flip_decode, (_CODE, [np.bool_(True), 0, 0]), DomainError),
    "word_float": (gc.flip_decode, (_CODE, [1.0, 0, 0]), DomainError),
    "word_np_float": (gc.flip_decode, (_CODE, [np.float64(0), 0, 0]), DomainError),
    "word_str": (gc.flip_decode, (_CODE, ["1", 0, 0]), DomainError),
    "word_two": (gc.flip_decode, (_CODE, [2, 0, 0]), DomainError),
    "word_minus_one": (gc.flip_decode, (_CODE, [-1, 0, 0]), DomainError),
    "word_np_two": (gc.flip_decode, (_CODE, [np.int64(2), 0, 0]), DomainError),
    "word_unhashable": (gc.flip_decode, (_CODE, [[1], 0, 0]), DomainError),
}

# a grid of no slots and a capacity matrix of no modules returned NaN after
# numpy's "invalid value encountered in divide"
EMPTY_ROWS = {
    "smoothness_2d_no_slots": (sched.smoothness_2d, (sched.TokenGrid(np.zeros((2, 2, 0), dtype=np.int64)),),
                               DomainError),
    "entropy_2d_no_modules": (sched.entropy_2d, (ps.CapacityMatrix.from_integer_matrix([[0, 0], [0, 0]], 1),),
                              DomainError),
}


_PAIR = sched.FrameSequence((0, 1))
_GRID = sched.TokenGrid(np.eye(2, dtype=np.int64)[:, :, None])

# a scheduler or smoothness call given something other than its holder type
# raised a bare AttributeError or TypeError, and a weight set of no rationals
# "Invalid literal for Fraction", a TypeError, OverflowError or ZeroDivisionError
HOLDER_ROWS = {
    "weights_string": (sched.WeightSet, ("a",), PreconditionError),  # ValueError
    "weights_of_string": (sched.WeightSet.of, ("a",), PreconditionError),  # ValueError
    "weights_int": (sched.WeightSet, (7,), PreconditionError),  # TypeError
    "weights_none": (sched.WeightSet, (None,), PreconditionError),  # TypeError
    "weights_rows": (sched.WeightSet, ([[1, 0]],), PreconditionError),  # TypeError
    "weights_nan": (sched.WeightSet, ([math.nan],), PreconditionError),  # ValueError
    "weights_inf": (sched.WeightSet, ([math.inf],), PreconditionError),  # OverflowError
    "weights_zero_denominator": (sched.WeightSet, (["1/0"],), PreconditionError),  # ZeroDivisionError
    "wfq_int": (sched.schedule_wfq, (7,), PreconditionError),
    "wfq_none": (sched.schedule_wfq, (None,), PreconditionError),
    "wfq_list": (sched.schedule_wfq, ([0.5, 0.5],), PreconditionError),
    "wf2q_int": (sched.schedule_wf2q, (7,), PreconditionError),
    "wf2q_none": (sched.schedule_wf2q, (None,), PreconditionError),
    "wf2q_list": (sched.schedule_wf2q, ([0.5, 0.5],), PreconditionError),
    "hurr_int": (sched.schedule_hurr, (7,), PreconditionError),  # TypeError
    "hurr_none": (sched.schedule_hurr, (None,), PreconditionError),  # TypeError
    "hurr_list": (sched.schedule_hurr, ([0.5, 0.5],), PreconditionError),
    "wfq_trace_list": (sched.wfq_trace, ([0.5, 0.5],), PreconditionError),
    "wf2q_trace_list": (sched.wf2q_trace, ([0.5, 0.5],), PreconditionError),
    "random_list": (sched.schedule_random, ([0.5, 0.5], 10), PreconditionError),
    "entropy_list": (sched.entropy, ([0.5, 0.5],), PreconditionError),
    "random_smoothness_list": (sched.random_sequence_smoothness, ([0, 1, 0, 1], [0.5, 0.5]), PreconditionError),
    "random_gap_list": (sched.expected_random_smoothness_gap, ([0.5, 0.5],), PreconditionError),
    "smoothness_sequence_int": (sched.smoothness, (7, _HALVES), PreconditionError),
    "smoothness_sequence_none": (sched.smoothness, (None, _HALVES), PreconditionError),
    "smoothness_sequence_list": (sched.smoothness, ([0, 1], _HALVES), PreconditionError),
    "smoothness_weights_list": (sched.smoothness, (_PAIR, [0.5, 0.5]), PreconditionError),
    "smoothness_2d_int": (sched.smoothness_2d, (7,), PreconditionError),
    "smoothness_2d_none": (sched.smoothness_2d, (None,), PreconditionError),
    "smoothness_2d_list": (sched.smoothness_2d, ([[[1, 0]], [[0, 1]]],), PreconditionError),
    "smoothness_2d_capacity_list": (sched.smoothness_2d, (_GRID, [[1, 0], [0, 1]]), PreconditionError),
}


_TRAFFIC_SPEC = cm.ClosSpec(m=2, n=2, k=2)
_TRAFFIC = ps.TrafficMatrix([[0.25, 0.5], [0.5, 0.25]], _TRAFFIC_SPEC)
_ROUND = partial(ps.bandlimit_and_round, modules=1)

# the four readers of a real-valued matrix; where the parent tree differed, each
# row says how: it accepted bools and arrays, leaked numpy's or a bare error,
# warned on its int64 cast, or returned negative entropies
REAL_MATRIX_ROWS = {
    "traffic_bool_array": (ps.TrafficMatrix, (np.eye(2, dtype=bool), _TRAFFIC_SPEC), PreconditionError),  # accepted
    "traffic_bool_among_rates": (ps.TrafficMatrix, ([[True, 0.5], [0.5, 0.25]], _TRAFFIC_SPEC),
                                 PreconditionError),  # accepted
    "traffic_complex": (ps.TrafficMatrix, ([[0.5 + 0j, 0.0], [0.0, 0.5]], _TRAFFIC_SPEC), PreconditionError),
    "traffic_ragged": (ps.TrafficMatrix, ([[0.5, 0.5], [0.5]], _TRAFFIC_SPEC), PreconditionError),
    "traffic_past_double": (ps.TrafficMatrix, ([[10**400, 0.0], [0.0, 0.5]], _TRAFFIC_SPEC), PreconditionError),
    "traffic_negative": (ps.TrafficMatrix, ([[-0.5, 0.0], [0.0, 0.5]], _TRAFFIC_SPEC), PreconditionError),
    "round_string": (_ROUND, ([["0.5", "0.5"], ["0.5", "0.5"]], 4), PreconditionError),  # bare ValueError
    "round_ragged": (_ROUND, ([[0.5, 0.5], [1.0]], 4), PreconditionError),  # bare ValueError
    "round_one_dim": (_ROUND, ([1.0], 4), PreconditionError),  # AxisError
    "round_empty_list": (_ROUND, ([], 4), PreconditionError),  # AxisError
    "round_empty_matrix": (_ROUND, (np.zeros((0, 0)), 4), PreconditionError),
    "round_not_square": (_ROUND, (np.full((2, 3), 0.5), 4), PreconditionError),
    "round_bool_array": (_ROUND, (np.eye(2, dtype=bool), 4), PreconditionError),  # accepted
    "round_nan": (_ROUND, ([[math.nan, 0.5], [0.5, 0.5]], 4), PreconditionError),
    "round_frame_2^70": (_ROUND, (np.eye(2), 2**70), ResourceLimitError),  # warned on its cast
    "round_frame_times_modules_past_int64": (partial(ps.bandlimit_and_round, modules=2**32), (np.eye(2), 2**31),
                                             ResourceLimitError),  # warned on its cast
    "round_entries_1e300": (_ROUND, (np.array([[1e300, -1e300], [-1e300, 1e300]]), 4),
                            PreconditionError),  # warned on its cast
    "round_lone_1e300": (_ROUND, (np.array([[1e300, 0.0], [0.0, 1.0]]), 4), PreconditionError),  # warned on its cast
    "round_entry_times_frame_past_double": (_ROUND, (np.array([[1e308, 0.0], [0.0, 1.0]]), 4),
                                            PreconditionError),  # warned on its multiply and cast
    "delay_other_shape": (ps.weighted_delay, (np.full((3, 3), 2.0), _TRAFFIC), PreconditionError),  # bare ValueError
    "delay_bool_array": (ps.weighted_delay, (np.ones((2, 2), dtype=bool), _TRAFFIC), PreconditionError),  # accepted
    "delay_string": (ps.weighted_delay, ([["1", "1"], ["1", "1"]], _TRAFFIC), PreconditionError),  # bare ValueError
    "delay_inf": (ps.weighted_delay, ([[math.inf, 1.0], [1.0, 1.0]], _TRAFFIC), PreconditionError),
    "entropy_array": (sched.entropy_2d, (np.full((2, 2), 0.5),), PreconditionError),  # accepted
    "entropy_negative_rates": (sched.entropy_2d, ([[2, -1], [-1, 2]],), PreconditionError),  # returned -2
    "entropy_none": (sched.entropy_2d, (None,), PreconditionError),  # DomainError
    "round_entries_above_the_line_sum": (_ROUND, (np.full((2, 2), 5e18), 1),
                                         PreconditionError),  # its line sums wrapped in int64
    "round_entries_past_int64_over_k": (_ROUND, (np.ones((3, 3)), 2**62),
                                        ResourceLimitError),  # PreconditionError after its line sums wrapped
}


@pytest.mark.parametrize("call, args, error", REAL_MATRIX_ROWS.values(), ids=REAL_MATRIX_ROWS.keys())
def test_real_matrix_refusal_table(call, args, error):
    assert_refused(call, args, error)


def test_every_real_matrix_reader_has_a_row():
    """Each public callable that reads a real matrix through the gate, and ``entropy_2d``, which reads its rate
    matrix from a ``CapacityMatrix`` only, has a row; no module reads one by ``np.asarray(..., dtype=float)``."""
    modules = [importlib.import_module(f"switchlab.{m.name}") for m in pkgutil.iter_modules(switchlab.__path__)]
    public = [f for mod in modules for f in map(mod.__dict__.get, getattr(mod, "__all__", ())) if callable(f)]
    readers = {f for f in public if "real_array(" in inspect.getsource(f)} | {sched.entropy_2d}
    assert readers == {ps.TrafficMatrix, ps.bandlimit_and_round, ps.weighted_delay, sched.entropy_2d}
    assert readers <= {getattr(call, "func", call) for call, _, _ in REAL_MATRIX_ROWS.values()}
    assert not [mod.__name__ for mod in modules if re.search(r"asarray\([^)]*dtype=float", inspect.getsource(mod))]


def _near_limit(carried: float) -> bool:
    """Within 1e-12 relative of the N -> infinity value 1 - exp(-0.5) = 0.3934693..., which the
    finite-N value at rho = 0.5 approaches to within 1e-12 from about N = 10^12."""
    return math.isclose(carried, -math.expm1(-0.5), rel_tol=1e-12)


# values that lost their accuracy at large counts: 1 - (1 - rho/N)^N rounded
# 1 - rho/N, so the N = 10^12 value was off in the fifth digit and the
# N = 10^16 value was 0.0
ACCURACY_ROWS = {
    "carried_ports_1e16": (ct.carried_load, (0.5, 10**16), _near_limit),
    "carried_ports_1e12": (ct.carried_load, (0.5, 10**12), _near_limit),
    "power_ports_1e16": (ct.power_stats, (10**16, 0.5), lambda v: v.psnr > 0),
    "carried_one_port_full_load": (ct.carried_load, (1.0, 1), lambda v: v == 1.0),
}


@pytest.mark.parametrize("call, args, holds", ACCURACY_ROWS.values(), ids=ACCURACY_ROWS.keys())
def test_accuracy_table(call, args, holds):
    assert holds(call(*args))


REFUSALS = {**CONTENTION_ROWS, **DEFLECTION_ROWS, **ESCAPE_ROWS, **OVERFLOW_ROWS, **COVERAGE_ROWS, **PAIR_ROWS,
            **GRAPH_COUNT_ROWS, **WORD_ROWS, **EMPTY_ROWS, **HOLDER_ROWS}

# public functions with no scalar row, and why
EXEMPT = {
    "count_states": "takes an occupancy sequence, whose sums fix the port and packet counts",
    "nonblocking_psnr": "takes a ClosSpec, whose m, n and k pass the count gate when it is built",
    "random_routing_carried_load": "takes a ClosSpec, whose m, n and k pass the count gate when it is built",
}


def assert_refused(call, args, error):
    """``call(*args)`` raises exactly ``error``: no other exception, no warning, within 1 s."""
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as info:
            call(*args)
    assert type(info.value) is error and not caught
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("call, args, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_table(call, args, error):
    assert_refused(call, args, error)


def test_every_public_scalar_function_has_a_row():
    public = {f for mod in (ct, cm, dfl) for f in map(mod.__dict__.get, mod.__all__) if inspect.isfunction(f)}
    public |= {sched.schedule_random, ps.bandlimit_and_round}
    covered = {getattr(call, "func", call) for call, _, _ in REFUSALS.values()}
    assert {f.__name__ for f in public - covered} == set(EXEMPT)
    assert not {f.__name__ for f in public & covered} & set(EXEMPT)


def test_array_holders_compare_by_identity():
    """A dataclass with generated equality compares its fields as tuples, and an
    array field has no single truth value; marking the field ``compare=False``
    instead makes two holders with different arrays equal.  So a dataclass with
    an array field has no generated equality at all (``eq=False``)."""
    modules = [importlib.import_module(f"switchlab.{m.name}") for m in pkgutil.iter_modules(switchlab.__path__)]
    classes = {c for mod in modules for c in vars(mod).values()
               if dataclasses.is_dataclass(c) and c.__module__ == mod.__name__ and not c.__name__.startswith("_")}
    assert len(classes) > 20
    compared = {c.__name__ for c in classes if c.__dataclass_params__.eq
                and any("ndarray" in str(f.type) for f in dataclasses.fields(c))}
    assert not compared


_HOLDER_SPEC = cm.ClosSpec(m=2, n=1, k=2)

# input holders: (build from a writable caller array, that array, the names of the holder's arrays)
INPUT_HOLDERS = {
    "BipartiteGraph": (lambda a: mt.BipartiteGraph(2, 2, a), [[0, 0], [1, 1]], ("edges",)),
    "CallRequestSet": (lambda a: mt.CallRequestSet(a, _HOLDER_SPEC), [[0, 1], [1, 0]], ("pairs",)),
    "RouteSet": (lambda a: mt.RouteSet(a, a, a), [0, 1], ("central", "out_module", "out_port")),
    "TrafficMatrix": (lambda a: ps.TrafficMatrix(a, _HOLDER_SPEC), [[0.5, 0.25], [0.25, 0.5]], ("rates",)),
    "CapacityMatrix": (lambda a: ps.CapacityMatrix.from_integer_matrix(a, 4), [[3, 1], [1, 3]], ("scaled",)),
    "TokenGrid": (sched.TokenGrid, [[[1, 0]], [[0, 1]]], ("tokens",)),
}


@pytest.mark.parametrize("build, rows, names", INPUT_HOLDERS.values(), ids=INPUT_HOLDERS.keys())
def test_input_holders_own_read_only_arrays(build, rows, names):
    caller = np.array(rows)
    holder = build(caller)
    caller[(0,) * caller.ndim] = 0  # a write after construction does not reach the holder
    for name in names:
        arr = getattr(holder, name)
        assert arr.tolist() == rows and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


def test_exact_core_results_are_read_only():
    dec = ps.bvn_decompose(ps.CapacityMatrix.from_integer_matrix([[3, 1], [1, 3]], 4))
    coloring = mt.edge_color(mt.BipartiteGraph(2, 2, [[0, 0], [0, 1], [1, 0], [1, 1]]))
    assignment = mt.benes_full_assign([1, 0, 3, 2])
    for arr in (dec.permutations, dec.patterns, dec.frame, coloring.color_of, assignment.crosses):
        assert not arr.flags.writeable


def test_every_holder_parameter_in_sched_has_a_row():
    """Each public function of ``sched`` with a parameter of a holder type has a row that passes it another type."""
    holders = {"WeightSet", "FrameSequence", "TokenGrid", "CapacityMatrix"}
    takers = {f for f in map(sched.__dict__.get, sched.__all__) if inspect.isfunction(f) and any(
        str(p.annotation).split(" |")[0] in holders for p in inspect.signature(f).parameters.values())}
    covered = {getattr(call, "func", call) for call, _, _ in [*HOLDER_ROWS.values(), *REAL_MATRIX_ROWS.values()]}
    assert len(takers) == 12 and takers <= covered
