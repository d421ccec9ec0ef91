"""Path switching: capacity allocation over virtual paths, decomposition of
the capacity matrix into frames of connection patterns, and sum-preserving
round-off to a fixed frame size.

Capacity matrices are exact rationals over a common frame denominator F,
held as integer matrices F * C, so that the reconstruction identity
sum(phi_i * P_i) == C can serve as a test oracle; the allocation heuristic
itself works in floating point (its iterates are irrational) and is
quantized afterwards by :func:`bandlimit_and_round`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .closmodel import ClosSpec
from .errors import (ConvergenceError, DomainError, PreconditionError, ResourceLimitError, check_count, hold_array,
                     integer_array, real_array)
from .matching import peel_matchings

__all__ = [
    "TrafficMatrix",
    "CapacityMatrix",
    "Decomposition",
    "allocate_capacity",
    "weighted_delay",
    "bvn_decompose",
    "bandlimit_and_round",
    "optimal_delay_2x2",
]


# a k x k traffic matrix may hold at most this many rates (k <= 256):
# allocate_capacity and rounding grow about as k^3, about 1 s at the cap
MAX_TRAFFIC_CELLS = 1 << 16
# allocate_capacity stops once the residual slack is below SLACK_TOL * m * k,
# and raises ConvergenceError if that takes more than MAX_ALLOCATION_ITERATIONS
SLACK_TOL = 1e-12
MAX_ALLOCATION_ITERATIONS = 1_000_000
# golden-section steps of optimal_delay_2x2: each shrinks the bracket by 0.618
GOLDEN_SECTION_STEPS = 200


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class TrafficMatrix:
    """Arrival rates (packets/slot) between input and output modules: the
    read-only (k, k) float64 ``rates``, copied from the caller and read by
    the real-matrix gate ``errors.real_array``."""

    rates: np.ndarray
    spec: ClosSpec

    @staticmethod
    def check_size(k: int) -> None:
        """Refuse k x k rates above MAX_TRAFFIC_CELLS, before any is drawn."""
        if k * k > MAX_TRAFFIC_CELLS:
            raise ResourceLimitError(f"a {k}x{k} traffic matrix exceeds {MAX_TRAFFIC_CELLS} cells")

    def __post_init__(self) -> None:
        k = self.spec.k
        self.check_size(k)
        rates = real_array(self.rates, 2)
        if rates is None or rates.shape != (k, k) or (rates < 0).any():
            raise PreconditionError(f"arrival rates must be a {k}x{k} matrix of finite and nonnegative real numbers")
        limit = min(self.spec.n, self.spec.m)
        if rates.sum(axis=1).max() >= limit or rates.sum(axis=0).max() >= limit:
            raise PreconditionError("row and column sums must stay below the module port count")
        hold_array(self, "rates", rates)


@dataclass(frozen=True, init=False, eq=False)  # equal rates, by __eq__
class CapacityMatrix:
    """k x k rate matrix C with exact rational entries over denominator F.

    Held as the read-only (k, k) int64 ``scaled`` = F * C, copied from the
    caller, whose every row and column sums to m * F: C is doubly stochastic
    scaled by the central module count m, ``modules``.  ``entries`` is the
    Fraction view of the same matrix.  Two capacity matrices are equal when
    their rates are, whatever their frame sizes.
    """

    scaled: np.ndarray
    frame_size: int
    modules: int

    def __init__(self, entries: Sequence[Sequence[Fraction]], frame_size: int):
        self._hold(entries, frame_size, rational=True)

    @classmethod
    def from_integer_matrix(cls, scaled: Sequence[Sequence[int]], frame_size: int) -> "CapacityMatrix":
        cap = cls.__new__(cls)
        cap._hold(scaled, frame_size, rational=False)
        return cap

    def _hold(self, rows: Sequence[Sequence], frame_size: int, rational: bool) -> None:
        """The one gate of both constructors: F, then F * C (``rows`` times F when ``rational``)."""
        check_count(frame_size, 1, "frame size must be an integer >= 1")  # F may exceed int64
        if rational:
            scaled = [[Fraction(v) * frame_size for v in row] for row in rows]
            if any(x.denominator != 1 for row in scaled for x in row):
                raise PreconditionError("entries times frame size must be integers")
            rows = [[x.numerator for x in row] for row in scaled]
        arr = integer_array(rows, 2)
        if arr is None or not 0 < len(arr) == arr.shape[1]:
            raise PreconditionError("F * C must be a nonempty square matrix of integers")
        if (abs(arr) > np.iinfo(np.int64).max // len(arr)).any():
            raise ResourceLimitError("line sums of F * C exceed the int64 range")
        if (arr < 0).any():
            raise PreconditionError("capacities must be nonnegative")
        total = int(arr[0].sum())
        if (arr.sum(axis=0) != total).any() or (arr.sum(axis=1) != total).any():
            raise PreconditionError("row and column sums must all be equal")
        if total % frame_size:
            raise PreconditionError("line sums must be an integer multiple of F")
        hold_array(self, "scaled", arr)
        object.__setattr__(self, "frame_size", frame_size)
        object.__setattr__(self, "modules", total // frame_size)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.frame_size) for v in row) for row in self.scaled.tolist())

    @property
    def size(self) -> int:
        return len(self.scaled)

    def as_float(self) -> np.ndarray:
        return self.scaled / self.frame_size

    def has_rates(self, counts: np.ndarray, frame_size: int) -> bool:
        """Whether counts / frame_size == C, cross-multiplied in Python ints: F may exceed int64."""
        return counts.shape == self.scaled.shape and bool(
            (counts.astype(object) * self.frame_size == self.scaled.astype(object) * frame_size).all())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CapacityMatrix) and self.has_rates(other.scaled, other.frame_size)

    def __repr__(self) -> str:
        return f"CapacityMatrix(F={self.frame_size}, m={self.modules}, k={self.size})"


def allocate_capacity(traffic: TrafficMatrix) -> np.ndarray:
    """Square-root-rule capacity allocation.

    Starting from C = rates, each iteration spreads every row's and column's
    slack (m minus its current sum) over the unsaturated entries in
    proportion to sqrt(rate), taking the smaller of the row and column
    offers.  Terminates when the residual slack is below SLACK_TOL * m * k;
    every line sum then equals m to that tolerance and C > rates entrywise.

    Zero rates stall the iteration, so they are rejected: a caller floors
    them in the :class:`TrafficMatrix`.  Returns the float matrix.
    """
    lam = traffic.rates
    if (lam <= 0).any():
        raise DomainError("zero rates stall the allocation: floor them to a small positive rate")
    m = traffic.spec.m
    k = traffic.spec.k
    cap = lam.copy()
    sq = np.sqrt(lam)
    slack_budget = SLACK_TOL * m * k
    for _ in range(MAX_ALLOCATION_ITERATIONS):
        row_slack = m - cap.sum(axis=1)
        col_slack = m - cap.sum(axis=0)
        if row_slack.sum() <= slack_budget:
            break
        row_active = row_slack > slack_budget / k
        col_active = col_slack > slack_budget / k
        if not row_active.any() or not col_active.any():
            break
        w = sq * np.outer(row_active, col_active)
        row_den = w.sum(axis=1)
        col_den = w.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            row_offer = np.where(row_den[:, None] > 0, row_slack[:, None] * w / row_den[:, None], 0.0)
            col_offer = np.where(col_den[None, :] > 0, col_slack[None, :] * w / col_den[None, :], 0.0)
        inc = np.minimum(row_offer, col_offer)
        if inc.max() <= 0:
            break
        cap += inc
    else:
        raise ConvergenceError(
            f"allocation stalled with residual slack {float((m - cap.sum(axis=1)).sum()):.3e}"
        )
    residual = float((m - cap.sum(axis=1)).sum())
    if residual > slack_budget * 10:
        raise ConvergenceError(f"allocation stopped with slack {residual:.3e}")
    return cap


def weighted_delay(capacity: np.ndarray, traffic: TrafficMatrix) -> float:
    """Total weighted M/M/1 delay  sum rate / (capacity - rate).

    ``capacity`` is a real matrix of the traffic's shape, such as
    :func:`allocate_capacity` returns; every entry must strictly exceed the
    corresponding rate (stability).
    """
    lam = traffic.rates
    cap = real_array(capacity, 2)
    if cap is None or cap.shape != lam.shape:
        raise PreconditionError(f"capacities must be a {len(lam)}x{len(lam)} matrix of finite real numbers")
    gap = cap - lam
    loaded = lam > 0
    if (gap[loaded] <= 0).any() or (gap < 0).any():
        raise DomainError("unstable path: capacity must exceed the rate entrywise")
    return float((lam[loaded] / gap[loaded]).sum())


def optimal_delay_2x2(traffic: TrafficMatrix) -> float:
    """Numeric oracle: optimal weighted delay over all 2x2 allocations with
    line sums m, by golden-section search on the single free parameter."""
    lam = traffic.rates
    if lam.shape != (2, 2):
        raise DomainError("oracle is for 2x2 instances only")
    m = traffic.spec.m

    def delay(x: float) -> float:
        cap = np.array([[x, m - x], [m - x, x]])
        gap = cap - lam
        if (gap <= 0).any():
            return float("inf")
        return float((lam / gap).sum())

    lo = max(lam[0, 0], lam[1, 1])
    hi = m - max(lam[0, 1], lam[1, 0])
    if hi <= lo:
        raise DomainError("infeasible instance: no stable allocation exists")
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = delay(c), delay(d)
    for _ in range(GOLDEN_SECTION_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = delay(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = delay(d)
    return min(fc, fd)


# bvn_decompose refuses F * k * max(k, m) above this before allocating its
# (F, k, k) slot patterns and (m * F, k) permutations
MAX_PATTERN_CELLS = 1 << 22


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class Decomposition:
    """Frame expansion of a capacity matrix.

    ``permutations`` is the read-only (m*F, k) int64 array whose row r is
    the r-th extracted matching, giving the output column of each input;
    consecutive groups of m rows form the per-slot patterns.  ``patterns`` is
    the read-only (K, k, k) array of the distinct slot patterns in order of
    first occurrence, held in ``np.min_scalar_type(m)`` as no entry exceeds
    m, and the read-only (F,) int64 ``frame`` maps each slot to its
    pattern's index.  ``states`` pairs each pattern, a view of ``patterns``,
    with its rational frequency.
    """

    capacity: CapacityMatrix
    permutations: np.ndarray
    patterns: np.ndarray
    frame: np.ndarray
    states: tuple[tuple[np.ndarray, Fraction], ...] = field(init=False)

    def __post_init__(self) -> None:
        f = self.capacity.frame_size
        uses = np.bincount(self.frame, minlength=len(self.patterns)).tolist()
        object.__setattr__(self, "states", tuple((p, Fraction(c, f)) for p, c in zip(self.patterns, uses)))

    @property
    def state_count(self) -> int:
        return len(self.states)

    def reconstruct(self) -> list[list[Fraction]]:
        """Exact weighted sum of the states; equals the capacity matrix.  One
        Fraction is built per distinct cell value and shared by its cells."""
        k, f = self.capacity.size, self.capacity.frame_size
        uses = np.bincount(self.frame, minlength=len(self.patterns))
        # einsum casts the narrow patterns a buffer at a time: no int64 copy of them
        total = np.einsum("s,sc->c", uses, self.patterns.reshape(len(uses), k * k)).reshape(k, k).tolist()
        frac = {v: Fraction(v, f) for v in set().union(*total)}
        return [list(map(frac.__getitem__, row)) for row in total]


def bvn_decompose(capacity: CapacityMatrix) -> Decomposition:
    """Expand F*C into m*F permutations by peeled matchings and group them
    m at a time into per-slot connection patterns.

    The grouping is extraction order; equal patterns collapse into states
    with weight multiplicity/F, so the state count never exceeds F (a
    minimal-state regrouping could do no worse than k^2 - 2k + 2).
    """
    f, k, m = capacity.frame_size, capacity.size, capacity.modules
    if f * k * max(k, m) > MAX_PATTERN_CELLS:
        raise ResourceLimitError(f"F * k * max(k, m) = {f * k * max(k, m)} cells exceed {MAX_PATTERN_CELLS}")
    # full-multiplicity peels keep identical slots adjacent: few grouped states
    perms = peel_matchings(capacity.scaled)
    # row s: the cells (input i, output perms[r, i]) of slot s's m rows r, as i * k + output;
    # sorted, they are the multiset its summed pattern counts, so equal keys mean equal patterns
    keys = (np.arange(k) * k + perms).reshape(f, m * k)
    keys.sort(axis=1)  # in place: one (F, m * k) array, not two
    index: dict[bytes, int] = {}  # state ids in order of first occurrence
    frame = np.array([index.setdefault(c.tobytes(), len(index)) for c in keys], dtype=np.int64)
    _, first = np.unique(frame, return_index=True)
    cells = ((np.arange(len(first)) * k * k)[:, None] + keys[first]).ravel()  # ascending: each state's first slot
    ends = np.flatnonzero(np.diff(cells, append=-1))  # the last cell of each run of equal cells
    patterns = np.zeros((len(first), k, k), dtype=np.min_scalar_type(m))
    patterns.flat[cells[ends]] = np.diff(ends, prepend=-1)  # a run's length, at most m
    perms.flags.writeable = patterns.flags.writeable = frame.flags.writeable = False
    return Decomposition(capacity=capacity, permutations=perms, patterns=patterns, frame=frame)


def _transportation_round(frac: np.ndarray, row_need: np.ndarray, col_need: np.ndarray) -> np.ndarray:
    """0/1 matrix with prescribed line sums, preferring large fractional
    parts: unit-capacity bipartite flow, augmenting in fraction order."""
    k = frac.shape[0]
    order = np.argsort(-frac, axis=None, kind="stable")  # ties in row-major order
    x = np.zeros((k, k), dtype=np.int64)
    row_left = row_need.copy()
    col_left = col_need.copy()
    for i, j in zip(*np.unravel_index(order, (k, k))):
        if row_left[i] > 0 and col_left[j] > 0 and x[i, j] == 0:
            x[i, j] = 1
            row_left[i] -= 1
            col_left[j] -= 1
    # the greedy pass can strand demand; fix with augmenting paths on the
    # bipartite exchange graph (row with demand -> any j with x=0, then give
    # back j's unit from a row that can route elsewhere)
    while row_left.sum() > 0:
        start = int(np.argmax(row_left))
        # BFS over alternating add/remove moves; a column is searched as soon
        # as it is reached, which keeps the rows in breadth-first order
        col_from = np.full(k, -1)  # the row that reached each column
        row_from = np.full(k, -1)  # the column that reached each row
        row_from[start] = k  # reached, by no column
        rows = deque([start])
        goal = -1
        while rows:
            i = rows.popleft()
            cols = np.flatnonzero((x[i] == 0) & (col_from < 0))
            col_from[cols] = i
            spare = cols[col_left[cols] > 0]
            if spare.size:
                goal = int(spare[0])
                break
            for j in cols:
                reached = np.flatnonzero((x[:, j] == 1) & (row_from < 0))
                row_from[reached] = j
                rows.extend(reached.tolist())
        if goal < 0:
            raise PreconditionError("infeasible rounding: cannot preserve line sums")
        j = goal
        while True:
            i = col_from[j]
            x[i, j] = 1
            if i == start:
                break
            j = row_from[i]
            x[i, j] = 0
        row_left[start] -= 1
        col_left[goal] -= 1
    return x


def bandlimit_and_round(capacity: np.ndarray, f_target: int, *, modules: int) -> tuple[CapacityMatrix, float]:
    """Quantize a float capacity matrix with line sums ``modules`` to
    denominator ``f_target`` while keeping every row and column sum at
    exactly modules * f_target.

    Entries move by less than one frame unit, so the reported maximum
    round-off error is at most 1/f_target.  Returns ``(rounded
    CapacityMatrix, max_abs_error)``.
    """
    check_count(f_target, 1, "target frame size must be >= 1")
    check_count(modules, 1, "module count must be >= 1")
    total = int(modules) * int(f_target)  # each line sum of the result, in Python ints
    if total > np.iinfo(np.int64).max:
        raise ResourceLimitError("the target frame size times the module count exceeds the int64 range")
    cap = real_array(capacity, 2)
    if cap is None or not 0 < len(cap) == cap.shape[1]:
        raise PreconditionError("capacities must be a nonempty square matrix of finite real numbers")
    with np.errstate(over="ignore"):  # an entry past the double range becomes inf, refused below
        target = cap * f_target
    if not (abs(target) < 2.0**63).all():  # before the int64 cast below, which such an entry would overflow
        raise PreconditionError("a capacity times the target frame size exceeds the int64 range")
    base = np.floor(target + 1e-9).astype(np.int64)
    row_need = total - base.sum(axis=1)
    col_need = total - base.sum(axis=0)
    if (row_need < 0).any() or (col_need < 0).any() or row_need.sum() != col_need.sum():
        raise PreconditionError("input line sums are not m (cannot round)")
    scaled = base + _transportation_round(target - base, row_need, col_need)
    return CapacityMatrix.from_integer_matrix(scaled, f_target), float(np.abs(cap - scaled / f_target).max())
