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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .closmodel import ClosSpec
from .errors import ConvergenceError, DomainError, PreconditionError, ResourceLimitError, integer_array, is_integer
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


@dataclass(frozen=True)
class TrafficMatrix:
    """Arrival rates (packets/slot) between input and output modules."""

    rates: tuple[tuple[float, ...], ...]
    spec: ClosSpec

    @staticmethod
    def check_size(k: int) -> None:
        """Refuse k x k rates above MAX_TRAFFIC_CELLS, before any is drawn."""
        if k * k > MAX_TRAFFIC_CELLS:
            raise ResourceLimitError(f"a {k}x{k} traffic matrix exceeds {MAX_TRAFFIC_CELLS} cells")

    def __post_init__(self) -> None:
        k = self.spec.k
        self.check_size(k)
        if len(self.rates) != k or any(len(row) != k for row in self.rates):
            raise PreconditionError(f"traffic matrix must be {k}x{k}")
        if any(not 0 <= v < np.inf for row in self.rates for v in row):  # NaN fails too
            raise PreconditionError("arrival rates must be finite and nonnegative")
        arr = np.asarray(self.rates)
        limit = min(self.spec.n, self.spec.m)
        if arr.sum(axis=1).max() >= limit or arr.sum(axis=0).max() >= limit:
            raise PreconditionError(
                "row and column sums must stay below the module port count"
            )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rates, dtype=float)


class CapacityMatrix:
    """k x k rate matrix C with exact rational entries over denominator F.

    Held as the read-only int64 matrix F * C, whose every row and column
    sums to m * F, i.e. C is doubly stochastic scaled by the central module
    count m.  ``entries`` is the Fraction view of the same matrix.
    """

    def __init__(self, entries: Sequence[Sequence[Fraction]], frame_size: int):
        if not is_integer(frame_size) or frame_size < 1:  # before it scales an entry
            raise DomainError("frame size must be an integer >= 1")
        scaled = [[Fraction(v) * frame_size for v in row] for row in entries]
        if any(x.denominator != 1 for row in scaled for x in row):
            raise PreconditionError("entries times frame size must be integers")
        self._set_scaled([[x.numerator for x in row] for row in scaled], frame_size)

    def _set_scaled(self, scaled: Sequence[Sequence[int]], frame_size: int) -> None:
        if not is_integer(frame_size) or frame_size < 1:  # F may exceed int64
            raise DomainError("frame size must be an integer >= 1")
        k = len(scaled)
        if k == 0 or any(len(row) != k for row in scaled):
            raise PreconditionError("capacity matrix must be square")
        arr = integer_array(scaled, 2)
        if arr is None:
            raise PreconditionError("entries of F * C must be integers")
        if (abs(arr) > np.iinfo(np.int64).max // k).any():
            raise ResourceLimitError("line sums of F * C exceed the int64 range")
        if (arr < 0).any():
            raise PreconditionError("capacities must be nonnegative")
        total = int(arr[0].sum())
        if (arr.sum(axis=0) != total).any() or (arr.sum(axis=1) != total).any():
            raise PreconditionError("row and column sums must all be equal")
        if total % frame_size:
            raise PreconditionError("line sums must be an integer multiple of F")
        self._scaled = arr.copy()  # the caller's array is not shared
        self._scaled.flags.writeable = False
        self.frame_size = frame_size
        self.modules = total // frame_size

    @classmethod
    def from_integer_matrix(cls, scaled: Sequence[Sequence[int]], frame_size: int) -> "CapacityMatrix":
        cap = cls.__new__(cls)
        cap._set_scaled(scaled, frame_size)
        return cap

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        f = self.frame_size
        return tuple(tuple(Fraction(v, f) for v in row) for row in self._scaled.tolist())

    @property
    def size(self) -> int:
        return len(self._scaled)

    def scaled_int(self) -> np.ndarray:
        return self._scaled.copy()

    def as_float(self) -> np.ndarray:
        return self._scaled / self.frame_size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CapacityMatrix) and self.entries == other.entries

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
    lam = traffic.as_array()
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

    ``capacity`` is a float matrix such as :func:`allocate_capacity`
    returns; every entry must strictly exceed the corresponding rate
    (stability).
    """
    cap = np.asarray(capacity, dtype=float)
    if not np.isfinite(cap).all():
        raise PreconditionError("capacities must be finite")
    lam = traffic.as_array()
    gap = cap - lam
    loaded = lam > 0
    if (gap[loaded] <= 0).any() or (gap < 0).any():
        raise DomainError("unstable path: capacity must exceed the rate entrywise")
    return float((lam[loaded] / gap[loaded]).sum())


def optimal_delay_2x2(traffic: TrafficMatrix) -> float:
    """Numeric oracle: optimal weighted delay over all 2x2 allocations with
    line sums m, by golden-section search on the single free parameter."""
    lam = traffic.as_array()
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


@dataclass(frozen=True)
class Decomposition:
    """Frame expansion of a capacity matrix.

    ``permutations`` is an (m*F, k) array whose row r is the r-th extracted
    matching, giving the output column of each input; consecutive groups of
    m rows form the per-slot patterns.  ``states`` holds the distinct
    patterns in order of first occurrence with their rational frequencies,
    and ``frame`` maps each slot to its state index.
    """

    capacity: CapacityMatrix
    permutations: np.ndarray
    states: tuple[tuple[np.ndarray, Fraction], ...]
    frame: tuple[int, ...]

    @property
    def state_count(self) -> int:
        return len(self.states)

    def slot_patterns(self) -> list[np.ndarray]:
        return [self.states[i][0] for i in self.frame]

    def reconstruct(self) -> list[list[Fraction]]:
        """Exact weighted sum of the states; equals the capacity matrix."""
        counts = np.bincount(self.frame, minlength=self.state_count)
        total = np.tensordot(counts, np.stack([p for p, _ in self.states]), axes=1)
        f = self.capacity.frame_size
        return [[Fraction(v, f) for v in row] for row in total.tolist()]


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
    perms = peel_matchings(capacity.scaled_int())
    # cell (slot r // m, input i, output perms[r, i]) of the flat pattern array
    cells = ((np.arange(m * f) // m)[:, None] * k + np.arange(k)) * k + perms
    patterns = np.bincount(cells.ravel(), minlength=f * k * k).reshape(f, k * k)
    index: dict[bytes, int] = {}  # state ids in order of first occurrence
    frame = np.array([index.setdefault(p.tobytes(), len(index)) for p in patterns])
    _, first = np.unique(frame, return_index=True)
    states = tuple(
        (patterns[t].reshape(k, k), Fraction(int(c), f)) for t, c in zip(first, np.bincount(frame))
    )
    return Decomposition(
        capacity=capacity,
        permutations=perms,
        states=states,
        frame=tuple(frame.tolist()),
    )


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
    if f_target < 1:
        raise DomainError("target frame size must be >= 1")
    cap = np.asarray(capacity, dtype=float)
    if not np.isfinite(cap).all():  # before the int64 cast below, which NaN and inf would trip
        raise PreconditionError("capacities must be finite")
    target = cap * f_target
    base = np.floor(target + 1e-9).astype(np.int64)
    row_need = modules * f_target - base.sum(axis=1)
    col_need = modules * f_target - base.sum(axis=0)
    if (row_need < 0).any() or (col_need < 0).any() or row_need.sum() != col_need.sum():
        raise PreconditionError("input line sums are not m (cannot round)")
    scaled = base + _transportation_round(target - base, row_need, col_need)
    return CapacityMatrix.from_integer_matrix(scaled, f_target), float(np.abs(cap - scaled / f_target).max())
