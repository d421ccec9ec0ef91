"""Frame schedulers over a weighted state set and their smoothness metrics.

Weights are held as integer counts over the frame size F, and the schedulers
compare finish times exactly in integers so ties are decided deterministically
(lowest state index wins every tie; this single rule reproduces all the
worked traces this module is validated against).  Smoothness uses base-2
logs, and inter-state / inter-token times are measured circularly around the
frame so they always sum to F.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ResourceLimitError, check_count, integer_array
from .pathswitch import CapacityMatrix

__all__ = [
    "WeightSet",
    "FrameSequence",
    "SmoothnessReport",
    "Wf2qTrace",
    "TokenGrid",
    "TwoDimReport",
    "schedule_wfq",
    "wfq_trace",
    "schedule_wf2q",
    "wf2q_trace",
    "schedule_hurr",
    "SCHEDULERS",
    "schedule_random",
    "smoothness",
    "entropy",
    "random_sequence_smoothness",
    "expected_random_smoothness_gap",
    "grid_from_schedule",
    "smoothness_2d",
    "entropy_2d",
]


# the frame schedulers refuse K * F above this: wfq_trace and wf2q_trace hold K finish times a slot
MAX_FRAME_CELLS = 1 << 20
# grid_from_schedule gates, checks and transposes this many slots at a time
_SLOT_BLOCK = 32
# schedule_random refuses more slots than this before any draw: a call holds
# about 16 bytes a slot, and the CLI's smoothness estimate 32 more
MAX_RANDOM_SLOTS = 1 << 22


@dataclass(frozen=True, init=False)
class WeightSet:
    """State weights phi_1..phi_K: positive rationals summing to one, held
    as the integer counts c_i = phi_i * F over their least common
    denominator F, the frame size."""

    counts: tuple[int, ...]
    frame_size: int

    def __init__(self, weights: Iterable) -> None:
        fracs = [Fraction(w) for w in weights]
        if not fracs:
            raise PreconditionError("need at least one weight")
        if any(w.numerator <= 0 for w in fracs):  # a Fraction's denominator is positive
            raise PreconditionError("weights must be positive")
        f = math.lcm(*(w.denominator for w in fracs))
        counts = tuple(w.numerator * (f // w.denominator) for w in fracs)
        if sum(counts) != f:
            raise PreconditionError("weights must sum to one")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "frame_size", f)

    @classmethod
    def of(cls, *values) -> "WeightSet":
        """Build from ints/strings/Fractions; '0.1' parses exactly."""
        return cls(values)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.frame_size) for c in self.counts)

    def as_float(self) -> list[float]:
        return [c / self.frame_size for c in self.counts]

    def __len__(self) -> int:
        return len(self.counts)


def _frame_size(weights: WeightSet) -> int:
    """F, refused before a frame is built when K * F exceeds MAX_FRAME_CELLS."""
    f = weights.frame_size
    if len(weights) * f > MAX_FRAME_CELLS:
        raise ResourceLimitError(f"K * F = {len(weights) * f} slot-states exceed {MAX_FRAME_CELLS}")
    return f


@dataclass(frozen=True)
class FrameSequence:
    """One frame: slot t holds the index of the state served there."""

    slots: tuple[int, ...]


def _log_rms(sum_sq: int, count: int) -> float:
    """log2 of the root mean square of ``count`` gaps whose squares sum to
    ``sum_sq``."""
    return 0.5 * math.log2(sum_sq / count)


def _circular_log_rms(path: np.ndarray, slot: np.ndarray, counts: np.ndarray, f: int) -> tuple[np.ndarray, list]:
    """The occupied paths and the :func:`_log_rms` of each one's circular
    gaps.  ``path`` and ``slot`` list the occupied cells, path-major with
    slots ascending; path p holds ``counts[p]`` tokens over ``f`` slots.  A
    path's gaps sum to ``f``: the one to its first slot wraps round from its
    last, and the extra tokens of a cell add zero gaps."""
    first = np.flatnonzero(np.diff(path, prepend=-1))
    gaps = np.diff(slot, prepend=0)
    gaps[first] = slot[first] + f - slot[np.roll(first, -1) - 1]
    sum_sq = np.add.reduceat(gaps * gaps, first) if path.size else gaps
    paths = path[first]
    return paths, [_log_rms(ss, n) for ss, n in zip(sum_sq.tolist(), counts[paths].tolist())]


def _finish_times(served: Sequence[int], counts: Sequence[int], f: int) -> tuple[Fraction, ...]:
    """Virtual finish times (served_i + 1) / phi_i of the next services."""
    return tuple(Fraction((s + 1) * f, c) for s, c in zip(served, counts))


def _wfq_order(counts: Sequence[int]) -> list[int]:
    """The weighted-fair-queueing frame of integer counts c_i over
    F = sum(c): state i's s-th service finishes at (s + 1) F / c_i, and
    serving the smallest finish time first (lowest index on ties) fills the
    frame with exactly the F services finishing by F, in that order.
    floor((s + 1) F^2 / c_i) orders these finish times exactly, since two
    distinct ones differ by at least F / (c_i c_j) >= 1 / F."""
    f = sum(counts)
    return [i for _, i in sorted(((s + 1) * f * f // c, i) for i, c in enumerate(counts) for s in range(c))]


def schedule_wfq(weights: WeightSet) -> FrameSequence:
    """Weighted fair queueing over one frame."""
    _frame_size(weights)
    return FrameSequence(tuple(_wfq_order(weights.counts)))


def wfq_trace(weights: WeightSet) -> list[tuple[tuple[Fraction, ...], int]]:
    """Per slot of the WFQ frame: the finish times entering the slot and the
    chosen state."""
    f = _frame_size(weights)
    served = [0] * len(weights)
    trace = []
    for pick in _wfq_order(weights.counts):
        trace.append((_finish_times(served, weights.counts, f), pick))
        served[pick] += 1
    return trace


@dataclass(frozen=True)
class Wf2qTrace:
    """Per-slot record: finish times entering the slot, the qualified set and the chosen state."""

    finish: tuple[Fraction, ...]
    qualified: tuple[int, ...]
    selection: int


def _wf2q_steps(weights: WeightSet) -> Iterator[tuple[list[int], list[tuple[int, int]], int]]:
    """Per slot tau of the WF2Q frame: the services so far and the qualified
    states as a heap of (finish rank, state), both updated in place after the
    yield, and the state served.  State i qualifies once its virtual start
    is at most the slot's start, served_i * F <= (tau - 1) * c_i (Bennett &
    Zhang, INFOCOM 1996); the least finish rank of :func:`_wfq_order` wins,
    lowest index on ties.  A served state waits in ``pending`` until slot
    ceil(served_i F / c_i) + 1, as in WF2Q+ (SIGCOMM 1996): O(F log K)."""
    f = _frame_size(weights)
    counts = weights.counts
    served = [0] * len(counts)
    ready, pending = sorted((f * f // c, i) for i, c in enumerate(counts)), []  # a sorted list is a heap
    for tau in range(1, f + 1):
        while pending and pending[0][0] <= tau:
            i = heapq.heappop(pending)[1]
            heapq.heappush(ready, ((served[i] + 1) * f * f // counts[i], i))
        yield served, ready, ready[0][1]
        pick = heapq.heappop(ready)[1]
        served[pick] += 1
        if served[pick] < counts[pick]:
            heapq.heappush(pending, (-(-served[pick] * f // counts[pick]) + 1, pick))


def schedule_wf2q(weights: WeightSet) -> FrameSequence:
    """WFQ restricted per slot to the states already started in the fluid reference system."""
    return FrameSequence(tuple(pick for _, _, pick in _wf2q_steps(weights)))


def wf2q_trace(weights: WeightSet) -> list[Wf2qTrace]:
    return [Wf2qTrace(_finish_times(served, weights.counts, weights.frame_size),
                      tuple(sorted(i for _, i in ready)), pick)
            for served, ready, pick in _wf2q_steps(weights)]


def schedule_hurr(weights: WeightSet) -> FrameSequence:
    """Huffman round robin: merge the two lightest nodes (ties by lowest
    contained state index) until one is left; a merge interleaves the frames
    of its left and right nodes in the two-state WFQ order of their counts.
    The k-th slot of a node takes the k-th entry of its frame, so this
    equals expanding the tree top-down by substitution."""
    if len(weights) < 2:
        raise DomainError("tree scheduling needs at least two states")
    _frame_size(weights)
    # a node is (count, lowest contained state, its frame): no two tie on the first two
    heap = [(c, i, [i] * c) for i, c in enumerate(weights.counts)]
    heapq.heapify(heap)
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        left, right = (a, b) if a[1] < b[1] else (b, a)
        frames = iter(left[2]), iter(right[2])
        merged = [next(frames[pick]) for pick in _wfq_order([left[0], right[0]])]
        heapq.heappush(heap, (a[0] + b[0], left[1], merged))
    return FrameSequence(tuple(heap[0][2]))


SCHEDULERS = {"wfq": schedule_wfq, "wf2q": schedule_wf2q, "hurr": schedule_hurr}


def schedule_random(weights: WeightSet, slots: int, seed: int = 0) -> np.ndarray:
    """Memoryless scheduling: each slot draws a state i.i.d. with the given
    probabilities, returned as an int64 array.  No frame structure is kept."""
    check_count(slots, 1, "need at least one slot")
    if slots > MAX_RANDOM_SLOTS:
        raise ResourceLimitError(f"{slots} slots exceed {MAX_RANDOM_SLOTS}")
    check_count(seed, 0, "seed must be an integer >= 0")
    rng = np.random.default_rng(seed)
    return rng.choice(len(weights), size=slots, p=weights.as_float())


@dataclass(frozen=True)
class SmoothnessReport:
    """Per-state and average log-RMS interstate times (bits), with the
    entropy floor and the Kraft sum of the per-state values."""

    per_state: tuple[float, ...]
    average: float
    entropy: float
    kraft_sum: float


def entropy(weights: WeightSet) -> float:
    """Base-2 entropy of the weight distribution."""
    return 0.0 - sum(w * math.log2(w) for w in weights.as_float())  # 0.0, not -0.0, for one weight


def smoothness(seq: FrameSequence, weights: WeightSet) -> SmoothnessReport:
    """Smoothness of a frame: per state, log2 of the RMS circular interstate
    time; averaged with the state weights.  Kraft sum <= 1 and average >=
    entropy for every valid frame, with equality exactly at constant gaps
    1/phi."""
    f, k = weights.frame_size, len(weights)
    if len(seq.slots) != f:
        raise DomainError("sequence length differs from the frame size")
    slots = integer_array(seq.slots, 1)
    if slots is None or not ((0 <= slots) & (slots < k)).all():
        raise DomainError("slots hold unknown states")
    seen = tuple(np.bincount(slots, minlength=k).tolist())
    if seen != weights.counts:
        raise DomainError(f"state counts {seen} do not match weights {weights.counts}")
    order = np.argsort(slots, kind="stable")
    _, per = _circular_log_rms(slots[order], order, np.array(seen), f)
    avg = sum(w * l for w, l in zip(weights.as_float(), per))
    kraft = sum(2.0 ** (-l) for l in per)
    return SmoothnessReport(per_state=tuple(per), average=avg, entropy=entropy(weights), kraft_sum=kraft)


def random_sequence_smoothness(seq: Sequence[int] | np.ndarray, weights: WeightSet) -> float:
    """Empirical smoothness of an unframed sequence: consecutive
    inter-occurrence gaps are the samples, weighted by the nominal phis."""
    arr = integer_array(seq, 1)
    if arr is None or not ((0 <= arr) & (arr < len(weights))).all():
        raise DomainError("sequence holds unknown states")
    total = 0.0
    for i, w in enumerate(weights.as_float()):
        pos = np.nonzero(arr == i)[0]
        if pos.size < 2:
            raise DomainError(f"state {i} occurs too rarely to estimate")
        gaps = np.diff(pos).astype(float)
        total += w * 0.5 * math.log2(float((gaps**2).mean()))
    return total


def expected_random_smoothness_gap(weights: WeightSet) -> float:
    """Analytic excess of memoryless scheduling over the entropy floor:
    (1/2) sum phi_i log2(2 - phi_i), always below 1/2."""
    return 0.5 * sum(w * math.log2(2.0 - w) for w in weights.as_float())


# --- two-dimensional (token grid) smoothness --------------------------------

# TokenGrid's text form names input module i by the i-th letter
GRID_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class TokenGrid:
    """Frame of granted connections: ``tokens[i, j, t]`` counts the tokens
    of path (input module i, output module j) in slot t (more than one when
    several central modules serve the same virtual path in one slot).
    ``tokens`` is read-only and held in the narrowest unsigned dtype of its
    largest count (of the module count m, from :func:`grid_from_schedule`),
    checked here to hold nonnegative integer counts; a caller's array in
    another dtype, writable or a view of another array is copied."""

    tokens: np.ndarray  # (inputs, outputs, slots)

    def __post_init__(self) -> None:
        tokens = self.tokens
        narrow = isinstance(tokens, np.ndarray) and tokens.dtype.kind == "u" and tokens.itemsize < 8
        if not (narrow and tokens.ndim == 3):  # an unsigned array narrower than 64 bits is nonnegative by its type
            tokens = integer_array(tokens, 3)
            if tokens is None or (tokens < 0).any():
                raise PreconditionError("tokens must be a 3-D array of nonnegative integer counts")
        dtype = np.min_scalar_type(tokens.max(initial=0))
        if tokens.dtype != dtype or tokens.flags.writeable or tokens.base is not None:  # or the caller could change it
            tokens = tokens.astype(dtype)
        tokens.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)

    @property
    def n_inputs(self) -> int:
        return self.tokens.shape[0]

    @property
    def frame_size(self) -> int:
        return self.tokens.shape[2]

    def token_counts(self) -> np.ndarray:
        return self.tokens.sum(axis=2, dtype=np.int64)

    def to_text(self) -> str:
        if self.n_inputs > len(GRID_SYMBOLS):
            raise DomainError(f"{self.n_inputs} input modules exceed the {len(GRID_SYMBOLS)} grid symbols")
        return "\n".join(" ".join("".join(GRID_SYMBOLS[i] * c for i, c in enumerate(counts)) or "-" for counts in row)
                         for row in self.tokens.transpose(1, 2, 0).tolist())

    @classmethod
    def from_text(cls, text: str) -> "TokenGrid":
        """Read the :meth:`to_text` format; a cell's symbols are read as a
        multiset of inputs, in any order."""
        lines = [line.split() for line in text.strip().splitlines()]
        unknown = {ch for line in lines for token in line if token != "-" for ch in token} - set(GRID_SYMBOLS)
        if unknown:
            raise PreconditionError(f"grid symbol {min(unknown)!r} is not a letter a-z")
        rows = [[[] if token == "-" else [GRID_SYMBOLS.index(ch) for ch in token] for token in line] for line in lines]
        if len({len(r) for r in rows}) != 1:
            raise PreconditionError("grid rows must share one frame size")
        n_inputs = max((i + 1 for row in rows for cell in row for i in cell), default=0)
        counts = [[np.bincount(cell, minlength=n_inputs) for cell in row] for row in rows]
        return cls(np.array(counts, dtype=np.int64).transpose(2, 0, 1))


def grid_from_schedule(patterns: Iterable[np.ndarray]) -> TokenGrid:
    """Token grid of a frame of connection patterns.

    Each slot pattern is a nonnegative integer matrix whose rows are inputs
    and columns outputs, with every line summing to the same m (a sum of m
    permutation matrices); entry (i, j) grants that many tokens to the path.
    The grid is held in ``np.min_scalar_type(m)``: each block of
    ``_SLOT_BLOCK`` slots passes the integer gate and its checks, then is
    cast in as one 2-D transpose, so no int64 copy of the whole frame is held.
    """
    mats = list(patterns)
    if not mats:
        raise DomainError("schedule holds no slots")
    tokens, sums_off, negative, above = None, False, False, False
    for start in range(0, len(mats), _SLOT_BLOCK):
        block = integer_array(mats[start:start + _SLOT_BLOCK], 3)  # (slots, rows, columns)
        if block is None or not 0 < block.shape[1] == block.shape[2] or \
                tokens is not None and block.shape[1:] != tokens.shape[:2]:
            raise PreconditionError("patterns must be nonempty square integer matrices of one shape")
        if tokens is None:
            m = sum(block[0, :, 0].tolist())  # in Python ints: the int64 line sums below hold k entries <= m
            if m > np.iinfo(np.int64).max // len(block[0]):
                raise ResourceLimitError("the module count times the pattern size exceeds the int64 range")
            tokens = np.empty((*block.shape[1:], len(mats)), dtype=np.min_scalar_type(m))
        sums_off = sums_off or (np.einsum("sij->si", block) != m).any() or (np.einsum("sij->sj", block) != m).any()
        negative, above = negative or block.min() < 0, above or block.max() > m
        if not (sums_off or negative or above):  # the narrowing cast cannot wrap
            tokens.reshape(-1, len(mats))[:, start:start + len(block)] = block.reshape(len(block), -1).T
    # shape first, then line sums, then sign; above m with no entry negative, a line sum wrapped in int64
    if sums_off or above and not negative:
        raise PreconditionError("patterns must have every line sum equal to the module count")
    if negative:
        raise PreconditionError("tokens must be a 3-D array of nonnegative integer counts")
    tokens.flags.writeable = False
    grid = TokenGrid.__new__(TokenGrid)  # checked above, and held in m's dtype rather than its largest count's
    object.__setattr__(grid, "tokens", tokens)
    return grid


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class TwoDimReport:
    """Per-path, per-module and total smoothness of a token grid."""

    path: np.ndarray  # d[i, j]; zero where the path holds no tokens
    input_smoothness: np.ndarray
    output_smoothness: np.ndarray
    total: float
    kraft_matrix: np.ndarray


def smoothness_2d(grid: TokenGrid, capacity: CapacityMatrix | None = None) -> TwoDimReport:
    """Two-dimensional smoothness of a token grid.

    Path weights are the token rates n_ij / F (checked against ``capacity``
    when given).  d_ij is the log-RMS circular inter-token time of the path,
    with zero gaps allowed for multi-token slots; module smoothness weights
    d_ij by the rates, and the Kraft matrix 2^-d is doubly sub-stochastic
    for a doubly stochastic rate matrix.
    """
    f = grid.frame_size
    counts = grid.token_counts()
    if capacity is not None and not capacity.has_rates(counts, f):
        raise DomainError("token counts disagree with the capacity matrix")
    path, slot = np.divmod(np.flatnonzero(grid.tokens > 0), f)
    paths, per = _circular_log_rms(path, slot, counts.ravel(), f)
    d = np.zeros(counts.shape)
    d.flat[paths] = per
    kraft = np.where(counts > 0, np.exp2(-d), 0.0)
    weighted = counts / f * d  # d_ij times its path's rate
    return TwoDimReport(path=d, input_smoothness=weighted.sum(axis=1), output_smoothness=weighted.sum(axis=0),
                        total=float(weighted.sum()), kraft_matrix=kraft)


def entropy_2d(capacity) -> tuple[np.ndarray, np.ndarray, float]:
    """Input-module entropies, output-module entropies and their common sum
    for a doubly stochastic rate matrix (a CapacityMatrix is normalized by
    its module count first).  Base 2; 0 log 0 counts as 0."""
    if isinstance(capacity, CapacityMatrix):
        c = capacity.as_float() / capacity.modules
    else:
        c = np.asarray(capacity, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError("rate matrix must be square")
    if not (np.allclose(c.sum(axis=0), 1.0, atol=1e-9) and np.allclose(c.sum(axis=1), 1.0, atol=1e-9)):
        raise DomainError("rate matrix must be doubly stochastic")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(c > 0, -c * np.log2(np.where(c > 0, c, 1.0)), 0.0)
    h_in = terms.sum(axis=1)
    h_out = terms.sum(axis=0)
    return h_in, h_out, float(terms.sum())
