"""Parity-check codes on bipartite constraint graphs and the sequential
flip decoder, plus a brute-force neighborhood-expansion checker.

Variables are left vertices, parity constraints right vertices.  A variable
flips only on a *strict* majority of unsatisfied neighbours (ties stay put),
which guarantees the unsatisfied count drops with every flip and the decoder
terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, PreconditionError, ResourceLimitError
from .matching import BipartiteGraph

__all__ = [
    "TannerCode",
    "DecodeResult",
    "ExpansionVerdict",
    "is_codeword",
    "flip_decode",
    "expansion_check",
]

# the exhaustive expansion scan over left subsets stops at this many left vertices
EXHAUSTIVE_LEFT_LIMIT = 20


@dataclass(frozen=True, init=False)
class TannerCode:
    """Binary linear code given by a 0/1 parity matrix (constraints x vars),
    held as one int bitmask per constraint: bit v of ``rows[c]`` is the
    entry of variable v.  ``columns`` holds the same matrix by variable:
    bit c of ``columns[v]`` is the entry of constraint c."""

    n_variables: int
    rows: tuple[int, ...]
    columns: tuple[int, ...]

    def __init__(self, parity: Sequence[Sequence[int]]) -> None:
        bits = [[int(b) for b in row] for row in parity]
        widths = {len(row) for row in bits}
        if len(widths) != 1:
            raise PreconditionError("parity rows must share one width")
        if any(bit not in (0, 1) for row in bits for bit in row):
            raise PreconditionError("parity entries must be 0/1")
        object.__setattr__(self, "n_variables", widths.pop())
        object.__setattr__(self, "rows", tuple(_word_mask(row) for row in bits))
        object.__setattr__(self, "columns", tuple(_word_mask(col) for col in zip(*bits)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "TannerCode":
        return cls(rows)

    @property
    def parity(self) -> tuple[tuple[int, ...], ...]:
        """The 0/1 matrix, a view of the row bitmasks."""
        return tuple(_mask_word(row, self.n_variables) for row in self.rows)

    @property
    def n_constraints(self) -> int:
        return len(self.rows)

    def graph(self) -> BipartiteGraph:
        """Incidence graph: variables on the left, constraints on the right."""
        edges = [(v, c) for c, row in enumerate(self.rows) for v in range(self.n_variables) if row >> v & 1]
        return BipartiteGraph.from_edges(self.n_variables, self.n_constraints, edges)

    def syndrome(self, word: Sequence[int]) -> list[int]:
        if len(word) != self.n_variables:
            raise DomainError("word length does not match the code")
        w = _word_mask(word)
        return [(row & w).bit_count() & 1 for row in self.rows]

    def enumerate_codewords(self) -> list[tuple[int, ...]]:
        """All codewords in ascending order of their bitmask (bit v for
        variable v) by exhaustive scan; exponential, so capped."""
        n = self.n_variables
        if n > 16:
            raise ResourceLimitError("codeword enumeration capped at 16 variables")
        return [_mask_word(w, n) for w in range(1 << n)
                if not any((row & w).bit_count() & 1 for row in self.rows)]


def _word_mask(word: Sequence[int]) -> int:
    """Bitmask of a binary word: bit v is word[v] mod 2."""
    return sum((int(x) & 1) << v for v, x in enumerate(word))


def _mask_word(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> v & 1 for v in range(n))


def is_codeword(code: TannerCode, word: Sequence[int]) -> bool:
    """True iff every constraint sums to zero mod 2."""
    return not any(code.syndrome(word))


@dataclass(frozen=True)
class DecodeResult:
    word: tuple[int, ...]
    success: bool
    flips: tuple[int, ...]  # variable flipped at each round
    unsatisfied_trace: tuple[int, ...]  # count before each flip, then final


def flip_decode(code: TannerCode, received: Sequence[int]) -> DecodeResult:
    """Sequential flip decoding: while some variable sees strictly more
    unsatisfied than satisfied neighbouring constraints, flip the
    lowest-indexed such variable.  Each flip lowers the unsatisfied count,
    so the loop ends within ``n_constraints`` rounds.  Success means the
    result is a codeword; a stuck state is reported as failure, never raised.
    """
    if len(received) != code.n_variables:
        raise DomainError("received length does not match the code")
    word = _word_mask(received)
    unsat = _word_mask(code.syndrome(received))
    neighbours = code.columns  # variable -> bitmask of its constraints
    flips: list[int] = []
    trace = [unsat.bit_count()]
    while unsat:
        candidate = next((v for v, nb in enumerate(neighbours)
                          if 2 * (unsat & nb).bit_count() > nb.bit_count()), -1)
        if candidate < 0:
            break
        word ^= 1 << candidate
        unsat ^= neighbours[candidate]
        flips.append(candidate)
        if unsat.bit_count() >= trace[-1]:  # pragma: no cover - excluded by flip rule
            raise AssertionError("flip failed to reduce unsatisfied count")
        trace.append(unsat.bit_count())
    return DecodeResult(
        word=_mask_word(word, code.n_variables),
        success=not unsat,
        flips=tuple(flips),
        unsatisfied_trace=tuple(trace),
    )


@dataclass(frozen=True)
class ExpansionVerdict:
    satisfied: bool
    threshold: float  # required |N(A)| > threshold * |A|
    worst_subset: tuple[int, ...]
    worst_ratio: float  # min over scanned subsets of |N(A)| / |A|


def expansion_check(g: BipartiteGraph, k: int, alpha: float) -> ExpansionVerdict:
    """Scan every left subset A with |A| <= alpha * |V_L| and test
    |N(A)| > (3k/4) |A|, for a graph k-regular on the left.

    Exhaustive, hence limited to EXHAUSTIVE_LEFT_LIMIT left vertices.
    Returns the subset with the smallest neighborhood-to-size ratio along
    with the verdict.
    """
    if g.left_count > EXHAUSTIVE_LEFT_LIMIT:
        raise ResourceLimitError(
            f"exhaustive expansion scan capped at {EXHAUSTIVE_LEFT_LIMIT} left vertices"
        )
    degrees = g.left_degrees()
    if any(d != k for d in degrees):
        raise PreconditionError(f"graph is not left-regular of degree {k}")
    max_size = int(alpha * g.left_count)
    if max_size < 1:
        raise DomainError("alpha admits no nonempty subsets")
    need = 0.75 * k
    masks = g.neighbor_masks()
    worst: tuple[int, ...] = ()
    worst_ratio = float("inf")
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(g.left_count), size):
            nb = 0
            for v in subset:
                nb |= masks[v]
            if nb.bit_count() / size < worst_ratio:
                worst, worst_ratio = subset, nb.bit_count() / size
    return ExpansionVerdict(
        satisfied=worst_ratio > need, threshold=need, worst_subset=worst, worst_ratio=worst_ratio
    )
