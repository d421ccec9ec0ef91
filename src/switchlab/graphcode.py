"""Parity-check codes on bipartite constraint graphs and the sequential
flip decoder, plus an exhaustive neighborhood-expansion checker.

Variables are left vertices, parity constraints right vertices.  A variable
flips only on a *strict* majority of unsatisfied neighbours (ties stay put),
which guarantees the unsatisfied count drops with every flip and the decoder
terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ResourceLimitError, integer_array, is_integer
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
# set bits of each byte value
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


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
        bits = integer_array(parity, 2)
        if bits is None or not np.isin(bits, (0, 1)).all():
            raise PreconditionError("parity must be a 0/1 matrix with rows of one width")
        object.__setattr__(self, "n_variables", bits.shape[1])
        object.__setattr__(self, "rows", tuple(map(_word_mask, bits.tolist())))
        object.__setattr__(self, "columns", tuple(map(_word_mask, bits.T.tolist())))

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
        variable v): the span of a null-space basis from Gaussian
        elimination over GF(2); capped, as the span can hold 2^n words."""
        n = self.n_variables
        if n > 16:
            raise ResourceLimitError("codeword enumeration capped at 16 variables")
        reduced: dict[int, int] = {}  # pivot variable -> the one reduced row holding it
        for row in self.rows:
            for pivot, r in reduced.items():
                if row >> pivot & 1:
                    row ^= r
            if row:
                pivot = row.bit_length() - 1
                for other, r in reduced.items():
                    if r >> pivot & 1:
                        reduced[other] = r ^ row
                reduced[pivot] = row
        # a pivot variable is the parity of the free variables in its row
        words = [0]
        for free in range(n):
            if free not in reduced:
                basis = 1 << free | sum(1 << pivot for pivot, r in reduced.items() if r >> free & 1)
                words += [w ^ basis for w in words]
        return [_mask_word(w, n) for w in sorted(words)]


def _word_mask(word: Sequence[int]) -> int:
    """Bitmask of a binary word: bit v is word[v], which must be an integer 0 or 1."""
    if not all(is_integer(x) and 0 <= x <= 1 for x in word):
        raise DomainError("word entries must be integers 0 or 1")
    return sum(1 << v for v, x in enumerate(word) if x)


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
    unsat = sum(((row & word).bit_count() & 1) << c for c, row in enumerate(code.rows))  # the syndrome
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

    Every subset's neighbourhood comes from the recurrence N(S + {i}) =
    N(S) | N(i), one byte of the right side at a time.  Exhaustive, hence
    limited to EXHAUSTIVE_LEFT_LIMIT left vertices.  Returns the subset with
    the smallest neighborhood-to-size ratio along with the verdict; of equal
    ratios the smallest subset, then the first in ``itertools.combinations``
    order.
    """
    left = g.left_count
    if left > EXHAUSTIVE_LEFT_LIMIT:
        raise ResourceLimitError(
            f"exhaustive expansion scan capped at {EXHAUSTIVE_LEFT_LIMIT} left vertices"
        )
    degrees = g.left_degrees()
    if any(d != k for d in degrees):
        raise PreconditionError(f"graph is not left-regular of degree {k}")
    max_size = int(alpha * left)
    if max_size < 1:
        raise DomainError("alpha admits no nonempty subsets")
    need = 0.75 * k
    # bit i of a subset index stands for left vertex left - 1 - i, so that of
    # equal-size subsets the largest index is the first in combinations order
    masks = g.neighbor_masks()[::-1]
    sizes = np.zeros(1 << left, dtype=np.uint8)  # |S|
    counts = np.zeros(1 << left, dtype=np.int32)  # |N(S)|
    nb = np.zeros(1 << left, dtype=np.uint8)  # one byte of N(S)
    for i in range(left):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    for shift in range(0, g.right_count, 8):
        for i, mask in enumerate(masks):
            nb[1 << i : 2 << i] = nb[: 1 << i] | (mask >> shift & 0xFF)
        counts += _BYTE_BITS[nb]
    scanned = np.flatnonzero((sizes >= 1) & (sizes <= max_size))
    ratios = counts[scanned] / sizes[scanned]
    ties = scanned[ratios == ratios.min()]
    worst = int(ties[sizes[ties] == sizes[ties].min()].max())
    worst_ratio = int(counts[worst]) / int(sizes[worst])
    return ExpansionVerdict(
        satisfied=worst_ratio > need,
        threshold=need,
        worst_subset=tuple(v for v in range(left) if worst >> (left - 1 - v) & 1),
        worst_ratio=worst_ratio,
    )
