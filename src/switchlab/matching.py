"""Bipartite matching machinery: Hall condition, maximum matching, the
peeling of perfect matchings off regular count matrices (edge coloring and
the frame decomposition), Clos route assignment, the cycle-flip solver for
the outer stage of a Benes network, and the full Benes assignment, built
level by level as one array of 2x2 element states.

Multigraphs keep one entry per edge *instance* (stable index into the edge
list), so an edge coloring is well defined even with repeated endpoints.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, eq, index, ne

import numpy as np

from .closmodel import ClosSpec, RoutingTag
from .errors import DomainError, PreconditionError, ResourceLimitError, hold_array, integer_array, is_integer

__all__ = [
    "BipartiteGraph",
    "HallVerdict",
    "MatchingResult",
    "EdgeColoring",
    "CallRequestSet",
    "RouteSet",
    "BenesConstraintSystem",
    "BenesAssignment",
    "hall_check",
    "complete_matching",
    "peel_matchings",
    "edge_color",
    "clos_route_assignment",
    "verify_route_assignment",
    "benes_constraints",
    "benes_flip_assign",
    "benes_full_assign",
    "count_components",
    "count_solutions_bruteforce",
]

# edge_color refuses a vertex-pair count matrix of more cells than this before
# building it (k <= 2048 modules a side, the frame decomposition's k at F = 1),
# and peel_matchings a (d, k) result of more cells than this
MAX_COUNT_CELLS = 1 << 22


def _is_sequence(value: object) -> bool:
    """A list, tuple, range or array of at least one dimension: ``len`` and iteration work on it."""
    return isinstance(value, (list, tuple, range)) or isinstance(value, np.ndarray) and value.ndim > 0


def _pair_array(pairs: Sequence[Sequence[int]], bounds: tuple[int, int]) -> np.ndarray | None:
    """``pairs`` as an (E, 2) int64 array with column j in [0, bounds[j]), or None."""
    ends = integer_array(pairs, 2)
    if ends is None and _is_sequence(pairs) and not len(pairs):  # no row to take a width from
        ends = np.empty((0, 2), dtype=np.int64)
    ok = ends is not None and ends.shape[1] == 2 and ((0 <= ends) & (ends < bounds)).all()
    return ends if ok else None


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class BipartiteGraph:
    """Left/right vertex sets plus a multiset of edges: row e of the read-only (E, 2) int64 ``edges``."""

    left_count: int
    right_count: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        ends = _pair_array(self.edges, (self.left_count, self.right_count))
        if ends is None:
            raise PreconditionError(f"edges must be integer pairs below ({self.left_count}, {self.right_count})")
        hold_array(self, "edges", ends)

    @classmethod
    def from_edges(cls, left_count: int, right_count: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        return cls(left_count, right_count, tuple(edges))

    def adjacency(self) -> list[list[int]]:
        """Left vertex -> sorted unique right neighbours."""
        adj: list[set[int]] = [set() for _ in range(self.left_count)]
        for l, r in self.edges.tolist():
            adj[l].add(r)
        return [sorted(s) for s in adj]

    def left_degrees(self) -> list[int]:
        return np.bincount(self.edges[:, 0], minlength=self.left_count).tolist()

    def neighbor_masks(self) -> list[int]:
        """Left vertex -> bitmask of its right neighbours (bit r for vertex r), Python ints past bit 63."""
        masks = [0] * self.left_count
        for l, r in self.edges.tolist():
            masks[l] |= 1 << r
        return masks

    def neighborhood(self, subset: Iterable[int]) -> set[int]:
        chosen = set(subset)
        return {r for l, r in self.edges.tolist() if l in chosen}


@dataclass(frozen=True)
class HallVerdict:
    satisfied: bool
    witness: tuple[int, ...] | None  # a left subset A with |N(A)| < |A|
    neighborhood_size: int | None = None


def hall_check(g: BipartiteGraph) -> HallVerdict:
    """Check |N(A)| >= |A| for every left subset A.

    The witness is the Koenig set of :func:`complete_matching`: the smallest
    left subset of maximal deficiency |A| - |N(A)|, which is also the first
    one in ascending bitmask order (bit i for left vertex i).
    """
    witness = complete_matching(g).violating_set
    if witness is None:
        return HallVerdict(True, None)
    return HallVerdict(False, witness, len(g.neighborhood(witness)))


@dataclass(frozen=True)
class MatchingResult:
    matching: dict[int, int]  # left -> right, maximum cardinality
    complete: bool  # saturates every left vertex
    violating_set: tuple[int, ...] | None  # Hall witness when incomplete


class _HopcroftKarp:
    """Standard Hopcroft-Karp; deterministic order.  The breadth-first search
    runs by layers on neighbour bitmasks built from ``adj``: each new right
    vertex brings in its mate alone, so ``dist`` is the one a search of the
    lists gives.  The augmenting search walks the sorted lists.  :meth:`solve`
    ends on a search that finds no augmenting path, or on a matching that
    exposes no left vertex, which that search would not reach past; after
    it, ``dist[l] != INF`` holds exactly for the left vertices reached by
    alternating paths from the exposed ones.  Every left vertex starts in
    ``exposed``; :meth:`remove_edge` is the only way to unmatch one and
    appends it there, in ascending order, and a solve filters that list."""

    INF = -1

    def __init__(self, adj: list[list[int]], right_count: int):
        self.adj = adj
        self.masks = [sum(1 << r for r in row) for row in adj]
        self.nl = len(adj)
        self.pair_l = [-1] * self.nl
        self.pair_r = [-1] * right_count
        self.dist = [0] * self.nl
        self.exposed = list(range(self.nl))  # ascending; holds every unmatched left vertex

    def remove_edge(self, l: int, r: int) -> None:  # from the list and the mask; unmatches both ends
        self.adj[l].remove(r)
        self.masks[l] &= ~(1 << r)
        self.pair_l[l] = self.pair_r[r] = -1
        self.exposed.append(l)

    def _bfs(self) -> bool:
        masks, pair_r = self.masks, self.pair_r
        self.dist = dist = [self.INF] * self.nl
        layer = self.exposed
        for l in layer:
            dist[l] = 0
        seen, found, depth = 0, False, 0
        while layer:
            new = 0
            for l in layer:
                new |= masks[l]
            new, seen = new & ~seen, seen | new
            layer, depth = [], depth + 1
            while new:  # the new right vertices, lowest first
                low = new & -new
                new ^= low
                nxt = pair_r[low.bit_length() - 1]
                if nxt == -1:
                    found = True
                else:
                    dist[nxt] = depth
                    layer.append(nxt)
        return found

    def _dfs(self, root: int) -> bool:
        """Augment from ``root`` along the first layered path in adjacency order, marking
        dead ends ``INF``, on an explicit stack: a path may outgrow the recursion limit."""
        pair_l, pair_r, dist = self.pair_l, self.pair_r, self.dist
        stack = [(root, iter(self.adj[root]))]  # path vertices, untried edges
        while stack:
            l, edges = stack[-1]
            for r in edges:
                nxt = pair_r[r]
                if nxt == -1:  # each path vertex takes the edge below it
                    for u, _ in reversed(stack):
                        pair_l[u], r = r, pair_l[u]
                        pair_r[pair_l[u]] = u
                    return True
                if dist[nxt] == dist[l] + 1:
                    stack.append((nxt, iter(self.adj[nxt])))
                    break
            else:
                dist[l] = self.INF
                stack.pop()
        return False

    def solve(self) -> int:
        """Augment to a maximum matching.  Each phase lists the exposed left
        vertices once: the breadth-first search starts from them and the
        augmenting searches from each in turn, as an augmentation matches
        only its own root.  With no left vertex exposed the closing search
        is skipped: it would reach nothing, so ``dist`` is all INF."""
        size, pair_l = 0, self.pair_l
        while True:
            self.exposed = [l for l in self.exposed if pair_l[l] == -1]
            if not self.exposed:
                self.dist = [self.INF] * self.nl
                return size
            if not self._bfs():
                return size
            for l in self.exposed:
                size += self._dfs(l)


def complete_matching(g: BipartiteGraph) -> MatchingResult:
    """Maximum matching; when it fails to saturate the left side, return the
    Hall-violating set of left vertices reachable by alternating paths from
    the exposed ones (Koenig duality).

    Hopcroft-Karp ends on a search from the exposed vertices that finds no
    augmenting path, so the vertices it reached are that set.  Every left
    subset of maximal deficiency holds the exposed vertices and, matched
    into it, its neighbourhood, so the set is contained in each of them.
    """
    hk = _HopcroftKarp(g.adjacency(), g.right_count)
    hk.solve()
    matching = {l: r for l, r in enumerate(hk.pair_l) if r != -1}
    reached = tuple(l for l, d in enumerate(hk.dist) if d != hk.INF)  # empty when complete
    return MatchingResult(matching, not reached, reached or None)


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class EdgeColoring:
    """Proper coloring of edge instances (``color_of[e]`` for instance e, read-only int64 from
    :func:`edge_color`): no color repeats at any vertex."""

    graph: BipartiteGraph
    color_of: np.ndarray
    colors: int = 0

    def is_proper(self) -> bool:
        left: set[tuple[int, int]] = set()  # (vertex, color) pairs seen on each side
        right: set[tuple[int, int]] = set()
        for (l, r), c in zip(self.graph.edges.tolist(), self.color_of.tolist()):
            if (l, c) in left or (r, c) in right:
                return False
            left.add((l, c))
            right.add((r, c))
        return len(self.color_of) == len(self.graph.edges)


def peel_matchings(counts: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Split a square nonnegative integer matrix with equal line sums d into
    perfect matchings: row c of the (d, k) int64 result is the c-th, and a
    matching peeled at multiplicity mu (its smallest count) fills mu adjacent
    rows.  One Hopcroft-Karp state re-augments only the rows each peel empties,
    and each matched row keeps the peeled total that empties its edge, so a peel
    writes back only the residuals of the rows its solve moved.  One ``np.repeat``
    expands the matchings at the end.  ``counts`` is checked before any solve and not changed."""
    arr = integer_array(counts, 2)
    ok = arr is not None and 0 < len(arr) == arr.shape[1] and arr.min() >= 0
    if ok and arr.sum(dtype=float) > MAX_COUNT_CELLS:  # the d * k result cells; keeps the sums below exact
        raise ResourceLimitError(f"the matchings of these counts exceed {MAX_COUNT_CELLS} cells")
    if not ok or len({*arr.sum(axis=0).tolist(), *arr.sum(axis=1).tolist()}) != 1:
        raise PreconditionError("counts must be a nonempty square nonnegative integer matrix with equal line sums")
    k = len(arr)
    left = arr.tolist()  # residual counts, current except at each row's matched column
    hk = _HopcroftKarp([list(compress(range(k), row)) for row in left], k)
    matchings, mults = [], []  # the peeled matchings and their multiplicities
    match, ends = [-1] * k, [0] * k  # each row's column and the peeled total that empties it
    peeled, total = 0, sum(left[0])
    while peeled < total:
        hk.solve()
        new = hk.pair_l.copy()
        if -1 in new:  # pragma: no cover - equal line sums keep a perfect matching
            raise PreconditionError("residual lost its perfect matching")
        for l in compress(range(k), map(ne, match, new)):
            if match[l] >= 0:
                left[l][match[l]] = ends[l] - peeled
            ends[l] = peeled + left[l][new[l]]
        match, low = new, min(ends)
        matchings.append(new)
        mults.append(low - peeled)
        peeled = low
        for l in compress(range(k), map(eq, ends, repeat(low))):
            hk.remove_edge(l, new[l])
    return np.repeat(np.array(matchings, dtype=np.int64).reshape(-1, k), mults, axis=0)


def edge_color(g: BipartiteGraph) -> EdgeColoring:
    """Color a d-regular bipartite multigraph with d colors: color c is row c
    of :func:`peel_matchings` of its vertex-pair counts, taken by the
    instances of each vertex pair last first (two stable sorts by pair fill
    the instance-indexed ``color_of``).  A non-regular graph is refused:
    regularity keeps a perfect matching in every residual graph."""
    k = g.right_count
    if g.left_count * k > MAX_COUNT_CELLS:
        raise ResourceLimitError(f"{g.left_count} x {k} counts exceed {MAX_COUNT_CELLS} cells")
    pair = g.edges[:, 0] * k + g.edges[:, 1]  # the vertex pair of each instance
    rows = peel_matchings(np.bincount(pair, minlength=g.left_count * k).reshape(g.left_count, k))
    slots = np.argsort((rows + np.arange(k) * k).ravel(), kind="stable")  # (color, left) slots by pair
    color_of = np.empty(len(pair), dtype=np.int64)
    color_of[len(pair) - 1 - np.argsort(pair[::-1], kind="stable")] = slots // k
    color_of.flags.writeable = False
    return EdgeColoring(graph=g, color_of=color_of, colors=len(rows))


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class CallRequestSet:
    """Point-to-point requests (source, destination) on a Clos network;
    sources all distinct and destinations all distinct.  Row r of the
    read-only (R, 2) int64 ``pairs`` is request r, as checked on construction."""

    pairs: np.ndarray
    spec: ClosSpec

    def __post_init__(self) -> None:
        ports = self.spec.ports
        try:
            pairs = _pair_array(self.pairs, (ports, ports))
        except ResourceLimitError:  # a port past int64 is out of range too
            pairs = None
        if pairs is None:  # name the first bad port of the caller's input
            rows = self.pairs if _is_sequence(self.pairs) else ()
            bad = [v for pair in rows if _is_sequence(pair) for v in pair if not (is_integer(v) and 0 <= v < ports)]
            raise PreconditionError(f"port {bad[0]!r} is not an integer in [0, {ports})" if bad
                                    else "each request must be a (source, destination) pair")
        by_side = np.sort(pairs, axis=0)  # each side's ports ascending
        if (by_side[1:] == by_side[:-1]).any():
            raise PreconditionError("sources and destinations must each be distinct")
        hold_array(self, "pairs", pairs)

    @classmethod
    def from_permutation(cls, pi: Sequence[int], spec: ClosSpec) -> "CallRequestSet":
        return cls(tuple(enumerate(pi)), spec)


_ROUTE_FIELDS = ("central", "out_module", "out_port")


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class RouteSet(Sequence):
    """Routes of R requests as three read-only (R,) int64 arrays: the central
    module, output module and output port of each, checked by the integer
    gate and copied from the caller on construction.  It is a sequence of
    :class:`closmodel.RoutingTag`: item r is built from the arrays when it
    is read, and a slice is a route set."""

    central: np.ndarray
    out_module: np.ndarray
    out_port: np.ndarray

    def __post_init__(self) -> None:
        cols = [integer_array(getattr(self, name), 1) for name in _ROUTE_FIELDS]
        if any(col is None for col in cols) or len({len(col) for col in cols}) != 1:
            raise PreconditionError("central, out_module and out_port must be integer arrays of one length")
        for name, col in zip(_ROUTE_FIELDS, cols):
            hold_array(self, name, col)

    def __len__(self) -> int:
        return len(self.central)

    def __getitem__(self, r: int | slice) -> RoutingTag | RouteSet:
        if isinstance(r, slice):
            return RouteSet(self.central[r], self.out_module[r], self.out_port[r])
        r = index(r)
        return RoutingTag(int(self.central[r]), int(self.out_module[r]), int(self.out_port[r]))

    def __iter__(self) -> Iterator[RoutingTag]:
        return map(RoutingTag, self.central.tolist(), self.out_module.tolist(), self.out_port.tolist())


def clos_route_assignment(reqs: CallRequestSet) -> RouteSet:
    """Assign a central module to every request so no two requests sharing an
    input module or an output module use the same one.

    Each request becomes an edge (source module, destination module) of a
    bipartite multigraph; coloring that graph with the available central
    modules is exactly the assignment.  A partial request set is padded to
    n-regularity by pairing the spare input ports, in port order, with the
    spare output ports; any such padding colours with n colours (König), and
    the dummy edges are dropped afterwards.  The spare ports are the
    ``np.flatnonzero`` of each side of a (2, N) bool array of the used ones.
    """
    spec = reqs.spec
    if not spec.is_rearrangeable():
        raise DomainError("m >= n required for a rearrangeable assignment")
    n = spec.n
    ports = reqs.pairs
    used = np.zeros((2, spec.ports), dtype=bool)
    used[[0, 1], ports] = True  # column j of the requests marks side j
    padding = np.stack([np.flatnonzero(~side) for side in used], axis=1)
    color_of = edge_color(BipartiteGraph(spec.k, spec.k, np.concatenate([ports, padding]) // n)).color_of
    return RouteSet(color_of[:len(ports)], *np.divmod(ports[:, 1], n))


def _route_arrays(tags: Sequence[RoutingTag]) -> tuple[np.ndarray, ...] | None:
    """The central, output module and output port arrays of ``tags``: a
    route set's own, or each field of any other sequence of tags read through
    the integer gate; None if such a field is not an int64 integer."""
    if isinstance(tags, RouteSet):
        return tags.central, tags.out_module, tags.out_port
    try:
        cols = tuple(integer_array(list(map(attrgetter(name), tags)), 1) for name in _ROUTE_FIELDS)
    except ResourceLimitError:
        return None
    return None if any(col is None for col in cols) else cols


def verify_route_assignment(reqs: CallRequestSet, tags: Sequence[RoutingTag]) -> bool:
    """Independent nonblocking check: every tag names a central module in
    [0, m) and its request's output module and port, and within any input
    module and within any output module all assigned central modules are
    distinct.  Distinctness is one sort of the (side, module, central) keys
    of all requests.  ``tags`` is a :class:`RouteSet` or any sequence of
    tags; a tag field that is not an int64 integer fails."""
    spec, pairs = reqs.spec, reqs.pairs
    if len(tags) != len(pairs):
        return False
    cols = _route_arrays(tags)
    if cols is None:
        return False
    central, module, port = cols
    out_module, out_port = np.divmod(pairs[:, 1], spec.n)
    if not (((0 <= central) & (central < spec.m)).all() and (module == out_module).all()
            and (port == out_port).all()):
        return False
    span = spec.m
    if 2 * spec.k * span > np.iinfo(np.int64).max:  # the keys would pass int64: rank the centrals
        central, span = np.unique(central, return_inverse=True)[1], len(central)
    keys = np.sort(((pairs // spec.n + [0, spec.k]) * span + central[:, None]).ravel())
    return not (keys[1:] == keys[:-1]).any()


# --- Benes outer-stage assignment ------------------------------------------

@dataclass(frozen=True)
class BenesConstraintSystem:
    """Binary variables x_i (one per request) and parity constraints
    x_i + x_j = 1; every variable sits in exactly one input-side and one
    output-side constraint, so the constraint graph is a union of even
    cycles and the solution count is 2^components."""

    size: int
    constraints: tuple[tuple[int, int], ...]


def _check_permutation(pi: Sequence[int]) -> np.ndarray:
    """``pi`` as an int64 array if it is an integer permutation of 0..N-1, N even."""
    if len(pi) % 2 != 0:
        raise DomainError("outer stage pairs ports; size must be even")
    p = integer_array(pi, 1)
    if p is None or not np.array_equal(np.sort(p), np.arange(len(p))):
        raise PreconditionError("pi must be a permutation of 0..N-1")
    return p


def benes_constraints(pi: Sequence[int]) -> BenesConstraintSystem:
    """Build the pairing constraints of the two-central-module outer stage
    for permutation ``pi`` (input constraints first, then output)."""
    p = _check_permutation(pi)
    # the inputs of each output module, in module order, each pair ascending
    pairs = np.concatenate([np.arange(len(p)), np.argsort(p >> 1, kind="stable")]).reshape(-1, 2)
    return BenesConstraintSystem(size=len(p), constraints=tuple(map(tuple, pairs.tolist())))


def _outer_stage(p: np.ndarray, block: int) -> np.ndarray:
    """:func:`benes_flip_assign` of a checked permutation array ``p`` that keeps blocks of ``block`` ports."""
    n = len(p)
    ports = np.arange(n)
    pinv = np.empty_like(p)
    pinv[p] = ports
    partner = pinv[p ^ 1]  # the input sharing each input's output module
    low, nxt = ports, partner ^ 1  # nxt = g; an orbit of g holds at most block/2 ports
    for _ in range((block // 2 - 1).bit_length()):
        low, nxt = np.minimum(low, low[nxt]), nxt[nxt]
    # b: parity of the cycle's least key 2 * output module + parity over its equal-parity
    # output pairs (both ports give it); other ports key past the even fill n (b = 0 if none)
    anchor = np.full(n // 2, n)
    np.minimum.at(anchor, low >> 1, ((p & -2) | (ports & 1)) + n * ((ports ^ partner) & 1))
    return (anchor[low >> 1] ^ low) & 1


def benes_flip_assign(pi: Sequence[int]) -> list[int]:
    """Solve the outer-stage constraints by the segment-flip rule.

    Start from the alternating assignment x_i = i % 2 (every input-side
    constraint holds).  In each constraint cycle the unsatisfied output
    pairs cut the cycle into segments; label them alternately starting
    right after the anchor, the unsatisfied pair with the lowest output
    module, and flip all variables in the first label class.  One pass
    satisfies everything.  A cycle is two orbits of g(v) = pinv[pi[v] ^ 1] ^ 1;
    x[v] = b ^ (least port of v's orbit & 1), with b the parity of the port
    after the anchor (0 without one).  The array kernel finds the least ports
    by pointer jumping and every b by one keyed minimum.
    """
    return _outer_stage(_check_permutation(pi), len(pi)).tolist()


def count_components(sys: BenesConstraintSystem) -> int:
    """Connected components of the constraint graph (== number of cycles)."""
    root = list(range(sys.size))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    components = sys.size
    for i, j in sys.constraints:
        ri, rj = find(i), find(j)
        if ri != rj:
            root[ri] = rj
            components -= 1
    return components


def count_solutions_bruteforce(sys: BenesConstraintSystem) -> int:
    """Exhaustively count satisfying assignments (2^g expected); the size is
    capped because the scan is exponential."""
    if sys.size > 20:
        raise DomainError("exhaustive solution count capped at 20 variables")
    count = 0
    for bits in range(1 << sys.size):
        ok = True
        for i, j in sys.constraints:
            if (bits >> i & 1) + (bits >> j & 1) != 1:
                ok = False
                break
        count += ok
    return count


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class BenesAssignment:
    """Element states of a Benes network on N = 2^t ports: row l < t - 1 of
    the read-only ``crosses`` is the input column of level l, row 2t - 2 - l
    its output column and row t - 1 the centre; element e of a row switches
    ports 2e and 2e + 1, crossed when True.  Level l splits the ports into
    blocks of s = N / 2^l; a signal leaving input element r // 2 of a block
    (r its port there) on its upper (lower) side enters port r // 2
    (s/2 + r // 2) of that block at level l + 1.
    """

    crosses: np.ndarray  # (2t - 1, N/2) bool

    @property
    def size(self) -> int:
        return 2 * self.crosses.shape[1]

    def realized_permutation(self) -> list[int]:
        """Output port reached by each input: one gather per column."""
        n, levels = self.size, len(self.crosses) // 2
        pos = np.arange(n)
        for level, row in enumerate(self.crosses[:levels]):
            half = n >> level + 1
            e = pos >> 1
            pos = e + e // half * half + ((pos & 1) ^ row[e]) * half
        pos ^= self.crosses[levels][pos >> 1]
        for level in reversed(range(levels)):
            half = n >> level + 1
            u = pos // (2 * half) * half + pos % half
            pos = 2 * u + (pos // half & 1 ^ self.crosses[-1 - level][u])
        return pos.tolist()


def benes_full_assign(pi: Sequence[int]) -> BenesAssignment:
    """Configure a Benes network for permutation ``pi``, level by level.

    The outer stages of level l are the outer stage of one block-diagonal
    permutation p of blocks of N / 2^l ports (cycles never cross blocks, so
    pointer jumping stops at the block size): one :func:`benes_flip_assign` of p
    sets input row l and output row 2t - 2 - l of :class:`BenesAssignment` and
    yields the next level's p, and the last level's 2-port blocks set the centre.
    Each level checks that the subnetworks receive exactly one signal per link.
    """
    n = len(pi)
    if n < 2 or n & (n - 1):
        raise DomainError("size must be a power of two, at least 2")
    p = _check_permutation(pi)
    levels = n.bit_length() - 2
    crosses = np.empty((2 * levels + 1, n // 2), dtype=bool)
    elements = np.arange(n // 2)
    for level in range(levels):
        half = n >> level + 1  # elements per block
        crosses[level] = _outer_stage(p, 2 * half)[::2]
        up = 2 * elements + crosses[level]  # the input of each element sent up
        up_out, low_out = p[up] // 2, p[up ^ 1] // 2  # their output elements
        if np.bincount(up_out, minlength=n // 2).max() > 1:
            raise PreconditionError("subnetwork link used twice")  # pragma: no cover
        crosses[-1 - level, up_out] = p[up] & 1
        spread = elements + elements // half * half  # element u of a block: port u of its upper subnetwork
        p = np.empty_like(p)
        p[spread], p[spread + half] = spread[up_out], spread[low_out] + half
    crosses[levels] = p[::2] & 1
    crosses.flags.writeable = False
    return BenesAssignment(crosses)
