"""Bipartite matching machinery: Hall condition, maximum matching, the
peeling of perfect matchings off regular count matrices (edge coloring and
the frame decomposition), Clos route assignment, the cycle-flip solver for
the outer stage of a Benes network, and the full Benes assignment, built
level by level as one array of 2x2 element states.

Multigraphs keep one entry per edge *instance* (stable index into the edge
list), so an edge coloring is well defined even with repeated endpoints.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .closmodel import ClosSpec, RoutingTag
from .errors import DomainError, PreconditionError, ResourceLimitError, integer_array, is_integer

__all__ = [
    "BipartiteGraph",
    "HallVerdict",
    "MatchingResult",
    "EdgeColoring",
    "CallRequestSet",
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

@dataclass(frozen=True)
class BipartiteGraph:
    """Left/right vertex sets plus a multiset of edges (index = instance id)."""

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ends = integer_array(self.edges, 2) if len(self.edges) else np.empty((0, 2), dtype=np.int64)
        if ends is None or ends.shape[1] != 2 or not ((0 <= ends) & (ends < (self.left_count, self.right_count))).all():
            raise PreconditionError(f"edges must be integer pairs below ({self.left_count}, {self.right_count})")
        object.__setattr__(self, "edges", tuple(zip(*ends.T.tolist())))  # pairs of Python ints

    @classmethod
    def from_edges(cls, left_count: int, right_count: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        return cls(left_count, right_count, tuple(edges))

    def adjacency(self) -> list[list[int]]:
        """Left vertex -> sorted unique right neighbours."""
        adj: list[set[int]] = [set() for _ in range(self.left_count)]
        for l, r in self.edges:
            adj[l].add(r)
        return [sorted(s) for s in adj]

    def left_degrees(self) -> list[int]:
        deg = [0] * self.left_count
        for l, _ in self.edges:
            deg[l] += 1
        return deg

    def neighbor_masks(self) -> list[int]:
        """Left vertex -> bitmask of its right neighbours (bit r for vertex r)."""
        masks = [0] * self.left_count
        for l, r in self.edges:
            masks[l] |= 1 << r
        return masks

    def neighborhood(self, subset: Iterable[int]) -> set[int]:
        masks = self.neighbor_masks()
        nb = 0
        for v in subset:
            nb |= masks[v]
        return {r for r in range(self.right_count) if nb >> r & 1}


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
    """Standard Hopcroft-Karp on adjacency lists; deterministic order.

    :meth:`solve` ends on a search that finds no augmenting path; after it,
    ``dist[l] != INF`` holds exactly for the left vertices that search
    reached by alternating paths from the exposed ones.
    """

    INF = -1

    def __init__(self, adj: Sequence[Sequence[int]], right_count: int):
        self.adj = adj
        self.nl = len(adj)
        self.nr = right_count
        self.pair_l = [-1] * self.nl
        self.pair_r = [-1] * self.nr
        self.dist = [0] * self.nl

    def _bfs(self) -> bool:
        queue: deque[int] = deque()
        for l in range(self.nl):
            if self.pair_l[l] == -1:
                self.dist[l] = 0
                queue.append(l)
            else:
                self.dist[l] = self.INF
        found = False
        while queue:
            l = queue.popleft()
            for r in self.adj[l]:
                nxt = self.pair_r[r]
                if nxt == -1:
                    found = True
                elif self.dist[nxt] == self.INF:
                    self.dist[nxt] = self.dist[l] + 1
                    queue.append(nxt)
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
        size = 0
        while self._bfs():
            for l in range(self.nl):
                if self.pair_l[l] == -1 and self._dfs(l):
                    size += 1
        return size


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


@dataclass(frozen=True)
class EdgeColoring:
    """Proper coloring of edge instances: no color repeats at any vertex."""

    graph: BipartiteGraph
    color_of: dict[int, int] = field(compare=False)
    colors: int = 0

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.colors)]
        for e, c in self.color_of.items():
            out[c].append(e)
        return out

    def is_proper(self) -> bool:
        left: set[tuple[int, int]] = set()  # (vertex, color) pairs seen on each side
        right: set[tuple[int, int]] = set()
        for e, c in self.color_of.items():
            l, r = self.graph.edges[e]
            if (l, c) in left or (r, c) in right:
                return False
            left.add((l, c))
            right.add((r, c))
        return len(self.color_of) == len(self.graph.edges)


def peel_matchings(counts: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Split a square nonnegative integer matrix with equal line sums d into
    perfect matchings: row c of the (d, k) int64 result is the c-th, and a
    matching peeled at multiplicity mu (its smallest count) fills mu adjacent
    rows.  One Hopcroft-Karp state re-augments only the rows each peel empties.
    ``counts`` is checked before any solve and not changed."""
    arr = integer_array(counts, 2)
    ok = arr is not None and 0 < len(arr) == arr.shape[1] and arr.min() >= 0
    if ok and arr.sum(dtype=float) > MAX_COUNT_CELLS:  # the d * k result cells; keeps the sums below exact
        raise ResourceLimitError(f"the matchings of these counts exceed {MAX_COUNT_CELLS} cells")
    if not ok or len({*arr.sum(axis=0).tolist(), *arr.sum(axis=1).tolist()}) != 1:
        raise PreconditionError("counts must be a nonempty square nonnegative integer matrix with equal line sums")
    rows = arr.tolist()
    adj = [list(itertools.compress(range(len(row)), row)) for row in rows]  # sorted support
    hk = _HopcroftKarp(adj, len(rows))
    perms = np.empty((sum(rows[0]), len(rows)), dtype=np.int64)
    done = 0
    while done < len(perms):
        hk.solve()
        cols = hk.pair_l.copy()
        if -1 in cols:  # pragma: no cover - equal line sums keep a perfect matching
            raise PreconditionError("residual lost its perfect matching")
        mult = min(row[j] for row, j in zip(rows, cols))
        perms[done:done + mult] = cols
        done += mult
        for i, j in enumerate(cols):
            rows[i][j] -= mult
            if not rows[i][j]:
                adj[i].remove(j)
                hk.pair_l[i] = hk.pair_r[j] = -1
    return perms


def edge_color(g: BipartiteGraph) -> EdgeColoring:
    """Color a d-regular bipartite multigraph with d colors: color c is row c
    of :func:`peel_matchings` of its vertex-pair counts, taken by the
    instances of each vertex pair last first.  A non-regular graph is refused:
    regularity keeps a perfect matching in every residual graph."""
    if g.left_count * g.right_count > MAX_COUNT_CELLS:
        raise ResourceLimitError(f"{g.left_count} x {g.right_count} counts exceed {MAX_COUNT_CELLS} cells")
    pool = [[[] for _ in range(g.right_count)] for _ in range(g.left_count)]  # instance ids
    for idx, (l, r) in enumerate(g.edges):
        pool[l][r].append(idx)
    rows = peel_matchings([[len(ids) for ids in row] for row in pool])
    color_of = {pool[l][r].pop(): c for c, cols in enumerate(rows.tolist()) for l, r in enumerate(cols)}
    return EdgeColoring(graph=g, color_of=color_of, colors=len(rows))


@dataclass(frozen=True)
class CallRequestSet:
    """Point-to-point requests (source, destination) on a Clos network;
    sources all distinct and destinations all distinct."""

    pairs: tuple[tuple[int, int], ...]
    spec: ClosSpec

    def __post_init__(self) -> None:
        n_ports = self.spec.ports
        srcs = [s for s, _ in self.pairs]
        dsts = [d for _, d in self.pairs]
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise PreconditionError("sources and destinations must each be distinct")
        for v in itertools.chain(srcs, dsts):
            if not is_integer(v) or not 0 <= v < n_ports:
                raise PreconditionError(f"port {v!r} is not an integer in [0, {n_ports})")

    @classmethod
    def from_permutation(cls, pi: Sequence[int], spec: ClosSpec) -> "CallRequestSet":
        return cls(tuple(enumerate(pi)), spec)


def clos_route_assignment(reqs: CallRequestSet) -> list[RoutingTag]:
    """Assign a central module to every request so no two requests sharing an
    input module or an output module use the same one.

    Each request becomes an edge (source module, destination module) of a
    bipartite multigraph; coloring that graph with the available central
    modules is exactly the assignment.  A partial request set is padded to
    n-regularity by pairing the spare input ports, in port order, with the
    spare output ports; any such padding colours with n colours (König), and
    the dummy edges are dropped afterwards.
    """
    spec = reqs.spec
    if not spec.is_rearrangeable():
        raise DomainError("m >= n required for a rearrangeable assignment")
    n = spec.n
    sources = {s for s, _ in reqs.pairs}
    dests = {d for _, d in reqs.pairs}
    padding = zip([p // n for p in range(spec.ports) if p not in sources],
                  [p // n for p in range(spec.ports) if p not in dests])
    edges = [(s // n, d // n) for s, d in reqs.pairs] + list(padding)
    coloring = edge_color(BipartiteGraph.from_edges(spec.k, spec.k, edges))
    return [RoutingTag(coloring.color_of[idx], *divmod(d, n)) for idx, (_, d) in enumerate(reqs.pairs)]


def verify_route_assignment(reqs: CallRequestSet, tags: Sequence[RoutingTag]) -> bool:
    """Independent nonblocking check: within any input module and within any
    output module, all assigned central modules are distinct, and every tag
    addresses its request's destination."""
    if len(tags) != len(reqs.pairs):
        return False
    n = reqs.spec.n
    by_in: dict[int, set[int]] = {}
    by_out: dict[int, set[int]] = {}
    for (src, dst), tag in zip(reqs.pairs, tags):
        if not 0 <= tag.central < reqs.spec.m:
            return False
        if tag.destination(n) != dst:
            return False
        ins = by_in.setdefault(src // n, set())
        outs = by_out.setdefault(dst // n, set())
        if tag.central in ins or tag.central in outs:
            return False
        ins.add(tag.central)
        outs.add(tag.central)
    return True


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


def _outer_stage(p: np.ndarray) -> np.ndarray:
    """:func:`benes_flip_assign` of a checked permutation array ``p``."""
    n = len(p)
    ports = np.arange(n)
    pinv = np.empty_like(p)
    pinv[p] = ports
    partner = pinv[p ^ 1]  # the input sharing each input's output module
    low, nxt = ports, partner ^ 1  # nxt = g; an orbit of g holds at most N/2 ports
    for _ in range((n // 2 - 1).bit_length()):
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
    return _outer_stage(_check_permutation(pi)).tolist()


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
    permutation p of blocks of N / 2^l ports (cycles never cross blocks):
    one :func:`benes_flip_assign` of p sets input row l and output row
    2t - 2 - l of :class:`BenesAssignment` and yields the next level's p,
    and the last level's 2-port blocks set the centre.  Each level checks
    that the subnetworks receive exactly one signal per link.
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
        crosses[level] = _outer_stage(p)[::2]
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
