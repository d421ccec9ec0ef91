import itertools
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest

from switchlab import fixtures
from switchlab import graphcode as gc
from switchlab import matching as mt
from switchlab.closmodel import ClosSpec
from switchlab.errors import DomainError, PreconditionError, ResourceLimitError


def _random_bipartite(rng, nl, nr, p=0.4):
    edges = [(l, r) for l in range(nl) for r in range(nr) if rng.random() < p]
    return mt.BipartiteGraph.from_edges(nl, nr, edges)


def _has_perfect_matching_bruteforce(g):
    adj = g.adjacency()
    for perm in itertools.permutations(range(g.right_count), g.left_count):
        if all(perm[l] in adj[l] for l in range(g.left_count)):
            return True
    return False


class TestBipartiteGraph:
    @pytest.mark.parametrize("edge", [(0.5, 1), (1.0, 0), (True, 0), (0, np.bool_(True)), (None, 0), ("0", 1),
                                      (0, 1, 1)],
                             ids=["half", "integral_float", "bool", "np_bool", "none", "string", "triple"])
    def test_non_integer_endpoints_rejected(self, edge):
        # from_edges used to cast with int(), so (0.5, 1) became (0, 1); the constructor kept 0.5
        with pytest.raises(PreconditionError):
            mt.BipartiteGraph.from_edges(2, 2, [(0, 0), edge])
        with pytest.raises(PreconditionError):
            mt.BipartiteGraph(2, 2, ((0, 0), edge))

    def test_out_of_range_endpoints_rejected(self):
        for edge in ((0, 2), (2, 0), (-1, 0)):
            with pytest.raises(PreconditionError):
                mt.BipartiteGraph.from_edges(2, 2, [edge])

    def test_numpy_integer_endpoints_become_python_ints(self):
        for g in (mt.BipartiteGraph.from_edges(2, 70, [(np.int8(1), np.uint64(69))]),
                  mt.BipartiteGraph(2, 70, ((np.int8(1), np.uint64(69)),))):
            assert g.edges == ((1, 69),) and {type(v) for e in g.edges for v in e} == {int}
            assert g.neighbor_masks() == [0, 1 << 69]  # a numpy shift would overflow at bit 69
        assert mt.BipartiteGraph.from_edges(0, 0, []).edges == ()

    def test_endpoint_past_int64_is_a_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            mt.BipartiteGraph.from_edges(2, 2, [(0, 2**70)])


class TestHallCheck:
    def test_complete_bipartite(self):
        g = mt.BipartiteGraph.from_edges(4, 4, [(l, r) for l in range(4) for r in range(4)])
        assert mt.hall_check(g).satisfied

    def test_isolated_left_vertex(self):
        g = mt.BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1)])
        verdict = mt.hall_check(g)
        assert not verdict.satisfied
        assert 2 in verdict.witness

    def test_three_into_two(self):
        g = mt.BipartiteGraph.from_edges(3, 3, [(l, r) for l in range(3) for r in (0, 1)])
        verdict = mt.hall_check(g)
        assert not verdict.satisfied
        assert verdict.witness == (0, 1, 2)
        assert verdict.neighborhood_size == 2

    def test_agrees_with_matching_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(200):
            g = _random_bipartite(rng, rng.randint(1, 12), rng.randint(1, 12),
                                  rng.uniform(0.1, 0.6))
            verdict = mt.hall_check(g)
            result = mt.complete_matching(g)
            assert verdict.satisfied == result.complete
            if not verdict.satisfied:
                a = verdict.witness
                assert len(g.neighborhood(a)) < len(a)

    def test_deficiency_matches_a_neighborhood_scan(self):
        rng = random.Random(43)
        for _ in range(60):
            g = _random_bipartite(rng, rng.randint(1, 7), rng.randint(1, 7), rng.uniform(0.1, 0.6))
            deficiency = {}  # in ascending bitmask order, bit i for left vertex i
            for bits in range(1, 1 << g.left_count):
                subset = tuple(i for i in range(g.left_count) if bits >> i & 1)
                nb = {r for l, r in g.edges if l in subset}
                assert g.neighborhood(subset) == nb
                deficiency[subset] = len(subset) - len(nb)
            worst = max(deficiency, key=deficiency.get)  # the first of equal deficiencies
            verdict = mt.hall_check(g)
            assert verdict.satisfied == (deficiency[worst] <= 0)
            if not verdict.satisfied:
                assert verdict.witness == worst
                assert verdict.neighborhood_size == len(worst) - deficiency[worst]

    def test_scan_at_the_exhaustive_limit_holds_no_table_of_all_subsets(self):
        rng = random.Random(44)
        left = gc.EXHAUSTIVE_LEFT_LIMIT
        g = mt.BipartiteGraph.from_edges(
            left, 8, [(l, r) for l in range(left) for r in rng.sample(range(8), 3)])
        tracemalloc.start()
        try:
            mt.hall_check(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a list of 2^20 subset masks alone takes 8 MiB


class TestCompleteMatching:
    def test_perfect_matching_returned(self):
        g = mt.BipartiteGraph.from_edges(4, 4, [(i, (i + 1) % 4) for i in range(4)])
        res = mt.complete_matching(g)
        assert res.complete
        assert res.matching == {i: (i + 1) % 4 for i in range(4)}

    def test_regular_graph_has_complete_matching(self):
        rng = random.Random(3)
        for d in (1, 2, 3):
            for _ in range(30):
                k = rng.randint(2, 7)
                edges = []
                for _ in range(d):
                    perm = list(range(k))
                    rng.shuffle(perm)
                    edges.extend((i, perm[i]) for i in range(k))
                g = mt.BipartiteGraph.from_edges(k, k, edges)
                assert mt.complete_matching(g).complete

    def test_matches_bruteforce_on_small_graphs(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 5)
            g = _random_bipartite(rng, n, n, rng.uniform(0.2, 0.8))
            assert mt.complete_matching(g).complete == _has_perfect_matching_bruteforce(g)

    def test_failure_witness_violates_hall(self):
        g = mt.BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 0), (2, 0), (2, 1)])
        res = mt.complete_matching(g)
        assert not res.complete
        witness = res.violating_set
        assert len(g.neighborhood(witness)) < len(witness)


def _ref_hall_check(g):
    """The exhaustive scan ``hall_check`` ran up to 20 left vertices: two
    half tables of neighbourhood unions, and the first subset of maximal
    deficiency in ascending bitmask order."""
    masks = g.neighbor_masks()
    h = g.left_count // 2
    lo, hi = [0] * (1 << h), [0] * (1 << g.left_count - h)  # subset -> neighbourhood
    for table, part in ((lo, masks[:h]), (hi, masks[h:])):
        for s in range(1, len(table)):
            low = s & -s
            table[s] = table[s ^ low] | part[low.bit_length() - 1]
    worst_def, worst = 0, 0
    for t, hi_nb in enumerate(hi):  # s = t << h | u ascends with (t, u)
        for u, lo_nb in enumerate(lo):
            deficiency = t.bit_count() + u.bit_count() - (hi_nb | lo_nb).bit_count()
            if deficiency > worst_def:
                worst_def, worst = deficiency, t << h | u
    witness = tuple(i for i in range(g.left_count) if worst >> i & 1) or None
    if witness is None:
        return mt.HallVerdict(True, None)
    return mt.HallVerdict(False, witness, len(g.neighborhood(witness)))


def _ref_complete_matching(g):
    """Hopcroft-Karp, then the separate alternating search from the exposed
    left vertices that ``complete_matching`` used to run."""
    adj = g.adjacency()
    hk = mt._HopcroftKarp(adj, g.right_count)
    size = hk.solve()
    matching = {l: r for l, r in enumerate(hk.pair_l) if r != -1}
    if size == g.left_count:
        return mt.MatchingResult(matching, True, None)
    reach_l = {l for l in range(g.left_count) if hk.pair_l[l] == -1}
    frontier = deque(reach_l)
    seen_r = set()
    while frontier:
        l = frontier.popleft()
        for r in adj[l]:
            if r in seen_r:
                continue
            seen_r.add(r)
            back = hk.pair_r[r]
            if back != -1 and back not in reach_l:
                reach_l.add(back)
                frontier.append(back)
    return mt.MatchingResult(matching, False, tuple(sorted(reach_l)))


def _grid16_graph():
    """The 16-variable grid code's incidence graph: variable 4i + j lies in
    row i, column j and the symbol classes i ^ j and a(i) ^ j of two
    orthogonal Latin squares of order 4."""
    a = (0, 2, 3, 1)  # multiplication by a generator of GF(4)
    edges = [(4 * i + j, c) for i in range(4) for j in range(4)
             for c in (i, 4 + j, 8 + (i ^ j), 12 + (a[i] ^ j))]
    return mt.BipartiteGraph.from_edges(16, 16, edges)


def _seeded_graphs():
    """Graphs with 0-20 left and 0-14 right vertices, edges drawn with
    repetition and some left vertices left isolated; fewer graphs at the
    sizes where the reference scan is dear."""
    rng = random.Random(71)
    for left in range(21):
        for _ in range(min(60, max(3, 1 << max(0, 17 - left)))):
            right = rng.randint(0, 14)
            isolated = set(rng.sample(range(left), rng.randint(0, left // 4)))
            ends = [l for l in range(left) if l not in isolated]
            edges = [(rng.choice(ends), rng.randrange(right))
                     for _ in range(rng.randint(0, 3 * left) if ends and right else 0)]
            yield mt.BipartiteGraph.from_edges(left, right, edges)


class TestAgainstExhaustiveScan:
    """``hall_check`` and ``complete_matching`` against the exhaustive
    half-table scan and the second alternating search they replaced."""

    def test_verdicts_and_matchings_are_identical(self):
        edge_cases = [mt.BipartiteGraph.from_edges(0, 0, []), mt.BipartiteGraph.from_edges(0, 3, []),
                      mt.BipartiteGraph.from_edges(3, 0, []),
                      mt.BipartiteGraph.from_edges(2, 2, [(0, 0)] * 3 + [(1, 0)] * 2)]
        graphs = [*edge_cases, *_seeded_graphs(), _grid16_graph()]
        violated = 0
        for g in graphs:
            verdict = mt.hall_check(g)
            assert verdict == _ref_hall_check(g)
            assert mt.complete_matching(g) == _ref_complete_matching(g)
            violated += not verdict.satisfied
        assert graphs[-1].left_degrees() == [4] * 16 and mt.hall_check(graphs[-1]).satisfied
        assert 0.3 * len(graphs) < violated < 0.9 * len(graphs)  # both verdicts well covered


def _random_regular_counts(rng, k, degree):
    """k x k counts summing ``degree`` random permutations; repeats give
    parallel edges."""
    counts = [[0] * k for _ in range(k)]
    perms = []
    for _ in range(degree):
        perm = rng.choice(perms) if perms and rng.random() < 0.3 else rng.sample(range(k), k)
        perms.append(perm)
        for i in range(k):
            counts[i][perm[i]] += 1
    return counts


def _fresh_hopcroft_karp_peel(counts):
    """The extraction the kernel replaced: a cold Hopcroft-Karp on a new
    graph of the residual support for every matching."""
    k = len(counts)
    residual = [row[:] for row in counts]
    while any(map(any, residual)):
        support = [(i, j) for i in range(k) for j in range(k) if residual[i][j]]
        res = mt.complete_matching(mt.BipartiteGraph.from_edges(k, k, support))
        assert res.complete
        cols = [res.matching[i] for i in range(k)]
        mult = min(residual[i][cols[i]] for i in range(k))
        for i in range(k):
            residual[i][cols[i]] -= mult
        yield cols, mult


def _runs(rows):
    """The peels of a row array: each maximal run of equal rows as (cols, mult)."""
    return [(cols, len(list(run))) for cols, run in itertools.groupby(rows.tolist())]


class TestPeelMatchings:
    def test_against_fresh_hopcroft_karp_extraction(self):
        rng = random.Random(61)
        for _ in range(300):
            k, degree = rng.randint(1, 8), rng.randint(0, 12)
            counts = _random_regular_counts(rng, k, degree)
            original = [row[:] for row in counts]
            residual = [row[:] for row in counts]
            rows = mt.peel_matchings(counts)
            assert rows.dtype == np.int64 and rows.shape == (degree, k)
            assert counts == original  # the caller's matrix is left unchanged
            peeled = _runs(rows)
            for cols, mult in peeled:
                assert sorted(cols) == list(range(k))
                assert all(residual[i][cols[i]] > 0 for i in range(k))  # inside the support
                assert mult == min(residual[i][cols[i]] for i in range(k))  # full multiplicity
                for i in range(k):
                    residual[i][cols[i]] -= mult
            assert residual == [[0] * k for _ in range(k)]
            assert (mt.peel_matchings(np.array(original)) == rows).all()
            reference = list(_fresh_hopcroft_karp_peel(original))
            assert sum(mult for _, mult in reference) == degree
            if peeled:  # the first solve is the cold one
                assert peeled[0] == reference[0]
            if degree <= 2:  # after the first peel the residual is a forced permutation
                assert peeled == reference

    @pytest.mark.parametrize("counts", [[[1, 0], [1, 1]], [[2, 0], [0, 1]], [[1, 1], [1]],
                                        [], [[]], [[2, -1], [-1, 2]], [[0.5, 0.5], [0.5, 0.5]],
                                        [[True, False], [False, True]], [[1, 0, 0], [0, 0, 1]],
                                        [[1, False], [False, True]]],
                             ids=["unequal_columns", "unequal_rows", "ragged", "empty", "empty_row",
                                  "negative", "fractional", "bool", "not_square", "mixed_bool"])
    def test_malformed_counts_rejected(self, counts, monkeypatch):
        monkeypatch.setattr(mt, "_HopcroftKarp", None)  # refused before any solve
        with pytest.raises(PreconditionError):
            mt.peel_matchings(counts)

    @pytest.mark.parametrize("counts", [[[mt.MAX_COUNT_CELLS + 1]], [[mt.MAX_COUNT_CELLS // 2 + 1] * 2] * 2,
                                        [[1 << 62] * 2] * 2],
                             ids=["one_cell", "two_by_two", "int64_line_sums"])
    def test_oversized_result_refused(self, counts, monkeypatch):
        # d * k result cells above the cap, including line sums past int64, refused before any solve
        monkeypatch.setattr(mt, "_HopcroftKarp", None)
        with pytest.raises(ResourceLimitError):
            mt.peel_matchings(counts)


def _pair_peel(counts):
    """The generator the row-array peel replaced: yields (cols, mult) and
    consumes ``counts`` in place."""
    adj = [list(itertools.compress(range(len(row)), row)) for row in counts]
    hk = mt._HopcroftKarp(adj, len(counts))
    while any(adj):
        hk.solve()
        cols = hk.pair_l.copy()
        mult = min(row[j] for row, j in zip(counts, cols))
        for i, j in enumerate(cols):
            counts[i][j] -= mult
            if not counts[i][j]:
                adj[i].remove(j)
                hk.pair_l[i] = hk.pair_r[j] = -1
        yield cols, mult


def _pool_edge_color(g):
    """The edge coloring that expanded each (cols, mult) peel into colors."""
    pool = [[[] for _ in range(g.right_count)] for _ in range(g.left_count)]
    for idx, (l, r) in enumerate(g.edges):
        pool[l][r].append(idx)
    color_of, color = {}, 0
    for cols, mult in _pair_peel([[len(ids) for ids in row] for row in pool]):
        for c in range(color, color + mult):  # instances of a vertex pair go last first
            for l, r in enumerate(cols):
                color_of[pool[l][r].pop()] = c
        color += mult
    return mt.EdgeColoring(graph=g, color_of=color_of, colors=len(g.edges) // g.left_count)


class TestRowPeelAgainstPairPeel:
    """The row-array peel and the coloring read off it equal the (cols, mult)
    generator and its pool-based coloring."""

    def test_multigraphs_with_shuffled_parallel_edges(self):
        rng = random.Random(89)
        for _ in range(1000):
            k, degree = rng.randint(1, 12), rng.randint(0, 12)
            counts = _random_regular_counts(rng, k, degree)
            expected = [cols for cols, mult in _pair_peel([row[:] for row in counts]) for _ in range(mult)]
            assert mt.peel_matchings(counts).tolist() == expected
            edges = [(i, j) for i in range(k) for j in range(k) for _ in range(counts[i][j])]
            rng.shuffle(edges)
            g = mt.BipartiteGraph.from_edges(k, k, edges)
            got, ref = mt.edge_color(g), _pool_edge_color(g)
            assert (got.colors, list(got.color_of.items())) == (ref.colors, list(ref.color_of.items()))

    def test_64_module_clos_request_set(self, monkeypatch):
        spec = ClosSpec(m=64, n=64, k=64)
        pi = list(range(spec.ports))
        random.Random(97).shuffle(pi)
        reqs = mt.CallRequestSet.from_permutation(pi, spec)
        tags = mt.clos_route_assignment(reqs)
        monkeypatch.setattr(mt, "edge_color", _pool_edge_color)
        assert tags == mt.clos_route_assignment(reqs)
        assert mt.verify_route_assignment(reqs, tags)


class _RecursiveHopcroftKarp(mt._HopcroftKarp):
    """The recursive augmenting search that the explicit stack replaced."""

    def _dfs(self, l):
        for r in self.adj[l]:
            nxt = self.pair_r[r]
            if nxt == -1 or (self.dist[nxt] == self.dist[l] + 1 and self._dfs(nxt)):
                self.pair_l[l] = r
                self.pair_r[r] = l
                return True
        self.dist[l] = self.INF
        return False


def _chain_graph(n):
    """Left i < n - 1 joins right i and i + 1, left n - 1 joins right 0 only:
    the last augmenting path shifts every match, n steps long."""
    edges = [e for i in range(n - 1) for e in ((i, i), (i, i + 1))] + [(n - 1, 0)]
    return mt.BipartiteGraph.from_edges(n, n, edges)


class TestIterativeAugmentingSearch:
    def test_matchings_witnesses_and_peels_equal_the_recursive_search(self, monkeypatch):
        rng = random.Random(83)
        graphs = [*_seeded_graphs(), _chain_graph(300)]
        for _ in range(150):  # sparse graphs, where augmenting paths run long
            left, right = rng.randint(1, 120), rng.randint(1, 120)
            edges = [(rng.randrange(left), rng.randrange(right)) for _ in range(rng.randint(0, 3 * left))]
            graphs.append(mt.BipartiteGraph.from_edges(left, right, edges))
        counts = [_random_regular_counts(rng, rng.randint(1, 40), rng.randint(0, 10)) for _ in range(100)]
        results = ([mt.complete_matching(g) for g in graphs], [mt.peel_matchings(c).tolist() for c in counts])
        with monkeypatch.context() as m:
            m.setattr(mt, "_HopcroftKarp", _RecursiveHopcroftKarp)
            reference = ([mt.complete_matching(g) for g in graphs],
                         [mt.peel_matchings(c).tolist() for c in counts])
        assert results == reference
        assert 0.2 * len(graphs) < sum(not r.complete for r in results[0]) < 0.9 * len(graphs)

    def test_augmenting_path_longer_than_the_interpreter_stack(self):
        n = 5000
        res = mt.complete_matching(_chain_graph(n))
        assert res.complete and res.violating_set is None
        assert res.matching == {**{i: i + 1 for i in range(n - 1)}, n - 1: 0}


class TestEdgeColoring:
    def test_degree_one(self):
        g = mt.BipartiteGraph.from_edges(3, 3, [(0, 1), (1, 2), (2, 0)])
        coloring = mt.edge_color(g)
        assert coloring.colors == 1
        assert coloring.is_proper()

    def test_color_classes_are_perfect_matchings(self):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.randint(2, 6)
            d = rng.randint(2, 4)
            edges = []
            for _ in range(d):
                perm = list(range(k))
                rng.shuffle(perm)
                edges.extend((i, perm[i]) for i in range(k))
            g = mt.BipartiteGraph.from_edges(k, k, edges)
            coloring = mt.edge_color(g)
            assert coloring.is_proper()
            for cls in coloring.classes():
                lefts = sorted(g.edges[e][0] for e in cls)
                rights = sorted(g.edges[e][1] for e in cls)
                assert lefts == list(range(k)) and rights == list(range(k))

    def test_integer_doubly_stochastic_3x3_decomposes(self):
        rng = random.Random(19)
        for _ in range(25):
            mat = [[0] * 3 for _ in range(3)]
            for _ in range(3):
                perm = list(range(3))
                rng.shuffle(perm)
                for i in range(3):
                    mat[i][perm[i]] += 1
            edges = [(i, j) for i in range(3) for j in range(3) for _ in range(mat[i][j])]
            coloring = mt.edge_color(mt.BipartiteGraph.from_edges(3, 3, edges))
            assert coloring.colors == 3 and coloring.is_proper()

    def test_two_regular_multigraph(self):
        edges = [(i, i) for i in range(6)] + [(i, (i + 2) % 6) for i in range(6)]
        coloring = mt.edge_color(mt.BipartiteGraph.from_edges(6, 6, edges))
        assert coloring.colors == 2
        assert coloring.is_proper()

    def test_multigraphs_with_parallel_edges(self):
        rng = random.Random(67)
        for _ in range(100):
            k, degree = rng.randint(1, 8), rng.randint(1, 12)
            counts = _random_regular_counts(rng, k, degree)
            edges = [(i, j) for i in range(k) for j in range(k) for _ in range(counts[i][j])]
            rng.shuffle(edges)
            coloring = mt.edge_color(mt.BipartiteGraph.from_edges(k, k, edges))
            assert coloring.colors == degree and coloring.is_proper()

    def test_is_proper_per_side(self):
        g = mt.BipartiteGraph.from_edges(2, 2, [(0, 1), (1, 0), (0, 0), (1, 1)])
        # left 0 and right 0 may share a color: they are different vertices
        assert mt.EdgeColoring(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2).is_proper()
        assert not mt.EdgeColoring(g, {0: 0, 1: 1, 2: 0, 3: 1}, 2).is_proper()  # left 0 twice
        assert not mt.EdgeColoring(g, {0: 0, 1: 1, 2: 1, 3: 0}, 2).is_proper()  # right 0 twice
        assert not mt.EdgeColoring(g, {0: 0, 1: 0, 2: 1}, 2).is_proper()  # an edge uncolored

    def test_rejects_irregular(self):
        g = mt.BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        with pytest.raises(PreconditionError):
            mt.edge_color(g)


def _independent_validity_check(reqs, tags):
    # deliberately different bookkeeping from the library checker
    n = reqs.spec.n
    for (sa, da), ta in zip(reqs.pairs, tags):
        if n * ta.out_module + ta.out_port != da:
            return False
    for (i, ((sa, da), ta)), (j, ((sb, db), tb)) in itertools.combinations(
        enumerate(zip(reqs.pairs, tags)), 2
    ):
        if sa // n == sb // n and ta.central == tb.central:
            return False
        if da // n == db // n and ta.central == tb.central:
            return False
    return True


class TestClosRouteAssignment:
    def test_reference_permutation(self):
        reqs = fixtures.eight_port_request_set()
        tags = mt.clos_route_assignment(reqs)
        assert mt.verify_route_assignment(reqs, tags)
        assert _independent_validity_check(reqs, tags)

    def test_reference_permutation_centrals(self):
        # pins the table2 tags: the first colour comes from Hopcroft-Karp on
        # the 2-regular module-pair graph and the second is forced
        tags = mt.clos_route_assignment(fixtures.eight_port_request_set())
        assert [t.central for t in tags] == [0, 1, 0, 1, 1, 0, 0, 1]

    def test_reference_tag_set_passes_checker(self):
        reqs = fixtures.eight_port_request_set()
        tags = fixtures.eight_port_reference_tags()
        assert mt.verify_route_assignment(reqs, tags)
        assert _independent_validity_check(reqs, tags)

    def test_identity_with_minimum_modules(self):
        spec = ClosSpec(m=3, n=3, k=3)
        reqs = mt.CallRequestSet.from_permutation(list(range(9)), spec)
        tags = mt.clos_route_assignment(reqs)
        assert mt.verify_route_assignment(reqs, tags)

    def test_random_permutations(self):
        rng = random.Random(5)
        spec = ClosSpec(m=4, n=4, k=8)
        for _ in range(100):
            perm = list(range(32))
            rng.shuffle(perm)
            reqs = mt.CallRequestSet.from_permutation(perm, spec)
            tags = mt.clos_route_assignment(reqs)
            assert mt.verify_route_assignment(reqs, tags)
            assert all(t.central < spec.n for t in tags)  # never needs more than n

    def test_partial_request_set(self):
        spec = ClosSpec(m=2, n=2, k=3)
        reqs = mt.CallRequestSet(((0, 5), (3, 2), (4, 0)), spec)
        tags = mt.clos_route_assignment(reqs)
        assert mt.verify_route_assignment(reqs, tags)

    def test_seeded_partial_request_sets(self):
        # partial sets are padded with dummy requests between spare ports;
        # the first 50 are empty sets and single requests
        rng = random.Random(23)
        for trial in range(500):
            n, k = rng.randint(1, 6), rng.randint(1, 8)
            spec = ClosSpec(m=rng.randint(n, n + 2), n=n, k=k)
            count = trial % 2 if trial < 50 else rng.randint(0, spec.ports)
            pairs = zip(rng.sample(range(spec.ports), count), rng.sample(range(spec.ports), count))
            reqs = mt.CallRequestSet(tuple(pairs), spec)
            tags = mt.clos_route_assignment(reqs)
            assert mt.verify_route_assignment(reqs, tags)
            assert _independent_validity_check(reqs, tags)
            assert all(t.central < n for t in tags)

    @pytest.mark.parametrize("ports", [[1.9, 0.2], [1.0, 0.0], [True, False], np.array([1.0, 0.0]),
                                       np.array([True, False])],
                             ids=["floats", "integral_floats", "bools", "float_array", "bool_array"])
    def test_non_integer_ports_rejected(self, ports):
        spec = ClosSpec(m=1, n=1, k=2)
        with pytest.raises(PreconditionError, match="not an integer"):
            mt.CallRequestSet.from_permutation(ports, spec)
        with pytest.raises(PreconditionError, match="not an integer"):
            mt.CallRequestSet(((0, 1), (ports[0], ports[1])), spec)  # a destination
        with pytest.raises(PreconditionError, match="not an integer"):
            mt.CallRequestSet(((ports[0], 1), (ports[1], 0)), spec)  # a source

    def test_python_and_numpy_integer_ports_accepted(self):
        spec = ClosSpec(m=1, n=1, k=2)
        for pi in ([1, 0], np.array([1, 0]), [np.int32(1), np.uint8(0)]):
            reqs = mt.CallRequestSet.from_permutation(pi, spec)
            assert reqs.pairs == ((0, 1), (1, 0))
            assert mt.verify_route_assignment(reqs, mt.clos_route_assignment(reqs))

    def test_insufficient_bandwidth_rejected(self):
        spec = ClosSpec(m=1, n=2, k=2)
        reqs = mt.CallRequestSet.from_permutation([1, 0, 3, 2], spec)
        with pytest.raises(DomainError):
            mt.clos_route_assignment(reqs)

    def test_checker_rejects_corrupt_tags(self):
        reqs = fixtures.eight_port_request_set()
        tags = mt.clos_route_assignment(reqs)
        bad = list(tags)
        bad[0] = mt.RoutingTag(bad[1].central, bad[0].out_module, bad[0].out_port)
        if bad[0].central == tags[0].central:
            bad[0] = mt.RoutingTag(1 - tags[0].central, bad[0].out_module, bad[0].out_port)
        # requests 0 and 1 share input module 0, so equal centrals must fail
        bad[1] = mt.RoutingTag(bad[0].central, tags[1].out_module, tags[1].out_port)
        assert not mt.verify_route_assignment(reqs, bad)


class TestBenesFlip:
    def test_reference_permutation_satisfies_all(self):
        pi = fixtures.benes_permutation()
        x = mt.benes_flip_assign(pi)
        sys = mt.benes_constraints(pi)
        assert all(x[i] + x[j] == 1 for i, j in sys.constraints)

    def test_identity_needs_no_flips(self):
        x = mt.benes_flip_assign([0, 1, 2, 3])
        assert x == [0, 1, 0, 1]
        assert mt.benes_flip_assign([]) == []

    def test_even_unsatisfied_count_per_cycle_at_start(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice([4, 6, 8, 10])
            pi = list(range(n))
            rng.shuffle(pi)
            sys = mt.benes_constraints(pi)
            x0 = [i % 2 for i in range(n)]
            # a constraint's cycle is named by the lowest variable it reaches
            cycle_of = list(range(n))
            changed = True
            while changed:
                changed = False
                for i, j in sys.constraints:
                    low = min(cycle_of[i], cycle_of[j])
                    if cycle_of[i] != low or cycle_of[j] != low:
                        cycle_of[i] = cycle_of[j] = low
                        changed = True
            unsat: dict[int, int] = {}
            for i, j in sys.constraints:
                unsat[cycle_of[i]] = unsat.get(cycle_of[i], 0) + (x0[i] + x0[j] != 1)
            assert len(unsat) == mt.count_components(sys)
            assert all(count % 2 == 0 for count in unsat.values())

    def test_random_permutations_all_satisfied(self):
        rng = random.Random(31)
        for n in (4, 8, 16, 32):
            for _ in range(250):
                pi = list(range(n))
                rng.shuffle(pi)
                x = mt.benes_flip_assign(pi)
                sys = mt.benes_constraints(pi)
                assert all(x[i] + x[j] == 1 for i, j in sys.constraints)

    def test_odd_size_rejected(self):
        with pytest.raises(DomainError):
            mt.benes_flip_assign([0, 2, 1])

    # integral floats and bools are not integer permutations either
    @pytest.mark.parametrize("pi", [[0, 0, 1, 2], [0, 1, 3, 3], [1.0, 0.0, 3.0, 2.0], [True, False], [True, 0]])
    @pytest.mark.parametrize("fn", [mt.benes_constraints, mt.benes_flip_assign, mt.benes_full_assign])
    def test_non_permutation_rejected(self, fn, pi):
        with pytest.raises(PreconditionError):
            fn(pi)


class TestConstraintCounting:
    def test_single_cycle_system(self):
        sys = mt.BenesConstraintSystem(2, ((0, 1), (0, 1)))
        assert mt.count_components(sys) == 1
        assert mt.count_solutions_bruteforce(sys) == 2

    def test_reference_permutation_counts(self):
        pi = fixtures.benes_permutation()
        sys = mt.benes_constraints(pi)
        g = mt.count_components(sys)
        assert mt.count_solutions_bruteforce(sys) == 2**g

    def test_solution_count_random(self):
        rng = random.Random(13)
        for n in (4, 6, 8, 10, 12):
            for _ in range(20):
                pi = list(range(n))
                rng.shuffle(pi)
                sys = mt.benes_constraints(pi)
                assert mt.count_solutions_bruteforce(sys) == 2 ** mt.count_components(sys)


class TestBenesFullAssignment:
    def test_all_permutations_of_four(self):
        for pi in itertools.permutations(range(4)):
            assignment = mt.benes_full_assign(pi)
            assert assignment.realized_permutation() == list(pi)

    def test_reference_permutation(self):
        pi = fixtures.benes_permutation()
        assignment = mt.benes_full_assign(pi)
        assert tuple(assignment.realized_permutation()) == pi

    def test_identity_eight(self):
        assignment = mt.benes_full_assign(list(range(8)))
        assert assignment.realized_permutation() == list(range(8))

    def test_random_larger_sizes(self):
        rng = random.Random(17)
        for n in (8, 16):
            for _ in range(200):
                pi = list(range(n))
                rng.shuffle(pi)
                assignment = mt.benes_full_assign(pi)
                assert assignment.realized_permutation() == pi

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            mt.benes_full_assign([2, 0, 1, 3, 4, 5])


# --- reference: the tagged-cycle Benes solver, oracle of the array kernel --

def _ref_constraint_cycles(sys):
    var_adj = [[] for _ in range(sys.size)]
    for c, (i, j) in enumerate(sys.constraints):
        var_adj[i].append(c)
        var_adj[j].append(c)
    con_vars = {c: pair for c, pair in enumerate(sys.constraints)}
    seen_c = set()
    cycles = []
    for start in range(len(sys.constraints)):
        if start in seen_c:
            continue
        cycle = []
        c = start
        prev_var = -1
        while True:
            seen_c.add(c)
            cycle.append(("c", c))
            i, j = con_vars[c]
            v = j if i == prev_var else i
            cycle.append(("v", v))
            a, b2 = var_adj[v]
            c = b2 if a == c else a
            prev_var = v
            if c == start:
                break
        cycles.append(cycle)
    return cycles


def _ref_flip_assign(pi):
    sys = mt.benes_constraints(pi)
    x = [i % 2 for i in range(sys.size)]

    def unsat(c):
        i, j = sys.constraints[c]
        return x[i] + x[j] != 1

    for cycle in _ref_constraint_cycles(sys):
        con_positions = [t for t, (kind, _) in enumerate(cycle) if kind == "c"]
        bad = [t for t in con_positions if unsat(cycle[t][1])]
        if not bad:
            continue
        anchor = min(bad, key=lambda t: cycle[t][1])
        size = len(cycle)
        label = 0
        flip = set()
        for step in range(1, size):
            kind, idx = cycle[(anchor + step) % size]
            if kind == "c":
                if unsat(idx):
                    label ^= 1
            elif label == 0:
                flip.add(idx)
        for v in flip:
            x[v] ^= 1
    return x


def _ref_full_assign(pi):
    """The tagged-cycle recursion, writing each subnetwork's element states
    into the level array at its block's first element."""
    t = len(pi).bit_length() - 1
    crosses = np.zeros((2 * t - 1, len(pi) // 2), dtype=bool)

    def assign(sub, level, offset):
        if len(sub) == 2:
            crosses[level, offset] = sub[0] == 1
            return
        x = _ref_flip_assign(sub)
        half = len(sub) // 2
        upper_pi = [-1] * half
        lower_pi = [-1] * half
        for e in range(half):
            up_in = 2 * e if x[2 * e] == 0 else 2 * e + 1
            crosses[level, offset + e] = up_in != 2 * e
            upper_pi[e] = sub[up_in] // 2
            lower_pi[e] = sub[up_in ^ 1] // 2
            crosses[2 * t - 2 - level, offset + sub[up_in] // 2] = sub[up_in] % 2 == 1
        assign(upper_pi, level + 1, offset)
        assign(lower_pi, level + 1, offset + half // 2)

    assign(list(pi), 0, 0)
    return crosses


def _draws(rng, n, count):
    """``count`` shuffled permutations of n ports, then ``count`` whose
    constraint graph is one cycle over all n ports, so that their g-orbits
    are as long as they get (n/2 ports) and one pointer-jumping round too few
    shows: input module a[i] sends one port to output module b[i] and the
    other to b[i - 1]."""
    for _ in range(count):
        pi = list(range(n))
        rng.shuffle(pi)
        yield pi
    k = n // 2
    for _ in range(count):
        a, b = rng.sample(range(k), k), rng.sample(range(k), k)
        side, slot = [rng.randrange(2) for _ in range(k)], [rng.randrange(2) for _ in range(k)]
        pi = [0] * n
        for i in range(k):
            pi[2 * a[i] + side[i]] = 2 * b[i] + slot[i]
            pi[2 * a[i] + 1 - side[i]] = 2 * b[i - 1] + 1 - slot[i - 1]
        assert mt.count_components(mt.benes_constraints(pi)) == 1
        yield pi


class TestBenesAgainstTaggedCycles:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16, 32, 64, 256, 1024, 4096])
    def test_flip_assignment_is_identical(self, n):
        rng = random.Random(1000 + n)
        for pi in _draws(rng, n, 200 if n <= 32 else 20 if n <= 256 else 3):
            assert mt.benes_flip_assign(pi) == _ref_flip_assign(pi)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096])
    def test_full_assignment_tree_is_identical(self, n):
        rng = random.Random(2000 + n)
        for pi in _draws(rng, n, 40 if n <= 64 else 3 if n <= 1024 else 1):
            got = mt.benes_full_assign(pi)
            assert got.crosses.dtype == bool and not got.crosses.flags.writeable and got.size == n
            assert np.array_equal(got.crosses, _ref_full_assign(pi))
            # level 0's input column is the outer stage; at N = 2 row 0 is the centre
            assert n == 2 or np.array_equal(got.crosses[0], mt.benes_flip_assign(pi)[::2])
