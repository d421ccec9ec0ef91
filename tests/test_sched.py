import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from switchlab import fixtures
from switchlab import pathswitch as ps
from switchlab import sched as sc
from switchlab.closmodel import ClosSpec
from switchlab.errors import DomainError, PreconditionError, ResourceLimitError


def _random_weightset(rng, max_states=6, max_count=6):
    k = rng.randint(1, max_states)
    counts = [rng.randint(1, max_count) for _ in range(k)]
    f = sum(counts)
    return sc.WeightSet(tuple(Fraction(c, f) for c in counts))


def _random_frame(rng, weights):
    slots = []
    for i, c in enumerate(weights.counts):
        slots.extend([i] * c)
    rng.shuffle(slots)
    return sc.FrameSequence(tuple(slots))


class TestWeightSet:
    def test_frame_size_and_counts(self):
        w = sc.WeightSet.of("0.5", "0.125", "0.125", "0.125", "0.125")
        assert w.frame_size == 8
        assert w.counts == (4, 1, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            sc.WeightSet.of("0.5", "0.25")
        with pytest.raises(PreconditionError):
            sc.WeightSet.of("1.5", "-0.5")

    @pytest.mark.parametrize("weights", [(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30)),
                                         (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 2**70)),
                                         (1, 0), (Fraction(3, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2), 0),
                                         (Fraction(-1, 10**30), 1)],
                             ids=["just_past_one", "past_one_by_2^-70", "zero", "negative", "zero_last",
                                  "tiny_negative"])
    def test_refuses_sums_past_one_and_non_positive_weights(self, weights):
        with pytest.raises(PreconditionError, match="sum to one" if min(weights) > 0 else "positive"):
            sc.WeightSet(weights)

    def test_weights_are_a_view_of_the_counts(self):
        w = sc.WeightSet((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert (w.counts, w.frame_size) == ((3, 2, 1), 6)
        assert w.weights == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert w == sc.WeightSet.of("1/2", "1/3", "1/6")

    def test_oversized_frame_refused_by_the_frame_schedulers_only(self):
        w = sc.WeightSet.of("0.1234567", "0.8765433")
        assert w.counts == (1234567, 8765433) and w.frame_size == 10**7
        for schedule in (*sc.SCHEDULERS.values(), sc.wfq_trace, sc.wf2q_trace):
            with pytest.raises(ResourceLimitError):
                schedule(w)
        assert len(sc.schedule_random(w, 100)) == 100

    def test_random_schedule_slot_count_is_capped(self):
        w = sc.WeightSet.of("0.5", "0.5")
        for slots in (sc.MAX_RANDOM_SLOTS + 1, 10**11):
            with pytest.raises(ResourceLimitError, match="slots exceed"):
                sc.schedule_random(w, slots)


class TestWfq:
    def test_five_state_trace(self):
        w = fixtures.five_state_weights()
        seq = sc.schedule_wfq(w)
        assert seq.slots == (0, 0, 0, 0, 1, 2, 3, 4)
        trace = sc.wfq_trace(w)
        assert [pick for _, pick in trace] == list(seq.slots)
        assert trace[0][0] == (2, 8, 8, 8, 8) and trace[4][0] == (10, 8, 8, 8, 8)

    def test_single_state(self):
        seq = sc.schedule_wfq(sc.WeightSet.of(1))
        assert seq.slots == (0,)

    def test_quarter_three_quarter(self):
        seq = sc.schedule_wfq(sc.WeightSet.of("0.25", "0.75"))
        assert seq.slots == (1, 1, 0, 1)

    def test_counts_always_match(self):
        rng = random.Random(1)
        for _ in range(100):
            w = _random_weightset(rng)
            seq = sc.schedule_wfq(w)
            for i, c in enumerate(w.counts):
                assert seq.slots.count(i) == c


class TestWf2q:
    def test_five_state_sequence(self):
        seq = sc.schedule_wf2q(fixtures.five_state_weights())
        assert seq.slots == (0, 1, 0, 2, 0, 3, 0, 4)

    def test_five_state_qualified_sets(self):
        trace = sc.wf2q_trace(fixtures.five_state_weights())
        expected = [
            (0, 1, 2, 3, 4),
            (1, 2, 3, 4),
            (0, 2, 3, 4),
            (2, 3, 4),
            (0, 3, 4),
            (3, 4),
            (0, 4),
            (4,),
        ]
        assert [t.qualified for t in trace] == expected
        assert [t.selection for t in trace] == [0, 1, 0, 2, 0, 3, 0, 4]

    def test_uniform_weights_serve_each_once(self):
        w = sc.WeightSet.of(*(["1/5"] * 5))
        seq = sc.schedule_wf2q(w)
        assert sorted(seq.slots) == [0, 1, 2, 3, 4]

    def test_counts_always_match(self):
        rng = random.Random(2)
        for _ in range(100):
            w = _random_weightset(rng)
            seq = sc.schedule_wf2q(w)
            for i, c in enumerate(w.counts):
                assert seq.slots.count(i) == c


class TestHurr:
    def test_five_state_sequence(self):
        seq = sc.schedule_hurr(fixtures.five_state_weights())
        assert seq.slots == (0, 1, 0, 3, 0, 2, 0, 4)

    def test_two_state_equals_wfq(self):
        w = sc.WeightSet.of("0.25", "0.75")
        assert sc.schedule_hurr(w).slots == sc.schedule_wfq(w).slots

    def test_four_state_alternating(self):
        w = sc.WeightSet.of("1/8", "1/8", "1/4", "1/2")
        assert sc.schedule_hurr(w).slots == (0, 3, 2, 3, 1, 3, 2, 3)

    def test_single_state_rejected(self):
        with pytest.raises(DomainError):
            sc.schedule_hurr(sc.WeightSet.of(1))

    def test_counts_always_match(self):
        rng = random.Random(3)
        for _ in range(100):
            w = _random_weightset(rng)
            if len(w) < 2:
                continue
            seq = sc.schedule_hurr(w)
            for i, c in enumerate(w.counts):
                assert seq.slots.count(i) == c


# --- per-slot Fraction reference schedulers: test-only oracles for the integer ones

def _ref_wfq_steps(phis, slots):
    finish = [1 / w for w in phis]
    for _ in range(slots):
        pick = min(range(len(phis)), key=lambda i: (finish[i], i))
        yield tuple(finish), pick
        finish[pick] += 1 / phis[pick]


def _ref_wf2q(phis):
    f = math.lcm(*(w.denominator for w in phis))
    finish = [1 / w for w in phis]
    served = [0] * len(phis)
    trace = []
    for tau in range(1, f + 1):
        qualified = tuple(i for i, w in enumerate(phis) if served[i] <= (tau - 1) * w)
        pick = min(qualified, key=lambda i: (finish[i], i))
        trace.append((tuple(finish), qualified, pick))
        served[pick] += 1
        finish[pick] += 1 / phis[pick]
    return trace


def _scan_wf2q(w):
    """The per-slot scan that the two heaps of ``_wf2q_steps`` replaced: in
    every slot, test every state's virtual start and compare the finish
    times of the qualified ones by cross-multiplication.  Returns the
    qualified states and the pick of each slot."""
    f, counts = w.frame_size, w.counts
    served = [0] * len(counts)
    steps = []
    for tau in range(1, f + 1):
        qualified = [i for i, c in enumerate(counts) if served[i] * f <= (tau - 1) * c]
        pick = qualified[0]
        for i in qualified[1:]:
            if (served[i] + 1) * counts[pick] < (served[pick] + 1) * counts[i]:
                pick = i
        steps.append((tuple(qualified), pick))
        served[pick] += 1
    return steps


def _ref_hurr(phis):
    """Nodes are [weight, lowest leaf, state or (left, right)]."""
    nodes = [[w, i, i] for i, w in enumerate(phis)]
    while len(nodes) > 1:
        nodes.sort(key=lambda nd: (nd[0], nd[1]))
        a, b = nodes[0], nodes[1]
        left, right = (a, b) if a[1] < b[1] else (b, a)
        nodes = [[a[0] + b[0], left[1], (left, right)]] + nodes[2:]
    seq = nodes * math.lcm(*(w.denominator for w in phis))
    while True:
        targets = [nd for nd in seq if isinstance(nd[2], tuple)]
        if not targets:
            return tuple(nd[2] for nd in seq)
        node = targets[0]
        left, right = node[2]
        total = left[0] + right[0]
        order = [pick for _, pick in _ref_wfq_steps([left[0] / total, right[0] / total],
                                                     sum(1 for nd in seq if nd is node))]
        replacement = iter(left if pick == 0 else right for pick in order)
        seq = [next(replacement) if nd is node else nd for nd in seq]


def _differential_weight_sets():
    rng = random.Random(17)
    sets = [entry["weights"] for entry in fixtures.scheduler_table()]
    sets.append(fixtures.five_state_weights())
    for _ in range(60):
        counts = [rng.randint(1, 12) for _ in range(rng.randint(1, 10))]
        sets.append(sc.WeightSet(tuple(Fraction(c, sum(counts)) for c in counts)))
    return sets


class TestAgainstFractionReference:
    @pytest.fixture(scope="class")
    def weight_sets(self):
        return _differential_weight_sets()

    def test_wfq_frame_and_trace(self, weight_sets):
        for w in weight_sets:
            ref = list(_ref_wfq_steps(w.weights, w.frame_size))
            assert sc.wfq_trace(w) == ref
            assert sc.schedule_wfq(w).slots == tuple(pick for _, pick in ref)

    def test_wf2q_frame_and_trace(self, weight_sets):
        for w in weight_sets:
            ref = _ref_wf2q(w.weights)
            assert [(t.finish, t.qualified, t.selection) for t in sc.wf2q_trace(w)] == ref
            assert sc.schedule_wf2q(w).slots == tuple(pick for _, _, pick in ref)

    def test_hurr_frame(self, weight_sets):
        for w in weight_sets:
            if len(w) >= 2:
                assert sc.schedule_hurr(w).slots == _ref_hurr(w.weights)

    def test_hurr_frame_with_huffman_ties(self):
        # up to 40 states drawn from few distinct counts, so equal node counts
        # and equal merged sums are common; then 1024 equal weights
        rng = random.Random(19)
        sets = []
        for _ in range(300):
            counts = [rng.randint(1, rng.choice((1, 2, 4, 9))) for _ in range(rng.randint(2, 40))]
            sets.append(sc.WeightSet(tuple(Fraction(c, sum(counts)) for c in counts)))
        sets.append(sc.WeightSet(tuple(Fraction(1, 1024) for _ in range(1024))))
        for w in sets:
            assert sc.schedule_hurr(w).slots == _ref_hurr(w.weights)
        assert sum(len(set(w.counts)) < len(w) for w in sets) > 250


def _exact_workload_decomposition(seed=0, k=32, m=4, frame=256):
    """The k = 32, F = 256 decomposition, drawn and built as the exact
    benchmark workload builds it."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.2, 1.0, size=(k, k))
    lam *= 0.8 * m / max(lam.sum(axis=0).max(), lam.sum(axis=1).max())
    traffic = ps.TrafficMatrix(lam, ClosSpec(m=m, n=m, k=k))
    rounded, _ = ps.bandlimit_and_round(ps.allocate_capacity(traffic), frame, modules=m)
    return ps.bvn_decompose(rounded)


def _exact_workload_weights(seed=0):
    """State weights of the exact workload's decomposition."""
    return sc.WeightSet(tuple(w for _, w in _exact_workload_decomposition(seed).states))


class TestHeapsAgainstScan:
    """The two-heap WF2Q equals the per-slot scan on frames and qualified sets."""

    def test_seeded_weight_sets(self):
        rng = random.Random(23)
        for _ in range(2000):
            counts = [rng.randint(1, 12) for _ in range(rng.randint(1, 30))]
            w = sc.WeightSet(tuple(Fraction(c, sum(counts)) for c in counts))
            steps = _scan_wf2q(w)
            assert [(tuple(sorted(i for _, i in ready)), pick) for _, ready, pick in sc._wf2q_steps(w)] == steps
            assert sc.schedule_wf2q(w).slots == tuple(pick for _, pick in steps)

    def test_exact_workload_weights(self):
        w = _exact_workload_weights()
        assert (len(w), w.frame_size) == (254, 256)
        steps = _scan_wf2q(w)
        assert [(t.qualified, t.selection) for t in sc.wf2q_trace(w)] == steps
        assert sc.schedule_wf2q(w).slots == tuple(pick for _, pick in steps)


def _huffman_trees(nodes):
    """Every Huffman tree over nodes (count, state or (left, right)): each
    step merges two nodes holding the two least counts, under any choice
    among ties and in either child order."""
    if len(nodes) == 1:
        yield nodes[0]
        return
    least = sorted(c for c, _ in nodes)[:2]
    for a, b in itertools.permutations(range(len(nodes)), 2):
        if sorted((nodes[a][0], nodes[b][0])) == least:
            rest = [nd for j, nd in enumerate(nodes) if j not in (a, b)]
            yield from _huffman_trees(rest + [(nodes[a][0] + nodes[b][0], (nodes[a], nodes[b]))])


def _tree_frame(node):
    """A node's HuRR frame: its children's frames interleaved in the
    two-state WFQ order of their counts."""
    count, kids = node
    if not isinstance(kids, tuple):
        return [kids] * count
    frames = iter(_tree_frame(kids[0])), iter(_tree_frame(kids[1]))
    order = _ref_wfq_steps([Fraction(kids[0][0], count), Fraction(kids[1][0], count)], count)
    return [next(frames[pick]) for _, pick in order]


class TestTableSixRowsOutOfReach:
    """Two listed table-6 values that no frame reaches: the criterion-11
    FAIL names them, and these exhaustive searches show why."""

    def test_row_7_no_arrangement_gives_the_listed_wf2q(self):
        row = fixtures.scheduler_table()[6]
        w = row["weights"]
        assert w.counts == (1, 1, 1, 2)
        frames = set(itertools.permutations([0, 1, 2, 3, 3]))
        averages = {round(sc.smoothness(sc.FrameSequence(f), w).average, 4) for f in frames}
        assert len(frames) == 60 and averages == {1.9332, 2.0106}
        assert sc.schedule_wf2q(w).slots in frames
        assert all(abs(a - row["wf2q"]) > 0.02 for a in averages)

    def test_row_8_no_huffman_tree_gives_the_listed_hurr(self):
        row = fixtures.scheduler_table()[7]
        w = row["weights"]
        assert w.counts == (1, 3, 3, 3)
        frames = [tuple(_tree_frame(t)) for t in _huffman_trees([(c, i) for i, c in enumerate(w.counts)])]
        averages = {round(sc.smoothness(sc.FrameSequence(f), w).average, 4) for f in frames}
        assert len(frames) == 24 and sc.schedule_hurr(w).slots in frames
        assert averages == {1.9324}
        assert all(abs(a - row["hurr"]) > 0.02 for a in averages)


class TestSmoothness:
    def test_optimal_dyadic(self):
        w = sc.WeightSet.of("1/2", "1/4", "1/8", "1/8")
        rep = sc.smoothness(sc.schedule_hurr(w), w)
        assert rep.average == pytest.approx(1.75, abs=1e-12)
        assert rep.entropy == pytest.approx(1.75, abs=1e-12)
        assert rep.kraft_sum == pytest.approx(1.0, abs=1e-12)

    def test_wfq_on_dyadic(self):
        w = sc.WeightSet.of("1/2", "1/4", "1/8", "1/8")
        rep = sc.smoothness(sc.schedule_wfq(w), w)
        assert rep.average == pytest.approx(1.8758, abs=5e-4)

    def test_uniform_weights_hit_entropy(self):
        for f in (2, 4, 7):
            w = sc.WeightSet(tuple(Fraction(1, f) for _ in range(f)))
            seq = sc.FrameSequence(tuple(range(f)))
            rep = sc.smoothness(seq, w)
            assert rep.average == pytest.approx(math.log2(f), abs=1e-12)
            assert rep.average == pytest.approx(rep.entropy, abs=1e-12)

    def test_count_mismatch_rejected(self):
        w = sc.WeightSet.of("0.5", "0.5")
        with pytest.raises(DomainError):
            sc.smoothness(sc.FrameSequence((0, 0)), w)

    def test_kraft_and_entropy_bound_on_random_frames(self):
        rng = random.Random(5)
        for _ in range(1200):
            w = _random_weightset(rng)
            rep = sc.smoothness(_random_frame(rng, w), w)
            assert rep.kraft_sum <= 1.0 + 1e-9
            assert rep.average >= rep.entropy - 1e-9

    def test_equality_iff_constant_gaps(self):
        # interleaved dyadic frame has constant per-state gaps 1/phi
        w = sc.WeightSet.of("1/2", "1/4", "1/8", "1/8")
        seq = sc.FrameSequence((0, 1, 0, 2, 0, 1, 0, 3))
        rep = sc.smoothness(seq, w)
        assert rep.average == pytest.approx(rep.entropy, abs=1e-12)
        # perturbing one pair of slots breaks the equality
        bad = sc.FrameSequence((0, 1, 0, 2, 1, 0, 0, 3))
        rep2 = sc.smoothness(bad, w)
        assert rep2.average > rep2.entropy + 1e-6


class TestEntropy:
    def test_reference_values(self):
        assert sc.entropy(sc.WeightSet.of("1/2", "1/4", "1/8", "1/8")) == pytest.approx(1.75)
        assert sc.entropy(sc.WeightSet.of("0.1", "0.1", "0.1", "0.7")) == pytest.approx(
            1.357, abs=1e-3
        )
        assert sc.entropy(sc.WeightSet.of(1)) == 0.0


class TestRandomSchedule:
    def test_analytic_gap_matches_simulation(self):
        w = sc.WeightSet.of("0.2", "0.3", "0.5")
        seq = sc.schedule_random(w, 1_000_000, seed=7)
        emp = sc.random_sequence_smoothness(seq, w)
        expected = sc.entropy(w) + sc.expected_random_smoothness_gap(w)
        assert emp == pytest.approx(expected, abs=0.02)

    def test_gap_below_half_and_maximized_at_uniform(self):
        rng = np.random.default_rng(11)
        for k in (2, 3, 5, 8):
            uniform = sc.WeightSet(tuple(Fraction(1, k) for _ in range(k)))
            g_uniform = sc.expected_random_smoothness_gap(uniform)
            assert g_uniform < 0.5
            assert g_uniform == pytest.approx(0.5 * math.log2(2 - 1 / k), abs=1e-12)
            for _ in range(200):
                probs = rng.dirichlet(np.ones(k))
                gap = 0.5 * sum(p * math.log2(2 - p) for p in probs)
                assert gap <= g_uniform + 1e-12

    def test_single_state_sequence(self):
        w = sc.WeightSet.of(1)
        seq = sc.schedule_random(w, 100, seed=1)
        assert seq.dtype == np.int64 and set(seq.tolist()) == {0}

    def test_unknown_states_refused(self):
        w = sc.WeightSet.of("1/2", "1/2")
        # [0, 1, 0, 1, True, 1.0] scored 0.75, counting True and 1.0 as state 1; state 2 was ignored
        for seq in ([0, 1, 0, 1, True, 1.0], [0, 1, 0, 1, 2], [0, 1, 0, 1, -1], np.array([0, 1, 0, 1.0]),
                    [0, 1, 0, 1, None], [0, 1, 0, "1"], [[0, 1], [0, 1]]):
            with pytest.raises(DomainError, match="unknown states"):
                sc.random_sequence_smoothness(seq, w)
        assert sc.random_sequence_smoothness(np.array([0, 1, 0, 1], dtype=np.uint8), w) == \
            sc.random_sequence_smoothness([0, np.int64(1), 0, 1], w) == 1.0


class TestTokenGrid:
    def test_tokens_must_be_a_3d_nonnegative_integer_array(self):
        # half tokens scored 0.25 bits, a 2-D array ended in IndexError and a nested list in TypeError
        for bad in (np.array([[[0.5, 0.5]]]), np.eye(2, dtype=np.int64), np.ones((1, 1, 2), dtype=bool),
                    [[[1, True]]], [[[1, -1]]], [[[1, 0], [1]]]):
            with pytest.raises(PreconditionError, match="3-D array of nonnegative integer counts"):
                sc.smoothness_2d(sc.TokenGrid(bad))
        grid = sc.TokenGrid([[[1, 0]]])
        assert grid.tokens.dtype == np.uint8 and grid.tokens.tolist() == [[[1, 0]]]  # its largest count's dtype
        with pytest.raises(ResourceLimitError):
            sc.TokenGrid([[[2**70]]])

    def test_roundtrip_text(self):
        grid = fixtures.reference_grid("wfq")
        assert np.array_equal(sc.TokenGrid.from_text(grid.to_text()).tokens, grid.tokens)

    def test_text_form_refuses_more_inputs_than_symbols(self):
        limit = len(sc.GRID_SYMBOLS)
        assert sc.TokenGrid(np.eye(limit, dtype=np.int64)[:, :, None]).to_text().splitlines()[-1] == "z"
        with pytest.raises(DomainError, match="27 input modules exceed"):
            sc.TokenGrid(np.eye(limit + 1, dtype=np.int64)[:, :, None]).to_text()

    def test_grid_from_reference_schedule_matches_fixture(self):
        states = fixtures.capacity_4x4_states()
        weights = sc.WeightSet(tuple(w for _, w in states))
        wfq = sc.schedule_wfq(weights)
        grid = sc.grid_from_schedule([states[i][0] for i in wfq.slots])
        assert np.array_equal(grid.tokens, fixtures.reference_grid("wfq").tokens)
        hurr = sc.schedule_hurr(weights)
        grid2 = sc.grid_from_schedule([states[i][0] for i in hurr.slots])
        assert np.array_equal(grid2.tokens, fixtures.reference_grid("hurr").tokens)

    def test_alternate_decomposition_grid(self):
        states = fixtures.capacity_4x4_alt_states()
        weights = sc.WeightSet(tuple(w for _, w in states))
        hurr = sc.schedule_hurr(weights)
        grid = sc.grid_from_schedule([states[i][0] for i in hurr.slots])
        assert np.array_equal(grid.tokens, fixtures.reference_grid("hurr_alt").tokens)

    def test_identity_every_slot(self):
        patterns = [np.eye(3, dtype=np.int64)] * 4
        grid = sc.grid_from_schedule(patterns)
        assert np.repeat(np.arange(4), grid.tokens[0, 0]).tolist() == [0, 1, 2, 3]
        assert np.repeat(np.arange(4), grid.tokens[0, 1]).tolist() == []

    def test_malformed_pattern_rejected(self):
        # unequal line sums; non-integer patterns, refused rather than cast; ragged and empty ones
        for bad in (np.array([[1, 0], [1, 0]]), [[0.5, 0.5], [0.5, 0.5]], [[1.7, 0.2], [0.2, 1.7]],
                    [[1.0, 0.0], [0.0, 1.0]], [[True, False], [False, True]], np.eye(2, dtype=bool),
                    [["1", "0"], ["0", "1"]], [[1, 0], [0]], [1, 0], np.zeros((0, 0), dtype=np.int64)):
            with pytest.raises(PreconditionError):
                sc.grid_from_schedule([bad])
        with pytest.raises(PreconditionError):
            sc.grid_from_schedule([np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)])
        small = sc.grid_from_schedule([np.eye(2, dtype=np.int8), [[0, 1], [1, 0]]])
        assert small.tokens.dtype == np.uint8 and small.tokens[0, 1].tolist() == [0, 1]  # m = 1's dtype

    def test_from_text_refuses_unknown_symbols(self):
        for text, symbol in (("A", "'A'"), ("a1 b", "'1'"), ("ab- b", "'-'"), ("a\nb?", "'?'")):
            with pytest.raises(PreconditionError, match=f"grid symbol {symbol}"):
                sc.TokenGrid.from_text(text)

    def test_negative_token_counts_refused(self):
        for tokens in ([[[1, -1, 0]]], [[[2, -1, 0]]]):
            with pytest.raises(PreconditionError, match="nonnegative"):
                sc.TokenGrid(np.array(tokens))

    def test_grid_holds_a_read_only_array_the_caller_cannot_change(self):
        # the grid kept the caller's writable array, so a write after construction reached it
        arr = np.ones((2, 2, 3), dtype=np.int64)
        grid = sc.TokenGrid(arr)
        arr[0, 0, 0] = -5
        assert grid.tokens[0, 0, 0] == 1 and not grid.tokens.flags.writeable
        fixed = np.ones((2, 2, 3), dtype=np.uint8)
        fixed.flags.writeable = False
        assert sc.TokenGrid(fixed).tokens is fixed  # read-only, owning its data and in its stored dtype: kept
        wide = np.ones((2, 2, 3), dtype=np.int64)
        wide.flags.writeable = False
        grid = sc.TokenGrid(wide)  # in another dtype: held narrow
        assert grid.tokens.dtype == np.uint8 and (grid.tokens == wide).all() and not grid.tokens.flags.writeable
        source = np.ones((2, 2, 3), dtype=np.int64)
        view = source.view()
        view.flags.writeable = False
        grid = sc.TokenGrid(view)
        source[0, 0, 0] = 7  # a read-only view of a writable array is copied
        assert grid.tokens[0, 0, 0] == 1 and grid.tokens.base is None
        assert not sc.grid_from_schedule([np.eye(2, dtype=np.int64)] * 3).tokens.flags.writeable

    def test_grid_is_the_only_sign_gate_of_a_schedule(self):
        # line sums of one: grid_from_schedule checks them, and the grid refuses the negative counts
        with pytest.raises(PreconditionError, match="3-D array of nonnegative integer counts"):
            sc.grid_from_schedule([[[2, -1], [-1, 2]]])

    def test_multitoken_cells(self):
        doubled = np.eye(2, dtype=np.int64) * 2
        grid = sc.grid_from_schedule([doubled, np.ones((2, 2), dtype=np.int64)])
        assert grid.tokens[:, 0].tolist() == [[2, 1], [0, 1]]  # output 0: input 0 twice, then inputs 0 and 1
        assert grid.to_text() == "aa ab\nbb ab"

    def test_random_decomposition_grids_match_slot_scan(self):
        rng = random.Random(404)
        multi_token_grids = 0
        for _ in range(40):
            k, f, m = rng.randint(2, 6), rng.randint(1, 16), rng.randint(1, 2)
            mat = np.zeros((k, k), dtype=np.int64)
            for _ in range(m * f):
                perm = list(range(k))
                rng.shuffle(perm)
                mat[range(k), perm] += 1
            dec = ps.bvn_decompose(ps.CapacityMatrix.from_integer_matrix(mat, f))
            patterns = [dec.states[i][0] for i in dec.frame]
            grid = sc.grid_from_schedule(patterns)
            # tokens by scanning each slot's pattern: [input, output, slot] -> count
            scan = np.zeros((k, k, f), dtype=np.int64)
            for t, p in enumerate(patterns):
                for i in range(k):
                    for j in range(k):
                        scan[i, j, t] = int(p[i, j])
            assert np.array_equal(grid.tokens, scan)
            assert (grid.token_counts() == mat).all()
            for i in range(k):
                for j in range(k):
                    assert np.repeat(np.arange(f), grid.tokens[i, j]).tolist() == [
                        t for t, p in enumerate(patterns) for _ in range(int(p[i, j]))]
            assert np.array_equal(sc.TokenGrid.from_text(grid.to_text()).tokens, grid.tokens)
            multi_token_grids += bool((grid.tokens.sum(axis=0) > 1).any())  # an (output, slot) of two tokens
        assert multi_token_grids > 0

    @pytest.mark.parametrize("slots, message", [
        # int64 -> uint8 would wrap 257 to 1 and -253 to 3, and 256 to 0 and -252 to 4: line sums of m = 4
        ([np.eye(2, dtype=np.int64) * 4, [[257, -253], [-253, 257]]], "nonnegative integer counts"),
        ([np.eye(2, dtype=np.int64) * 4, [[-252, 256], [256, -252]]], "nonnegative integer counts"),
        ([np.eye(2, dtype=np.int64) * 4, [[260, 0], [0, 260]]], "every line sum equal to the module count"),
        # every entry nonnegative and above m = 4, with line sums 2**64 + 4 that wrap to 4 in int64
        ([np.eye(3, dtype=np.int64) * 4, [[2**63 - 1, 2**63 - 1, 6], [2**63 - 1, 6, 2**63 - 1],
                                           [6, 2**63 - 1, 2**63 - 1]]], "every line sum equal to the module count"),
    ], ids=["257_beside_negatives", "256_beside_negatives", "260_line_sums_off", "above_m_line_sums_wrap"])
    def test_a_pattern_the_narrow_cast_would_wrap_is_refused(self, slots, message):
        with pytest.raises(PreconditionError, match=message):
            sc.grid_from_schedule(slots * 20)  # past one block of slots

    def test_module_count_times_pattern_size_past_int64_refused(self):
        # line sums of k entries <= m must not wrap in int64
        with pytest.raises(ResourceLimitError, match="times the pattern size exceeds the int64 range"):
            sc.grid_from_schedule([np.eye(2, dtype=np.int64) * 2**62] * 3)

    def test_caller_grid_is_held_exactly_in_its_largest_counts_dtype(self):
        for tokens, dtype in (([[[255]]], np.uint8), ([[[256]]], np.uint16), ([[[0, 70000]]], np.uint32),
                              ([[[2**40]]], np.uint64), (np.zeros((2, 2, 0), dtype=np.int64), np.uint8)):
            grid = sc.TokenGrid(tokens)
            assert grid.tokens.dtype == dtype and np.array_equal(grid.tokens, tokens)
            counts = grid.token_counts()
            assert counts.dtype == np.int64 and counts.tolist() == np.sum(tokens, axis=2).tolist()

    @pytest.mark.parametrize("m", [255, 256, 300])
    def test_grids_of_large_module_counts_match_an_int64_slot_scan(self, m):
        rng = random.Random(m)
        k, f = 3, 40  # more than one block of slots
        patterns = []
        for _ in range(f):
            mat = np.zeros((k, k), dtype=np.int64)
            for _ in range(m):
                perm = list(range(k))
                rng.shuffle(perm)
                mat[range(k), perm] += 1
            patterns.append(mat)
        grid = sc.grid_from_schedule(patterns)
        scan = np.zeros((k, k, f), dtype=np.int64)
        for t, p in enumerate(patterns):
            for i in range(k):
                for j in range(k):
                    scan[i, j, t] = int(p[i, j])
        assert grid.tokens.dtype == np.min_scalar_type(m) and np.array_equal(grid.tokens, scan)
        assert grid.token_counts().dtype == np.int64 and (grid.token_counts() == scan.sum(axis=2)).all()
        wide = sc.smoothness_2d(sc.TokenGrid(scan))
        assert sc.smoothness_2d(grid).total == wide.total

    def test_exact_workload_grid_never_holds_an_int64_frame(self):
        # the int64 (32, 32, 256) grid alone is 2 MB; the narrow one is 256 KB beside 256 KB int64 blocks
        dec = _exact_workload_decomposition()
        weights = sc.WeightSet(tuple(w for _, w in dec.states))
        patterns = [dec.states[s][0] for s in sc.schedule_wf2q(weights).slots]
        tracemalloc.start()
        try:
            grid = sc.grid_from_schedule(patterns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.tokens.shape == (32, 32, 256) and peak < 1 << 20

    def test_from_text_reads_cells_as_multisets(self):
        grid = sc.TokenGrid.from_text("ba b\n- aab")
        assert grid.tokens.tolist() == [[[1, 0], [0, 2]], [[1, 1], [0, 1]]]
        assert grid.to_text() == "ab b\n- aab"
        assert grid.n_inputs == 2 and grid.tokens.shape[1] == 2 and grid.frame_size == 2


class TestSmoothness2d:
    def test_reference_grid_values(self):
        rep = sc.smoothness_2d(fixtures.reference_grid("wfq"))
        assert rep.total == pytest.approx(fixtures.GRID_TOTALS["wfq"], abs=1e-3)
        assert np.allclose(rep.input_smoothness, [1.2084, 1.6997, 2.0323, 1.3118],
                           atol=1e-3)
        assert np.allclose(rep.output_smoothness, [1.2084, 1.7636, 1.6997, 1.5805],
                           atol=1e-3)

    def test_hurr_grids(self):
        rep = sc.smoothness_2d(fixtures.reference_grid("hurr"))
        assert rep.total == pytest.approx(fixtures.GRID_TOTALS["hurr"], abs=1e-3)
        alt = sc.smoothness_2d(fixtures.reference_grid("hurr_alt"))
        assert alt.total == pytest.approx(fixtures.GRID_TOTALS["hurr_alt"], abs=1e-3)
        assert alt.input_smoothness[2] == pytest.approx(1.75, abs=1e-3)

    def test_capacity_consistency_check(self):
        cap = fixtures.capacity_4x4()
        rep = sc.smoothness_2d(fixtures.reference_grid("wfq"), cap)
        assert rep.total > 0
        other = ps.CapacityMatrix.from_integer_matrix(
            [[4, 4, 0, 0], [4, 4, 0, 0], [0, 0, 4, 4], [0, 0, 4, 4]], 8
        )
        with pytest.raises(DomainError):
            sc.smoothness_2d(fixtures.reference_grid("wfq"), other)
        with pytest.raises(DomainError):  # another shape at the same F = 8
            sc.smoothness_2d(sc.grid_from_schedule([np.eye(2, dtype=np.int64)] * 8), cap)
        # 1 * 2**64 is 0 modulo 2**64, so a wrapping product would match the zero matrix
        with pytest.raises(DomainError):
            sc.smoothness_2d(sc.grid_from_schedule([np.eye(2, dtype=np.int64)]),
                             ps.CapacityMatrix.from_integer_matrix([[0, 0], [0, 0]], 2**64))

    def test_grid_on_a_reduced_frame_matches_its_capacity(self):
        # the decomposition's states carry weights 1/2 and 1/2, so the grid
        # frame is 2 slots while the capacity matrix holds F = 4
        cap = ps.CapacityMatrix.from_integer_matrix([[2, 2], [2, 2]], 4)
        states = ps.bvn_decompose(cap).states
        weights = sc.WeightSet(tuple(w for _, w in states))
        grid = sc.grid_from_schedule([states[i][0] for i in sc.schedule_wfq(weights).slots])
        assert grid.frame_size == 2
        assert sc.smoothness_2d(grid, cap).path.tolist() == sc.smoothness_2d(grid).path.tolist()
        for other in ([[3, 1], [1, 3]], [[4, 0], [0, 4]]):
            with pytest.raises(DomainError):
                sc.smoothness_2d(grid, ps.CapacityMatrix.from_integer_matrix(other, 4))

    def test_degenerate_zero_gaps_allowed(self):
        doubled = np.eye(2, dtype=np.int64) * 2
        grid = sc.grid_from_schedule([doubled, doubled])
        # two tokens per slot over two slots: circular gaps (0, 1, 0, 1)
        assert np.repeat(np.arange(2), grid.tokens[0, 0]).tolist() == [0, 0, 1, 1]
        rep = sc.smoothness_2d(grid)
        assert rep.path[0, 0] == pytest.approx(0.5 * math.log2(0.5))

    def test_single_block_degenerates_to_one_dimensional(self):
        # permutation states on 2x2: path tokens mirror the state occurrences
        w = sc.WeightSet.of("3/8", "5/8")
        seq = sc.schedule_wfq(w)
        identity = np.eye(2, dtype=np.int64)
        swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
        grid = sc.grid_from_schedule([identity if s == 0 else swap for s in seq.slots])
        rep1d = sc.smoothness(seq, w)
        rep2d = sc.smoothness_2d(grid)
        expected_input = sum(float(wt) * l for wt, l in zip(w.weights, rep1d.per_state))
        assert rep2d.input_smoothness[0] == pytest.approx(expected_input, abs=1e-12)
        assert rep2d.total == pytest.approx(2 * expected_input, abs=1e-12)


class TestEntropy2d:
    def test_reference_matrix(self):
        h_in, h_out, total = sc.entropy_2d(fixtures.capacity_4x4())
        assert total == pytest.approx(fixtures.CAPACITY_ENTROPY, abs=5e-4)
        assert np.allclose(h_in, [1.0613, 1.4056, 1.7500, 0.9544], atol=5e-4)
        assert np.allclose(h_out, [1.0613, 1.4056, 1.4056, 1.2988], atol=5e-4)

    def test_permutation_matrix_zero_entropy(self):
        h_in, h_out, total = sc.entropy_2d(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert total == 0.0

    def test_uniform_matrix(self):
        for n in (2, 4, 8):
            _, _, total = sc.entropy_2d(np.full((n, n), 1.0 / n))
            assert total == pytest.approx(n * math.log2(n), abs=1e-9)

    def test_non_stochastic_rejected(self):
        with pytest.raises(DomainError):
            sc.entropy_2d(np.array([[0.5, 0.2], [0.5, 0.8]]))


class TestTwoDimensionalBounds:
    def test_kraft_and_entropy_floors_on_random_grids(self):
        rng = random.Random(8)
        checked = 0
        while checked < 120:
            k = rng.randint(2, 5)
            f = rng.randint(2, 10)
            mat = np.zeros((k, k), dtype=np.int64)
            for _ in range(f):
                perm = list(range(k))
                rng.shuffle(perm)
                for i in range(k):
                    mat[i, perm[i]] += 1
            cap = ps.CapacityMatrix.from_integer_matrix(mat.tolist(), f)
            dec = ps.bvn_decompose(cap)
            order = list(dec.frame)
            rng.shuffle(order)
            grid = sc.grid_from_schedule([dec.states[i][0] for i in order])
            rep = sc.smoothness_2d(grid)
            h_in, h_out, h_total = sc.entropy_2d(cap)
            assert (rep.kraft_matrix.sum(axis=0) <= 1.0 + 1e-9).all()
            assert (rep.kraft_matrix.sum(axis=1) <= 1.0 + 1e-9).all()
            assert (rep.input_smoothness >= h_in - 1e-9).all()
            assert (rep.output_smoothness >= h_out - 1e-9).all()
            assert rep.total >= h_total - 1e-9
            checked += 1


def _log_rms_of_gaps(positions, frame):
    """The per-state and per-path formula ``smoothness`` and
    ``smoothness_2d`` used before their one-pass forms: the circular gaps
    of the sorted positions as a list, then log2 of their RMS."""
    gaps = [b - a for a, b in zip(positions, positions[1:])] + [frame - positions[-1] + positions[0]]
    return 0.5 * math.log2(sum(g * g for g in gaps) / len(gaps))


class TestAgainstPerStateScans:
    def test_smoothness_equals_the_per_state_scan(self):
        rng = random.Random(61)
        frames = [(w, seq) for w in (sc.WeightSet.of("1/2", "1/4", "1/8", "1/8"),)
                  for seq in (sc.schedule_wfq(w), sc.schedule_wf2q(w), sc.schedule_hurr(w))]
        for _ in range(300):
            w = _random_weightset(rng, max_states=12, max_count=9)
            frames.append((w, _random_frame(rng, w)))
        for w, seq in frames:
            rep = sc.smoothness(seq, w)
            per = tuple(_log_rms_of_gaps([t for t, s in enumerate(seq.slots) if s == i], w.frame_size)
                        for i in range(len(w)))
            assert rep.per_state == per
            assert rep.average == sum(x * l for x, l in zip(w.as_float(), per))
            assert rep.kraft_sum == sum(2.0 ** (-l) for l in per)

    def test_unknown_states_and_wrong_counts_refused(self):
        w = sc.WeightSet.of("1/2", "1/2")
        k = len(w)
        for slots in ((0, k), (k, 0), (-1, 0), (0, 1, 1), (0, 0),
                      (True, False), (0, True), (np.bool_(True), 0), (1.0, 0.0), (None, 0), ("0", 1), ((0,), 1)):
            with pytest.raises(DomainError):
                sc.smoothness(sc.FrameSequence(slots), w)
        rep = sc.smoothness(sc.FrameSequence((0, 1)), w)
        for slots in ((np.int64(0), np.int64(1)), (np.int8(0), 1), (np.uint64(0), np.int32(1))):
            assert sc.smoothness(sc.FrameSequence(slots), w) == rep

    def test_smoothness_2d_equals_the_per_path_scan(self):
        rng = np.random.default_rng(62)
        grids = [fixtures.reference_grid(name) for name in ("wfq", "hurr", "hurr_alt")]
        for _ in range(60):
            k, f = rng.integers(1, 7), rng.integers(1, 40)
            # up to 3 tokens a cell, and paths left empty
            tokens = rng.integers(0, 4, size=(k, k, f)) * (rng.random((k, k, f)) < rng.uniform(0.05, 0.6))
            tokens[rng.random((k, k)) < 0.2] = 0
            grids.append(sc.TokenGrid(tokens))
        grids.append(sc.TokenGrid(np.zeros((2, 2, 3), dtype=np.int64)))
        multi = 0
        for grid in grids:
            rep = sc.smoothness_2d(grid)
            path = np.zeros((grid.n_inputs, grid.tokens.shape[1]))
            for i in range(grid.n_inputs):
                for j in range(grid.tokens.shape[1]):
                    slots = np.repeat(np.arange(grid.frame_size), grid.tokens[i, j]).tolist()
                    if slots:
                        path[i, j] = _log_rms_of_gaps(slots, grid.frame_size)
            assert rep.path.tolist() == path.tolist()
            multi += int((grid.tokens > 1).any())
        assert multi > 30
