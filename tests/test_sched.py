import math
import random
from fractions import Fraction

import numpy as np
import pytest

from switchlab import fixtures
from switchlab import pathswitch as ps
from switchlab import sched as sc
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
                assert len(seq.occurrences(i)) == c


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
                assert len(seq.occurrences(i)) == c


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
                assert len(seq.occurrences(i)) == c


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
        qualified = tuple(i for i, w in enumerate(phis) if served[i] < tau * w)
        pick = min(qualified, key=lambda i: (finish[i], i))
        trace.append((tuple(finish), qualified, pick))
        served[pick] += 1
        finish[pick] += 1 / phis[pick]
    return trace


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
        assert set(seq) == {0}

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
        assert grid.tokens.dtype == np.int64 and grid.token_slots(0, 0) == [0]
        with pytest.raises(ResourceLimitError):
            sc.TokenGrid([[[2**70]]])

    def test_roundtrip_text(self):
        grid = fixtures.reference_grid("wfq")
        assert sc.TokenGrid.from_text(grid.to_text()).cells == grid.cells

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
        assert grid.cells == fixtures.reference_grid("wfq").cells
        hurr = sc.schedule_hurr(weights)
        grid2 = sc.grid_from_schedule([states[i][0] for i in hurr.slots])
        assert grid2.cells == fixtures.reference_grid("hurr").cells

    def test_alternate_decomposition_grid(self):
        states = fixtures.capacity_4x4_alt_states()
        weights = sc.WeightSet(tuple(w for _, w in states))
        hurr = sc.schedule_hurr(weights)
        grid = sc.grid_from_schedule([states[i][0] for i in hurr.slots])
        assert grid.cells == fixtures.reference_grid("hurr_alt").cells

    def test_identity_every_slot(self):
        patterns = [np.eye(3, dtype=np.int64)] * 4
        grid = sc.grid_from_schedule(patterns)
        assert grid.token_slots(0, 0) == [0, 1, 2, 3]
        assert grid.token_slots(0, 1) == []

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
        assert small.tokens.dtype == np.int64 and small.token_slots(0, 1) == [1]

    def test_from_text_refuses_unknown_symbols(self):
        for text, symbol in (("A", "'A'"), ("a1 b", "'1'"), ("ab- b", "'-'"), ("a\nb?", "'?'")):
            with pytest.raises(PreconditionError, match=f"grid symbol {symbol}"):
                sc.TokenGrid.from_text(text)

    def test_negative_token_counts_refused(self):
        for tokens in ([[[1, -1, 0]]], [[[2, -1, 0]]]):
            with pytest.raises(PreconditionError, match="nonnegative"):
                sc.TokenGrid(np.array(tokens))

    def test_multitoken_cells(self):
        doubled = np.eye(2, dtype=np.int64) * 2
        grid = sc.grid_from_schedule([doubled, np.ones((2, 2), dtype=np.int64)])
        assert grid.cells[0][0] == (0, 0)
        assert grid.cells[0][1] == (0, 1)

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
            patterns = dec.slot_patterns()
            grid = sc.grid_from_schedule(patterns)
            # cells by scanning each slot's pattern: [output][slot] -> inputs
            scan = tuple(
                tuple(tuple(i for i in range(k) for _ in range(int(p[i, j]))) for p in patterns)
                for j in range(k)
            )
            assert grid.cells == scan
            assert (grid.token_counts() == mat).all()
            for i in range(k):
                for j in range(k):
                    assert grid.token_slots(i, j) == [t for t, p in enumerate(patterns)
                                                      for _ in range(int(p[i, j]))]
            assert sc.TokenGrid.from_text(grid.to_text()).cells == grid.cells
            multi_token_grids += any(len(cell) > 1 for row in grid.cells for cell in row)
        assert multi_token_grids > 0

    def test_from_text_reads_cells_as_multisets(self):
        grid = sc.TokenGrid.from_text("ba b\n- aab")
        assert grid.cells == (((0, 1), (1,)), ((), (0, 0, 1)))
        assert grid.n_inputs == 2 and grid.n_outputs == 2 and grid.frame_size == 2


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
        assert grid.token_slots(0, 0) == [0, 0, 1, 1]
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
            per = tuple(_log_rms_of_gaps(seq.occurrences(i), w.frame_size) for i in range(len(w)))
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
            path = np.zeros((grid.n_inputs, grid.n_outputs))
            for i in range(grid.n_inputs):
                for j in range(grid.n_outputs):
                    if grid.token_slots(i, j):
                        path[i, j] = _log_rms_of_gaps(grid.token_slots(i, j), grid.frame_size)
            assert rep.path.tolist() == path.tolist()
            multi += int((grid.tokens > 1).any())
        assert multi > 30
