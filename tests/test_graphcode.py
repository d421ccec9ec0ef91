import itertools
import random

import numpy as np
import pytest

from switchlab import fixtures
from switchlab import graphcode as gc
from switchlab.errors import DomainError, PreconditionError, ResourceLimitError, is_integer


def _grid_rows(order):
    """order^2 variables on a grid; constraints are the rows, the columns and
    the symbol classes of two orthogonal Latin squares: left degree 4 and any
    two variables share at most one constraint."""
    l1, l2 = {
        3: ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[0, 1, 2], [2, 0, 1], [1, 2, 0]]),
        4: ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
            [[0, 1, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0], [1, 0, 3, 2]]),
    }[order]
    rows = [[0] * order**2 for _ in range(4 * order)]
    for i in range(order):
        for j in range(order):
            v = order * i + j
            rows[i][v] = 1  # row constraint
            rows[order + j][v] = 1  # column constraint
            rows[2 * order + l1[i][j]][v] = 1
            rows[3 * order + l2[i][j]][v] = 1
    return rows


def _grid16_code():
    return gc.TannerCode.from_rows(_grid_rows(4))


class TestCodewords:
    def test_zero_and_ones_words(self):
        code = fixtures.parity_check_8x4()
        assert gc.is_codeword(code, [0] * 8)
        assert gc.is_codeword(code, [1] * 8)  # every constraint has even weight
        assert not gc.is_codeword(code, [0, 1] + [0] * 6)

    def test_length_mismatch(self):
        code = fixtures.parity_check_8x4()
        with pytest.raises(DomainError):
            gc.is_codeword(code, [0] * 7)

    def test_codeword_set_closed_under_xor(self):
        code = fixtures.parity_check_8x4()
        words = code.enumerate_codewords()
        wordset = set(words)
        for a in words:
            for b in words:
                assert tuple(x ^ y for x, y in zip(a, b)) in wordset

    def test_grid_code_closure_sampled(self):
        code = _grid16_code()
        words = code.enumerate_codewords()
        rng = random.Random(2)
        for _ in range(200):
            a, b = rng.choice(words), rng.choice(words)
            assert gc.is_codeword(code, [x ^ y for x, y in zip(a, b)])

    def test_malformed_matrix_rejected(self):
        with pytest.raises(PreconditionError):
            gc.TannerCode.from_rows([[0, 1], [1]])
        with pytest.raises(PreconditionError):
            gc.TannerCode.from_rows([[0, 2]])

    @pytest.mark.parametrize("row", [[0.5, 1], [1.0, 1], [True, 1], [np.bool_(True), 0], [None, 1], ["1", 0]],
                             ids=["half", "integral_float", "bool", "np_bool", "none", "string"])
    def test_non_integer_parity_entries_rejected(self, row):
        # int() read 0.5 as 0 and accepted 1.0 and True as 1
        with pytest.raises(PreconditionError):
            gc.TannerCode.from_rows([[1, 0], row])

    def test_numpy_integer_parity_entries_accepted(self):
        code = gc.TannerCode.from_rows(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))
        assert code.parity == ((1, 1, 0), (0, 1, 1))
        assert gc.TannerCode.from_rows([[np.int64(1), 1, 0], [0, 1, 1]]) == code

    @pytest.mark.parametrize("word", [[0.5, 1, 0], [1.7, 0, 0], [True, 0, 0], [1.0, 0, 0], [2, 0, 0], [-1, 0, 0],
                                      [None, 0, 0], [np.bool_(False), 0, 0]],
                             ids=["half", "1.7", "bool", "integral_float", "two", "minus_one", "none", "np_bool"])
    def test_received_word_entries_must_be_integer_bits(self, word):
        # flip_decode read 0.5 as 0 and syndrome read 1.7 as 1
        code = gc.TannerCode.from_rows([[1, 1, 0], [0, 1, 1]])
        with pytest.raises(DomainError, match="word entries must be integers 0 or 1"):
            code.syndrome(word)
        with pytest.raises(DomainError, match="word entries must be integers 0 or 1"):
            gc.flip_decode(code, word)
        with pytest.raises(DomainError, match="word entries must be integers 0 or 1"):
            gc.is_codeword(code, word)

    def test_numpy_integer_word_entries_accepted(self):
        code = gc.TannerCode.from_rows([[1, 1, 0], [0, 1, 1]])
        assert code.syndrome([np.int8(1), np.uint64(0), 0]) == code.syndrome([1, 0, 0]) == [1, 0]
        assert gc.flip_decode(code, np.array([1, 0, 0])) == gc.flip_decode(code, [1, 0, 0])


class TestAgainstMatrixProducts:
    """Bitmask parity rows against H @ w % 2 over every word, in ascending
    bitmask order (bit v for variable v)."""

    @staticmethod
    def _matrices():
        fixture = [[int(tok) for tok in line.split()]
                   for line in fixtures.load_text("parity_8x4.txt").strip().splitlines()]
        rng = random.Random(23)
        randoms = []
        for _ in range(12):
            n = rng.randint(1, 12)
            randoms.append([[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 8))])
        sparse = random.Random(24)  # sparse rows: empty constraints and variables in none
        for _ in range(12):
            n, p = sparse.randint(0, 12), sparse.uniform(0.05, 0.4)
            randoms.append([[int(sparse.random() < p) for _ in range(n)] for _ in range(sparse.randint(1, 14))])
        return [fixture, _grid_rows(3), *randoms]

    def test_codewords_and_syndromes(self):
        for rows in self._matrices():
            code = gc.TannerCode.from_rows(rows)
            assert code.columns == tuple(code.graph().neighbor_masks())
            h = np.array(rows)
            n = h.shape[1]
            words = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            syndromes = words @ h.T % 2
            assert code.enumerate_codewords() == [tuple(w) for w in words[~syndromes.any(axis=1)].tolist()]
            for w, syn in zip(words.tolist(), syndromes.tolist()):
                assert code.syndrome(w) == syn
            assert code.parity == tuple(map(tuple, rows))

    @staticmethod
    def _wide_matrices():
        """13 to 16 variables: random rows, rank-deficient stacks (sums and
        repeats of rows), all-zero rows and sparse rows."""
        rng = random.Random(31)
        mats = [[[0] * 16], _grid_rows(4)]  # every word a codeword; the benchmark's code
        for n in range(13, 17):
            base = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(2, 6))]
            sums = [[a ^ b for a, b in zip(*rng.sample(base, 2))] for _ in range(3)]
            mats += [base, base + sums + base[:2], [[0] * n, *base, [0] * n],
                     [[int(rng.random() < 0.1) for _ in range(n)] for _ in range(rng.randint(6, 14))]]
        return mats

    def test_codewords_of_wide_and_rank_deficient_codes(self):
        deficient = 0
        for rows in self._wide_matrices():
            h = np.array(rows)
            n = h.shape[1]
            words = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            expected = [tuple(w) for w in words[~(words @ h.T % 2).any(axis=1)].tolist()]
            assert gc.TannerCode.from_rows(rows).enumerate_codewords() == expected
            deficient += len(expected) > 1 << max(n - len(rows), 0)  # fewer independent rows than rows
        assert deficient >= 8

    def test_enumeration_capped_at_16_variables(self):
        with pytest.raises(ResourceLimitError, match="16 variables"):
            gc.TannerCode.from_rows([[1] * 17]).enumerate_codewords()


def _random_left_regular(rng, left, right, k):
    edges = [(l, r) for l in range(left) for r in rng.sample(range(right), k)]
    return gc.BipartiteGraph.from_edges(left, right, edges)


class TestFlipDecode:
    def test_codeword_passes_through(self):
        code = fixtures.parity_check_8x4()
        res = gc.flip_decode(code, [1] * 8)
        assert res.success and res.flips == () and res.word == (1,) * 8

    def test_single_bit_errors_corrected_on_expanding_code(self):
        code = _grid16_code()
        words = code.enumerate_codewords()
        rng = random.Random(4)
        sent_words = [words[0], rng.choice(words), rng.choice(words)]
        for sent in sent_words:
            for v in range(16):
                received = list(sent)
                received[v] ^= 1
                res = gc.flip_decode(code, received)
                assert res.success
                assert res.word == tuple(sent)
                assert res.flips == (v,)

    def test_unsatisfied_count_strictly_decreases(self):
        code = _grid16_code()
        rng = random.Random(8)
        for _ in range(60):
            received = [rng.randint(0, 1) for _ in range(16)]
            res = gc.flip_decode(code, received)
            trace = res.unsatisfied_trace
            assert all(b < a for a, b in zip(trace, trace[1:]))
            if res.success:
                assert gc.is_codeword(code, res.word)

    def test_stuck_input_reports_failure(self):
        # two degree-2 variables share one constraint; a parity pattern that
        # unsatisfies only that constraint leaves every variable at a tie
        code = gc.TannerCode.from_rows(
            [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]]
        )
        res = gc.flip_decode(code, [1, 0, 1, 0])
        assert not res.success
        assert res.flips == ()
        assert res.unsatisfied_trace == (1,)

    def test_flips_bounded_by_the_unsatisfied_count(self):
        rng = random.Random(9)
        codes = [_grid16_code(), fixtures.parity_check_8x4()]
        for _ in range(20):
            n = rng.randint(1, 12)
            codes.append(gc.TannerCode.from_rows(
                [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(rng.randint(1, 16))]))
        for code in codes:
            for _ in range(20):
                res = gc.flip_decode(code, [rng.randint(0, 1) for _ in range(code.n_variables)])
                assert len(res.flips) <= res.unsatisfied_trace[0] <= code.n_constraints

    def test_decodes_past_a_thousand_flips(self):
        # 1001 one-variable constraints: the all-ones word needs one flip per variable
        n = 1001
        code = gc.TannerCode.from_rows([[int(c == v) for v in range(n)] for c in range(n)])
        res = gc.flip_decode(code, [1] * n)
        assert res.success and res.word == (0,) * n
        assert res.flips == tuple(range(n))
        assert res.unsatisfied_trace == tuple(range(n, -1, -1))


def _reference_flip_decode(code, received):
    """The decoder before the syndrome was taken by XOR: the received word as
    a bitmask, the syndrome as one parity per row, the result word read off
    the mask."""
    if len(received) != code.n_variables:
        raise DomainError("received length does not match the code")
    if not all(is_integer(x) and 0 <= x <= 1 for x in received):
        raise DomainError("word entries must be integers 0 or 1")
    word = sum(1 << v for v, x in enumerate(received) if x)
    unsat = sum(((row & word).bit_count() & 1) << c for c, row in enumerate(code.rows))
    neighbours = code.columns
    flips = []
    trace = [unsat.bit_count()]
    while unsat:
        candidate = next((v for v, nb in enumerate(neighbours)
                          if 2 * (unsat & nb).bit_count() > nb.bit_count()), -1)
        if candidate < 0:
            break
        word ^= 1 << candidate
        unsat ^= neighbours[candidate]
        flips.append(candidate)
        trace.append(unsat.bit_count())
    return gc.DecodeResult(word=tuple(word >> v & 1 for v in range(code.n_variables)), success=not unsat,
                           flips=tuple(flips), unsatisfied_trace=tuple(trace))


class TestFlipDecodeAgainstTheReference:
    def test_every_word_of_the_order_3_grid_code(self):
        code = gc.TannerCode.from_rows(_grid_rows(3))
        for received in itertools.product((0, 1), repeat=9):
            assert gc.flip_decode(code, received) == _reference_flip_decode(code, received)

    def test_seeded_words_of_the_order_4_grid_code(self):
        code = _grid16_code()
        rng = random.Random(32)
        words = [[rng.randint(0, 1) for _ in range(16)] for _ in range(2000)]
        results = [gc.flip_decode(code, w) for w in words]
        assert results == [_reference_flip_decode(code, w) for w in words]
        assert all(type(x) is int for res in results for x in res.word)
        assert 0.1 < sum(res.success for res in results) / len(results) < 0.9
        numpy_words = [np.array(w, dtype=np.uint8) for w in words[:100]]
        assert [gc.flip_decode(code, w) for w in numpy_words] == results[:100]


class TestExpansionCheck:
    def test_complete_bipartite_small_alpha(self):
        g = gc.BipartiteGraph.from_edges(
            8, 8, [(l, r) for l in range(8) for r in range(8)]
        )
        verdict = gc.expansion_check(g, 8, alpha=0.125)
        assert verdict.satisfied

    def test_reference_parity_graph_reported(self):
        code = fixtures.parity_check_8x4()
        verdict = gc.expansion_check(code.graph(), 2, alpha=0.25)
        # two variables share both constraints, so pair expansion fails
        assert not verdict.satisfied
        assert verdict.worst_ratio == 1.0
        assert len(verdict.worst_subset) == 2

    def test_grid_code_expands_for_single_error_radius(self):
        code = _grid16_code()
        verdict = gc.expansion_check(code.graph(), 4, alpha=2 / 16)
        assert verdict.satisfied
        assert verdict.worst_ratio > 3.0

    def test_duplicated_neighborhood_violates(self):
        g = gc.BipartiteGraph.from_edges(4, 4, [(0, 0), (0, 1), (1, 0), (1, 1),
                                                (2, 2), (2, 3), (3, 2), (3, 3)])
        verdict = gc.expansion_check(g, 2, alpha=0.5)
        assert not verdict.satisfied

    def test_guards(self):
        g = gc.BipartiteGraph.from_edges(21, 2, [(l, 0) for l in range(21)])
        with pytest.raises(ResourceLimitError):
            gc.expansion_check(g, 1, alpha=0.1)
        code = fixtures.parity_check_8x4()
        with pytest.raises(DomainError):
            gc.expansion_check(code.graph(), 2, alpha=0.01)
        with pytest.raises(PreconditionError):
            gc.expansion_check(code.graph(), 3, alpha=0.25)

    def test_verdict_matches_a_neighborhood_scan(self):
        rng = random.Random(29)
        for _ in range(40):
            left, right = rng.randint(1, 8), rng.randint(4, 8)
            k = rng.choice([1, 2, 4, 4, 4])  # degree 4 makes |N(A)| = 3|A| = (3k/4)|A| reachable
            g = _random_left_regular(rng, left, right, k)
            alpha = rng.choice([0.25, 0.5, 1.0])
            if int(alpha * left) < 1:
                continue
            ratios = {subset: len(g.neighborhood(subset)) / len(subset)  # in scan order
                      for size in range(1, int(alpha * left) + 1)
                      for subset in itertools.combinations(range(left), size)}
            worst = min(ratios, key=ratios.get)  # the first of equal ratios
            verdict = gc.expansion_check(g, k, alpha)
            assert verdict.satisfied == all(r > 0.75 * k for r in ratios.values())
            assert (verdict.worst_subset, verdict.worst_ratio) == (worst, ratios[worst])


def _expansion_scan(g, k, alpha):
    """The scan ``expansion_check`` ran before its subset-union recurrence:
    every subset in ``itertools.combinations`` order, sizes ascending, and
    the first of least |N(A)| / |A|."""
    masks = g.neighbor_masks()
    worst, worst_ratio = (), float("inf")
    for size in range(1, int(alpha * g.left_count) + 1):
        for subset in itertools.combinations(range(g.left_count), size):
            nb = 0
            for v in subset:
                nb |= masks[v]
            if nb.bit_count() / size < worst_ratio:
                worst, worst_ratio = subset, nb.bit_count() / size
    return gc.ExpansionVerdict(worst_ratio > 0.75 * k, 0.75 * k, worst, worst_ratio)


class TestExpansionAgainstTheScan:
    def test_wide_right_sides(self):
        rng = random.Random(37)
        cases = [(16, 65, 4, 0.5), (16, 130, 2, 0.5), (16, 70, 1, 0.25), (15, 200, 3, 0.5),
                 (20, 70, 2, 0.05)]  # the last runs the recurrence over all 2^20 subsets
        for _ in range(30):
            cases.append((rng.randint(1, 12), rng.choice([8, 63, 64, 65, 127, 129, 190]),
                          rng.choice([1, 2, 3, 4]), rng.choice([0.25, 0.5, 1.0])))
        checked = 0
        for left, right, k, alpha in cases:
            if int(alpha * left) < 1:
                continue
            low = right - 64 if right > 64 and rng.random() < 0.5 else 0  # some graphs only on the top 64
            g = gc.BipartiteGraph.from_edges(
                left, right, [(l, r) for l in range(left) for r in rng.sample(range(low, right), k)])
            assert gc.expansion_check(g, k, alpha) == _expansion_scan(g, k, alpha)
            checked += 1
        assert checked >= 25

    def test_ties_go_to_combinations_order_not_bitmask_order(self):
        # {0, 3} and {1, 2} each see two right vertices; the scan reaches
        # (0, 3) first, although {1, 2} has the smaller bitmask
        g = gc.BipartiteGraph.from_edges(4, 4, [(0, 0), (0, 1), (3, 0), (3, 1),
                                                (1, 2), (1, 3), (2, 2), (2, 3)])
        verdict = gc.expansion_check(g, 2, 0.5)
        assert verdict == _expansion_scan(g, 2, 0.5)
        assert (verdict.worst_subset, verdict.worst_ratio) == ((0, 3), 1.0)

    def test_equal_ratios_go_to_the_smaller_subset(self):
        # every subset has ratio 2: the first single vertex wins
        g = gc.BipartiteGraph.from_edges(3, 6, [(l, r) for l in range(3) for r in (2 * l, 2 * l + 1)])
        verdict = gc.expansion_check(g, 2, 1.0)
        assert verdict == _expansion_scan(g, 2, 1.0)
        assert (verdict.worst_subset, verdict.worst_ratio) == ((0,), 2.0)


def test_theorem_radius_exhaustive_on_grid_code():
    # expansion holds up to subsets of size 2, so every weight-1 pattern
    # (= floor(alpha n / 2)) must decode exhaustively
    code = _grid16_code()
    zero = [0] * 16
    for v in range(16):
        pattern = list(zero)
        pattern[v] = 1
        res = gc.flip_decode(code, pattern)
        assert res.success and res.word == tuple(zero)
