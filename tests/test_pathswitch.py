import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from switchlab import fixtures
from switchlab import pathswitch as ps
from switchlab.closmodel import ClosSpec
from switchlab.errors import DomainError, PreconditionError, ResourceLimitError


def _random_traffic(rng, k, m, fill=0.8):
    lam = np.array([[rng.uniform(0.05, 1.0) for _ in range(k)] for _ in range(k)])
    lam *= fill * m / max(lam.sum(axis=0).max(), lam.sum(axis=1).max())
    return ps.TrafficMatrix(lam, ClosSpec(m=m, n=m, k=k))


def _random_scaled_doubly_stochastic(rng, k, total):
    mat = np.zeros((k, k), dtype=np.int64)
    for _ in range(total):
        perm = list(range(k))
        rng.shuffle(perm)
        for i in range(k):
            mat[i, perm[i]] += 1
    return mat


class TestTrafficMatrix:
    def test_admissibility_enforced(self):
        spec = ClosSpec(m=2, n=2, k=2)
        with pytest.raises(PreconditionError):
            ps.TrafficMatrix(((1.5, 0.6), (0.4, 0.5)), spec)
        ps.TrafficMatrix(((0.9, 0.6), (0.4, 0.5)), spec)  # fine

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_rates_must_be_finite_and_nonnegative(self, bad):
        spec = ClosSpec(m=2, n=2, k=2)
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            ps.TrafficMatrix(((0.2, bad), (0.4, 0.5)), spec)

    def test_nan_and_inf_in_different_cells_refused(self):
        spec = ClosSpec(m=2, n=2, k=2)
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            ps.TrafficMatrix(((math.nan, 0.1), (0.4, math.inf)), spec)

    def test_shape_checked(self):
        spec = ClosSpec(m=2, n=2, k=2)
        with pytest.raises(PreconditionError):
            ps.TrafficMatrix(((0.1, 0.1, 0.1), (0.1, 0.1, 0.1)), spec)

    @pytest.mark.parametrize("rates", [((0.2, "0.1"), (0.4, 0.5)), ((0.2, None), (0.4, 0.5)), 0.5],
                             ids=["string_rate", "none_rate", "bare_number"])
    def test_non_numeric_rates_are_preconditions(self, rates):
        with pytest.raises(PreconditionError):
            ps.TrafficMatrix(rates, ClosSpec(m=2, n=2, k=2))

    def test_rates_are_kept_as_one_read_only_array(self):
        spec = ClosSpec(m=2, n=2, k=2)
        lam = np.array([[0.2, 0.1], [0.4, 0.5]])
        traffic = ps.TrafficMatrix(lam, spec)
        assert traffic.rates.dtype == np.float64 and (traffic.rates == lam).all() and not traffic.rates.flags.writeable
        assert not np.shares_memory(traffic.rates, lam)  # the caller's array is not shared
        for same in (lam.tolist(), ((Fraction(1, 5), 0.1), (0.4, 0.5)), np.array([[1, 0], [0, 1]], dtype=np.int8)):
            assert ps.TrafficMatrix(same, spec).rates.dtype == np.float64  # nested sequences and number arrays
        assert traffic == traffic and traffic != ps.TrafficMatrix(lam, spec)  # identity equality

    def test_oversized_matrix_is_refused_before_its_rates_are_read(self):
        side = math.isqrt(ps.MAX_TRAFFIC_CELLS)
        for k in (side + 1, 100_000):
            with pytest.raises(ResourceLimitError, match="exceeds"):
                ps.TrafficMatrix((), ClosSpec(m=2, n=2, k=k))
        zeros = ((0.0,) * side,) * side
        assert ps.TrafficMatrix(zeros, ClosSpec(m=2, n=2, k=side)).rates.shape == (side, side)


class TestCapacityMatrix:
    def test_integer_scaling_and_modules(self):
        cap = fixtures.capacity_4x4()
        assert cap.frame_size == 8
        assert cap.modules == 1
        assert (cap.scaled.sum(axis=0) == 8).all()

    def test_rejects_uneven_sums(self):
        with pytest.raises(PreconditionError):
            ps.CapacityMatrix([[Fraction(1, 2), Fraction(1, 2)],
                               [Fraction(1, 4), Fraction(3, 4)]], 4)

    def test_rejects_nonintegral_scaling(self):
        with pytest.raises(PreconditionError):
            ps.CapacityMatrix([[Fraction(1, 3), Fraction(2, 3)],
                               [Fraction(2, 3), Fraction(1, 3)]], 4)


class TestAllocateCapacity:
    def test_uniform_rates_share_evenly(self):
        spec = ClosSpec(m=8, n=8, k=4)
        traffic = ps.TrafficMatrix(tuple(tuple(0.5 for _ in range(4)) for _ in range(4)), spec)
        cap = ps.allocate_capacity(traffic)
        assert np.allclose(cap, 2.0, atol=1e-9)

    def test_line_sums_and_dominance(self):
        rng = random.Random(6)
        for _ in range(120):
            k = rng.randint(2, 8)
            m = rng.choice((2, 4, 8))
            traffic = _random_traffic(rng, k, m, fill=rng.uniform(0.3, 0.95))
            cap = ps.allocate_capacity(traffic)
            assert np.allclose(cap.sum(axis=0), m, atol=1e-9)
            assert np.allclose(cap.sum(axis=1), m, atol=1e-9)
            assert (cap > traffic.rates).all()

    def test_zero_rate_needs_floor(self):
        spec = ClosSpec(m=2, n=2, k=2)
        traffic = ps.TrafficMatrix(((0.0, 0.5), (0.5, 0.3)), spec)
        with pytest.raises(DomainError):
            ps.allocate_capacity(traffic)

    def test_rates_floored_by_the_caller(self):
        # the zero rate above, floored at 1e-3 in the TrafficMatrix; pinned values
        spec = ClosSpec(m=2, n=2, k=2)
        cap = ps.allocate_capacity(ps.TrafficMatrix(((1e-3, 0.5), (0.5, 0.3)), spec))
        assert cap.tolist() == [[0.8237900077244503, 1.1762099922755498],
                                [1.1762099922755498, 0.82379000772445]]


class TestWeightedDelay:
    def test_double_capacity(self):
        spec = ClosSpec(m=4, n=4, k=3)
        lam = tuple(tuple(0.4 for _ in range(3)) for _ in range(3))
        traffic = ps.TrafficMatrix(lam, spec)
        assert ps.weighted_delay(np.full((3, 3), 0.8), traffic) == pytest.approx(9.0)

    def test_single_path(self):
        spec = ClosSpec(m=2, n=2, k=1)
        traffic = ps.TrafficMatrix(((1.0,),), spec)
        assert ps.weighted_delay(np.array([[2.0]]), traffic) == pytest.approx(1.0)

    def test_unstable_rejected(self):
        spec = ClosSpec(m=2, n=2, k=1)
        traffic = ps.TrafficMatrix(((1.0,),), spec)
        with pytest.raises(DomainError):
            ps.weighted_delay(np.array([[0.9]]), traffic)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_capacity_refused(self):
        traffic = ps.TrafficMatrix(((0.1, 0.1), (0.1, 0.1)), ClosSpec(m=2, n=2, k=2))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(PreconditionError, match="finite"):
                ps.weighted_delay(np.array([[bad, 1.0], [1.0, 1.0]]), traffic)

    def test_heuristic_close_to_oracle_on_2x2(self):
        rng = random.Random(12)
        for _ in range(200):
            m = rng.choice((1, 2, 4))
            traffic = _random_traffic(rng, 2, m, fill=rng.uniform(0.3, 0.9))
            cap = ps.allocate_capacity(traffic)
            heuristic = ps.weighted_delay(cap, traffic)
            optimum = ps.optimal_delay_2x2(traffic)
            assert heuristic >= optimum - 1e-9
            assert heuristic <= 1.05 * optimum


class TestCapacityStorage:
    def test_scaled_is_a_read_only_copy_of_the_callers_matrix(self):
        source = np.array([[6, 0, 1, 1], [1, 4, 3, 0], [1, 1, 4, 2], [0, 3, 0, 5]])
        cap = ps.CapacityMatrix.from_integer_matrix(source, 8)
        assert cap.scaled.dtype == np.int64 and not np.shares_memory(cap.scaled, source)
        source[0, 0] = 99  # the caller's array is not shared
        with pytest.raises(ValueError):
            cap.scaled[0, 0] = 7
        assert cap.scaled[0, 0] == 6
        assert cap == fixtures.capacity_4x4()
        assert not ps.CapacityMatrix(cap.entries, 8).scaled.flags.writeable

    def test_fields_are_frozen(self):
        # frame_size = 16 was accepted, and bvn_decompose then died in a bare numpy reshape
        cap = fixtures.capacity_4x4()
        for name, value in (("frame_size", 16), ("modules", 2), ("scaled", cap.scaled * 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cap, name, value)
        assert cap.frame_size == 8 and ps.bvn_decompose(cap).state_count == 4

    def test_equality_ignores_the_frame_size(self):
        cap = fixtures.capacity_4x4()
        assert ps.CapacityMatrix.from_integer_matrix(cap.scaled * 3, 24) == cap
        assert ps.CapacityMatrix.from_integer_matrix(cap.scaled * 2, 8) != cap

    def test_equality_compares_rates_in_python_ints(self):
        cap = fixtures.capacity_4x4()
        assert ps.CapacityMatrix(cap.entries, 16) == cap  # the Fraction constructor at another F
        assert cap != ps.CapacityMatrix.from_integer_matrix(np.eye(2, dtype=np.int64), 1) and cap != cap.entries
        zero = ps.CapacityMatrix.from_integer_matrix([[0, 0], [0, 0]], 2**64)
        assert zero == ps.CapacityMatrix.from_integer_matrix(zero.scaled, 3)
        # 1 * 2**64 is 0 modulo 2**64, so an int64 cross-product would call these equal
        assert zero != ps.CapacityMatrix.from_integer_matrix(zero.scaled + np.eye(2, dtype=np.int64), 1)

    def test_line_sums_beyond_int64_rejected(self):
        big = 2**62
        with pytest.raises(ResourceLimitError):
            ps.CapacityMatrix.from_integer_matrix([[big, big], [big, big]], 1)
        with pytest.raises(ResourceLimitError):
            ps.CapacityMatrix([[Fraction(10**30), 0], [0, Fraction(10**30)]], 1)

    @pytest.mark.parametrize("scaled", [[[1.7, 0.2], [0.2, 1.7]], [[0.5, 0.5], [0.5, 0.5]],
                                        [[math.nan, 1], [1, math.nan]],
                                        [[math.inf, 1], [1, math.inf]],
                                        [[True, False], [False, True]], np.eye(2, dtype=bool),
                                        [[1.0, 0.0], [0.0, 1.0]], np.eye(2),
                                        [[1, False], [0, True]]],
                             ids=["near_identity", "half_ones", "nan", "inf", "bool", "bool_array",
                                  "integral_float", "integral_float_array", "mixed_bool"])
    def test_non_integral_entries_rejected_not_truncated(self, scaled):
        with pytest.raises(PreconditionError):
            ps.CapacityMatrix.from_integer_matrix(scaled, 1)

    @pytest.mark.parametrize("frame", [2.0, 2.5, True, np.bool_(True), "2", None, 0, -1])
    def test_frame_size_must_be_an_integer_of_at_least_one(self, frame):
        # 2.0 ended in AttributeError ('float' has no 'denominator') or gave F=2.0, m=1.0; True was F=1
        with pytest.raises(DomainError, match="frame size must be an integer >= 1"):
            ps.CapacityMatrix([[1, 0], [0, 1]], frame)
        with pytest.raises(DomainError, match="frame size must be an integer >= 1"):
            ps.CapacityMatrix.from_integer_matrix([[2, 0], [0, 2]], frame)

    def test_numpy_and_beyond_int64_frame_sizes_accepted(self):
        assert ps.CapacityMatrix.from_integer_matrix([[2, 0], [0, 2]], np.int32(2)).modules == 1
        cap = ps.CapacityMatrix.from_integer_matrix([[0, 0], [0, 0]], 2**64)
        assert cap.frame_size == 2**64 and cap.modules == 0


class TestBvnDecompose:
    def test_result_arrays_are_read_only(self):
        dec = ps.bvn_decompose(fixtures.capacity_4x4())
        for arr in (dec.permutations, dec.patterns, dec.frame):
            assert not arr.flags.writeable
        assert dec.permutations.dtype == dec.frame.dtype == np.int64 and dec.patterns.dtype == np.uint8  # m = 1

    def test_permutation_matrix_is_single_state(self):
        perm = [[0, 1], [1, 0]]
        cap = ps.CapacityMatrix.from_integer_matrix(perm, 1)
        dec = ps.bvn_decompose(cap)
        assert dec.state_count == 1
        assert dec.states[0][1] == 1

    def test_uniform_matrix_splits_into_disjoint_permutations(self):
        n = 5
        cap = ps.CapacityMatrix.from_integer_matrix([[1] * n for _ in range(n)], n)
        dec = ps.bvn_decompose(cap)
        assert dec.state_count == n
        total = sum(p for p, _ in ((s[0], s[1]) for s in dec.states))
        assert (total == 1).all()
        assert all(w == Fraction(1, n) for _, w in dec.states)

    def test_reference_matrix_decomposition(self):
        cap = fixtures.capacity_4x4()
        dec = ps.bvn_decompose(cap)
        assert len(dec.permutations) == 8
        for perm in dec.permutations:
            assert sorted(perm.tolist()) == list(range(4))
        assert dec.state_count <= min(8, 4 * 4 - 2 * 4 + 2)
        assert dec.reconstruct() == [list(row) for row in cap.entries]

    def test_reference_states_reconstruct_exactly(self):
        cap = fixtures.capacity_4x4()
        for states in (fixtures.capacity_4x4_states(), fixtures.capacity_4x4_alt_states()):
            total = [[Fraction(0)] * 4 for _ in range(4)]
            for pattern, weight in states:
                for i in range(4):
                    for j in range(4):
                        total[i][j] += weight * int(pattern[i, j])
            assert total == [list(row) for row in cap.entries]

    def test_random_matrices_reconstruct(self):
        rng = random.Random(21)
        for _ in range(150):
            k = rng.randint(2, 8)
            f = rng.randint(1, 16)
            m = rng.choice((1, 1, 2))
            mat = _random_scaled_doubly_stochastic(rng, k, m * f)
            cap = ps.CapacityMatrix.from_integer_matrix(mat.tolist(), f)
            dec = ps.bvn_decompose(cap)
            assert dec.reconstruct() == [list(row) for row in cap.entries]
            assert sum(w for _, w in dec.states) == 1
            # K <= F holds structurally; the tighter Caratheodory-style bound
            # applies to minimal regroupings, not greedy extraction order
            assert dec.state_count <= f

    def test_patterns_are_one_read_only_array_that_reconstruct_sums(self):
        # m >= 3 slots can sum equal patterns from different permutation rows
        rng = random.Random(37)
        for _ in range(120):
            k, f, m = rng.randint(1, 6), rng.randint(1, 16), rng.randint(1, 4)
            cap = ps.CapacityMatrix.from_integer_matrix(_random_scaled_doubly_stochastic(rng, k, m * f), f)
            dec = ps.bvn_decompose(cap)
            pats = dec.patterns
            assert pats.dtype == np.min_scalar_type(m) and pats.shape == (dec.state_count, k, k)
            assert not pats.flags.writeable
            assert len({p.tobytes() for p in pats}) == len(pats)  # distinct, in order of first use
            assert dec.frame.dtype == np.int64 and dec.frame.shape == (f,) and not dec.frame.flags.writeable
            assert list(dict.fromkeys(dec.frame.tolist())) == list(range(len(pats)))
            for slot, state in enumerate(dec.frame):  # each slot's pattern sums its m rows
                dense = np.zeros((k, k), dtype=np.int64)
                for row in dec.permutations[slot * m:(slot + 1) * m]:
                    dense[np.arange(k), row] += 1
                assert (pats[state] == dense).all()
            for (pattern, weight), uses in zip(dec.states, np.bincount(dec.frame).tolist()):
                assert np.shares_memory(pattern, pats) and weight == Fraction(uses, f)
            stacked = [[sum(w * int(p[i, j]) for p, w in dec.states) for j in range(k)] for i in range(k)]
            assert dec.reconstruct() == stacked == [list(row) for row in cap.entries]

    @pytest.mark.parametrize("m", [255, 256, 300])
    def test_patterns_are_held_in_the_module_counts_dtype(self, m):
        rng = random.Random(m)
        k, f = 3, 4
        cap = ps.CapacityMatrix.from_integer_matrix(_random_scaled_doubly_stochastic(rng, k, m * f), f)
        dec = ps.bvn_decompose(cap)
        assert dec.patterns.dtype == np.min_scalar_type(m) and (dec.patterns.sum(axis=1) == m).all()
        for slot, state in enumerate(dec.frame):  # an int64 sum of the slot's m permutation rows
            dense = np.zeros((k, k), dtype=np.int64)
            for row in dec.permutations[slot * m:(slot + 1) * m]:
                dense[np.arange(k), row] += 1
            assert (dec.patterns[state] == dense).all()
        assert dec.reconstruct() == [list(row) for row in cap.entries]

    def test_slots_of_different_rows_with_one_sum_are_one_state(self, monkeypatch):
        # at k = 3 the three even and the three odd permutations both sum to the all-ones matrix
        even, odd = [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
        monkeypatch.setattr(ps, "peel_matchings", lambda counts: np.array(even + odd))
        dec = ps.bvn_decompose(ps.CapacityMatrix.from_integer_matrix([[2] * 3] * 3, 2))
        assert dec.frame.tolist() == [0, 0] and dec.states[0][1] == 1 and (dec.patterns == 1).all()

    def test_oversized_frame_rejected_before_allocating(self):
        f = ps.MAX_PATTERN_CELLS // 4 + 1  # F * k^2 just above the cap at k = 2
        cap = ps.CapacityMatrix.from_integer_matrix([[f, 0], [0, f]], f)
        with pytest.raises(ResourceLimitError):
            ps.bvn_decompose(cap)
        many_modules = ps.MAX_PATTERN_CELLS // 2 + 1  # m * F * k just above it at F = 1
        cap = ps.CapacityMatrix.from_integer_matrix([[many_modules, 0], [0, many_modules]], 1)
        with pytest.raises(ResourceLimitError):
            ps.bvn_decompose(cap)


class TestBandlimitAndRound:
    def test_already_quantized_is_exact(self):
        cap = fixtures.capacity_4x4()
        for f in (8, 16):
            rounded, err = ps.bandlimit_and_round(cap.as_float(), f, modules=1)
            assert err == 0.0
            assert rounded == cap
            assert (rounded.scaled == cap.scaled * (f // 8)).all()

    def test_line_sums_preserved_and_error_bounded(self):
        rng = random.Random(33)
        for _ in range(60):
            k = rng.randint(2, 6)
            m = rng.choice((1, 2, 4))
            traffic = _random_traffic(rng, k, m, fill=0.7)
            cap = ps.allocate_capacity(traffic)
            for f in (16, 32, 64, 128):
                rounded, err = ps.bandlimit_and_round(cap, f, modules=m)
                scaled = rounded.scaled
                assert (scaled.sum(axis=0) == m * f).all()
                assert (scaled.sum(axis=1) == m * f).all()
                assert err <= 1.0 / f + 1e-12

    @pytest.mark.filterwarnings("error")
    def test_non_finite_capacity_refused(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(PreconditionError, match="finite"):
                ps.bandlimit_and_round(np.array([[bad, 1.0], [1.0, 0.0]]), 4, modules=1)

    def test_error_shrinks_with_frame_size(self):
        rng = random.Random(35)
        traffic = _random_traffic(rng, 4, 2, fill=0.8)
        cap = ps.allocate_capacity(traffic)
        errs = [ps.bandlimit_and_round(cap, f, modules=2)[1] for f in (16, 32, 64, 128)]
        assert errs[-1] < errs[0]

    def test_bandlimited_state_count(self):
        # entries capped at b/f force the frame to satisfy f <= b*k/m
        b, k, m, f = 2, 4, 1, 8
        mat = np.zeros((k, k), dtype=np.int64)
        for shift in range(k):
            for i in range(k):
                mat[i, (i + shift) % k] += b  # each cyclic shift used b times
        cap = ps.CapacityMatrix.from_integer_matrix(mat.tolist(), f)
        assert int(cap.scaled.max()) <= b
        assert f <= b * k / m
        dec = ps.bvn_decompose(cap)
        assert dec.state_count <= f


def _ref_transportation_round(frac, row_need, col_need):
    """The tagged-node augmenting search that the index-array one replaced;
    also returns the number of augmenting paths it took."""
    k = frac.shape[0]
    order = np.argsort(-frac, axis=None, kind="stable")
    x = np.zeros((k, k), dtype=np.int64)
    row_left = row_need.copy()
    col_left = col_need.copy()
    for i, j in zip(*np.unravel_index(order, (k, k))):
        if row_left[i] > 0 and col_left[j] > 0 and x[i, j] == 0:
            x[i, j] = 1
            row_left[i] -= 1
            col_left[j] -= 1
    paths = 0
    while row_left.sum() > 0:
        paths += 1
        start = int(np.argmax(row_left))
        parent = {}
        frontier = [("r", start)]
        seen = {("r", start)}
        goal = None
        while frontier and goal is None:
            kind, node = frontier.pop(0)
            if kind == "r":
                for j in range(k):
                    if x[node, j] == 0 and ("c", j) not in seen:
                        parent[("c", j)] = ("r", node, 1)
                        if col_left[j] > 0:
                            goal = ("c", j)
                            break
                        seen.add(("c", j))
                        frontier.append(("c", j))
            else:
                for i in range(k):
                    if x[i, node] == 1 and ("r", i) not in seen:
                        parent[("r", i)] = ("c", node, 0)
                        seen.add(("r", i))
                        frontier.append(("r", i))
        assert goal is not None
        node = goal
        while node != ("r", start):
            pkind, pnode, put = parent[node]
            if put:
                x[pnode, node[1]] = 1
            else:
                x[node[1], pnode] = 0
            node = (pkind, pnode)
        row_left[start] -= 1
        col_left[goal[1]] -= 1
    return x, paths


class TestTransportationRound:
    def test_matches_the_tagged_node_search(self):
        augmented = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            k, m, f = int(rng.integers(4, 13)), int(rng.choice([1, 2])), int(rng.choice([16, 128]))
            lam = rng.uniform(0.2, 1.0, size=(k, k))
            lam *= 0.8 * m / max(lam.sum(axis=0).max(), lam.sum(axis=1).max())
            spec = ClosSpec(m=m, n=m, k=k)
            target = ps.allocate_capacity(ps.TrafficMatrix(lam, spec)) * f
            base = np.floor(target + 1e-9).astype(np.int64)
            frac = target - base
            row_need, col_need = m * f - base.sum(axis=1), m * f - base.sum(axis=0)
            want, paths = _ref_transportation_round(frac, row_need, col_need)
            assert (ps._transportation_round(frac, row_need, col_need) == want).all()
            augmented += paths > 0
        assert augmented > 60  # the greedy pass strands demand in about a third of these draws

    def test_augmenting_search_takes_the_first_spare_column(self):
        # the greedy pass leaves row 1 two units short; its first search
        # reaches row 3, where columns 1 and 3 both have spare demand, and
        # the path must end at column 1, the first.  Found by a seeded search
        # over k <= 5 (numpy seed 10011)
        frac = np.array([[0.4, 0.6, 0.8, 0.1], [0.3, 0.4, 0.2, 0.6],
                         [0.5, 0.3, 0.7, 0.1], [0.9, 0.7, 0.1, 0.8]])
        row_need, col_need = np.array([1, 4, 1, 1]), np.array([1, 2, 2, 2])
        want = [[0, 0, 0, 1], [1, 1, 1, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
        assert ps._transportation_round(frac, row_need, col_need).tolist() == want
        assert _ref_transportation_round(frac, row_need, col_need)[0].tolist() == want

    def test_infeasible_line_sums_are_refused(self):
        with pytest.raises(PreconditionError):
            ps._transportation_round(np.zeros((2, 2)), np.array([3, 0]), np.array([2, 1]))
