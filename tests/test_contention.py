import dataclasses
import math

import numpy as np
import pytest

from switchlab import contention as ct
from switchlab.errors import DomainError, PreconditionError, ResourceLimitError

from test_errors import CONTENTION_ROWS, assert_refused


def test_carried_load_asymptotic_full_load():
    assert ct.carried_load(1.0, asymptotic=True) == pytest.approx(0.6321, abs=5e-5)


def test_carried_load_trivial_and_finite():
    assert ct.carried_load(0.0, 16) == 0.0
    assert ct.carried_load(1.0, 2) == pytest.approx(0.75)


def test_carried_load_domain():
    with pytest.raises(DomainError):
        ct.carried_load(1.2, 4)
    with pytest.raises(DomainError):
        ct.carried_load(-0.1, 4)
    with pytest.raises(DomainError):
        ct.carried_load(0.5)  # no port count, not asymptotic


def test_carried_load_monotone_and_bounded():
    for n in (1, 2, 7, 64):
        values = [ct.carried_load(r / 20, n) for r in range(21)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        for r in range(21):
            rho = r / 20
            assert 0.0 <= ct.carried_load(rho, n) <= rho + 1e-15


def test_carried_load_converges_to_asymptotic():
    for rho in (0.3, 0.7, 1.0):
        limit = ct.carried_load(rho, asymptotic=True)
        n = 1
        last = abs(ct.carried_load(rho, n) - limit)
        while n < 10**6:
            n *= 2
        assert abs(ct.carried_load(rho, n) - limit) < 1e-6
        assert abs(ct.carried_load(rho, n) - limit) <= last


def test_psnr_reference_points():
    assert ct.psnr(0.5) == 1.0
    assert ct.psnr(0.0) == 0.0
    assert ct.psnr(1 - math.exp(-1)) == pytest.approx(math.e - 1, abs=1e-12)
    with pytest.raises(DomainError):
        ct.psnr(1.0)


def test_psnr_monotone_in_load():
    grid = [ct.psnr(ct.carried_load(r / 10, 32)) for r in range(10)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_power_stats_values():
    stats = ct.power_stats(100, 1.0)
    assert stats.signal_mean == pytest.approx(63.40, abs=5e-3)
    assert stats.noise_mean == pytest.approx(36.60, abs=5e-3)
    zero = ct.power_stats(10, 0.0)
    assert zero.signal_mean == 0.0 and zero.variance == 0.0
    s32 = ct.power_stats(32, 1.0)
    rho_p = ct.carried_load(1.0, 32)
    assert s32.variance == pytest.approx(32 * rho_p * (1 - rho_p), rel=1e-12)
    assert s32.signal_mean + s32.noise_mean == pytest.approx(32.0)


class TestSimulateCrossbar:
    def test_zero_load(self):
        res = ct.simulate_crossbar(8, 0.0, 100, seed=1)
        assert res.load.carried_load == 0.0
        assert res.histogram[0] == 800

    def test_carried_load_within_confidence(self):
        for n, rho, slots in ((8, 0.5, 60_000), (32, 1.0, 60_000), (16, 0.25, 60_000)):
            res = ct.simulate_crossbar(n, rho, slots, seed=5)
            rho_p = ct.carried_load(rho, n)
            sigma = math.sqrt(rho_p * (1 - rho_p) / (n * slots))
            assert abs(res.load.carried_load - rho_p) < 4 * sigma

    def test_histogram_close_to_poisson(self):
        res = ct.simulate_crossbar(64, 1.0, 400_000, seed=11)
        pois = np.array([math.exp(-1) / math.factorial(i) for i in range(65)])
        pois[-1] += 1.0 - pois.sum()
        tv = 0.5 * np.abs(res.histogram / res.histogram.sum() - pois).sum()
        assert tv < 0.01

    def test_busy_mean_matches_and_variance_reported(self):
        res = ct.simulate_crossbar(32, 1.0, 60_000, seed=2)
        stats = ct.power_stats(32, 1.0)
        sigma = math.sqrt(stats.variance / res.slots)  # generous: true var is smaller
        assert abs(res.busy_mean - stats.signal_mean) < 6 * sigma
        # outputs are negatively correlated, so the empirical busy variance
        # sits below the independent-output figure
        assert res.busy_variance < stats.variance

    def test_deterministic_per_seed(self):
        for n, rho in ((8, 0.7), (32, 0.3)):
            slots = ct.CHUNK_CELLS // n + 5  # past one chunk
            a = ct.simulate_crossbar(n, rho, slots, seed=9)
            b = ct.simulate_crossbar(n, rho, slots, seed=9)
            assert a.load.carried_load == b.load.carried_load
            assert (a.histogram == b.histogram).all()
            assert (a.busy_mean, a.busy_variance, a.busy_skewness) == (
                b.busy_mean, b.busy_variance, b.busy_skewness)
            other = ct.simulate_crossbar(n, rho, slots, seed=10)
            assert (a.histogram != other.histogram).any()

    def test_draws_do_not_depend_on_the_chunk_budget(self, monkeypatch):
        # at N = 9 a 1000-cell budget holds 111 slots, 999 cells: the chunks
        # end on half words, which the next chunk must take up
        a = {n: ct.simulate_crossbar(n, 0.6, 5000, seed=3) for n in (32, 9)}
        monkeypatch.setattr(ct, "CHUNK_CELLS", 1000)  # 31 slots a chunk at N = 32, not a divisor
        for n in (32, 9):
            b = ct.simulate_crossbar(n, 0.6, 5000, seed=3)
            assert (a[n].histogram == b.histogram).all()
            assert (a[n].busy_mean, a[n].busy_variance, a[n].busy_skewness) == (
                b.busy_mean, b.busy_variance, b.busy_skewness)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n, slots, budget", [
        (7, (1 << 16) // 7 + 3, None), (9, 2500, 1000), (3, 3000, None),
        (1, 1000, None), (2, 1000, None),  # at rho = 1 a level equals N
        (255, 300, None), (256, 300, None),  # uint8 levels, then uint16
        (5, 1003, 64),  # 12-slot chunks, the last one of 7 slots
    ], ids=["n7_partial_chunk", "n9_odd_chunks", "n3", "n1", "n2", "n255_uint8", "n256_uint16",
            "n5_small_chunks"])
    def test_matches_the_slot_by_slot_reference(self, monkeypatch, n, rho, slots, budget):
        if budget:
            monkeypatch.setattr(ct, "CHUNK_CELLS", budget)
        res = ct.simulate_crossbar(n, rho, slots, seed=8)
        hist, moments, carried = _reference_crossbar(n, rho, slots, seed=8)
        assert res.histogram.tolist() == hist.tolist()
        assert (res.busy_mean, res.busy_variance, res.busy_skewness) == moments
        assert res.load.carried_load == carried

    def test_samples_above_the_offered_load_are_results(self):
        # carried <= offered holds only in expectation: at N = 1 about half
        # of these runs carry more than rho, and each must still return
        carried = [ct.simulate_crossbar(1, 0.5, 1000, seed=s).load.carried_load for s in range(20)]
        assert sum(c > 0.5 for c in carried) >= 5

    @pytest.mark.parametrize("histogram", [[0, 5, -1], [-1, 6, 0], [1, 1, 2]],
                             ids=["busy_above_packets", "busy_above_outputs", "packets_above_inputs"])
    def test_an_impossible_result_is_refused(self, histogram):
        res = ct.simulate_crossbar(2, 1.0, 2, seed=0)
        assert res.histogram.sum() == 4
        with pytest.raises(PreconditionError, match="busy output-slots"):
            dataclasses.replace(res, histogram=np.array(histogram))

    @pytest.mark.parametrize("offered, carried", [(0.5, 1.5), (0.5, -0.1), (1.5, 0.5), (0.5, math.nan)])
    def test_a_load_outside_the_unit_interval_is_refused(self, offered, carried):
        with pytest.raises(PreconditionError, match=r"in \[0, 1\]"):
            ct.CrossbarLoad(4, offered, carried)

    def test_one_slot_beyond_the_chunk_budget_is_refused(self):
        for n_ports in (ct.CHUNK_CELLS + 1, 10**9):
            with pytest.raises(ResourceLimitError):
                ct.simulate_crossbar(n_ports, 0.5, 10)
        res = ct.simulate_crossbar(ct.CHUNK_CELLS, 1.0, 1, seed=3)
        assert res.histogram.sum() == ct.CHUNK_CELLS
        assert res.busy_mean == ct.CHUNK_CELLS - res.histogram[0]  # a float32 busy sum past 2^15, exact

    def test_run_beyond_the_cell_budget_is_refused(self):
        for n_ports, slots in ((32, ct.MAX_RUN_CELLS // 32 + 1), (8, 10**12)):
            with pytest.raises(ResourceLimitError, match="run budget"):
                ct.simulate_crossbar(n_ports, 0.5, slots)


def _reference_crossbar(n, rho, slots, seed):
    """Histogram, (mean, variance, skewness) of the busy count and carried
    load, one slot at a time from the same 32-bit draws as simulate_crossbar:
    two to each 64-bit word, low half first; x < t = ceil(rho 2^32) holds a
    packet for output x N // t, in exact integers."""
    draws = np.random.default_rng(seed).bit_generator.random_raw((n * slots + 1) // 2).view(np.uint32)
    t = math.ceil(rho * 2**32)
    hist = np.zeros(n + 1, dtype=np.int64)
    sums = [0, 0, 0]
    for row in draws[: n * slots].reshape(slots, n).tolist():
        counts = np.bincount([x * n // t for x in row if x < t], minlength=n)
        np.add.at(hist, counts, 1)
        busy = int(np.count_nonzero(counts))
        sums = [s + busy**p for s, p in zip(sums, (1, 2, 3))]
    mean = sums[0] / slots
    var = sums[1] / slots - mean**2
    mu3 = sums[2] / slots - 3 * mean * var - mean**3
    return hist, (mean, var, mu3 / var**1.5 if var > 0 else 0.0), sums[0] / (slots * n)


@pytest.mark.parametrize("bins", [1, 7, 64, 1000, 1 << 16])
@pytest.mark.parametrize("rho", [1e-300, 2**-33, 1e-6, 0.3, 1 / 3, 0.5, 0.999999, 1.0])
def test_packet_draws_bin_exactly(rho, bins):
    # int(x * scale) must be floor(x bins / t) for every 32-bit x; both are
    # monotone in x, so checking both sides of each bin edge, the threshold
    # and the largest draw covers them all
    t, scale = ct.packet_draws(rho, bins)
    assert t == math.ceil(rho * 2**32) and 1 <= t <= 2**32
    edges = np.array([-(-k * t // bins) for k in range(1, bins + 1)], dtype=np.int64)
    x = np.unique(np.clip(np.concatenate((edges - 1, edges, [0, t - 1, t, 2**32 - 1])), 0, 2**32 - 1))
    assert ((x * scale).astype(np.int64) == x * bins // t).all()


def test_packet_draws_at_zero_load():
    assert ct.packet_draws(0.0, 8) == (0, math.inf)


def _binomial_pmf(n, p):
    return np.array([math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])


def _busy_pmf(n, rho):
    """Exact law of the busy-output count: inputs join one at a time, and a
    packet lands on an idle output with probability (N - busy)/N."""
    pmf = np.zeros(n + 1)
    pmf[0] = 1.0
    stay = 1 - rho + rho * np.arange(n + 1) / n
    for _ in range(n):
        pmf = pmf * stay + np.concatenate(([0.0], pmf[:-1] * (1 - stay[:-1])))
    return pmf


def _busy_moments(n, rho):
    """Closed-form mean and variance of the busy count, with a = P(output
    idle) and c = P(two given outputs idle)."""
    a = (1 - rho / n) ** n
    c = (1 - 2 * rho / n) ** n
    return n * (1 - a), n * a * (1 - a) + n * (n - 1) * (c - a * a)


def _level_sd(n, rho, k):
    """Standard deviation, over slots, of the share of outputs holding
    exactly k packets: the per-output variance plus the exact covariance of
    two outputs, from the trinomial law of (count at one, count at another)."""
    r = rho / n
    p = math.comb(n, k) * r**k * (1 - r) ** (n - k)
    both = 0.0
    if 2 * k <= n:
        both = (math.factorial(n) / (math.factorial(k) ** 2 * math.factorial(n - 2 * k))
                * r ** (2 * k) * (1 - 2 * r) ** (n - 2 * k))
    return math.sqrt(max(p * (1 - p) + (n - 1) * (both - p * p), 0.0) / n)


# (ports, offered load, slots): about 2^21 input cells per case
EXACT_LAW_CASES = [(n, rho, (1 << 21) // n) for n in (8, 32, 128) for rho in (0.3, 1.0)]


class TestCrossbarExactLaw:
    """Each output's packet count is exactly Binomial(N, rho/N), and the busy
    count's mean and variance have closed forms; the bounds below follow
    from the sample size only."""

    def test_closed_form_moments_match_the_exact_busy_law(self):
        for n in (1, 2, 8, 32, 128):
            for rho in (0.0, 0.3, 1.0):
                pmf = _busy_pmf(n, rho)
                levels = np.arange(n + 1)
                mean = (pmf * levels).sum()
                mean_cf, var_cf = _busy_moments(n, rho)
                assert mean == pytest.approx(mean_cf, abs=1e-9)
                assert (pmf * (levels - mean) ** 2).sum() == pytest.approx(var_cf, abs=1e-9)
        # the figure the variance test is held to at N=128, rho=1
        assert _busy_moments(128, 1.0)[1] == pytest.approx(12.462, abs=5e-4)

    @pytest.mark.parametrize("n, rho, slots", EXACT_LAW_CASES)
    def test_occupancy_is_binomial(self, n, rho, slots):
        res = ct.simulate_crossbar(n, rho, slots, seed=21)
        tv = 0.5 * np.abs(res.histogram / res.histogram.sum() - _binomial_pmf(n, rho / n)).sum()
        # E|p_k - p| <= sd_k / sqrt(slots) level by level, so the expected
        # distance is at most half their sum; allow four times that
        bound = 4 * 0.5 * sum(_level_sd(n, rho, k) for k in range(n + 1)) / math.sqrt(slots)
        assert tv < bound, (tv, bound)

    @pytest.mark.parametrize("n, rho, slots", EXACT_LAW_CASES)
    def test_busy_mean_and_variance_match_closed_forms(self, n, rho, slots):
        res = ct.simulate_crossbar(n, rho, slots, seed=22)
        mean, var = _busy_moments(n, rho)
        assert abs(res.busy_mean - mean) < 5 * math.sqrt(var / slots)
        # standard error of a sample variance, sqrt((mu4 - var^2) / slots),
        # with mu4 from the exact busy law
        pmf = _busy_pmf(n, rho)
        mu4 = (pmf * (np.arange(n + 1) - mean) ** 4).sum()
        assert abs(res.busy_variance - var) < 5 * math.sqrt((mu4 - var * var) / slots)

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_packet_count_identities(self, n):
        for rho, packets in ((1.0, n), (0.0, 0)):
            res = ct.simulate_crossbar(n, rho, 300, seed=4)
            assert res.histogram.sum() == n * 300
            assert (np.arange(n + 1) * res.histogram).sum() == packets * 300
        idle = ct.simulate_crossbar(n, 0.0, 300, seed=4)
        assert idle.busy_mean == 0.0 and idle.busy_variance == 0.0

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_partial_last_chunk(self, rho):
        n = 64
        slots = ct.CHUNK_CELLS // n + 1  # one full chunk and one slot more
        res = ct.simulate_crossbar(n, rho, slots, seed=6)
        assert res.slots == slots
        assert res.histogram.sum() == n * slots
        if rho == 1.0:
            assert (np.arange(n + 1) * res.histogram).sum() == n * slots
        mean, var = _busy_moments(n, rho)
        assert abs(res.busy_mean - mean) < 5 * math.sqrt(var / slots)


class TestBoltzmannPmf:
    def test_poisson_head(self):
        dist = ct.boltzmann_pmf(1.0, "distinguishable")
        assert dist.probability(0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_zero_load(self):
        for model in ("distinguishable", "indistinguishable"):
            dist = ct.boltzmann_pmf(0.0, model)
            assert dist.pmf == (1.0,)
            assert dist.probability(1) == dist.probability(-1) == 0.0  # no level past the pmf

    def test_geometric_head(self):
        dist = ct.boltzmann_pmf(1.0, "indistinguishable")
        assert dist.probability(0) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(1) == pytest.approx(0.25, abs=1e-12)

    def test_mass_folds_to_one(self):
        for rho in (0.2, 1.0, 3.5):
            for model in ("distinguishable", "indistinguishable"):
                assert ct.boltzmann_pmf(rho, model).total() == pytest.approx(1.0, abs=1e-12)

    def test_busy_probability_consistency(self):
        for rho in (0.1, 0.5, 1.0):
            dist = ct.boltzmann_pmf(rho, "distinguishable")
            assert 1 - dist.probability(0) == pytest.approx(
                ct.carried_load(rho, asymptotic=True), abs=1e-12
            )

    def test_negative_load_rejected(self):
        with pytest.raises(DomainError):
            ct.boltzmann_pmf(-0.5)

    def test_heavy_load_matches_lgamma_reference(self):
        rho = 150.0
        for model, log_term in (
            ("distinguishable", lambda i: -rho + i * math.log(rho) - math.lgamma(i + 1)),
            ("indistinguishable", lambda i: i * math.log(rho) - (i + 1) * math.log1p(rho)),
        ):
            dist = ct.boltzmann_pmf(rho, model)
            assert dist.total() == pytest.approx(1.0, abs=1e-12)
            for i, p in enumerate(dist.pmf[:-1]):  # the last bucket holds the folded tail
                assert p == pytest.approx(math.exp(log_term(i)), rel=1e-9)

    @pytest.mark.parametrize("rho, model, match", [
        (800.0, "distinguishable", "below a normal double"),
        (math.inf, "distinguishable", "below a normal double"),
        (1000.0, "indistinguishable", f"over {ct.PMF_MAX_TERMS} terms"),
    ])
    def test_unrepresentable_series_refused(self, rho, model, match):
        with pytest.raises(ResourceLimitError, match=match):
            ct.boltzmann_pmf(rho, model)


# the rows live in the refusal table of test_errors.py; this name keeps their test ids
@pytest.mark.parametrize("call, args, error", CONTENTION_ROWS.values(), ids=CONTENTION_ROWS.keys())
def test_scalar_refusals(call, args, error):
    assert_refused(call, args, error)


class TestPoissonProfile:
    def test_levels_up_to_the_cap(self):
        assert len(ct.poisson_profile(0.5, ct.PMF_MAX_TERMS - 1)) == ct.PMF_MAX_TERMS

    def test_levels_up_to_170_keep_the_textbook_form(self):
        for rho in (0.0, 0.5, 3.0, 33.0):
            assert ct.poisson_profile(rho, 170) == [math.exp(-rho) * rho**i / math.factorial(i) for i in range(171)]

    @pytest.mark.parametrize("rho, levels", [(0.5, 171), (0.5, 1000), (33.0, 400), (100.0, 400), (0.0, 300)])
    def test_levels_past_a_double_are_finite(self, rho, levels):
        # 171! and 100^155 exceed the largest double
        got = ct.poisson_profile(rho, levels)
        assert len(got) == levels + 1 and all(math.isfinite(x) and x >= 0.0 for x in got)
        assert sum(got) == pytest.approx(1.0, abs=1e-9)
        if rho < 1.0:  # far out in the tail a level underflows to 0.0
            assert got[-1] == 0.0
        for i in range(1, levels + 1):  # the ratio of neighbouring levels is rho / i
            if got[i - 1] > 1e-250:
                assert got[i] == pytest.approx(got[i - 1] * rho / i, rel=1e-9)


class TestCountStates:
    def test_worked_configuration(self):
        # eight outputs, five on level 0, two on level 1, one on level 3
        # (five packets): C(8,5)=56, 8!/(5!2!1!)=168, 5!/((1!)^2 3!)=20
        assert ct.count_states(8, 5, [5, 2, 0, 1], "one-per-input") == 56 * 168 * 20
        assert ct.count_states(8, 5, [5, 2, 0, 1], "distinguishable") == 168 * 20
        # four-packet variant with the third output on level 2 instead:
        # C(8,4)=70, 8!/(5!2!1!)=168, 4!/((1!)^2 2!)=12
        assert ct.count_states(8, 4, [5, 2, 1], "one-per-input") == 70 * 168 * 12

    def test_trivial_cases(self):
        for model in ("one-per-input", "distinguishable", "indistinguishable"):
            assert ct.count_states(1, 0, [1], model) == 1
        assert ct.count_states(2, 2, [0, 2], "indistinguishable") == 1

    def test_constraint_validation(self):
        with pytest.raises(PreconditionError):
            ct.count_states(4, 2, [4, 0, 1], "one-per-input")  # sums to 5 outputs
        with pytest.raises(PreconditionError):
            ct.count_states(4, 3, [3, 1], "one-per-input")  # packet count mismatch

    def test_input_choice_factor_relates_models(self):
        # the one-per-input count is the distinguishable count times C(N, M)
        for n, m, vec in ((6, 3, [4, 1, 1]), (5, 2, [3, 2]), (4, 0, [4])):
            a = ct.count_states(n, m, vec, "one-per-input")
            b = ct.count_states(n, m, vec, "distinguishable")
            assert a == math.comb(n, m) * b


class TestBruteForceMaximizer:
    def test_unique_vector(self):
        res = ct.maximize_entropy_bruteforce(2, 0)
        assert res.maximizer == (2,)

    def test_matches_poisson_shape(self):
        for n in range(2, 11):
            for m in range(0, n + 1):
                res = ct.maximize_entropy_bruteforce(n, m, "one-per-input")
                rho = m / n
                tol = max(2.0 / n, 0.1)
                for level in range(m + 1):
                    expected = (
                        math.exp(-rho) * rho**level / math.factorial(level)
                        if rho > 0
                        else (1.0 if level == 0 else 0.0)
                    )
                    actual = (
                        res.maximizer[level] / n if level < len(res.maximizer) else 0.0
                    )
                    assert abs(actual - expected) <= tol, (n, m, level)

    def test_geometric_comparison_runs(self):
        res = ct.maximize_entropy_bruteforce(4, 4, "indistinguishable")
        assert sum(res.maximizer) == 4
        assert sum(i * c for i, c in enumerate(res.maximizer)) == 4
        assert res.max_states >= res.poisson_states

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            ct.maximize_entropy_bruteforce(13, 5)
