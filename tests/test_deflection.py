import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from switchlab import deflection as dfl
from switchlab import fixtures
from switchlab.contention import CHUNK_CELLS, MAX_RUN_CELLS, carried_load
from switchlab.errors import DomainError, ResourceLimitError

from test_errors import DEFLECTION_ROWS, assert_refused

# sha256 of exits_by_stage, live_by_stage and deflected_by_stage of every case
# of test_outputs_are_pinned_where_the_narrow_packet_types_are_tight, in order
SIMULATOR_SHA256 = "7be38617025e835516594da1155502de378ebc338ca3e8008f2c9c242f895ae2"


def test_success_probability_values():
    assert dfl.success_probability(1.0) == pytest.approx(0.6321, abs=5e-5)
    assert dfl.success_probability(0.0) == 1.0
    assert dfl.success_probability(0.5) == pytest.approx(0.7869, abs=5e-5)
    grid = [dfl.success_probability(r / 10) for r in range(11)]
    assert all(b < a for a, b in zip(grid, grid[1:]))
    with pytest.raises(DomainError):
        dfl.success_probability(1.2)


def test_params_constants_at_full_load():
    par = dfl.DeflectionParams.from_rho(1.0)
    assert par.p == pytest.approx(0.6321, abs=5e-4)
    assert par.q == pytest.approx(0.3679, abs=5e-4)
    assert par.slope_m == pytest.approx(-0.3566, abs=5e-4)
    assert par.intercept_b == pytest.approx(0.9683, abs=5e-4)
    assert par.a == pytest.approx(fixtures.DEFLECTION_A, abs=5e-4)
    assert par.c == pytest.approx(fixtures.DEFLECTION_C, abs=5e-4)


def test_params_conditions_hold_across_loads():
    for i in range(1, 21):
        par = dfl.DeflectionParams.from_rho(i / 20)
        assert par.a > 1.0 and par.c > 1.0
        assert par.slope_m < 0.0
        assert par.p + par.q == pytest.approx(1.0)


def test_absorption_series_head_and_mass():
    par = dfl.DeflectionParams.from_rho(1.0)
    ser = dfl.absorption_series(par.p, par.q, 500)
    assert ser.g_q[0] == 0.0 and ser.g_q[1] == 0.0
    assert ser.g_q[2] == pytest.approx(par.p**2, rel=1e-14)
    assert ((0.0 <= ser.g_q) & (ser.g_q <= 1.0)).all()
    assert np.diff(np.cumsum(ser.g_q)).min() >= 0.0
    assert ser.g_q[:201].sum() == pytest.approx(1.0, abs=1e-9)


def test_mass_conservation_across_loads():
    for rho in (0.2, 0.5, 0.8, 1.0):
        par = dfl.DeflectionParams.from_rho(rho)
        ser = dfl.absorption_series(par.p, par.q, 500)
        assert ser.g_q.sum() == pytest.approx(1.0, abs=1e-9)


def test_generating_function_long_division_matches_recursion():
    # divide p^2 z^2 by 1 - q z - p q z^2 as formal power series
    par = dfl.DeflectionParams.from_rho(0.7)
    p, q = par.p, par.q
    num = [0.0, 0.0, p * p]
    den = [1.0, -q, -p * q]
    k_max = 60
    coeffs = []
    for k in range(k_max + 1):
        val = num[k] if k < len(num) else 0.0
        for j in range(1, min(k, len(den) - 1) + 1):
            val -= den[j] * coeffs[k - j]
        coeffs.append(val / den[0])
    ser = dfl.absorption_series(p, q, k_max)
    assert np.allclose(coeffs, ser.g_q, atol=1e-12)


def test_closed_form_matches_and_dominates_exact_tail():
    # p = 0.6 and 0.55 reach past L = 1790 and 1622, where a cosh/sinh form of
    # the exact tail overflowed; the tails there are still above 1e-250
    pairs = [(par.p, par.q) for par in map(dfl.DeflectionParams.from_rho, (0.2, 0.4, 0.6, 0.8, 1.0))]
    for p, q in pairs + [(0.6, 0.4), (0.55, 0.45)]:
        ser = dfl.absorption_series(p, q, 4000)
        for length in [*range(1, 101), 1000, 1621, 1622, 1789, 1790, 2000]:
            tail = ser.tail(length)
            if tail < 1e-300:  # near subnormal, where the series sum loses its relative precision
                continue
            bounds = dfl.closed_form_tail(p, q, length)
            assert bounds.explicit == pytest.approx(tail, rel=1e-9)
            assert bounds.log_linear >= tail * (1 - 1e-9)


def test_one_envelope_behind_loss_bound_and_log_linear_tail():
    # c * a^-L is also exp(slope_m (L + 2) + intercept_b)
    for rho in (0.3, 0.8, 1.0):
        par = dfl.DeflectionParams.from_rho(rho)
        for length in (1, 2, 7, 40):
            env = par.envelope(length)
            assert dfl.loss_bound(rho, length) == env
            bounds = dfl.closed_form_tail(par.p, par.q, length)
            assert bounds.log_linear == par.envelope(length - length % 2)
            log_form = par.slope_m * (length + 2) + par.intercept_b
            assert math.log(env) == pytest.approx(log_form, abs=1e-12)


def test_closed_form_rejects_heavy_deflection():
    with pytest.raises(DomainError):
        dfl.closed_form_tail(0.4, 0.6, 10)


def test_no_deflection_is_refused_by_both_entry_points():
    # q = 0: every packet exits at its first chance, and a and c would be infinite
    with pytest.raises(DomainError, match="q > 0"):
        dfl.closed_form_tail(1.0, 0.0, 10)
    for p, q in ((1.0, 0.0), (1.0 - 1e-13, 0.0)):
        with pytest.raises(DomainError, match="q > 0"):
            dfl.DeflectionParams.from_pq(p, q)
    with pytest.raises(DomainError, match="q > 0"):
        dfl.DeflectionParams.from_rho(0.0)
    # a load too light to deflect anything loses nothing
    for rho in (0.0, 1e-20):
        assert dfl.success_probability(rho) == 1.0
        assert dfl.loss_bound(rho, 10) == 0.0


# the rows live in the refusal table of test_errors.py; this name keeps their test ids
@pytest.mark.parametrize("call, args, error", DEFLECTION_ROWS.values(), ids=DEFLECTION_ROWS.keys())
def test_non_integer_bool_and_oversized_scalars_are_refused(call, args, error):
    assert_refused(call, args, error)


def test_absorption_series_runs_to_the_stage_cap():
    ser = dfl.absorption_series(0.6, 0.4, dfl.MAX_STAGES)
    assert len(ser.g_q) == dfl.MAX_STAGES + 1 and ser.g_q.sum() == pytest.approx(1.0, abs=1e-12)


def test_loss_bound_values():
    par = dfl.DeflectionParams.from_rho(1.0)
    assert dfl.loss_bound(1.0, 0) == pytest.approx(par.c, rel=1e-12)
    assert dfl.loss_bound(1.0, 500) < 1e-70
    # logarithm of the bound is linear in length with slope -ln a
    lens = range(5, 50, 5)
    logs = [math.log(dfl.loss_bound(1.0, L)) for L in lens]
    slopes = {round((b - a) / 5, 9) for a, b in zip(logs, logs[1:])}
    assert len(slopes) == 1
    assert slopes.pop() == pytest.approx(-math.log(par.a), abs=1e-9)
    assert dfl.loss_bound(0.0, 10) == 0.0
    with pytest.raises(DomainError, match="offered load above 1"):
        dfl.loss_bound(1.5, 10)


@pytest.mark.parametrize("rho", [-0.5, -1e-300, math.nan])
def test_loss_bound_refuses_loads_outside_the_unit_interval(rho):
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        dfl.loss_bound(rho, 10)
    with pytest.raises(DomainError):
        dfl.DeflectionParams.from_rho(rho)


class TestSimulator:
    def test_low_load_is_lossless(self):
        sim = dfl.simulate_deflection(4, 8, 0.05, 4000, seed=0)
        assert sim.loss < 5e-4

    def test_loss_under_theorem_bound(self):
        sim = dfl.simulate_deflection(4, 30, 1.0, 20_000, seed=1)
        for length in (10, 20, 30):
            emp = sim.loss_after(length)
            bound = dfl.loss_bound(1.0, length)
            sigma = math.sqrt(bound * (1 - bound) / sim.offered)
            assert emp <= bound + 4 * sigma

    def test_offered_load_accounting(self):
        sim = dfl.simulate_deflection(3, 10, 0.6, 2000, seed=2)
        assert sim.offered == sim.exited + sim.lost
        assert 0.5 < sim.offered / (2000 * 9) < 0.7
        assert sim.exits_by_stage[0] == 0 and sim.exits_by_stage[1] == 0

    @pytest.mark.parametrize("n, rho, slots", [(4, 1.0, 5000), (4, 0.6, 50_000), (8, 0.9, 20_000)])
    def test_offered_packets_are_binomial(self, n, rho, slots):
        # each of the slots * n^2 wires holds a packet with probability rho:
        # all of them at rho = 1, otherwise Binomial(slots n^2, rho), checked
        # within 5 standard deviations (a 1% drop is 11 and 34 of them here)
        sim = dfl.simulate_deflection(n, 2, rho, slots, seed=17)
        cells = slots * n * n
        if rho == 1.0:
            assert sim.live_by_stage[1] == cells
        else:
            assert abs(sim.live_by_stage[1] - cells * rho) <= 5 * math.sqrt(cells * rho * (1 - rho))

    def test_run_beyond_the_cell_budget_is_refused(self):
        with pytest.raises(ResourceLimitError, match="run budget"):
            dfl.simulate_deflection(4, 10, 0.5, MAX_RUN_CELLS // 16 + 1)

    def test_exit_distribution_reported_vs_chain(self):
        # worst-case chain versus actual cohort drain: distance is reported,
        # not asserted tight; just require a sane probability vector
        sim = dfl.simulate_deflection(4, 24, 1.0, 4000, seed=3)
        par = dfl.DeflectionParams.from_rho(1.0)
        ser = dfl.absorption_series(par.p, par.q, 24)
        dist = sim.exit_distribution()
        chain = ser.g_q[: 25] / ser.g_q[: 25].sum()
        tv = 0.5 * float(np.abs(dist - chain).sum())
        assert 0.0 <= tv <= 1.0
        assert dist.sum() == pytest.approx(1.0)

    def test_live_packets_drop_by_each_stage_exits(self):
        sim = dfl.simulate_deflection(5, 8, 0.9, 1500, seed=6)
        live, exits, deflected = sim.live_by_stage, sim.exits_by_stage, sim.deflected_by_stage
        assert live.dtype == np.int64 and live.shape == exits.shape
        assert live[0] == 0 and sim.offered == live[1]
        assert (live[1:-1] - live[2:] == exits[1:-1]).all()
        assert live[-1] - exits[-1] == sim.lost > 0
        # winners either exit or advance to their second digit
        assert deflected.dtype == np.int64 and deflected.shape == live.shape
        assert deflected[0] == 0 and (deflected[1:] > 0).all()
        assert (live[1:] - deflected[1:] >= exits[1:]).all()

    def test_deterministic_per_seed(self):
        a = dfl.simulate_deflection(3, 8, 0.8, 1000, seed=4)
        b = dfl.simulate_deflection(3, 8, 0.8, 1000, seed=4)
        assert (a.exits_by_stage == b.exits_by_stage).all()
        assert (a.live_by_stage == b.live_by_stage).all()

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            dfl.simulate_deflection(1, 10, 0.5, 100)
        with pytest.raises(DomainError):
            dfl.simulate_deflection(4, 1, 0.5, 100)
        with pytest.raises(DomainError):
            dfl.simulate_deflection(4, 10, 1.5, 100)
        for slots in (0, -3):
            with pytest.raises(DomainError):
                dfl.simulate_deflection(4, 10, 0.5, slots)

    def test_stage_count_is_capped_before_allocating(self):
        with pytest.raises(ResourceLimitError):
            dfl.simulate_deflection(4, dfl.MAX_STAGES + 1, 0.5, 10)
        with pytest.raises(ResourceLimitError):
            dfl.simulate_deflection(4, 10**9, 0.5, 10)
        sim = dfl.simulate_deflection(4, dfl.MAX_STAGES, 0.5, 10, seed=7)
        assert sim.exits_by_stage.size == dfl.MAX_STAGES + 1 and sim.lost == 0

    def test_contention_keys_stay_unique_when_every_draw_ties(self, monkeypatch):
        # all-zero draws: every cell offers a packet for wire 0, and the keys differ in their cell bits alone
        class ZeroBits:
            def random_raw(self, size):
                return np.zeros(size, dtype=np.uint64)

        class ZeroGenerator:
            bit_generator = ZeroBits()

        monkeypatch.setattr(dfl.np.random, "default_rng", lambda seed: ZeroGenerator())
        n, slots = 3, 5
        res = dfl.simulate_deflection(n, 4, 1.0, slots)
        assert res.offered == n * n * slots
        # each (slot, module) row sends its n packets to port 0: one winner a row
        assert res.deflected_by_stage[1] == res.offered - n * slots

    def test_two_packets_on_one_link_are_refused(self, monkeypatch):
        # every loser sent to port 0 breaks the invariant: a row whose port 0
        # a winner holds, or that has two losers, sends two packets to one link
        monkeypatch.setattr(dfl, "_deflection_ports", lambda lose, *_: np.zeros(lose.size, dtype=np.uint8))
        with pytest.raises(AssertionError, match="two packets leave on one link"):
            dfl.simulate_deflection(4, 8, 1.0, 50, seed=0)

    @pytest.mark.parametrize("args", [(4.0, 10, 0.5, 10), (4, 10, 0.5, 10.5), (4, 10.0, 0.5, 10), (True, 10, 0.5, 10)],
                             ids=["float_module_size", "half_slot", "float_stages", "bool_module_size"])
    def test_non_integer_sizes_are_refused(self, monkeypatch, args):
        # the first three ended in a TypeError from numpy; True was refused
        # only as a module size below 2
        monkeypatch.setattr(dfl.np.random, "default_rng", None)  # refused before any draw
        with pytest.raises(DomainError):
            dfl.simulate_deflection(*args)

    @pytest.mark.parametrize("n, rho, slots", [(4, 1.0, 20_000), (8, 0.3, 8000), (16, 1.0, 500)])
    def test_first_stage_deflections_follow_the_crossbar_law(self, n, rho, slots):
        # at stage 1 every module is an n x n crossbar at load rho: its
        # losers are its packets less its busy outputs, so
        # E[deflected[1]] = slots * n * (n rho - n carried_load(rho, n)).
        # Rows are independent with losers in [0, n - 1]; Hoeffding gives
        # the bound, exceeded with probability below 1e-6
        sim = dfl.simulate_deflection(n, 4, rho, slots, seed=13)
        rows = slots * n
        expected = rows * n * (rho - carried_load(rho, n))
        bound = (n - 1) * math.sqrt(rows * math.log(2 / 1e-6) / 2)
        assert abs(sim.deflected_by_stage[1] - expected) <= bound

    def test_numpy_integer_sizes_run_as_python_ints(self):
        # a numpy module size ended in an AttributeError from (n - 1).bit_length()
        wide = dfl.simulate_deflection(np.int64(4), np.int64(6), 1.0, np.int64(300), seed=np.int64(2))
        plain = dfl.simulate_deflection(4, 6, 1.0, 300, seed=2)
        for name in ("exits_by_stage", "live_by_stage", "deflected_by_stage"):
            assert np.array_equal(getattr(wide, name), getattr(plain, name))

    def test_outputs_are_pinned_where_the_narrow_packet_types_are_tight(self):
        # n = 255 and 256 fill a chunk with one slot, whose cells reach 2^16 - 1
        # and whose digits reach 255; a full row of n = 256 ranks 256 losers.
        # The other sizes end inside their second chunk.  The digest was taken
        # from the int32/int64 packet arrays the narrow ones replaced
        digest = hashlib.sha256()
        case = 0
        for n in (2, 3, 5, 16, 255, 256):
            chunk = CHUNK_CELLS // (n * n)
            slots = chunk + chunk // 2 + 1 if chunk > 1 else 3
            for rho in (0.05, 0.3, 1.0):
                sim = dfl.simulate_deflection(n, 12, rho, slots, seed=case)
                for counts in (sim.exits_by_stage, sim.live_by_stage, sim.deflected_by_stage):
                    digest.update(counts.tobytes())
                case += 1
        assert digest.hexdigest() == SIMULATOR_SHA256

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_one_chunk_never_holds_wide_packet_arrays(self, n):
        # int32 cells and digits and an int64 gather of the taken rows peaked at
        # about 4.98 MiB; uint16 cells, uint8 digits and a bool taken view stay below 4 MiB
        slots = CHUNK_CELLS // (n * n)
        dfl.simulate_deflection(n, 16, 1.0, slots, seed=0)  # warm-up: numpy's first-call caches
        tracemalloc.start()
        try:
            dfl.simulate_deflection(n, 16, 1.0, slots, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_one_slot_beyond_the_chunk_budget_is_refused(self):
        side = math.isqrt(CHUNK_CELLS)
        for n in (side + 1, 100_000):
            with pytest.raises(ResourceLimitError):
                dfl.simulate_deflection(n, 10, 0.5, 10)
        sim = dfl.simulate_deflection(side, 3, 0.01, 1, seed=5)
        assert sim.live_by_stage[1] == sim.offered


def test_losers_take_each_free_port_uniformly():
    # the exit law is symmetric in the free port a loser takes, so only a
    # direct look at the draw sees a fixed free-port order.  Even rows of
    # n = 4 have ports 0 and 2 taken and losers on wires 1 and 3; odd rows
    # have port 3 taken and losers on wires 0 and 1.  Each loser's port must
    # be uniform over its row's free ports: Hoeffding on each of the 10
    # (row kind, loser, port) shares, with a union bound, exceeded with
    # probability below 1e-6
    n, rows = 4, 100_000
    base = np.arange(rows) * n
    odd = np.arange(rows) % 2 == 1
    table = np.full(rows * n, -1)
    table[np.where(odd, base + 3, base)] = 0
    table[base[~odd] + 2] = 0
    cell = np.stack([np.where(odd, base, base + 1), np.where(odd, base + 1, base + 3)], axis=1).ravel()
    ports = dfl._deflection_ports(np.arange(cell.size), cell, n, table, np.random.default_rng(11))
    ports = ports.reshape(rows, 2)
    assert (table[base[:, None] + ports] < 0).all() and (ports[:, 0] != ports[:, 1]).all()
    bound = math.sqrt(math.log(2 * 10 / 1e-6) / rows)  # rows / 2 of each kind
    for kind, free in ((~odd, (1, 3)), (odd, (0, 1, 2))):
        for loser in (0, 1):
            for port in free:
                assert abs(np.mean(ports[kind, loser] == port) - 1 / len(free)) <= bound


def test_loser_ports_are_uniform_over_the_free_ports_of_random_rows():
    # n = 4 rows with random taken ports and random losers, no more losers
    # than free ports: whatever the row, its r-th loser's port must be
    # uniform over the row's free ports.  Losers are grouped by (taken ports,
    # rank r); Hoeffding on each (group, port) share, with a union bound over
    # all of them, is exceeded with probability below 1e-6
    n, rows = 4, 200_000
    rng = np.random.default_rng(5)
    taken = rng.random((rows, n)) < 0.5
    taken[:, 0] &= ~taken[:, 1:].all(axis=1)  # a free port in every row
    lost = rng.random((rows, n)) < 0.5
    lost &= np.cumsum(lost, axis=1) <= (~taken).sum(axis=1, keepdims=True)
    cell = np.flatnonzero(lost)
    table = np.where(taken, 0, -1).ravel()
    ports = dfl._deflection_ports(np.arange(cell.size), cell, n, table, np.random.default_rng(12))
    row = cell // n
    assert (table[row * n + ports] < 0).all()
    assert np.unique(row * n + ports).size == cell.size  # no two losers of a row share a port
    group = (taken @ (1 << np.arange(n)))[row] * n + (np.cumsum(lost, axis=1) - 1)[row, cell % n]
    tally = np.zeros((2**n * n, n), dtype=np.int64)
    np.add.at(tally, (group, ports), 1)
    free = (np.arange(2**n * n)[:, None] // n >> np.arange(n)) & 1 == 0
    size = tally.sum(axis=1)
    seen = size > 0
    assert seen.sum() == 32 and size[seen].min() > 500  # every (free ports k, rank < k) group, each often
    bound = np.sqrt(np.log(2 * tally.size / 1e-6) / (2 * size[seen]))
    share = tally[seen] / size[seen, None]
    expected = free[seen] / free[seen].sum(axis=1, keepdims=True)
    assert (np.abs(share - expected) <= bound[:, None]).all()


# --- the per-module, per-port stage loop that simulate_deflection replaced by
# row sorting: a test-only reference for the simulator's exit-stage law

def _reference_exits(module_size, stages, rho, slots, seed):
    """(offered, exits_by_stage) of the per-port reference simulator."""
    n = module_size
    wires = n * n
    chunk = max(1, min(4096, (1 << 20) // wires))
    rng = np.random.default_rng(seed)
    exits = np.zeros(stages + 1, dtype=np.int64)
    offered = 0
    done = 0
    while done < slots:
        b = min(chunk, slots - done)
        dest = rng.integers(0, wires, size=(b, wires))
        dest[rng.random((b, wires)) >= rho] = -1
        need_r = np.zeros((b, wires), dtype=bool)
        offered += int((dest >= 0).sum())
        for stage in range(1, stages + 1):
            new_dest = np.full((b, wires), -1, dtype=np.int64)
            new_need = np.zeros((b, wires), dtype=bool)
            for mod in range(n):
                cols = slice(mod * n, (mod + 1) * n)
                d = dest[:, cols]
                occupied = d >= 0
                if not occupied.any():
                    continue
                nr = need_r[:, cols]
                digit = np.where(nr, d % n, d // n)
                digit = np.where(occupied, digit, -1)
                scores = rng.random((b, n))
                won = np.zeros((b, n), dtype=bool)
                taken = np.zeros((b, n), dtype=bool)
                for port in range(n):
                    contend = digit == port
                    rows = np.nonzero(contend.any(axis=1))[0]
                    if rows.size == 0:
                        continue
                    pick = np.where(contend, scores, -1.0).argmax(axis=1)
                    won[rows, pick[rows]] = True
                    taken[rows, port] = True
                port_of = np.where(won, digit, -1)
                losers = occupied & ~won
                if losers.any():
                    free_rank = np.where(~taken, rng.random((b, n)), np.inf)
                    free_order = np.argsort(free_rank, axis=1)
                    loser_rank = np.cumsum(losers, axis=1) - 1
                    assigned = np.take_along_axis(
                        free_order, np.clip(loser_rank, 0, n - 1), axis=1
                    )
                    port_of = np.where(losers, assigned, port_of)
                exiting = won & nr
                if exiting.any():
                    links = mod * n + port_of
                    assert (links[exiting] == d[exiting]).all()
                    exits[stage] += int(exiting.sum())
                moving = occupied & ~exiting
                rows, offs = np.nonzero(moving)
                if rows.size:
                    tgt = port_of[rows, offs] * n + mod
                    new_dest[rows, tgt] = d[rows, offs]
                    new_need[rows, tgt] = won[rows, offs] & ~nr[rows, offs]
            dest, need_r = new_dest, new_need
            if not (dest >= 0).any():
                break
        done += b
    return offered, exits


LAW_STAGES = 16
# (module size, offered load, slots): about 1.9e5 offered packets per case
LAW_CASES = [(4, 0.3, 40_000), (4, 1.0, 12_000), (8, 0.3, 10_000),
             (8, 1.0, 3000), (16, 0.3, 2500), (16, 1.0, 750)]


def _exit_law(offered, exits):
    """Law of a packet's fate over LAW_STAGES cells: exit at stage 2..L, or lost."""
    return np.append(exits[2:], offered - exits.sum()) / offered


def _two_sample_tv_bound(samples, cells, delta=1e-6):
    """Bound on the TV distance of two empirical laws of ``samples`` draws each
    from one law over ``cells`` cells, exceeded with probability <= delta for
    independent draws.  E|p_k - q_k| <= sqrt(2 p_k / N) and Cauchy-Schwarz give
    E[TV] <= sqrt(K / 2N); one draw moves TV by at most 1/N, so McDiarmid adds
    sqrt(ln(1/delta) / N).  Packets of one slot interact, so this is checked
    against seed-to-seed spreads of the reference, which stay below a third
    of it at these sizes."""
    return math.sqrt(cells / (2 * samples)) + math.sqrt(math.log(1 / delta) / samples)


@pytest.mark.parametrize("n, rho, slots", LAW_CASES)
def test_exit_law_matches_reference_and_chain(n, rho, slots):
    sim = dfl.simulate_deflection(n, LAW_STAGES, rho, slots, seed=11)
    ref_offered, ref_exits = _reference_exits(n, LAW_STAGES, rho, slots, seed=12)
    law = _exit_law(sim.offered, sim.exits_by_stage)
    ref = _exit_law(ref_offered, ref_exits)
    bound = _two_sample_tv_bound(min(sim.offered, ref_offered), law.size)
    assert 0.5 * np.abs(law - ref).sum() <= bound
    # no farther from the worst-case chain than the reference is, up to sampling
    par = dfl.DeflectionParams.from_rho(rho)
    g_q = dfl.absorption_series(par.p, par.q, LAW_STAGES).g_q
    chain = np.append(g_q[2:], 1.0 - g_q.sum())
    tv_chain = 0.5 * np.abs(law - chain).sum()
    assert tv_chain <= 0.5 * np.abs(ref - chain).sum() + bound
