"""Deflection routing through a cascade of identical n x n switch modules.

A packet needs two consecutive contention wins (first the module digit, then
the port digit of its destination) to leave the network; a loser is pushed
onto a free link of its module and starts over.  The absorbing two-state
chain over NEED_Q / NEED_R gives the per-stage exit law, an explicit
closed-form tail, and a geometric loss bound.  The slot-level simulator
checks those analytics empirically.

The recursion :func:`absorption_series` is the normative oracle here; the
closed forms are validated against it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .contention import CHUNK_CELLS, carried_load, check_run_size, packet_draws
from .errors import DomainError, ResourceLimitError, check_count, check_real

__all__ = [
    "DeflectionParams",
    "AbsorptionSeries",
    "TailBounds",
    "DeflectionSimResult",
    "success_probability",
    "absorption_series",
    "closed_form_tail",
    "loss_bound",
    "simulate_deflection",
]

# simulate_deflection and absorption_series refuse more stages than this
# before allocating their per-stage arrays
MAX_STAGES = 1 << 16


def success_probability(rho: float) -> float:
    """Worst-case contention win probability p = rho'/rho in a large square
    module, rho' the crossbar's asymptotic carried load; 1 as rho -> 0."""
    check_real(rho, 0.0, 1.0, "analysis holds for offered load in [0, 1] only")
    if rho == 0.0:
        return 1.0
    return carried_load(rho, asymptotic=True) / rho


@dataclass(frozen=True)
class DeflectionParams:
    """Derived constants of the deflection analysis at one offered load.

    The tail envelope is c * a^-L (:meth:`envelope`), with a = 1/lambda for
    the dominant ratio lambda of the exit law; in log form it is
    slope_m * (L + 2) + intercept_b, slope_m = ln lambda.
    """

    rho: float
    p: float
    q: float
    slope_m: float
    intercept_b: float
    a: float
    c: float

    @classmethod
    def from_rho(cls, rho: float) -> "DeflectionParams":
        p = success_probability(rho)
        return cls.from_pq(p, 1.0 - p, rho=rho)

    @classmethod
    def from_pq(cls, p: float, q: float, rho: float = math.nan) -> "DeflectionParams":
        """Constants at win probability p and deflection probability q.
        Refuses q = 0 (p = 1): with no deflection every packet exits at its
        first chance, and the tail constants a and c would be infinite."""
        message = f"need 0 < p < 1 and q > 0 with p + q = 1, got p={p} q={q}"
        check_real(p, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), message)
        check_real(q, math.nextafter(0.0, 1.0), 1.0, message)
        if abs(p + q - 1.0) > 1e-12:
            raise DomainError(message)
        s = math.sqrt(q * q + 4.0 * p * q)
        lam = (q + s) / 2.0  # dominant geometric ratio of the exit law
        c = lam * lam / (q * s)
        return cls(rho=rho, p=p, q=q, slope_m=math.log(lam), intercept_b=-math.log(q * s), a=1.0 / lam, c=c)

    def envelope(self, length: int) -> float:
        """Geometric envelope c * a^-L of the exit-law tail past ``length``."""
        return self.c * self.a ** (-length)


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class AbsorptionSeries:
    """Exact exit-time probabilities from the two-state absorbing chain:
    ``g_q[k]`` is the chance a fresh packet exits in exactly k module
    traversals, ``g_r[k]`` the same for a packet one win away."""

    p: float
    q: float
    g_q: np.ndarray
    g_r: np.ndarray

    def tail(self, length: int) -> float:
        """Mass not yet absorbed after ``length`` traversals (partial sum)."""
        return float(self.g_q[length + 1 :].sum())


def absorption_series(p: float, q: float, k_max: int) -> AbsorptionSeries:
    """Unroll the exit-time recursion up to ``k_max`` traversals.

    g_r(k) = p*[k == 1] + q*g_q(k-1), g_q(k) = p*g_r(k-1) + q*g_q(k-1),
    with g_q(0) = g_q(1) = 0.  The partial sums of g_q increase to 1.
    """
    message = "need 0 < p < 1 with p + q = 1"
    check_real(p, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), message)
    check_real(q, 0.0, 1.0, message)
    if abs(p + q - 1.0) > 1e-12:
        raise DomainError(message)
    check_count(k_max, 2, "k_max must be an integer >= 2")
    if k_max > MAX_STAGES:
        raise ResourceLimitError(f"k_max = {k_max} exceeds {MAX_STAGES} stages")
    g_q = np.zeros(k_max + 1)
    g_r = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        g_r[k] = p * (k == 1) + q * g_q[k - 1]
        g_q[k] = p * g_r[k - 1] + q * g_q[k - 1]
    return AbsorptionSeries(p=p, q=q, g_q=g_q, g_r=g_r)


@dataclass(frozen=True)
class TailBounds:
    """Closed forms of the not-yet-exited mass after L traversals: the exact
    tail and its geometric envelope."""

    explicit: float
    log_linear: float


def _explicit_tail(p: float, q: float, length: int) -> float:
    """Exact tail by partial fractions of the exit-law generating function,
    in powers of its two roots lam = (q + s)/2 and mu = q - lam, s = lam - mu
    = sqrt(q^2 + 4pq):  [(lam^L - mu^L) + pq (lam^(L-1) - mu^(L-1))] / s.
    |mu| < lam < 1, so a power underflows to 0 but never overflows; equals
    the recursion tail to rounding."""
    s = math.sqrt(q * q + 4.0 * p * q)
    lam = (q + s) / 2.0
    mu = q - lam
    return ((lam**length - mu**length) + p * q * (lam ** (length - 1) - mu ** (length - 1))) / s


def closed_form_tail(p: float, q: float, length: int) -> TailBounds:
    """Closed-form tail of the exit law past ``length``.

    ``explicit`` is the exact expression in powers of the exit law's roots;
    ``log_linear`` is the envelope c * a^-L' at the last even L' <= L, which
    stays above the alternating exact tail at every length.  Requires
    q < 1/2 so the envelope decays.
    """
    # only the upper end: from_pq refuses q <= 0 with its own message
    check_real(q, -math.inf, math.nextafter(0.5, 0.0), "tail bounds need deflection probability q < 1/2")
    check_count(length, 1, "network length must be an integer >= 1")
    check_real(length, 1, sys.float_info.max, "network length exceeds the double range")
    params = DeflectionParams.from_pq(p, q)
    return TailBounds(
        explicit=_explicit_tail(p, q, length),
        log_linear=params.envelope(length - length % 2),
    )


def loss_bound(rho: float, length: int) -> float:
    """Geometric loss bound c * a^-L (:meth:`DeflectionParams.envelope`) on
    (rho - rho')/rho.  Only valid for offered load in [0, 1]; above 1 the
    deflected traffic exceeds the spare links and the loss is unbounded."""
    # NaN and all but a real get success_probability's message, a load above 1 its own
    check_real(rho, -math.inf, math.inf, "analysis holds for offered load in [0, 1] only")
    check_real(rho, -math.inf, 1.0, "offered load above 1: deflection capacity exhausted, loss unbounded")
    check_count(length, 0, "network length must be a nonnegative integer")
    check_real(length, 0, sys.float_info.max, "network length exceeds the double range")
    if success_probability(rho) == 1.0:  # nothing is deflected, so nothing is lost
        return 0.0
    return DeflectionParams.from_rho(rho).envelope(length)


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class DeflectionSimResult:
    """Aggregate outcome of a slot-level deflection run."""

    module_size: int
    stages: int
    rho: float
    slots: int
    offered: int
    exited: int
    exits_by_stage: np.ndarray  # index k: packets that left at stage k
    live_by_stage: np.ndarray  # index k: packets in flight entering stage k
    deflected_by_stage: np.ndarray  # index k: contention losers at stage k

    @property
    def lost(self) -> int:
        return self.offered - self.exited

    @property
    def loss(self) -> float:
        return self.lost / self.offered if self.offered else 0.0

    def loss_after(self, length: int) -> float:
        """Empirical loss had the cascade been truncated at ``length``."""
        if length > self.stages:
            raise DomainError("length exceeds simulated stages")
        if self.offered == 0:
            return 0.0
        return 1.0 - float(self.exits_by_stage[: length + 1].sum()) / self.offered

    def exit_distribution(self) -> np.ndarray:
        """Exit-stage frequencies conditioned on leaving within the run."""
        total = self.exits_by_stage.sum()
        return self.exits_by_stage / total if total else self.exits_by_stage


# a contention key is a random draw above the packet's cell in its chunk,
# which is below CHUNK_CELLS, and fits a nonnegative int64
_INDEX_BITS = (CHUNK_CELLS - 1).bit_length()
_DRAW_BITS = 63 - _INDEX_BITS
# a cell of a chunk, and a wire n hi + lo < n^2 <= CHUNK_CELLS
_CELL_TYPE = np.min_scalar_type(CHUNK_CELLS - 1)


def _offered_packets(
    rng: np.random.Generator, cells: int, threshold: int, scale: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell index, module digit hi and port digit lo of the packets offered
    to a chunk: one 32-bit draw x per cell, two to a 64-bit word, and x <
    threshold holds a packet for wire n hi + lo = floor(x n^2 / threshold)
    (:func:`~switchlab.contention.packet_draws`).

    A cell is below CHUNK_CELLS and a digit below n, at most 256 for one
    slot to fit a chunk, so the cells are returned in
    ``np.min_scalar_type(CHUNK_CELLS - 1)`` (uint16) and the digits in
    ``np.min_scalar_type(n - 1)`` (uint8); the wire is split in the cells'
    type, as 256 does not fit a uint8."""
    x = rng.bit_generator.random_raw((cells + 1) // 2).view(np.uint32)[:cells]
    cell = np.flatnonzero(x < threshold)
    wire = (x[cell] * scale).astype(_CELL_TYPE)
    hi = wire // n
    lo = wire - hi * n
    digit = np.min_scalar_type(n - 1)
    return cell.astype(_CELL_TYPE), hi.astype(digit), lo.astype(digit)


def _deflection_ports(
    lose: np.ndarray, cell: np.ndarray, n: int, table: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Ports of the contention losers ``lose``: in each (slot, module) row
    that holds one, the losers, in port order, take the row's free ports in
    a random order.  ``table`` marks the links won this stage (>= 0).

    The order is one row sort of packed 32-bit keys: the taken flag on top,
    then 31 - ceil(log2 n) random bits, then the port index.  Two keys tie
    on their random bits with probability 2^-(31 - ceil(log2 n)), and the
    lower port then comes first."""
    lcell = cell[lose]
    lrow = lcell // n
    has_loser = np.zeros(table.size // n, dtype=bool)
    has_loser[lrow] = True
    rows = np.flatnonzero(has_loser)
    lbase = np.cumsum(has_loser, dtype=np.int32)[lrow]
    lbase -= 1
    lbase *= n
    lpos = lbase + (lcell - lrow * n)  # the loser's port: a remainder by n, without numpy's slower %
    port_bits = (n - 1).bit_length()
    size = rows.size * n
    key = rng.bit_generator.random_raw((size + 1) // 2).view(np.uint32)[:size].reshape(rows.size, n)
    key &= (0x7FFFFFFF >> port_bits) << port_bits
    key |= np.arange(n, dtype=np.uint32)
    taken = (table >= 0).reshape(-1, n)[rows]
    key |= np.left_shift(taken, 31, dtype=np.uint32)  # taken ports sort last
    key.sort(axis=1)
    # a rank reaches 256 when every port of an n = 256 row loses, one past uint8
    rank = np.zeros((rows.size, n), dtype=np.uint16)
    rank.ravel()[lpos] = 1
    np.cumsum(rank, axis=1, dtype=np.uint16, out=rank)
    lbase += rank.ravel()[lpos]
    lbase -= 1
    return key.ravel()[lbase] & ((1 << port_bits) - 1)


def _stage(
    cell: np.ndarray,
    hi: np.ndarray,
    lo: np.ndarray,
    need_r: np.ndarray,
    n: int,
    table: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """One traversal of a chunk's packets: contention, deflection, exit tap
    and transpose wiring.  Returns the packets still in flight, as the
    (cell, hi, lo, need_r) arrays, and the stage's loser and exit counts.
    Cells stay in their uint16 and digits in their uint8, no digit array is
    ever multiplied by n, and only the link index is intp."""
    m = cell.size
    row = cell // n  # (slot, module)
    base = row * n  # the row's first link
    port = hi + need_r * (lo - hi)  # the digit contended for; a uint8 wrap of lo - hi cancels in the sum
    link = np.add(base, port, dtype=np.intp)

    # contention: of the packets sent to one link, the one with the largest
    # key wins it; a key is the top _DRAW_BITS of a raw 64-bit draw above
    # the packet's cell, which no other packet in flight holds, so keys are unique
    key = rng.bit_generator.random_raw(m)
    key >>= 64 - _DRAW_BITS
    key <<= _INDEX_BITS
    key |= cell
    key = key.view(np.int64)
    np.maximum.at(table, link, key)
    won = table[link] == key
    lose = np.flatnonzero(~won)
    if lose.size:
        port[lose] = _deflection_ports(lose, cell, n, table, rng)

    # one packet per link; every contended link is some winner's out link,
    # so this pass also resets the table
    np.add(base, port, out=link)
    table[link] = key
    if not (table[link] == key).all():  # pragma: no cover
        raise AssertionError("two packets leave on one link")
    table[link] = -1

    # exit tap: a second-digit win on the link matching the destination
    # leaves the cascade here
    mod = row // n  # then row - (row // n) * n in place: row % n, which numpy computes slower
    mod *= n
    np.subtract(row, mod, out=mod)
    exiting = won & need_r
    out = np.flatnonzero(exiting)
    if out.size and not ((mod[out] == hi[out]) & (port[out] == lo[out])).all():  # pragma: no cover
        raise AssertionError("exit link must equal destination")

    # transpose wiring: the packet on (slot, module, port) moves to
    # (slot, port, module); a winner that stays needs its second digit next
    row -= mod
    row += port
    row *= n
    row += mod
    if out.size:
        stay = np.flatnonzero(~exiting)
        return row[stay], hi[stay], lo[stay], won[stay], lose.size, out.size
    return row, hi, lo, won, lose.size, 0


def simulate_deflection(
    module_size: int,
    stages: int,
    rho: float,
    slots: int,
    seed: int = 0,
) -> DeflectionSimResult:
    """Slot-level simulation of a cascade of n x n modules with n^2 wires.

    Wiring between stages is the module/port transpose, with an exit tap on
    every module output link: a packet that wins the port matching the last
    digit of its destination while sitting in the right module leaves on
    link index == destination.  Winners of the first digit advance; every
    loser is deflected onto a uniformly random free link of its module and
    starts over.  Packets still in flight after ``stages`` traversals are
    counted as lost.

    A chunk of b slots holds its packets as flat arrays of cell index
    (slot, module, port), destination digits and need-second-digit flag, so
    a stage costs time in proportion to the packets in flight.  Each is in
    the narrowest dtype its bound allows: a cell is below CHUNK_CELLS = 2^16
    (uint16) and a digit or port below n <= 256 (uint8), the flag is bool,
    and only the link index is intp.  The contention table holds one int64
    key per link, and the deflection step reads which links are taken from
    its bool view ``table >= 0``.
    """
    for count in (module_size, stages):
        check_count(count, 2, "need module_size >= 2 and stages >= 2")
    check_real(rho, 0.0, 1.0, "simulator offered load must lie in [0, 1]")
    check_count(slots, 1, "need slots >= 1")
    check_count(seed, 0, "seed must be an integer >= 0")
    if stages > MAX_STAGES:
        raise ResourceLimitError(f"{stages} stages exceed {MAX_STAGES}")
    n = int(module_size)  # a numpy integer would widen the narrow packet arithmetic
    wires = n * n
    check_run_size(slots, wires, "wires")
    chunk = CHUNK_CELLS // wires
    threshold, scale = packet_draws(rho, wires)
    rng = np.random.default_rng(seed)
    exits = np.zeros(stages + 1, dtype=np.int64)
    in_flight = np.zeros(stages + 1, dtype=np.int64)
    deflected = np.zeros(stages + 1, dtype=np.int64)
    # per link (slot, module, port) of a chunk: the largest contention key
    # sent to it, -1 when unused
    table = np.full(chunk * wires, -1, dtype=np.int64)
    done = 0

    while done < slots:
        b = min(chunk, slots - done)
        cell, hi, lo = _offered_packets(rng, b * wires, threshold, scale, n)
        need_r = np.zeros(cell.size, dtype=bool)
        for stage in range(1, stages + 1):
            if cell.size == 0:
                break
            in_flight[stage] += cell.size
            cell, hi, lo, need_r, losers, exited = _stage(cell, hi, lo, need_r, n, table, rng)
            deflected[stage] += losers
            exits[stage] += exited
        done += b

    return DeflectionSimResult(
        module_size=n,
        stages=stages,
        rho=rho,
        slots=slots,
        offered=int(in_flight[1]),
        exited=int(exits.sum()),
        exits_by_stage=exits,
        live_by_stage=in_flight,
        deflected_by_stage=deflected,
    )
