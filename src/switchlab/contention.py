"""Crossbar output contention: carried load, pseudo signal-to-noise ratio,
occupancy distributions from the maximum-entropy packet model, and a
slot-level Monte Carlo oracle.

All formulas here use the natural logarithm.  Packets losing an output
contention are dropped (no queueing); inputs are homogeneous with offered
load rho and uniformly random destinations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ResourceLimitError, check_count, check_real

__all__ = [
    "CrossbarLoad",
    "PowerStats",
    "OccupancyDistribution",
    "CrossbarSimResult",
    "BruteForceResult",
    "carried_load",
    "psnr",
    "power_stats",
    "check_run_size",
    "packet_draws",
    "simulate_crossbar",
    "boltzmann_pmf",
    "poisson_profile",
    "count_states",
    "maximize_entropy_bruteforce",
]

OccupancyModel = Literal["distinguishable", "indistinguishable"]
StateModel = Literal["one-per-input", "distinguishable", "indistinguishable"]

# cells (slots x ports or wires) a simulator draws per chunk: bounds its
# memory whatever the run length, and one slot may not exceed it
CHUNK_CELLS = 1 << 16
# cells a simulator run may draw in all, about 11 minutes at 10^8 cells/s
MAX_RUN_CELLS = 1 << 36
_PMF_TAIL = 1e-12
# boltzmann_pmf refuses a series that needs more terms than this to reach
# mass 1 - _PMF_TAIL (the geometric one does from offered load about 360)
PMF_MAX_TERMS = 10_000
# maximize_entropy_bruteforce refuses more outputs than this
BRUTE_FORCE_LIMIT = 12


@dataclass(frozen=True)
class CrossbarLoad:
    """Offered versus carried load of an N x N crossbar."""

    n_ports: int
    offered_load: float
    carried_load: float

    def __post_init__(self) -> None:
        # carried <= offered holds only in expectation: a sample may carry more than rho
        if not (0.0 <= self.offered_load <= 1.0 and 0.0 <= self.carried_load <= 1.0):
            raise PreconditionError("need offered and carried loads in [0, 1]")


@dataclass(frozen=True)
class PowerStats:
    """First- and second-moment statistics of the busy-output count."""

    signal_mean: float
    noise_mean: float
    variance: float
    psnr: float


@dataclass(frozen=True)
class OccupancyDistribution:
    """Truncated pmf of packets-per-output: ``pmf[i]`` is the probability
    of level i, tail mass folded into the last bucket so the probabilities
    sum to one exactly."""

    pmf: tuple[float, ...]
    model: OccupancyModel

    def probability(self, level: int) -> float:
        return self.pmf[level] if 0 <= level < len(self.pmf) else 0.0

    def total(self) -> float:
        return sum(self.pmf)


def carried_load(rho: float, n_ports: int | None = None, *, asymptotic: bool = False) -> float:
    """Probability that an output is busy in a slot.

    Finite switch: 1 - (1 - rho/N)^N, as -expm1(N log1p(-rho/N)), which keeps
    its accuracy at any N; ``asymptotic`` gives the N -> infinity limit
    1 - exp(-rho).  Monotone nondecreasing in rho.
    """
    check_real(rho, 0.0, 1.0, f"offered load {rho} outside [0, 1]")
    if asymptotic:
        return -math.expm1(-rho)
    check_count(n_ports, 1, "need n_ports >= 1 or asymptotic=True")
    check_real(n_ports, 1, sys.float_info.max, "n_ports exceeds the double range")
    if rho == n_ports:  # rho = N = 1, where log1p(-1) has its pole: every packet is carried
        return 1.0
    return -math.expm1(n_ports * math.log1p(-(rho / n_ports)))


def psnr(carried: float) -> float:
    """Pseudo signal-to-noise ratio rho'/(1 - rho') of a carried load."""
    check_real(carried, 0.0, math.nextafter(1.0, 0.0), "carried load must lie in [0, 1) for a finite PSNR")
    return carried / (1.0 - carried)


def power_stats(n_ports: int, rho: float) -> PowerStats:
    """Mean signal power N*rho', mean noise power N*(1-rho') and the busy
    count variance N*rho'*(1-rho')."""
    rho_p = carried_load(rho, n_ports)
    signal = n_ports * rho_p
    noise = n_ports - signal
    var = n_ports * rho_p * (1.0 - rho_p)
    ratio = math.inf if noise == 0.0 else signal / noise
    return PowerStats(signal_mean=signal, noise_mean=noise, variance=var, psnr=ratio)


@dataclass(frozen=True, eq=False)  # identity equality: an array has no single truth value
class CrossbarSimResult:
    """Empirical counterpart of :func:`power_stats` plus the per-output
    packet-count histogram aggregated over all slots."""

    load: CrossbarLoad
    busy_mean: float
    busy_variance: float
    busy_skewness: float
    histogram: np.ndarray  # counts of outputs seeing 0..N packets
    slots: int

    def __post_init__(self) -> None:
        # what every sample obeys, in exact integers: a busy output-slot holds a
        # packet, and an input-slot at most one
        hist = self.histogram.tolist()
        packets = sum(k * c for k, c in enumerate(hist))
        if not 0 <= sum(hist[1:]) <= packets <= self.load.n_ports * self.slots:
            raise PreconditionError("need 0 <= busy output-slots <= packets <= input-slots")


def check_run_size(slots: int, cells_per_slot: int, unit: str) -> None:
    """Refuse a simulator run before any draw: one slot must fit a chunk,
    and the run may draw at most MAX_RUN_CELLS cells."""
    check_count(slots, 1, "need slots >= 1")
    check_count(cells_per_slot, 1, f"need {unit} >= 1")
    if cells_per_slot > CHUNK_CELLS:
        raise ResourceLimitError(
            f"one slot of {cells_per_slot} {unit} exceeds the {CHUNK_CELLS}-cell chunk budget"
        )
    if slots * cells_per_slot > MAX_RUN_CELLS:
        raise ResourceLimitError(
            f"{slots} slots of {cells_per_slot} {unit} exceed the {MAX_RUN_CELLS}-cell run budget"
        )


def packet_draws(rho: float, bins: int) -> tuple[int, float]:
    """Threshold t and scale s of a simulator's 32-bit draws at offered
    load rho, for ``bins`` destinations (at most 2^16).

    A draw x < t = ceil(rho 2^32), that is u = x / 2^32 < rho, holds a
    packet, so a packet has probability t / 2^32.  s is the least double
    >= bins / t, so int(x * s) is floor(x bins / t) exactly for every
    32-bit x: a packet's destination is uniform to within bins / t <=
    bins / (rho 2^32), and every x >= t gives bins or more.  At rho = 0, t
    is 0 and s is infinite."""
    check_real(rho, 0.0, 1.0, f"offered load {rho} outside [0, 1]")
    check_count(bins, 1, "need bins >= 1")
    threshold = math.ceil(rho * 2**32)
    if threshold == 0:
        return 0, math.inf
    scale = bins / threshold
    num, den = scale.as_integer_ratio()
    if num * threshold < bins * den:  # rounded below bins / t
        scale = math.nextafter(scale, math.inf)
    return threshold, scale


def simulate_crossbar(
    n_ports: int, rho: float, slots: int, seed: int = 0
) -> CrossbarSimResult:
    """Monte Carlo slot simulation of an N x N bufferless crossbar.

    Each slot every input holds a packet with probability rho and draws an
    independent uniform output; an output is busy when at least one packet
    targets it.  Deterministic for a given seed; slots are independent, so
    parallel runs with distinct seeds can be merged by summing counts.

    One 32-bit draw x per input decides both (:func:`packet_draws`): x < t
    = ceil(rho 2^32) holds a packet, with probability t / 2^32, bound for
    output floor(x N / t), uniform to within N / (rho 2^32); any other x
    lands in an idle bin N of its slot.  Each 64-bit word of the bit
    generator gives two draws, low half first, and a half word left over
    at the end of a chunk starts the next, so the draws do not depend on
    the chunk size.

    A chunk of b slots takes one ``bincount`` over its b (N + 1) bins, then
    copies the counts into a buffer of dtype ``min_scalar_type(N)`` (exact,
    as no bin holds more than N) and zeroes the idle bins.  Its nonzero
    cells give level 0 and, times a float32 ones vector, each slot's busy
    count (at most 2^16, so the sums are exact); ``count_nonzero(levels >
    k)`` for k = 1, 2, ... gives the higher levels by differences, up to the
    first level no output reaches.
    """
    check_real(rho, 0.0, 1.0, f"offered load {rho} outside [0, 1]")
    for count in (n_ports, slots):
        check_count(count, 1, "need n_ports >= 1 and slots >= 1")
    check_count(seed, 0, "seed must be an integer >= 0")
    check_run_size(slots, n_ports, "ports")
    threshold, scale = packet_draws(rho, n_ports)
    rows = min(CHUNK_CELLS // n_ports, slots)
    width = n_ports + 1  # the outputs, then the idle bin
    bits = np.random.default_rng(seed).bit_generator
    # chunk buffers, filled in place; the last chunk uses their leading rows
    cells = np.empty((rows, n_ports), dtype=np.intp)
    levels = np.empty((rows, width), dtype=np.min_scalar_type(n_ports))  # a bin holds at most N
    offsets = width * np.arange(rows)[:, None]
    ones = np.ones(width, dtype=np.float32)  # busy counts are at most 2^16, exact in float32
    hist = np.zeros(width, dtype=np.int64)
    busy_hist = np.zeros(width, dtype=np.int64)  # slots by their number of busy outputs
    spare = np.empty(0, dtype=np.uint32)
    done = 0
    if threshold == 0:  # nothing is offered: every output idle in every slot, with no draw
        hist[0], busy_hist[0], done = n_ports * slots, slots, slots
    while done < slots:
        b = min(rows, slots - done)
        need = b * n_ports - spare.size
        words = bits.random_raw((need + 1) // 2).view(np.uint32)
        draws = np.concatenate((spare, words[:need])) if spare.size else words[:need]
        spare = words[need:].copy()  # at most one draw, so the words can go before the next chunk's
        cb = cells[:b]
        np.multiply(draws.reshape(b, n_ports), scale, out=cb, casting="unsafe")
        del words, draws
        np.minimum(cb, n_ports, out=cb)
        cb += offsets[:b]
        lv = levels[:b]
        # unnamed, the intp counts are freed here, before the next chunk's bincount
        np.copyto(lv, np.bincount(cb.ravel(), minlength=b * width).reshape(b, width), casting="unsafe")
        lv[:, n_ports] = 0  # the idle bins
        nz = lv != 0
        busy_hist += np.bincount((nz @ ones).astype(np.intp), minlength=width)
        above = np.count_nonzero(nz)  # outputs holding more than k packets, here k = 0
        hist[0] += b * n_ports - above
        for k in range(1, n_ports):
            if not above:
                break
            more = np.count_nonzero(np.greater(lv, k, out=nz))
            hist[k] += above - more
            above = more
        hist[n_ports] += above
        done += b
    s1, s2, s3 = (sum(c * k**p for k, c in enumerate(busy_hist.tolist()) if c) for p in (1, 2, 3))
    mean = s1 / slots
    var = s2 / slots - mean**2
    mu3 = s3 / slots - 3 * mean * var - mean**3
    skew = mu3 / var**1.5 if var > 0 else 0.0
    carried = s1 / (slots * n_ports)
    return CrossbarSimResult(
        load=CrossbarLoad(n_ports, rho, carried),
        busy_mean=mean,
        busy_variance=var,
        busy_skewness=skew,
        histogram=hist,
        slots=slots,
    )


def boltzmann_pmf(rho: float, model: OccupancyModel = "distinguishable") -> OccupancyDistribution:
    """Maximum-entropy distribution of packets per output at offered load rho.

    Distinguishable packets give the Poisson pmf exp(-rho) rho^i / i!;
    indistinguishable packets the geometric (1/(1+rho)) (rho/(1+rho))^i;
    term i is term i-1 times rho/i or rho/(1+rho).  The series is truncated
    once cumulative mass exceeds 1 - 1e-12 and the remainder is folded into
    the final bucket.  A first term below a normal double (Poisson from rho
    about 708) or a series of over ``PMF_MAX_TERMS`` terms is refused.
    """
    check_real(rho, 0.0, math.inf, "offered load must be nonnegative")
    if model not in ("distinguishable", "indistinguishable"):
        raise DomainError(f"unknown occupancy model {model!r}")
    poisson = model == "distinguishable"
    p = math.exp(-rho) if poisson else 1.0 / (1.0 + rho)
    if p < sys.float_info.min:
        raise ResourceLimitError(f"pmf at offered load {rho}: first term {p:.3g} is below a normal double")
    probs: list[float] = []
    cum = 0.0
    while cum < 1.0 - _PMF_TAIL:
        if len(probs) == PMF_MAX_TERMS:
            raise ResourceLimitError(f"pmf at offered load {rho} needs over {PMF_MAX_TERMS} terms")
        probs.append(p)
        cum += p
        p *= rho / len(probs) if poisson else rho / (1.0 + rho)
    probs[-1] += 1.0 - cum
    return OccupancyDistribution(pmf=tuple(probs), model=model)


def poisson_profile(rho: float, levels: int) -> list[float]:
    """Poisson probabilities exp(-rho) rho^i / i! of levels i = 0..levels,
    the continuous profile exhaustive maximizers are compared with.

    Where rho^i or i! is beyond a double (every level above 170) a level
    is exp(i ln rho - rho - ln i!) instead, which underflows to 0.0 far out
    in the tail.  Like :func:`boltzmann_pmf` it refuses more than
    ``PMF_MAX_TERMS`` levels."""
    check_count(levels, 0, "need levels >= 0")
    if levels >= PMF_MAX_TERMS:  # before the load: too many levels are the cap's refusal whatever the load
        raise ResourceLimitError(f"profile of {levels} levels needs over {PMF_MAX_TERMS} terms")
    check_real(rho, 0.0, sys.float_info.max, "offered load must be finite and nonnegative")

    def level(i: int) -> float:
        if i <= 170:
            try:
                return math.exp(-rho) * rho**i / math.factorial(i)
            except OverflowError:
                pass
        return math.exp(i * math.log(rho) - rho - math.lgamma(i + 1)) if rho else 0.0

    return [level(i) for i in range(levels + 1)]


def _validate_occupancy(occupancy: Sequence[int], n_ports: int, n_packets: int) -> None:
    if any(c < 0 for c in occupancy):
        raise PreconditionError("occupancy counts must be nonnegative")
    if sum(occupancy) != n_ports:
        raise PreconditionError("occupancy counts must sum to the output count")
    if sum(i * c for i, c in enumerate(occupancy)) != n_packets:
        raise PreconditionError("level-weighted occupancy must sum to the packet count")


def count_states(
    n_ports: int,
    n_packets: int,
    occupancy: Sequence[int],
    model: StateModel = "one-per-input",
) -> int:
    """Exact number of switch microstates for an occupancy vector.

    ``occupancy[i]`` counts outputs holding exactly i packets.  Models:
    ``one-per-input`` includes the choice of which inputs are active,
    ``distinguishable`` counts arrangements of labelled packets over outputs,
    ``indistinguishable`` only the division of outputs into levels.
    """
    _validate_occupancy(occupancy, n_ports, n_packets)
    division = math.factorial(n_ports)
    for c in occupancy:
        division //= math.factorial(c)
    if model == "indistinguishable":
        return division
    packets = math.factorial(n_packets)
    for i, c in enumerate(occupancy):
        packets //= math.factorial(i) ** c
    if model == "distinguishable":
        return division * packets
    if model == "one-per-input":
        return math.comb(n_ports, n_packets) * division * packets
    raise DomainError(f"unknown state model {model!r}")


def _occupancy_vectors(n_ports: int, n_packets: int) -> Iterable[tuple[int, ...]]:
    """All (n_0, ..., n_r) with sum n_i = N and sum i*n_i = M, one for each
    partition of M into at most N parts (largest part r).  They come in the
    order of the partitions, largest first part first, which is not
    lexicographic: callers that need an order sort them."""

    def parts(remaining: int, max_part: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in parts(remaining - first, first):
                yield (first,) + rest

    for partition in parts(n_packets, n_packets if n_packets else 1):
        if len(partition) > n_ports:
            continue
        r = partition[0] if partition else 0
        vec = [0] * (r + 1)
        vec[0] = n_ports - len(partition)
        for part in partition:
            vec[part] += 1
        yield tuple(vec)


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of exhaustive microstate maximization."""

    maximizer: tuple[int, ...]
    max_states: int
    poisson_vector: tuple[int, ...]
    poisson_states: int


def maximize_entropy_bruteforce(
    n_ports: int, n_packets: int, model: StateModel = "one-per-input"
) -> BruteForceResult:
    """Enumerate every feasible occupancy vector and return the one with the
    most microstates (ties broken by lexicographically smallest vector).

    Also reports the feasible vector closest (L1) to the continuous Poisson
    profile N * exp(-rho) rho^i / i! with rho = M/N, and its state count.
    """
    for count, low in ((n_ports, 1), (n_packets, 0)):
        check_count(count, low, "need n_ports >= 1 and n_packets >= 0")
    if n_ports > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(
            f"exhaustive search capped at {BRUTE_FORCE_LIMIT} outputs, got {n_ports}"
        )
    if model == "one-per-input" and n_packets > n_ports:
        raise PreconditionError("one packet per input allows at most N packets")
    targets = [n_ports * p for p in poisson_profile(n_packets / n_ports, n_packets)]
    best: tuple[int, ...] | None = None
    best_w = -1
    nearest: tuple[int, ...] | None = None
    nearest_dist = math.inf
    for vec in sorted(_occupancy_vectors(n_ports, n_packets)):
        w = count_states(n_ports, n_packets, vec, model)
        if w > best_w:
            best, best_w = vec, w
        dist = sum(abs((vec[i] if i < len(vec) else 0) - t) for i, t in enumerate(targets))
        if dist < nearest_dist - 1e-12:
            nearest, nearest_dist = vec, dist
    assert best is not None and nearest is not None
    return BruteForceResult(
        maximizer=best,
        max_states=best_w,
        poisson_vector=nearest,
        poisson_states=count_states(n_ports, n_packets, nearest, model),
    )
