"""Three-stage Clos network model: structure, numbering scheme and the
bandwidth/PSNR trade-off of random versus contention-free routing.

Log conventions: ``max_data_rate`` and ``random_routing_carried_load`` use the
natural logarithm; ``shannon_capacity`` and ``bsc_capacity`` are in bits
(base 2).  Module and port indices are 0-based throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .contention import carried_load
from .errors import DomainError, check_count, check_real

__all__ = [
    "ClosSpec",
    "RoutingTag",
    "address_split",
    "nonblocking_psnr",
    "random_routing_carried_load",
    "max_data_rate",
    "shannon_capacity",
    "bsc_capacity",
    "random_coding_bound",
]


@dataclass(frozen=True)
class ClosSpec:
    """A three-stage Clos network with k outer modules of n ports each and
    m central modules: input modules are n x m, central modules k x k and
    output modules m x n crossbars."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for v in (self.m, self.n, self.k):
            check_count(v, 1, "m, n, k must all be >= 1 and integers")

    @property
    def ports(self) -> int:
        """Total port count N = n * k."""
        return self.n * self.k

    @property
    def utilization(self) -> float:
        """Maximal central-stage utilization n/m."""
        return self.n / self.m

    def is_rearrangeable(self) -> bool:
        """Any permutation is realizable if in-progress routes may move."""
        return self.m >= self.n

    def is_strictly_nonblocking(self) -> bool:
        """Any request is routable without touching existing routes."""
        return self.m >= 2 * self.n - 1


@dataclass(frozen=True)
class RoutingTag:
    """Route of one request: central module, output module, output port.
    An item of :class:`matching.RouteSet` is one, built when it is read."""

    central: int
    out_module: int
    out_port: int


def address_split(addr: int, n: int, k: int | None = None) -> tuple[int, int]:
    """Split a port address into (module quotient, port remainder).

    The integers ``addr``, ``n`` and ``k`` (if given) are a global port index, the
    module width and count.  Returns ``(addr // n, addr % n)``, so ``n * q + r == addr``.
    """
    for v in (addr, n) if k is None else (addr, n, k):
        check_count(v, -math.inf, "address, module width and module count must be integers")
    check_count(n, 1, "module width must be >= 1")
    if addr < 0 or (k is not None and addr >= n * k):
        raise DomainError(f"address {addr} outside [0, {n * (k or 0)})")
    return addr // n, addr % n


def nonblocking_psnr(spec: ClosSpec) -> float:
    """Mean signal to mean noise power ratio n/(m-n) under contention-free
    routing; requires spare bandwidth m > n."""
    if spec.m <= spec.n:
        raise DomainError("nonblocking PSNR needs m > n (positive noise power)")
    return spec.n / (spec.m - spec.n)


def random_routing_carried_load(spec: ClosSpec, asymptotic_k: bool = False) -> float:
    """Carried load on a central-module output link under random routing:
    the crossbar law :func:`contention.carried_load` at offered load n/m on
    a k x k central module, or its k -> infinity limit with ``asymptotic_k``."""
    if spec.n > spec.m:
        raise DomainError("utilization n/m must not exceed 1")
    return carried_load(spec.utilization, spec.k, asymptotic=asymptotic_k)


def max_data_rate(m: float, psnr: float) -> float:
    """Peak per-module data rate m * ln(1 + PSNR) (packets per slot, natural
    log) achievable with random central-stage routing."""
    check_real(m, 0.0, sys.float_info.max, "central module count m must be finite and nonnegative")
    check_real(psnr, 0.0, sys.float_info.max, "psnr must be finite and nonnegative")
    rate = m * math.log1p(psnr)
    check_real(rate, 0.0, sys.float_info.max, "data rate m * ln(1 + PSNR) exceeds the double range")
    return rate


def shannon_capacity(bandwidth: float, snr: float) -> float:
    """Capacity W * log2(1 + S/N) of a bandlimited Gaussian channel, in bits."""
    for v in (bandwidth, snr):
        check_real(v, 0.0, sys.float_info.max, "bandwidth and snr must be finite and nonnegative")
    capacity = bandwidth * math.log2(1.0 + snr)
    check_real(capacity, 0.0, sys.float_info.max, "capacity W * log2(1 + S/N) exceeds the double range")
    return capacity


def bsc_capacity(q: float) -> float:
    """Capacity 1 - H2(q) of a binary symmetric channel with cross
    probability q, in bits.  Symmetric about q = 1/2."""
    check_real(q, 0.0, 1.0, "cross probability must lie in [0, 1]")
    if q in (0.0, 1.0):
        return 1.0
    return 1.0 + q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q)


def random_coding_bound(n: int, a: float, c: float) -> float:
    """Block-error bound a^-n + c^-n for block length n; needs a, c > 1 so
    the bound vanishes with length."""
    check_count(n, 1, "block length must be >= 1")
    check_real(n, 1, sys.float_info.max, "block length exceeds the double range")
    for v in (a, c):
        check_real(v, math.nextafter(1.0, math.inf), math.inf, "bound constants must exceed 1")
    return a ** (-n) + c ** (-n)
