"""Three-stage Clos network model: structure, numbering scheme and the
bandwidth/PSNR trade-off of random versus contention-free routing.

Log conventions: ``max_data_rate`` and ``random_routing_carried_load`` use the
natural logarithm; ``shannon_capacity`` and ``bsc_capacity`` are in bits
(base 2).  Module and port indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contention import carried_load
from .errors import DomainError, is_integer

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
        if not all(is_integer(v) and v >= 1 for v in (self.m, self.n, self.k)):
            raise DomainError("m, n, k must all be >= 1 and integers")

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
    """Route of one request: central module, output module, output port."""

    central: int
    out_module: int
    out_port: int

    def destination(self, n: int) -> int:
        return n * self.out_module + self.out_port


def address_split(addr: int, n: int, k: int | None = None) -> tuple[int, int]:
    """Split a port address into (module quotient, port remainder).

    ``addr`` is a global port index, ``n`` the module width.  Returns
    ``(addr // n, addr % n)`` so that ``n * q + r == addr``.
    """
    if n < 1:
        raise DomainError("module width must be >= 1")
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
    if psnr < 0:
        raise DomainError("psnr must be nonnegative")
    return m * math.log1p(psnr)


def shannon_capacity(bandwidth: float, snr: float) -> float:
    """Capacity W * log2(1 + S/N) of a bandlimited Gaussian channel, in bits."""
    if bandwidth < 0 or snr < 0:
        raise DomainError("bandwidth and snr must be nonnegative")
    return bandwidth * math.log2(1.0 + snr)


def bsc_capacity(q: float) -> float:
    """Capacity 1 - H2(q) of a binary symmetric channel with cross
    probability q, in bits.  Symmetric about q = 1/2."""
    if not 0.0 <= q <= 1.0:
        raise DomainError("cross probability must lie in [0, 1]")
    if q in (0.0, 1.0):
        return 1.0
    return 1.0 + q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q)


def random_coding_bound(n: int, a: float, c: float) -> float:
    """Block-error bound a^-n + c^-n for block length n; needs a, c > 1 so
    the bound vanishes with length."""
    if n < 1:
        raise DomainError("block length must be >= 1")
    if a <= 1.0 or c <= 1.0:
        raise DomainError("bound constants must exceed 1")
    return a ** (-n) + c ** (-n)
