import math

import numpy as np
import pytest

from switchlab import closmodel as cm
from switchlab import contention as ct
from switchlab.errors import DomainError


def test_spec_invariants():
    spec = cm.ClosSpec(m=4, n=4, k=8)
    assert spec.ports == 32
    assert spec.is_rearrangeable()
    assert not spec.is_strictly_nonblocking()
    assert cm.ClosSpec(m=7, n=4, k=2).is_strictly_nonblocking()
    with pytest.raises(DomainError):
        cm.ClosSpec(m=0, n=1, k=1)


@pytest.mark.parametrize("shape", [(2.5, 2, 2), (2, 2.0, 2), (2, 2, "2"), (True, True, True), (2, 2, None)])
def test_spec_shape_must_be_integers(shape):
    # ClosSpec(m=2.5, n=2, k=2) and ClosSpec(True, True, True) were accepted; ports could be a float
    with pytest.raises(DomainError, match="must all be >= 1 and integers"):
        cm.ClosSpec(*shape)


def test_spec_accepts_numpy_integers():
    spec = cm.ClosSpec(m=np.int64(4), n=np.uint8(4), k=np.int32(8))
    assert spec.ports == 32 and spec.is_rearrangeable()


def test_address_split_examples():
    assert cm.address_split(7, 2) == (3, 1)
    assert cm.address_split(0, 5) == (0, 0)
    assert cm.address_split(5, 3) == (1, 2)
    with pytest.raises(DomainError):
        cm.address_split(8, 2, k=4)


@pytest.mark.parametrize("args", [(5.5, 4), (math.inf, 4), (True, 4), (3, 4.0)],
                         ids=["half_address", "infinite_address", "bool_address", "float_width"])
def test_address_split_refuses_non_integers(args):
    # these returned (1.0, 1.5), (nan, nan), (0, 1) and (0.0, 3.0)
    with pytest.raises(DomainError):
        cm.address_split(*args)


def test_address_split_bijection():
    n, k = 3, 5
    seen = set()
    for addr in range(n * k):
        q, r = cm.address_split(addr, n, k)
        assert 0 <= q < k and 0 <= r < n
        assert n * q + r == addr
        seen.add((q, r))
    assert len(seen) == n * k


def test_nonblocking_psnr():
    assert cm.nonblocking_psnr(cm.ClosSpec(m=8, n=4, k=2)) == 1.0
    assert cm.nonblocking_psnr(cm.ClosSpec(m=256, n=128, k=2)) == 1.0
    assert cm.nonblocking_psnr(cm.ClosSpec(m=192, n=128, k=2)) == 2.0
    with pytest.raises(DomainError):
        cm.nonblocking_psnr(cm.ClosSpec(m=4, n=4, k=2))


def test_random_routing_carried_load():
    assert cm.random_routing_carried_load(
        cm.ClosSpec(m=8, n=8, k=4), asymptotic_k=True
    ) == pytest.approx(0.6321, abs=5e-5)
    assert cm.random_routing_carried_load(cm.ClosSpec(m=2, n=1, k=2)) == pytest.approx(0.4375)
    tiny = cm.random_routing_carried_load(cm.ClosSpec(m=512, n=1, k=4))
    assert tiny < 0.01
    with pytest.raises(DomainError):
        cm.random_routing_carried_load(cm.ClosSpec(m=2, n=3, k=2))


def test_max_data_rate():
    assert cm.max_data_rate(5, 0.0) == 0.0
    assert cm.max_data_rate(100, math.e - 1) == pytest.approx(100.0)
    assert cm.max_data_rate(128, 1.0) == pytest.approx(88.72, abs=5e-3)
    with pytest.raises(DomainError):
        cm.max_data_rate(4, -0.2)


def test_rate_round_trip():
    # utilization sigma feeds the asymptotic carried load; converting that to
    # a PSNR and back through the rate formula must return sigma * m
    for m in (1, 7, 128):
        for i in range(1, 11):
            sigma = i / 10
            carried = 1 - math.exp(-sigma)
            assert cm.max_data_rate(m, ct.psnr(carried)) == pytest.approx(
                sigma * m, abs=1e-9
            )


def test_contention_free_beats_random_routing():
    for n in (2, 8, 32):
        for m in range(n + 1, 4 * n + 1):
            spec = cm.ClosSpec(m=m, n=n, k=4)
            random_psnr = ct.psnr(cm.random_routing_carried_load(spec, asymptotic_k=True))
            assert cm.nonblocking_psnr(spec) > random_psnr


def test_shannon_capacity():
    assert cm.shannon_capacity(5.0, 0.0) == 0.0
    assert cm.shannon_capacity(1.0, 1.0) == 1.0
    assert cm.shannon_capacity(3000.0, 1023.0) == pytest.approx(30000.0)


def test_bsc_capacity():
    assert cm.bsc_capacity(0.0) == 1.0
    assert cm.bsc_capacity(0.5) == pytest.approx(0.0, abs=1e-12)
    assert cm.bsc_capacity(0.11) == pytest.approx(0.5, abs=2e-3)
    for q in (0.05, 0.2, 0.45):
        assert cm.bsc_capacity(q) == pytest.approx(cm.bsc_capacity(1 - q), abs=1e-12)


def test_random_coding_bound():
    assert cm.random_coding_bound(1, 2.0, 2.0) == 1.0
    assert cm.random_coding_bound(10, 2.0, 4.0) == pytest.approx(2**-10 + 4**-10)
    values = [cm.random_coding_bound(n, 1.5, 1.2) for n in range(1, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3
    with pytest.raises(DomainError):
        cm.random_coding_bound(4, 1.0, 2.0)


@pytest.mark.parametrize("args, match", [
    ((True, 1.5, 4), "block length"),
    ((1.5, 2, 2), "block length"),
    ((math.nan, 2, 2), "block length"),
    ((2, math.nan, 2), "constants"),
    ((2, 2, math.nan), "constants"),
], ids=["bool_length", "half_length", "nan_length", "nan_a", "nan_c"])
def test_random_coding_bound_refusals(args, match):
    # each returned a number or NaN before n passed is_integer and a, c had to exceed 1
    with pytest.raises(DomainError, match=match):
        cm.random_coding_bound(*args)
