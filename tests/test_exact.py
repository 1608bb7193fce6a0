"""Number-theoretic helpers on exact integers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stemcert.exact import (
    gcd,
    is_prime,
    padic_valuation,
)


def test_gcd_basic():
    assert gcd(12, 18) == 6
    assert gcd(0, 5) == 5
    assert gcd(-12, 18) == 6
    assert gcd(240, 504) == 24


@given(st.integers(-(10**12), 10**12), st.integers(-(10**12), 10**12))
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    if a == b == 0:
        assert g == 0
    else:
        assert g > 0
        assert a % g == 0 and b % g == 0


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_rejects_huge_input():
    with pytest.raises(ValueError):
        is_prime(10**6 + 3)


def test_padic_valuation_known():
    assert padic_valuation(24, 2) == 3
    assert padic_valuation(24, 3) == 1
    assert padic_valuation(24, 5) == 0
    assert padic_valuation(-8, 2) == 3


def test_padic_valuation_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        padic_valuation(0, 2)
    with pytest.raises(ValueError):
        padic_valuation(12, 4)


@given(
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_padic_valuation_defining_property(n, p):
    v = padic_valuation(n, p)
    assert n % p**v == 0
    assert (n // p**v) % p != 0
