"""Small number-theoretic helpers on exact integers.

The algebraic modules compute with Python's arbitrary-precision ``int`` and
with ``fractions.Fraction``, which keeps rationals in lowest terms with a
positive denominator; neither needs a wrapper.  This module adds the gcd,
trial-division primality and p-adic valuation that :mod:`stemcert.jorder`
uses.  No floating point enters any function in this module.
"""

from __future__ import annotations

import math

__all__ = [
    "gcd",
    "is_prime",
    "padic_valuation",
]

#: Primality in this package is certified by deterministic trial division.
#: All primes that actually occur are tiny (at most 13 in practice); inputs
#: above this bound are outside the supported contract.
TRIAL_DIVISION_LIMIT = 10**6


def gcd(a: int, b: int) -> int:
    """Return the non-negative greatest common divisor of ``a`` and ``b``.

    ``gcd(0, 0) == 0`` by convention.
    """
    return math.gcd(a, b)


def is_prime(p: int) -> bool:
    """Trial-division primality test for ``2 <= p <= TRIAL_DIVISION_LIMIT``.

    Raises ``ValueError`` for inputs beyond the supported bound rather than
    guessing.
    """
    if p > TRIAL_DIVISION_LIMIT:
        raise ValueError(
            f"primality by trial division is only supported up to "
            f"{TRIAL_DIVISION_LIMIT}; got {p}"
        )
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def padic_valuation(n: int, p: int) -> int:
    """Return the largest ``e`` such that ``p**e`` divides ``n``.

    ``n`` must be nonzero (the valuation of 0 is infinite) and ``p`` must be
    prime.
    """
    if n == 0:
        raise ValueError("padic_valuation(0, p) is infinite")
    if not is_prime(p):
        raise ValueError(f"padic_valuation requires a prime, got {p}")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
