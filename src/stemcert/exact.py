"""Exact integer and rational arithmetic with small number-theoretic helpers.

Every algebraic module in the package routes its coefficient arithmetic
through the names exported here.  Python's built-in ``int`` already provides
sign + arbitrary-precision magnitude semantics, and ``fractions.Fraction``
already stores rationals in lowest terms with a positive denominator, so the
canonical types are aliases rather than reimplementations:

* ``BigInt``      — ``int`` (arbitrary precision, e.g. ``50!`` or ``7**60``).
* ``BigRational`` — ``fractions.Fraction`` (always reduced, denominator > 0).

No floating point enters any function in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "BigInt",
    "BigRational",
    "gcd",
    "is_prime",
    "padic_valuation",
]

BigInt = int
BigRational = Fraction

#: Primality in this package is certified by deterministic trial division.
#: All primes that actually occur are tiny (at most 13 in practice); inputs
#: above this bound are outside the supported contract.
TRIAL_DIVISION_LIMIT = 10**6


def gcd(a: BigInt, b: BigInt) -> BigInt:
    """Return the non-negative greatest common divisor of ``a`` and ``b``.

    ``gcd(0, 0) == 0`` by convention.
    """
    return math.gcd(a, b)


def is_prime(p: BigInt) -> bool:
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


def padic_valuation(n: BigInt, p: BigInt) -> int:
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
