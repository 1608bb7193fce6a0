"""J-order bounds computed three independent ways, with KO-model bookkeeping.

The order bound ``m(t)`` is obtained as

1. ``stabilized_gcd`` — the gcd over ``k`` of ``k^N (k^t - 1)`` with a
   stability flag guarding against premature convergence,
2. ``m_closed_form`` — the prime-by-prime product
   ``prod p^(1 + v_p(t))`` over odd primes with ``(p-1) | t``, times
   ``2^(2 + v_2(t))`` for even ``t`` (``2`` for odd ``t``),
3. ``m_via_bernoulli`` — the denominator of ``B_2k / 4k`` in lowest terms,
   with ``B_2k`` built from the integer tangent number ``T_k`` and checked
   against the von Staudt-Clausen denominator.

Their forced agreement (:func:`order_bound`) turns a literature fact into
a self-checking computation; ``m(2) = 24`` (:func:`nu_order_bound`) is the
upper bound for the order of the generator of the third stem.  The module
also houses the tiny KO model for S^2, the Thom-space/stunted-space index
bookkeeping, and the stunted-space equivalence decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import VerificationError
from .exact import gcd, is_prime, padic_valuation

__all__ = [
    "StabilizedGcd",
    "bernoulli",
    "feder_gitler_equivalent",
    "gcd_history",
    "ko_s2_realify",
    "m_closed_form",
    "m_via_bernoulli",
    "nu_order_bound",
    "order_bound",
    "stabilized_gcd",
    "thom_space",
]


# --------------------------------------------------------------------------
# m(t) three ways
# --------------------------------------------------------------------------


class StabilizedGcd(NamedTuple):
    """Result of the gcd fold: the value and whether it had settled."""

    value: int
    stable: bool


def gcd_history(t: int, K: int, N: int) -> tuple:
    """Running gcd of ``k^N (k^t - 1)`` for ``k = 2..K`` (one entry per k).

    Once the running gcd ``g`` is non-zero, each term is folded modulo ``g``,
    since ``gcd(g, x) = gcd(g, x mod g)``: the powers never outgrow ``g``.
    """
    running = 0
    out = []
    for k in range(2, K + 1):
        if running:
            term = pow(k, N, running) * (pow(k, t, running) - 1) % running
        else:
            term = k**N * (k**t - 1)
        running = gcd(running, term)
        out.append(running)
    return tuple(out)


def stabilized_gcd(t: int, K: int = 200, N: Optional[int] = None) -> StabilizedGcd:
    """gcd over ``k in {2..K}`` of ``k^N (k^t - 1)``, with a stability flag.

    The flag reports whether the running gcd was constant over the last
    ``ceil(K/2)`` values of ``k``; ``N`` defaults to ``t + 10`` and must be
    at least ``t + 4``, ``K`` at least 3.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if N is None:
        N = t + 10
    if K < 3:
        raise ValueError("K must be at least 3")
    if N < t + 4:
        raise ValueError(f"N must be at least t + 4 = {t + 4}, got {N}")
    history = gcd_history(t, K, N)
    tail = history[-math.ceil(K / 2):]
    return StabilizedGcd(value=history[-1], stable=len(set(tail)) == 1)


def m_closed_form(t: int) -> int:
    """Prime-by-prime closed form of the order bound ``m(t)``."""
    if t < 1:
        raise ValueError("t must be positive")
    out = 2 ** (2 + padic_valuation(t, 2)) if t % 2 == 0 else 2
    for p in range(3, t + 2, 2):
        if is_prime(p) and t % (p - 1) == 0:
            out *= p ** (1 + padic_valuation(t, p))
    return out


def _tangent_number(k: int) -> int:
    """The k-th tangent number ``T_k`` (1, 2, 16, 272, ...), ``k >= 1``.

    All-integer recurrence of Brent and Harvey, "Fast computation of
    Bernoulli, Tangent and Secant numbers" (2011), Algorithm TangentNumbers:
    O(k^2) integer operations, no rationals.
    """
    t = [0] * (k + 1)
    t[1] = 1
    for j in range(2, k + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[k]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number ``B_n`` for even ``n >= 0``.

    Computed from the tangent number ``T_k`` with ``k = n/2`` as
    ``B_n = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))`` and, for ``n >= 2``,
    cross-checked against the von Staudt-Clausen denominator (the product
    of primes ``p`` with ``(p - 1) | n``).  Odd indices are rejected.
    """
    if n < 0 or n % 2 != 0:
        raise ValueError(f"Bernoulli index must be even and non-negative, got {n}")
    if n == 0:
        return Fraction(1)
    k = n // 2
    four_k = 4**k
    value = Fraction(
        (-1) ** (k - 1) * 2 * k * _tangent_number(k), four_k * (four_k - 1)
    )
    expected_den = 1
    for p in range(2, n + 2):
        if is_prime(p) and n % (p - 1) == 0:
            expected_den *= p
    if value.denominator != expected_den:
        raise VerificationError(
            f"von Staudt-Clausen check failed for B_{n}: denominator "
            f"{value.denominator} != {expected_den}"
        )
    return value


def m_via_bernoulli(k: int) -> int:
    """Denominator of ``B_2k / (4k)`` in lowest terms."""
    if k < 1:
        raise ValueError("k must be positive")
    return (bernoulli(2 * k) / (4 * k)).denominator


def order_bound(t: int, K: int = 200, N: Optional[int] = None) -> dict:
    """The order bound ``m(t)``, with every method that applies forced to agree.

    The gcd fold (:func:`stabilized_gcd` with ``K`` and ``N``) and the closed
    form always run, the Bernoulli denominator for even ``t``.  Fails loudly
    (``VerificationError``) if they disagree or the fold has not stabilized.
    The certificate is ``{"t", "m": decimal string, "methods", "stable"}``;
    ``stable`` is always true, since only a settled fold is returned.
    """
    folded = stabilized_gcd(t, K=K, N=N)
    values = {"gcd": folded.value, "closed": m_closed_form(t)}
    if t % 2 == 0:
        values["bernoulli"] = m_via_bernoulli(t // 2)
    if len(set(values.values())) != 1:
        raise VerificationError(f"order-bound methods disagree: {values}")
    if not folded.stable:
        raise VerificationError("gcd fold did not stabilize; increase K")
    return {"t": t, "m": str(folded.value), "methods": list(values), "stable": True}


def nu_order_bound() -> dict:
    """The three-way order bound 24 for the third-stem generator."""
    return order_bound(2, K=200, N=12)


# --------------------------------------------------------------------------
# Stunted spaces
# --------------------------------------------------------------------------

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"


def thom_space(family: str, n: int, k: int, suspension: int = 0) -> dict:
    """Thom space of ``k`` copies of the Hopf bundle over ``P^n``,
    ``P^(n+k) / P^(k-1)``, suspended ``suspension`` times.

    The certificate is ``{"family", "top", "bottom", "suspension", "cells",
    "label"}``, with the total cell dimensions lowest first.
    """
    if n < 1 or k < 1:
        raise ValueError("base index and multiple must be at least 1")
    if family not in (COMPLEX, QUATERNIONIC):
        raise ValueError(f"unknown family {family!r}")
    if suspension < 0:
        raise ValueError("suspension offset must be non-negative")
    top = n + k
    step, p = (2, "CP") if family == COMPLEX else (4, "HP")
    label = f"{p}^{top}/{p}^{k - 1}"
    return {
        "family": family,
        "top": top,
        "bottom": k,
        "suspension": suspension,
        "cells": [step * j + suspension for j in range(k, top + 1)],
        "label": f"S^{suspension}({label})" if suspension else label,
    }


@lru_cache(maxsize=1)
def _jorder_b1() -> int:
    return int(nu_order_bound()["m"])


def feder_gitler_equivalent(
    n: int, k: int, l: int, Bn: Optional[int] = None
) -> bool:
    """Stable-equivalence decision for ``P^(n+k)/P^(k-1)`` vs
    ``P^(n+l)/P^(l-1)``: true iff ``k = l (mod B_n)``.

    ``B_n`` is the J-order of the Hopf bundle over ``P^n``.  The library
    computes it only for ``n = 1``, as 24, so every other ``n`` raises,
    whether or not ``Bn`` is given: no verdict rests on a caller's constant.
    A supplied ``Bn`` is a cross-check against the computed ``B_1``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 1:
        raise ValueError(f"B_n is computed only for n = 1, got n = {n}")
    if k < 0 or l < 0:
        raise ValueError("indices must be non-negative")
    if Bn not in (None, _jorder_b1()):
        raise ValueError(f"B_1 is the computed {_jorder_b1()}, not the supplied {Bn}")
    return (k - l) % _jorder_b1() == 0


# --------------------------------------------------------------------------
# KO model for S^2
# --------------------------------------------------------------------------


def ko_s2_realify(a: int, b: int) -> dict:
    """Realification into KO(S^2) of ``a`` trivial real line summands plus
    ``b`` realified Hopf summands.

    Each realified Hopf bundle has real rank 2, and its reduced class has
    order 2, so the result is ``rank a + 2b`` with reduced part ``b mod 2``.
    A virtual complex class ``x + y*eta`` converts via ``a = 2x, b = y``
    (complexification doubles real rank).
    """
    return {"rank": a + 2 * b, "reduced": b % 2}
