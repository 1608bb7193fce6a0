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

Their forced agreement (:func:`nu_order_bound`) turns a literature fact into
a self-checking computation; ``m(2) = 24`` is the upper bound for the order
of the generator of the third stem.  The module also houses the tiny KO
model for S^2, the Thom-space/stunted-space index bookkeeping, the
stunted-space equivalence decision, and the replayable derivation chain
certifying that twice the complex Hopf attaching class vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .derivation import DerivationStep, StepStatus, register_check
from .errors import VerificationError
from .exact import BigInt, BigRational, gcd, is_prime, padic_valuation
from .kring import ComplexProjective, make_ring, mul
from . import einv

__all__ = [
    "JOrderBound",
    "KOClassS2",
    "StabilizedGcd",
    "StuntedSpace",
    "bernoulli",
    "eta_order_chain",
    "feder_gitler_equivalent",
    "gcd_history",
    "ko_s2_realify",
    "m_closed_form",
    "m_via_bernoulli",
    "nu_order_bound",
    "stabilized_gcd",
    "thom_space",
]


# --------------------------------------------------------------------------
# m(t) three ways
# --------------------------------------------------------------------------


class StabilizedGcd(NamedTuple):
    """Result of the gcd fold: the value and whether it had settled."""

    value: BigInt
    stable: bool


def gcd_history(t: int, K: int, N: int) -> tuple:
    """Running gcd of ``k^N (k^t - 1)`` for ``k = 2..K`` (one entry per k)."""
    running = 0
    out = []
    for k in range(2, K + 1):
        running = gcd(running, k**N * (k**t - 1))
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


def m_closed_form(t: int) -> BigInt:
    """Prime-by-prime closed form of the order bound ``m(t)``."""
    if t < 1:
        raise ValueError("t must be positive")
    out = 2 ** (2 + padic_valuation(t, 2)) if t % 2 == 0 else 2
    for p in range(3, t + 2, 2):
        if is_prime(p) and t % (p - 1) == 0:
            out *= p ** (1 + padic_valuation(t, p))
    return out


def _tangent_number(k: int) -> BigInt:
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


def bernoulli(n: int) -> BigRational:
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


def m_via_bernoulli(k: int) -> BigInt:
    """Denominator of ``B_2k / (4k)`` in lowest terms."""
    if k < 1:
        raise ValueError("k must be positive")
    return (bernoulli(2 * k) / (4 * k)).denominator


@dataclass(frozen=True)
class JOrderBound:
    """An order bound ``m(t)`` with the methods that produced it."""

    t: int
    value: BigInt
    methods: tuple

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("an order bound must be at least 1")


def nu_order_bound() -> JOrderBound:
    """The three-way order bound 24 for the third-stem generator.

    Fails loudly (``VerificationError``) if the gcd fold, the closed form,
    and the Bernoulli denominator disagree or the fold has not stabilized.
    """
    folded = stabilized_gcd(2, K=200, N=12)
    closed = m_closed_form(2)
    via_b = m_via_bernoulli(1)
    if not (folded.value == closed == via_b):
        raise VerificationError(
            f"order-bound methods disagree: gcd={folded.value}, "
            f"closed={closed}, bernoulli={via_b}"
        )
    if not folded.stable:
        raise VerificationError("gcd fold did not stabilize")
    return JOrderBound(t=2, value=folded.value, methods=("gcd", "closed", "bernoulli"))


def jorder_to_json(bound: JOrderBound, stable: bool = True) -> dict:
    """CLI serialization: ``{"t", "m", "methods", "stable"}``."""
    return {
        "t": bound.t,
        "m": str(bound.value),
        "methods": list(bound.methods),
        "stable": stable,
    }


# --------------------------------------------------------------------------
# Stunted spaces
# --------------------------------------------------------------------------

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"


@dataclass(frozen=True)
class StuntedSpace:
    """``P^top / P^(bottom-1)`` in the complex or quaternionic family.

    ``suspension`` shifts every cell dimension by ``N``.
    """

    family: str
    top: int
    bottom: int
    suspension: int = 0

    def __post_init__(self):
        if self.family not in (COMPLEX, QUATERNIONIC):
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.top >= self.bottom >= 0):
            raise ValueError("indices must satisfy top >= bottom >= 0")
        if self.suspension < 0:
            raise ValueError("suspension offset must be non-negative")

    @property
    def cell_multiplier(self) -> int:
        return 2 if self.family == COMPLEX else 4

    def cell_dimensions(self) -> tuple:
        """Total cell dimensions, lowest first."""
        c = self.cell_multiplier
        return tuple(c * j + self.suspension for j in range(self.bottom, self.top + 1))

    def suspended(self, n: int) -> "StuntedSpace":
        return StuntedSpace(self.family, self.top, self.bottom, self.suspension + n)

    def label(self) -> str:
        p = "CP" if self.family == COMPLEX else "HP"
        body = f"{p}^{self.top}/{p}^{self.bottom - 1}"
        if self.suspension:
            return f"S^{self.suspension}({body})"
        return body


def thom_space(family: str, n: int, k: int) -> StuntedSpace:
    """Thom space of ``k`` copies of the Hopf bundle over ``P^n``:
    ``P^(n+k) / P^(k-1)``."""
    if n < 1 or k < 1:
        raise ValueError("base index and multiple must be at least 1")
    return StuntedSpace(family=family, top=n + k, bottom=k)


@lru_cache(maxsize=1)
def _jorder_b1() -> BigInt:
    return nu_order_bound().value


def feder_gitler_equivalent(
    n: int, k: int, l: int, Bn: Optional[BigInt] = None
) -> bool:
    """Stable-equivalence decision for ``P^(n+k)/P^(k-1)`` vs
    ``P^(n+l)/P^(l-1)``: true iff ``k = l (mod B_n)``.

    ``B_n`` is the J-order of the Hopf bundle over ``P^n`` and must be
    supplied by the caller except for ``n = 1``, where the library provides
    the computed value 24.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0 or l < 0:
        raise ValueError("indices must be non-negative")
    if Bn is None:
        if n != 1:
            raise ValueError("the J-order B_n must be supplied for n >= 2")
        Bn = _jorder_b1()
    if Bn < 1:
        raise ValueError("B_n must be at least 1")
    return (k - l) % Bn == 0


# --------------------------------------------------------------------------
# KO model for S^2
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KOClassS2:
    """A KO(S^2) class: real rank plus the order-2 reduced part."""

    rank: int
    reduced: int

    def __post_init__(self):
        if self.reduced not in (0, 1):
            raise ValueError("the reduced part lives in Z/2")


def ko_s2_realify(a: int, b: int) -> KOClassS2:
    """Realification into KO(S^2) of ``a`` trivial real line summands plus
    ``b`` realified Hopf summands.

    Each realified Hopf bundle has real rank 2, and its reduced class has
    order 2, so the result is ``rank a + 2b`` with reduced part ``b mod 2``.
    A virtual complex class ``x + y*eta`` converts via ``a = 2x, b = y``
    (complexification doubles real rank).
    """
    return KOClassS2(rank=a + 2 * b, reduced=b % 2)


# --------------------------------------------------------------------------
# The order-2 derivation chain for the complex Hopf class
# --------------------------------------------------------------------------


@register_check("eta_square_identity")
def _check_eta_square_identity(evidence: dict) -> bool:
    """Recompute eta^2 = a + b*eta in K(CP^1) and compare coefficients."""
    model = make_ring(ComplexProjective(1))
    mu = model.generator()
    # eta = 1 + mu as (rank, reduced part); square it.
    rank = 1
    reduced = mu.scale(2 * rank) + mul(mu, mu)  # 2*mu + mu^2, and mu^2 = 0
    # Solve (rank, reduced) == a*(1, 0) + b*(1, mu).
    b = reduced.coeffs[0]
    a = rank - b
    return a == evidence["a"] and b == evidence["b"]


@register_check("ko_realify_eta_square")
def _check_ko_realify(evidence: dict) -> bool:
    """Recompute the realification of eta^2 and the rank identity."""
    cls = ko_s2_realify(evidence["trivial_rank"], evidence["hopf_count"])
    r_eta = ko_s2_realify(0, 1)
    rank_identity = cls.rank + 2 == 2 * r_eta.rank == 4
    return (
        cls.rank == evidence["rank"]
        and cls.reduced == evidence["reduced"]
        and rank_identity
    )


@register_check("order_bracket_first_stem")
def _check_order_bracket(evidence: dict) -> bool:
    """e-invariant lower bound meets the KO upper bound: order exactly 2."""
    from .kring import parse_space  # local import to keep module load light

    model = make_ring(parse_space(evidence["space"]))
    for k in evidence["ks"]:
        e = einv.e_invariant(model, k)
        if f"{e.numerator}/{e.denominator}" != evidence["e"]:
            return False
    lower = einv.order_lower_bound(model, evidence["ks"][0])
    return lower == evidence["lower"] == evidence["upper"]


def eta_order_chain() -> tuple:
    """The replayable chain certifying that twice the complex Hopf attaching
    class is stably trivial (so its order is exactly 2).

    Three computed steps (the square identity in K(CP^1), its realification
    into KO(S^2), and the order bracket) plus one literature-asserted step
    (J-order equals KO-order for line bundles over S^2, which upgrades
    KO-triviality to a stable splitting).
    """
    return (
        DerivationStep(
            claim="eta^2 = 2*eta - 1 in K(CP^1): coefficients (a, b) = (-1, 2)",
            status=StepStatus.COMPUTED,
            citation="stemcert.kring (truncated ring Z[mu]/(mu^2), eta = 1 + mu)",
            evidence={"check": "eta_square_identity", "a": -1, "b": 2},
        ),
        DerivationStep(
            claim=(
                "realification: r(eta^2) = 2*r(eta) - r(1) has rank 2 and "
                "reduced part 0, i.e. r(eta^2) + 2 = 2*r(eta) = 4"
            ),
            status=StepStatus.COMPUTED,
            citation="stemcert.jorder.ko_s2_realify",
            evidence={
                "check": "ko_realify_eta_square",
                "trivial_rank": -2,
                "hopf_count": 2,
                "rank": 2,
                "reduced": 0,
            },
        ),
        DerivationStep(
            claim=(
                "KO-triviality of the realified class makes 2*(Hopf bundle) "
                "stably fiber-homotopy trivial, so its Thom space splits and "
                "twice the attaching class vanishes (the splitting is "
                "governed by the J-order, which equals the KO-order here)"
            ),
            status=StepStatus.PAPER_ASSERTED,
            citation="Adams conjecture; J-groups of spheres",
            evidence=None,
        ),
        DerivationStep(
            claim=(
                "order bookkeeping: the e-invariant 1/2 of the suspended "
                "two-cell model gives lower bound 2; with 2*[h] = 0 the "
                "order is exactly 2"
            ),
            status=StepStatus.COMPUTED,
            citation="stemcert.einv.order_lower_bound",
            evidence={
                "check": "order_bracket_first_stem",
                "space": "s2-smash-cp2",
                "ks": [2, 3, 5, 7],
                "e": "1/2",
                "lower": 2,
                "upper": 2,
            },
        ),
    )
