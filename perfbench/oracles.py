"""Output checks for the stemcert CLI that share no code with the program.

Every check takes the parsed ``--json`` payload of one invocation plus the
inputs that produced it, and raises :class:`OracleError` on a mismatch.
Only the fields a check needs are read, so keys the CLI adds later (a
``meta`` block, per-method values) never count as a failure.

The exact values come from textbook closed forms, not from the package:

* ``B_n`` from the integer tangent-number recurrence (Brent & Harvey, 2011),
* ``m(t)`` as the denominator of ``B_t / 2t``,
* ``psi^k`` of the quaternionic generator from the Chebyshev identity,
  ``2k/(k+j) * C(k+j, 2j)``, and of the complex generator as ``C(k, d)``,
* the Thom space of ``m`` Hopf bundles over ``P^n`` as ``P^(n+m)/P^(m-1)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Tolerance the CLI's linking certificate promises for ``| |Lk| - 1 |`` and
#: for the unlinked control.
LINKING_TOLERANCE = 0.02

#: Group and generator of the stable stems 1-3 (Toda's tables).
STEM_CONCLUSIONS = {1: ("Z2", "eta"), 2: ("Z2", "eta^2"), 3: ("Z24", "nu")}

#: Splitting verdict and e-invariant of the two-cell models the CLI exposes.
EINV_EXPECTED = {
    "s2-smash-cp2": ("DoesNotSplit", Fraction(1, 2)),
    "hp2": ("DoesNotSplit", Fraction(1, 12)),
}


class OracleError(Exception):
    """An output of the program disagrees with the independent value."""


def _expect(label: str, got, want) -> None:
    if got != want:
        raise OracleError(f"{label}: got {got!r}, expected {want!r}")


# --------------------------------------------------------------------------
# Exact values
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def tangent_numbers(count: int) -> tuple:
    """Tangent numbers ``T_1 .. T_count`` (index 0 unused), integers only."""
    t = [0] * (count + 1)
    if count:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


def bernoulli(n: int) -> Fraction:
    """Exact ``B_n`` for even ``n >= 0``:
    ``B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))``."""
    if n < 0 or n % 2:
        raise ValueError(f"only even non-negative indices, got {n}")
    if n == 0:
        return Fraction(1)
    k = n // 2
    sign = 1 if k % 2 else -1
    return Fraction(sign * 2 * k * tangent_numbers(k)[k], 4**k * (4**k - 1))


def j_order(t: int) -> int:
    """The J-order bound ``m(t)`` for even ``t``: the denominator of
    ``B_t / 2t``."""
    return (bernoulli(t) / (2 * t)).denominator


def hp_adams_coefficients(k: int, n: int) -> list:
    """Coefficients of ``phi^1 .. phi^n`` in ``psi^k(phi)`` on ``HP^n``."""
    out = []
    for j in range(1, n + 1):
        c = Fraction(2 * k, k + j) * math.comb(k + j, 2 * j)
        if c.denominator != 1:
            raise ArithmeticError(f"non-integral Chebyshev coefficient at j={j}")
        out.append(int(c))
    return out


def cp_adams_coefficients(k: int, n: int) -> list:
    """Coefficients of ``mu^1 .. mu^n`` in ``psi^k(mu) = (1 + mu)^k - 1``."""
    return [math.comb(k, d) for d in range(1, n + 1)]


def adams_coefficients(space: str, k: int, elem: str) -> list:
    """``psi^k`` of a generator on the basis the CLI prints, lowest cell first.

    On ``s2-smash-X`` the sphere factor has one cell and ``psi^k(nu) = k nu``,
    so the basis is ``nu * x^j`` and each coefficient is ``k`` times the
    coefficient of ``x^j`` in ``psi^k(x)``.
    """
    sphere = space.startswith("s2-smash-")
    atom = space[len("s2-smash-"):] if sphere else space
    kind, n = atom[:2], int(atom[2:])
    generator = {"cp": "mu", "hp": "phi"}[kind]
    _expect(f"{space} generator", elem, f"{generator}*nu" if sphere else generator)
    coeffs = (cp_adams_coefficients if kind == "cp" else hp_adams_coefficients)(k, n)
    return [k * c for c in coeffs] if sphere else coeffs


# --------------------------------------------------------------------------
# Checks, one per subcommand
# --------------------------------------------------------------------------


def check_help(text: str) -> None:
    if not text.startswith("usage: stemcert"):
        raise OracleError(f"--help printed {text[:60]!r}")


def check_bernoulli(payload: dict, n: int) -> None:
    _expect("bernoulli n", payload["n"], n)
    value = bernoulli(n)
    _expect(f"B_{n}", payload["value"], f"{value.numerator}/{value.denominator}")


def check_jorder(payload: dict, t: int) -> None:
    _expect("jorder t", payload["t"], t)
    _expect(f"m({t})", payload["m"], str(j_order(t)))
    _expect(f"m({t}) stable", payload["stable"], True)


def check_adams(payload: dict, space: str, k: int, elem: str) -> None:
    _expect("adams space", payload["space"], space)
    coeffs = [int(c) for c in payload["coeffs"]]
    _expect(f"psi^{k}({elem}) on {space}", coeffs, adams_coefficients(space, k, elem))


def check_einv(payload: dict, space: str) -> None:
    verdict, e = EINV_EXPECTED[space]
    _expect(f"{space} verdict", payload["verdict"], verdict)
    _expect(f"{space} e", Fraction(payload["e"]), e)
    _expect(
        f"{space} e from its witness",
        Fraction(int(payload["c"]), int(payload["modulus"])) % 1,
        e,
    )


def check_feder_gitler(payload: dict, k: int, l: int) -> None:
    order = j_order(2)
    _expect("feder-gitler Bn", payload["Bn"], str(order))
    _expect(f"k={k} ~ l={l}", payload["equivalent"], (k - l) % order == 0)


def check_thom(payload: dict, family: str, n: int, mult: int, suspend: int) -> None:
    step = {"complex": 2, "quaternionic": 4}[family]
    _expect("thom cells", payload["cells"], [step * j + suspend for j in range(mult, n + mult + 1)])
    p = "CP" if family == "complex" else "HP"
    body = f"{p}^{n + mult}/{p}^{mult - 1}"
    _expect("thom label", payload["label"], f"S^{suspend}({body})" if suspend else body)


def check_lift(payload: dict, loop: str, steps: int) -> None:
    _expect("lift steps", payload["steps"], steps)
    _expect(f"monodromy of {loop}", payload["monodromy"], -1)


def check_report(payload: dict, stem: int) -> None:
    _expect("report stem", payload["stem"], stem)
    _expect(f"stem {stem}", (payload["group"], payload["generator"]), STEM_CONCLUSIONS[stem])
    if not any(step["status"] == "Computed" for step in payload["steps"]):
        raise OracleError(f"stem {stem} report has no Computed step")


def check_linking(payload: dict, trials: int, samples: int) -> float:
    """Check a linking certificate; return ``max | |Lk| - 1 |`` recomputed
    from the ``trials`` array."""
    _expect("linking samples", payload["samples"], samples)
    _expect("linking trial count", len(payload["trials"]), trials)
    worst = max(abs(abs(v) - 1.0) for v in payload["trials"])
    if worst > LINKING_TOLERANCE:
        raise OracleError(f"a fiber pair links with | |Lk| - 1 | = {worst}")
    if abs(payload["unlinked_control"]) > LINKING_TOLERANCE:
        raise OracleError(f"unlinked control reads {payload['unlinked_control']}")
    if abs(payload["max_deviation"] - worst) > 1e-6:
        raise OracleError(
            f"reported max deviation {payload['max_deviation']} != {worst} from trials"
        )
    return worst
