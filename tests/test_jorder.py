"""Order bounds three ways, Bernoulli numbers, stunted spaces, KO models."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemcert import jorder
from stemcert.errors import VerificationError
from stemcert.jorder import (
    bernoulli,
    feder_gitler_equivalent,
    gcd_history,
    ko_s2_realify,
    m_closed_form,
    m_via_bernoulli,
    nu_order_bound,
    order_bound,
    stabilized_gcd,
    thom_space,
)

# Frozen three-way agreement table for even t: m(2), m(4), ..., m(24).
FROZEN_M = {
    2: 24,
    4: 240,
    6: 504,
    8: 480,
    10: 264,
    12: 65520,
    14: 24,
    16: 16320,
    18: 28728,
    20: 13200,
    22: 552,
    24: 131040,
}


# --------------------------------------------------------------------------
# The gcd fold
# --------------------------------------------------------------------------


def test_stabilized_gcd_24():
    result = stabilized_gcd(2, K=200, N=12)
    assert result.value == 24
    assert result.stable


def test_stabilized_gcd_is_the_gcd_over_every_k():
    # At t = 11 the fold over k <= 3 still stands at 2 * 23, and k = 4 brings
    # it down to m(11) = 2: the value is the last running gcd, not an early one.
    assert gcd_history(11, 4, 21)[1] == 46
    assert stabilized_gcd(11).value == 2 == m_closed_form(11)


def test_gcd_settles_quickly_for_t_2():
    # The running gcd already reaches 24 by k = 5 and never moves again.
    history = gcd_history(2, K=200, N=12)
    assert history[5 - 2] == 24
    assert set(history[5 - 2 :]) == {24}


def unreduced_gcd_history(t, K, N):
    """The running gcd of the full integers ``k^N (k^t - 1)``."""
    running, out = 0, []
    for k in range(2, K + 1):
        running = math.gcd(running, k**N * (k**t - 1))
        out.append(running)
    return tuple(out)


@pytest.mark.parametrize(
    "t,K,N",
    [(2, 200, 12), (2000, 1024, 4096), (1999, 1024, 4096), (720, 500, 800), (12, 3, 16), (378, 200, 388)],
)
def test_gcd_fold_modulo_the_running_gcd_keeps_the_history(t, K, N):
    assert gcd_history(t, K, N) == unreduced_gcd_history(t, K, N)


def test_stabilized_gcd_validation():
    with pytest.raises(ValueError):
        stabilized_gcd(0)
    with pytest.raises(ValueError):
        stabilized_gcd(2, K=2)
    with pytest.raises(ValueError):
        stabilized_gcd(2, N=5)  # below t + 4


def test_odd_t_gives_2():
    for t in (1, 3, 5, 7):
        assert m_closed_form(t) == 2
        assert stabilized_gcd(t).value == 2


# --------------------------------------------------------------------------
# Three-way agreement
# --------------------------------------------------------------------------


@pytest.mark.parametrize("t,expected", sorted(FROZEN_M.items()))
def test_three_methods_agree_on_frozen_table(t, expected):
    folded = stabilized_gcd(t)
    assert folded.stable
    assert folded.value == expected
    assert m_closed_form(t) == expected
    assert m_via_bernoulli(t // 2) == expected


def test_nu_order_bound():
    assert nu_order_bound() == {
        "t": 2,
        "m": "24",
        "methods": ["gcd", "closed", "bernoulli"],
        "stable": True,
    }


def test_order_bound_checks_agreement_and_stability(monkeypatch):
    # Odd t has no Bernoulli method; the other two still have to agree.
    assert order_bound(3) == {"t": 3, "m": "2", "methods": ["gcd", "closed"], "stable": True}
    # At K = 3 the fold reaches 24 only at its last step.
    with pytest.raises(VerificationError, match="did not stabilize"):
        order_bound(2, K=3)
    monkeypatch.setattr(jorder, "m_closed_form", lambda t: 23)
    with pytest.raises(VerificationError, match="disagree"):
        order_bound(2)


# --------------------------------------------------------------------------
# Bernoulli numbers
# --------------------------------------------------------------------------


def test_bernoulli_pinned_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def bernoulli_by_recurrence(n_max):
    """B_0..B_n_max from the convolution recurrence
    sum_{j <= m} C(m + 1, j) B_j = 0 in rationals: an oracle independent of
    the tangent-number route."""
    values = [Fraction(1)]
    for m in range(1, n_max + 1):
        total = sum(math.comb(m + 1, j) * values[j] for j in range(m))
        values.append(-total / (m + 1))
    return values


def test_bernoulli_matches_the_convolution_recurrence():
    oracle = bernoulli_by_recurrence(120)
    for n in range(0, 121, 2):
        assert bernoulli(n) == oracle[n]


def test_von_staudt_clausen_catches_a_wrong_tangent_number(monkeypatch):
    real = jorder._tangent_number
    monkeypatch.setattr(jorder, "_tangent_number", lambda k: 2 * real(k))
    with pytest.raises(VerificationError, match="von Staudt-Clausen"):
        bernoulli(12)


def test_bernoulli_rejects_odd_and_negative():
    for n in (-2, 1, 3, 13):
        with pytest.raises(ValueError):
            bernoulli(n)


@pytest.mark.parametrize("n", range(2, 62, 2))
def test_von_staudt_clausen_denominators(n):
    # bernoulli() raises VerificationError internally if the denominators
    # disagree; recompute the product here as an explicit oracle.
    from stemcert.exact import is_prime

    expected = 1
    for p in range(2, n + 2):
        if is_prime(p) and n % (p - 1) == 0:
            expected *= p
    assert bernoulli(n).denominator == expected


def test_bernoulli_alternating_signs():
    for n in range(2, 40, 4):
        assert bernoulli(n) > 0
        assert bernoulli(n + 2) < 0


# --------------------------------------------------------------------------
# Stunted spaces and the equivalence decision
# --------------------------------------------------------------------------


def test_thom_space_examples():
    assert thom_space("quaternionic", 1, 24) == {
        "family": "quaternionic",
        "top": 25,
        "bottom": 24,
        "suspension": 0,
        "cells": [96, 100],
        "label": "HP^25/HP^23",
    }
    assert thom_space("quaternionic", 1, 12)["cells"] == [48, 52]
    cp2 = thom_space("complex", 1, 1)
    assert (cp2["label"], cp2["cells"]) == ("CP^2/CP^0", [2, 4])


def test_thom_space_suspension_shifts_cells():
    lifted = thom_space("quaternionic", 1, 24, suspension=7)
    assert (lifted["suspension"], lifted["cells"]) == (7, [103, 107])
    assert lifted["label"] == "S^7(HP^25/HP^23)"
    assert thom_space("complex", 2, 3, 0) == thom_space("complex", 2, 3)


def test_stunted_space_validation():
    for args, message in [
        (("octonionic", 1, 1), "unknown family 'octonionic'"),
        (("complex", 0, 1), "base index and multiple must be at least 1"),
        (("complex", 1, 0), "base index and multiple must be at least 1"),
        (("complex", 1, 1, -1), "suspension offset must be non-negative"),
        # The index check comes first, then the family, then the suspension.
        (("octonionic", 1, 0, -1), "at least 1"),
        (("octonionic", 1, 1, -1), "unknown family"),
    ]:
        with pytest.raises(ValueError, match=message):
            thom_space(*args)


def test_feder_gitler_frozen_decisions():
    assert feder_gitler_equivalent(1, 12, 0) is False
    assert feder_gitler_equivalent(1, 24, 0) is True
    assert feder_gitler_equivalent(1, 25, 1) is True
    assert feder_gitler_equivalent(1, 23, 0) is False


@pytest.mark.parametrize("Bn", [None, 7, 240])
def test_feder_gitler_refuses_n2_with_or_without_bn(Bn):
    # B_2 is not computed, so no supplied constant may decide for n = 2.
    with pytest.raises(ValueError, match="only for n = 1"):
        feder_gitler_equivalent(2, 1, 8, Bn=Bn)


@given(
    st.integers(0, 400),
    st.integers(0, 400),
    st.integers(0, 400),
)
@settings(max_examples=100)
def test_feder_gitler_is_an_equivalence_relation(k, l, m):
    assert feder_gitler_equivalent(1, k, k)
    assert feder_gitler_equivalent(1, k, l) == feder_gitler_equivalent(1, l, k)
    if feder_gitler_equivalent(1, k, l) and feder_gitler_equivalent(1, l, m):
        assert feder_gitler_equivalent(1, k, m)


@given(st.integers(0, 400), st.integers(1, 10))
@settings(max_examples=60)
def test_feder_gitler_period_24(k, steps):
    assert feder_gitler_equivalent(1, k, k + 24 * steps)
    assert not feder_gitler_equivalent(1, k, k + 12)


# --------------------------------------------------------------------------
# KO models
# --------------------------------------------------------------------------


def test_ko_s2_realify_examples():
    assert ko_s2_realify(1, 0) == {"rank": 1, "reduced": 0}
    assert ko_s2_realify(0, 1) == {"rank": 2, "reduced": 1}
    assert ko_s2_realify(-2, 2) == {"rank": 2, "reduced": 0}


def test_ko_s2_reduced_part_has_order_two():
    for b in range(8):
        assert ko_s2_realify(0, b)["reduced"] == b % 2


def test_ko_s2_validation():
    # The reduced part lives in Z/2 for a virtual class too.
    for b in range(-8, 0):
        assert ko_s2_realify(0, b) == {"rank": 2 * b, "reduced": b % 2}
        assert ko_s2_realify(0, b)["reduced"] in (0, 1)
