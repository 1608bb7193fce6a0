"""The checks and builders of the three stem reports.

Each report concludes a stable stem (Z2 / Z2 / Z24) from an ordered list of
derivation steps.  Each computed step runs a check registered here on its
literal inputs and on the outputs of the steps before it, so the bounds
that pin an order pass from step to step in code, and it outputs every
number its claim quotes.  Steps whose truth this package does not recompute
(deep theorems such as the EHP-sequence argument or the stunted-space
classification) are tagged ``PaperAsserted`` with a literature citation.
:func:`eta_order_chain` certifies that the suspended Hopf class has order 2.
"""

from __future__ import annotations

from fractions import Fraction

from . import einv, jorder
from .derivation import DerivationStep, StemReport, StepStatus, computed_step, register_check
from .errors import VerificationError
from .exact import is_prime
from .kring import make_ring, mul, parse_space

__all__ = ["build_stem_report", "eta_order_chain"]


# --------------------------------------------------------------------------
# Registered checks: fn(inputs, earlier) -> outputs
# --------------------------------------------------------------------------


def _e_invariant(inputs: dict) -> tuple:
    """The model of ``inputs["space"]`` and its e-invariant, the same at each index in ``ks``."""
    model = make_ring(parse_space(inputs["space"]))
    values = {einv.e_invariant(model, k) for k in inputs["ks"]}
    if len(values) != 1:
        raise VerificationError(f"e-invariants {sorted(map(str, values))} at {inputs['ks']}")
    return model, values.pop()


@register_check(
    "einv_nonsplit",
    claim="the suspended complex Hopf two-cell model does not split stably: "
    "its e-invariant is {e} at every tested index",
)
def _check_einv_nonsplit(inputs: dict, earlier: dict) -> dict:
    model, e = _e_invariant(inputs)
    verdict = einv.splitting_verdict(model, inputs["ks"]).verdict
    return {"e": str(e), "verdict": verdict.value}


@register_check(
    "eta_square_identity",
    claim="eta^2 = {b}*eta - 1 in K(CP^1): coefficients (a, b) = ({a}, {b})",
)
def _check_eta_square_identity(inputs: dict, earlier: dict) -> dict:
    """eta^2 = a + b*eta in K(CP^1)."""
    mu = make_ring(parse_space("cp1")).generator()
    # eta = 1 + mu as (rank, reduced part); square it.
    rank = 1
    reduced = mu.scale(2 * rank) + mul(mu, mu)  # 2*mu + mu^2, and mu^2 = 0
    # Solve (rank, reduced) == a*(1, 0) + b*(1, mu).
    b = reduced.coeffs[0]
    return {"a": rank - b, "b": b}


@register_check(
    "ko_realify_eta_square",
    claim="realification: r(eta^2) = {hopf_count}*r(eta) - r(1) has rank {rank} and "
    "reduced part {reduced}, i.e. r(eta^2) + 2 = 2*r(eta) = 4",
)
def _check_ko_realify(inputs: dict, earlier: dict) -> dict:
    """Realify eta^2 = a + b*eta into KO(S^2): a trivial complex line is two
    real ones, so the class is ``2a`` trivial lines plus ``b`` Hopf
    summands."""
    square = earlier["eta_square_identity"]
    trivial_rank, hopf_count = 2 * square["a"], square["b"]
    cls = jorder.ko_s2_realify(trivial_rank, hopf_count)
    return {"trivial_rank": trivial_rank, "hopf_count": hopf_count, "rank": cls.rank,
            "reduced": cls.reduced}


@register_check(
    "order_bracket_first_stem",
    claim="order bookkeeping: the e-invariant {e} of the suspended two-cell "
    "model gives lower bound {lower}; with {upper}*[h] = 0 the order is "
    "exactly {order}",
)
def _check_order_bracket(inputs: dict, earlier: dict) -> dict:
    """The e-invariant's denominator divides the order of eta, and the order
    divides ``b``: ``b`` Hopf summands realify to a KO-trivial class."""
    e = Fraction(earlier["einv_nonsplit"]["e"])
    upper = earlier["eta_square_identity"]["b"]
    if earlier["ko_realify_eta_square"]["reduced"] != 0:
        raise VerificationError("the realified class is not KO-trivial")
    if e.denominator != upper:
        raise VerificationError(f"lower bound {e.denominator} != upper bound {upper}")
    return {"e": str(e), "lower": e.denominator, "upper": upper, "stem": 1, "order": upper,
            "generator": "eta"}


@register_check(
    "composite_killed_by_two",
    claim="order bookkeeping: {multiplier}*(eta o eta) = ({multiplier} eta) o eta "
    "= 0 by bilinearity of composition, so eta^2 has order dividing "
    "{multiplier}",
)
def _check_composite(inputs: dict, earlier: dict) -> dict:
    """d * (eta o eta) = (d eta) o eta = 0 for the order d of eta, by
    bilinearity of composition.  With d prime and eta^2 essential (the EHP
    step the report cites), the order of eta^2 is d."""
    multiplier = earlier["order_bracket_first_stem"]["order"]
    if not is_prime(multiplier):
        raise VerificationError(f"the order {multiplier} of eta is not prime")
    return {"multiplier": multiplier, "stem": 2, "order": multiplier, "generator": "eta^2"}


@register_check(
    "jorder_triple",
    claim="upper bound: the order of nu divides {value} — gcd fold, prime-by-prime "
    "closed form, and Bernoulli denominator agree on the J-order bound "
    "m({t}) = {value}",
)
def _check_jorder_triple(inputs: dict, earlier: dict) -> dict:
    return {"value": jorder.order_bound(inputs["t"]).value}


@register_check(
    "einv_lower_bound",
    claim="complex K-theory lower bound: the quaternionic two-cell model has "
    "e-invariant {e}, so {lower} divides the order of nu",
)
def _check_einv_lower(inputs: dict, earlier: dict) -> dict:
    model, e = _e_invariant(inputs)
    return {"e": str(e), "lower": einv.order_lower_bound(model, inputs["ks"][0])}


@register_check(
    "fg_congruence",
    claim="congruence bookkeeping: {nonequiv[0]} is not 0 mod {B}, so the Thom "
    "space of {nonequiv[0]} copies of the bundle (cells {{{cells_nonequiv[0]}, "
    "{cells_nonequiv[1]}}}) does not split, while {equiv[0]} copies (cells "
    "{{{cells_equiv[0]}, {cells_equiv[1]}}}) does — hence {nonzero_multiple} "
    "nu != 0",
)
def _check_fg(inputs: dict, earlier: dict) -> dict:
    """With ``B`` the J-order computed before, ``k`` copies of the bundle
    split from none iff ``B`` divides ``k``: the non-equivalent pair
    exhibits a nonzero multiple of nu."""
    n, bn = inputs["n"], earlier["jorder_triple"]["value"]
    (nk, nl), (ek, el) = inputs["nonequiv"], inputs["equiv"]
    if jorder.feder_gitler_equivalent(n, nk, nl, bn):
        raise VerificationError(f"{nk} = {nl} mod {bn}")
    if not jorder.feder_gitler_equivalent(n, ek, el, bn):
        raise VerificationError(f"{ek} != {el} mod {bn}")
    return {
        "B": bn,
        "cells_nonequiv": list(jorder.thom_space(jorder.QUATERNIONIC, n, nk).cell_dimensions()),
        "cells_equiv": list(jorder.thom_space(jorder.QUATERNIONIC, n, ek).cell_dimensions()),
        "nonzero_multiple": nk - nl,
    }


@register_check(
    "order_pin",
    claim="order bracket: the order of nu divides {upper}, is a multiple of "
    "{lower_multiple}, and does not divide {not_dividing}; the only such "
    "number is {order}",
)
def _check_order_pin(inputs: dict, earlier: dict) -> dict:
    """The one divisor of the J-order bound that is a multiple of the
    e-invariant bound and does not divide the nonzero multiple."""
    upper = earlier["jorder_triple"]["value"]
    lower = earlier["einv_lower_bound"]["lower"]
    excluded = earlier["fg_congruence"]["nonzero_multiple"]
    candidates = [
        d for d in range(1, upper + 1) if upper % d == 0 and d % lower == 0 and excluded % d
    ]
    if len(candidates) != 1:
        raise VerificationError(f"the bounds leave the orders {candidates}")
    return {"upper": upper, "lower_multiple": lower, "not_dividing": excluded, "stem": 3,
            "order": candidates[0], "generator": "nu"}


# --------------------------------------------------------------------------
# Report builders
# --------------------------------------------------------------------------


def eta_order_chain(earlier: dict) -> tuple:
    """The replayable chain certifying that the suspended Hopf class eta has
    order exactly 2, adding each computed step's outputs to ``earlier``: the
    e-invariant lower bound, the square identity in K(CP^1), its
    realification into KO(S^2), the cited equality of J-order and KO-order
    for line bundles over S^2, and the order bracket."""
    return (
        computed_step(
            earlier,
            "einv_nonsplit",
            {"space": "s2-smash-cp2", "ks": [2, 3, 5, 7]},
            "stemcert.einv.splitting_verdict",
        ),
        computed_step(
            earlier,
            "eta_square_identity",
            {},
            "stemcert.kring (truncated ring Z[mu]/(mu^2), eta = 1 + mu)",
        ),
        computed_step(earlier, "ko_realify_eta_square", {}, "stemcert.jorder.ko_s2_realify"),
        DerivationStep(
            "KO-triviality of the realified class makes 2*(Hopf bundle) stably "
            "fiber-homotopy trivial, so its Thom space splits and twice the "
            "attaching class vanishes (the splitting is governed by the J-order, "
            "which equals the KO-order here)",
            StepStatus.PAPER_ASSERTED,
            "Adams conjecture; J-groups of spheres",
        ),
        computed_step(
            earlier,
            "order_bracket_first_stem",
            {},
            "stemcert.reports (divisor bookkeeping)",
        ),
    )


def _stem_one() -> tuple:
    return (
        *eta_order_chain({}),
        DerivationStep(
            "the two-cell computation happens in the stable range, so it identifies "
            "the first stem: Z2 generated by the suspended Hopf class eta",
            StepStatus.PAPER_ASSERTED,
            "Freudenthal suspension theorem",
        ),
    )


def _stem_two() -> tuple:
    earlier: dict = {}
    return (
        *eta_order_chain(earlier),
        computed_step(
            earlier,
            "composite_killed_by_two",
            {},
            "stemcert.reports (composition bilinearity)",
        ),
        DerivationStep(
            "eta^2 is essential: the 2-local EHP sequence identifies the second "
            "stem with Z2 generated by eta^2",
            StepStatus.PAPER_ASSERTED,
            "EHP sequence (James fibrations, 2-local)",
        ),
        DerivationStep(
            "remark: eta^2 also carries the nontrivial Arf invariant under the "
            "framed-cobordism description of the stem",
            StepStatus.PAPER_ASSERTED,
            "Pontryagin-Thom construction; Arf invariant",
        ),
    )


def _stem_three() -> tuple:
    earlier: dict = {}
    return (
        computed_step(earlier, "jorder_triple", {"t": 2}, "stemcert.jorder.order_bound"),
        computed_step(
            earlier,
            "einv_lower_bound",
            {"space": "hp2", "ks": [2, 3]},
            "stemcert.einv.order_lower_bound",
        ),
        DerivationStep(
            "stunted quaternionic projective spaces P^(n+k)/P^(k-1) and "
            "P^(n+l)/P^(l-1) share a stable homotopy type iff k = l modulo the "
            "J-order B_n of the Hopf bundle over P^n; for n = 1 that J-order is "
            "the 24 computed above",
            StepStatus.PAPER_ASSERTED,
            "Feder-Gitler classification of stunted projective spaces",
        ),
        computed_step(
            earlier,
            "fg_congruence",
            {"n": 1, "nonequiv": [12, 0], "equiv": [24, 0]},
            "stemcert.jorder.feder_gitler_equivalent",
        ),
        computed_step(earlier, "order_pin", {}, "stemcert.reports (divisor bookkeeping)"),
        DerivationStep(
            "index note: the group above is the degree-3 stable stem (pi_3^S); the "
            "degree-2 stem is the separate Z2 of the stem-2 report",
            StepStatus.PAPER_ASSERTED,
            "standard stem indexing",
        ),
    )


def build_stem_report(stem: int) -> StemReport:
    """The derivation report for stem 1, 2, or 3."""
    builders = {1: _stem_one, 2: _stem_two, 3: _stem_three}
    if stem not in builders:
        raise ValueError(f"stem must be 1, 2 or 3, got {stem}")
    return StemReport(builders[stem]())
