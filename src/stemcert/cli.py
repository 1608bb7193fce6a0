"""Command-line interface.

Every computation in the package is reachable from a subcommand; ``--json``
switches the output to the documented machine-readable serializations.
Exit codes: 0 on success, 2 on argument or parse errors, 3 when a
verification invariant fails (a disagreement between independent methods, a
failed replay, or an ``--expect`` mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import einv, jorder
from .derivation import StemReport, StepStatus, report_to_json
from .errors import ResamplePole, VerificationError
from .kring import adams, element_to_json, make_ring, parse_element, parse_space
from .reports import build_stem_report

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")

#: Largest ``--samples`` that ``linking`` accepts: the Gauss sum is
#: quadratic in the sample count.
_MAX_SAMPLES = 4096
#: Largest ``bernoulli --n`` and ``jorder --t``: the tangent-number
#: recurrence costs O(n^2) operations on O(n log n)-bit integers, about a
#: second at this size.
_MAX_BERNOULLI_INDEX = 2000
#: Largest ``thom --n`` and ``--mult``: the output lists one cell per index.
_MAX_THOM_INDEX = 100_000
#: Largest ``lift --steps``: sampling and lifting are linear in the step
#: count and keep every sample in memory, about 1.5 s and 70 MB at this size.
_MAX_STEPS = 65_536

_GROUP_DISPLAY = {"Z2": "Z₂", "Z24": "Z₂₄"}
_GENERATOR_DISPLAY = {"eta": "η", "eta^2": "η²", "nu": "ν"}


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------


def cmd_adams(args) -> int:
    model = make_ring(parse_space(args.space))
    elem = parse_element(model, args.elem)
    if args.k < 1:
        raise ValueError("the Adams index k must be at least 1")
    image = adams(args.k, elem)
    sup = str(args.k).translate(_SUP)
    _emit(
        args,
        element_to_json(image),
        f"ψ{sup}({elem}) = {image}",
    )
    return 0


def cmd_einv(args) -> int:
    model = make_ring(parse_space(args.space))
    primes = [int(p) for p in args.primes.split(",") if p.strip()]
    cert = einv.splitting_verdict(model, primes)
    if args.expect_verdict and cert.verdict.value != args.expect_verdict:
        raise VerificationError(
            f"expected verdict {args.expect_verdict}, computed {cert.verdict.value}"
        )
    lines = [
        f"  k={k}: e = {einv.e_invariant(model, k)}" for k in primes
    ]
    human = (
        f"{args.space}: {cert.verdict.value} "
        f"(witness k={cert.k}, c={cert.c}, modulus={cert.modulus}, e={cert.e})\n"
        + "\n".join(lines)
    )
    _emit(args, einv.certificate_to_json(cert), human)
    return 0


def cmd_jorder(args) -> int:
    if args.t > _MAX_BERNOULLI_INDEX:
        raise ValueError(f"--t must be at most {_MAX_BERNOULLI_INDEX}")
    folded = jorder.stabilized_gcd(args.t, K=args.K, N=args.N)
    closed = jorder.m_closed_form(args.t)
    methods = ["gcd", "closed"]
    values = {"gcd": folded.value, "closed": closed}
    if args.t % 2 == 0:
        values["bernoulli"] = jorder.m_via_bernoulli(args.t // 2)
        methods.append("bernoulli")
    distinct = set(values.values())
    if len(distinct) != 1:
        raise VerificationError(f"order-bound methods disagree: {values}")
    if not folded.stable:
        raise VerificationError("gcd fold did not stabilize; increase K")
    value = folded.value
    if args.expect is not None and value != args.expect:
        raise VerificationError(f"expected m({args.t}) = {args.expect}, computed {value}")
    payload = {
        "t": args.t,
        "m": str(value),
        "methods": methods,
        "stable": folded.stable,
    }
    human = (
        f"m({args.t}) = {value}  "
        f"[{', '.join(f'{m}={values[m]}' for m in methods)}]  stable={folded.stable}"
    )
    _emit(args, payload, human)
    return 0


def cmd_bernoulli(args) -> int:
    if args.n > _MAX_BERNOULLI_INDEX:
        raise ValueError(f"--n must be at most {_MAX_BERNOULLI_INDEX}")
    value = jorder.bernoulli(args.n)
    payload = {"n": args.n, "value": f"{value.numerator}/{value.denominator}"}
    human = f"B_{args.n} = {value}"
    _emit(args, payload, human)
    return 0


def cmd_feder_gitler(args) -> int:
    equivalent = jorder.feder_gitler_equivalent(args.n, args.k, args.l, args.Bn)
    # Without --Bn the decision above used the computed B_1 (n = 1 only).
    bn = args.Bn if args.Bn is not None else jorder._jorder_b1()
    payload = {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "Bn": str(bn),
        "equivalent": equivalent,
    }
    rel = "≡" if equivalent else "≢"
    verdict = "stably equivalent" if equivalent else "NOT stably equivalent"
    human = (
        f"k={args.k} {rel} l={args.l} (mod {bn}): "
        f"the stunted spaces are {verdict}"
    )
    _emit(args, payload, human)
    return 0


def cmd_thom(args) -> int:
    for flag, value in (("--n", args.n), ("--mult", args.mult)):
        if value > _MAX_THOM_INDEX:
            raise ValueError(f"{flag} must be at most {_MAX_THOM_INDEX}")
    space = jorder.thom_space(args.family, args.n, args.mult)
    if args.suspend:
        space = space.suspended(args.suspend)
    cells = list(space.cell_dimensions())
    payload = {
        "family": space.family,
        "top": space.top,
        "bottom": space.bottom,
        "suspension": space.suspension,
        "cells": cells,
        "label": space.label(),
    }
    human = f"T({args.mult}·H over P^{args.n}) = {space.label()}, cells {cells}"
    _emit(args, payload, human)
    return 0


def cmd_linking(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.samples > _MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {_MAX_SAMPLES}")
    import numpy as np

    from . import hopf

    rng = np.random.default_rng(args.seed)
    links = []
    for _ in range(args.trials):
        p1 = hopf.random_sphere_point(rng)
        p2 = hopf.random_sphere_point(rng)
        while np.linalg.norm(p1 - p2) < 0.1:
            p2 = hopf.random_sphere_point(rng)
        links.append(hopf.fiber_linking(p1, p2, samples=args.samples, rng=rng))
    control = hopf.gauss_linking(*hopf.unlinked_control(samples=args.samples))
    worst = max(abs(abs(v) - 1.0) for v in links)
    if worst > 0.02 or abs(control) > 0.02:
        raise VerificationError(
            f"linking certificate failed: worst fiber deviation {worst:.4f}, "
            f"control {control:.4f}"
        )
    payload = {
        "seed": args.seed,
        "samples": args.samples,
        "trials": [round(v, 6) for v in links],
        "max_deviation": round(worst, 6),
        "unlinked_control": round(control, 6),
    }
    lines = [
        f"  trial {i + 1:2d}: Lk = {v:+.5f}" for i, v in enumerate(links)
    ]
    human = (
        "\n".join(lines)
        + f"\nunlinked control: {control:+.2e}"
        + f"\nmax | |Lk| - 1 | = {worst:.2e} over {args.trials} trials"
        + " (every pair of distinct fibers links once)"
    )
    _emit(args, payload, human)
    return 0


def cmd_lift(args) -> int:
    if args.steps > _MAX_STEPS:
        raise ValueError(f"--steps must be at most {_MAX_STEPS}")
    from . import so3

    if args.loop == "homotopy":
        mats = so3.homotopy_slice_matrices(
            args.variant, args.slice, args.steps, args.turns
        )
    else:
        mats = so3.loop_matrices(args.loop, args.steps, args.turns)
    _, sign = so3.lift_loop(mats)
    if args.expect_monodromy is not None and sign != args.expect_monodromy:
        raise VerificationError(
            f"expected monodromy {args.expect_monodromy}, computed {sign}"
        )
    payload = {
        "loop": args.loop,
        "steps": args.steps,
        "turns": args.turns,
        "monodromy": sign,
    }
    meaning = (
        "essential: generates π₁(SO(3)) = Z₂"
        if sign == -1
        else "nullhomotopic in SO(3)"
    )
    human = f"loop {args.loop} (turns={args.turns}): monodromy = {sign:+d} ({meaning})"
    _emit(args, payload, human)
    return 0


def _render_report(report: StemReport) -> str:
    stem_sub = str(report.stem).translate(_SUB)
    group = _GROUP_DISPLAY[report.group]
    gen = _GENERATOR_DISPLAY[report.generator]
    lines = [f"Stem {report.stem}: π{stem_sub}^S = {group}, generator {gen}"]
    for i, step in enumerate(report.steps, start=1):
        tag = "Computed     " if step.status is StepStatus.COMPUTED else "PaperAsserted"
        lines.append(f"  {i}. [{tag}] {step.claim}")
        lines.append(f"       └ {step.citation}")
    computed = len(report.computed_steps())
    lines.append(
        f"replayed {computed} computed step{'s' if computed != 1 else ''}; "
        f"{len(report.asserted_steps())} step(s) rest on cited literature"
    )
    return "\n".join(lines)


def cmd_report(args) -> int:
    report = build_stem_report(args.stem)
    report.replay()  # raises VerificationError on any non-reproducing step
    _emit(args, report_to_json(report), _render_report(report))
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemcert",
        allow_abbrev=False,
        description=(
            "Exact-arithmetic certificates for the first three stable "
            "homotopy stems."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized geometric checks"
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=512,
        help=(
            "sample count per curve for geometric checks "
            f"(linking accepts at most {_MAX_SAMPLES})"
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("adams", help="apply an Adams operation to a ring element")
    p.add_argument("--space", required=True, help="e.g. cp2, hp2, s2, s2-smash-cp2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--elem", required=True, help="basis monomial, e.g. mu or mu^2*nu")
    p.set_defaults(func=cmd_adams)

    p = sub.add_parser("einv", help="splitting verdict and e-invariant")
    p.add_argument("--space", required=True)
    p.add_argument("--primes", default="2,3,5")
    p.add_argument(
        "--expect-verdict",
        choices=[v.value for v in einv.Verdict],
        help="fail (exit 3) unless the verdict matches",
    )
    p.set_defaults(func=cmd_einv)

    p = sub.add_parser("jorder", help="J-order bound m(t), three ways")
    p.add_argument(
        "--t", type=int, required=True, help=f"at most {_MAX_BERNOULLI_INDEX}"
    )
    p.add_argument("--K", type=int, default=200)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--expect", type=int, help="fail (exit 3) unless m(t) matches")
    p.set_defaults(func=cmd_jorder)

    p = sub.add_parser("bernoulli", help="exact Bernoulli number B_n (n even)")
    p.add_argument(
        "--n", type=int, required=True, help=f"at most {_MAX_BERNOULLI_INDEX}"
    )
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser(
        "feder-gitler", help="stable equivalence of stunted projective spaces"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument(
        "--Bn", type=int, default=None, help="J-order B_n (default for n=1: the computed B_1)"
    )
    p.set_defaults(func=cmd_feder_gitler)

    p = sub.add_parser("thom", help="Thom space as a stunted projective space")
    p.add_argument(
        "--family", choices=["complex", "quaternionic"], required=True
    )
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"base projective space index (at most {_MAX_THOM_INDEX})",
    )
    p.add_argument(
        "--mult",
        type=int,
        required=True,
        help=f"number of bundle copies (at most {_MAX_THOM_INDEX})",
    )
    p.add_argument("--suspend", type=int, default=0)
    p.set_defaults(func=cmd_thom)

    p = sub.add_parser("linking", help="linking numbers of random Hopf fibers")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_linking)

    p = sub.add_parser("lift", help="monodromy of a rotation loop's lift")
    p.add_argument(
        "--loop",
        default="gamma",
        choices=[
            "gamma",
            "alpha",
            "beta",
            "alpha-then-beta",
            "ball-gamma",
            "identity",
            "homotopy",
        ],
    )
    p.add_argument(
        "--steps",
        type=int,
        default=1024,
        help=f"sample intervals of the whole loop (256 to {_MAX_STEPS})",
    )
    p.add_argument(
        "--turns",
        type=int,
        default=1,
        help="times the loop is run (at most --steps)",
    )
    p.add_argument(
        "--slice", type=float, default=1.0, help="homotopy slice parameter in [0, 1]"
    )
    p.add_argument("--variant", choices=["alpha", "beta"], default="alpha")
    p.add_argument("--expect-monodromy", type=int, choices=[1, -1])
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("report", help="derivation report for a stem")
    p.add_argument("--stem", type=int, required=True, choices=[1, 2, 3])
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, ResamplePole) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
