"""Command-line interface.

Every computation in the package is reachable from a subcommand; ``--json``
switches the output to the documented machine-readable serializations.
Exit codes: 0 on success, 2 on argument or parse errors, 3 when a
verification invariant fails (a disagreement between independent methods, a
failed replay, or an ``--expect`` mismatch).

Each handler imports the layers it runs in its own body, so a run loads only
what its subcommand needs: ``--help`` loads no layer, and the exact
subcommands load none of the geometric layers.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import ResamplePole, VerificationError

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")

#: Fewest and most ``--samples`` that ``linking`` accepts: the Gauss sum
#: needs 64 segments per curve, one per sample.  A run sums two Gauss
#: integrals (the reference pair and the unlinked control) side by side in
#: two processes, each with its separation check, quadratic in the sample
#: count and independent of ``--trials``: about 7 s at the cap on a 2-vCPU
#: x86-64 machine.
_MIN_SAMPLES = 64
_MAX_SAMPLES = 4096
#: Largest ``linking --trials``: a trial is a few integer 4x4
#: determinants, about 1000 trials in 0.03 s.
_MAX_TRIALS = 1000
#: Largest ``bernoulli --n`` and ``jorder --t``: the tangent-number
#: recurrence costs O(n^2) operations on O(n log n)-bit integers, about a
#: second at this size.
_MAX_BERNOULLI_INDEX = 2000
#: Largest ``jorder --K`` and ``--N``: the gcd fold multiplies K integers of
#: about (N + t) log2(K) bits, about 2 s at both caps and ``--t 2000``.
_MAX_FOLD_K = 1024
_MAX_FOLD_N = 4096
#: Largest index in an ``adams`` or ``einv`` ``--space`` label, ``adams --k``
#: and exponent of ``--elem``: raising psi^k of a generator to the exponent e
#: costs about e * n * min(k, n) products, about 1 s on hp256 at k = 256 and
#: e = 32.
_MAX_ADAMS_INDEX = 256
_MAX_ADAMS_K = 256
_MAX_ADAMS_EXPONENT = 32
#: Most Adams indices in ``einv --primes``; each one costs an Adams matrix,
#: and each index is at most ``_MAX_ADAMS_K``.
_MAX_PRIMES = 64
#: Largest ``thom --n`` and ``--mult``: the output lists one cell per index.
_MAX_THOM_INDEX = 100_000
#: Largest ``lift --steps``: sampling and lifting take time linear in the
#: step count and hold a few samples at a time, whatever the count.
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


def _parse_bounded_space(label: str):
    """The space of a ``--space`` label, whose indices are at most
    ``_MAX_ADAMS_INDEX``; checked before any ring is built."""
    from .kring import parse_space

    space = parse_space(label)
    # The digits of a parsed label are its cell indices.
    if max(int(n) for n in re.findall(r"\d+", label)) > _MAX_ADAMS_INDEX:
        raise ValueError(f"--space index must be at most {_MAX_ADAMS_INDEX}")
    return space


def cmd_adams(args) -> int:
    from .kring import adams, element_to_json, make_ring, parse_element

    if args.k > _MAX_ADAMS_K:
        raise ValueError(f"--k must be at most {_MAX_ADAMS_K}")
    model = make_ring(_parse_bounded_space(args.space))
    elem = parse_element(model, args.elem)
    # ``elem`` is one basis monomial, named by its projective exponent.
    (mono,) = (m for m, c in zip(model.basis, elem.coeffs) if c)
    if mono > _MAX_ADAMS_EXPONENT:
        raise ValueError(f"--elem exponent must be at most {_MAX_ADAMS_EXPONENT}")
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


def _parse_primes(text: str) -> list:
    """The Adams indices of ``einv --primes``: at most ``_MAX_PRIMES``
    integers, each from 2 to ``_MAX_ADAMS_K``; checked before any ring is
    built."""
    entries = [p.strip() for p in text.split(",") if p.strip()]
    for entry in entries:
        if not re.fullmatch(r"[+-]?[0-9]+", entry):
            raise ValueError(f"--primes entries must be integers, got {entry!r}")
    if len(entries) > _MAX_PRIMES:
        raise ValueError(f"--primes length must be at most {_MAX_PRIMES}")
    primes = []
    for entry in entries:
        # Digit counts first: int() refuses more than 4300 digits.
        long = len(entry.lstrip("+-0")) > len(str(_MAX_ADAMS_K))
        if entry.startswith("-") or (not long and int(entry) < 2):
            raise ValueError("Adams indices must be at least 2")
        if long or int(entry) > _MAX_ADAMS_K:
            raise ValueError(f"--primes index must be at most {_MAX_ADAMS_K}")
        primes.append(int(entry))
    return primes


def cmd_einv(args) -> int:
    from . import einv
    from .kring import make_ring

    space = _parse_bounded_space(args.space)
    primes = _parse_primes(args.primes)
    model = make_ring(space)
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
    from . import jorder

    for flag, value, cap in (
        ("--t", args.t, _MAX_BERNOULLI_INDEX),
        ("--K", args.K, _MAX_FOLD_K),
        ("--N", args.N, _MAX_FOLD_N),
    ):
        if value is not None and value > cap:
            raise ValueError(f"{flag} must be at most {cap}")
    bound = jorder.order_bound(args.t, K=args.K, N=args.N)
    value = bound.value
    if args.expect is not None and value != args.expect:
        raise VerificationError(f"expected m({args.t}) = {args.expect}, computed {value}")
    human = (
        f"m({args.t}) = {value}  "
        f"[{', '.join(f'{m}={value}' for m in bound.methods)}]  stable=True"
    )
    _emit(args, jorder.jorder_to_json(bound), human)
    return 0


def cmd_bernoulli(args) -> int:
    from . import jorder

    if args.n > _MAX_BERNOULLI_INDEX:
        raise ValueError(f"--n must be at most {_MAX_BERNOULLI_INDEX}")
    value = jorder.bernoulli(args.n)
    payload = {"n": args.n, "value": f"{value.numerator}/{value.denominator}"}
    human = f"B_{args.n} = {value}"
    _emit(args, payload, human)
    return 0


def cmd_feder_gitler(args) -> int:
    from . import jorder

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
    from . import jorder

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


class _Forked:
    """``fn(*args)``, which returns a float, run in a forked worker process
    while this one goes on; :meth:`result` waits for its value.

    The worker sends the value exactly (``float.hex``) through a pipe, or the
    class and message of a ``ValueError``, ``ResamplePole`` or
    ``VerificationError``, which :meth:`result` raises again as the same
    class with the same message.  A worker that ends without a result (any
    other exception, a signal) makes :meth:`result` raise
    ``VerificationError``.  The worker always leaves through ``os._exit``:
    it never returns into its caller's stack, runs no ``atexit`` hook and
    flushes no inherited stdio buffer.  Leaving the ``with`` block before
    :meth:`result` kills and reaps the worker, so no process outlives it.
    Where ``os.fork`` is missing or fails, :meth:`result` calls ``fn`` in
    this process.  The CLI starts no thread, so forking it is safe.
    """

    _ERRORS = (ValueError, ResamplePole, VerificationError)

    def __init__(self, fn, *args):
        self.pid = None
        self._call = lambda: fn(*args)
        if not hasattr(os, "fork"):
            return
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    text = f"float\n{self._call().hex()}"
                except self._ERRORS as exc:
                    kind = next(c for c in self._ERRORS if isinstance(exc, c))
                    text = f"{kind.__name__}\n{exc}"
                with open(write_fd, "w", encoding="utf-8") as pipe:
                    pipe.write(text)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        # Only the worker keeps the arguments.
        self._call = None
        self.pid, self._pipe = pid, open(read_fd, encoding="utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            import signal

            self._pipe.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def result(self) -> float:
        if self.pid is None:
            return self._call()
        with self._pipe:
            kind, _, text = self._pipe.read().partition("\n")
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        errors = {error.__name__: error for error in self._ERRORS}
        if code == 0 and kind == "float":
            return float.fromhex(text)
        if code == 0 and kind in errors:
            raise errors[kind](text)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise VerificationError(f"a forked worker ended with no result ({how})")


def cmd_linking(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.samples < _MIN_SAMPLES:
        raise ValueError(f"--samples must be at least {_MIN_SAMPLES}")
    if args.samples > _MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {_MAX_SAMPLES}")
    if args.trials > _MAX_TRIALS:
        raise ValueError(f"--trials must be at most {_MAX_TRIALS}")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    import random

    from . import hopf

    rng = random.Random(args.seed)
    pairs = [hopf.draw_fiber_pair(rng) for _ in range(args.trials)]
    dets = [hopf.fiber_determinant(q, r) for q, r in pairs]
    links = [hopf.linking_number(det) for det in dets]
    # The first pair ties the sign convention to the classical integral, and
    # its mirror-fibration determinant is the negative control.  The
    # unlinked control's Gauss sum runs in a forked worker meanwhile.
    q, r = pairs[0]
    with _Forked(hopf.gauss_linking, *hopf.unlinked_control(samples=args.samples)) as worker:
        reference = hopf.fiber_linking(
            hopf.base_point(q), hopf.base_point(r), samples=args.samples, rng=rng
        )
        mirror = hopf.mirror_determinant(q, r)
        control = worker.result()
    if not abs(reference - links[0]) <= 0.02:
        raise VerificationError(
            f"linking certificate failed: the reference Gauss sum reads "
            f"{reference:+.4f}, the determinant {dets[0]} gives {links[0]:+d}"
        )
    if not mirror < 0:
        raise VerificationError(
            f"linking certificate failed: mirror determinant {mirror} is not negative"
        )
    if not abs(control) <= 0.02:
        raise VerificationError(
            f"linking certificate failed: unlinked control reads {control:.4f}"
        )
    payload = {
        "seed": args.seed,
        "samples": args.samples,
        "trials": links,
        "determinants": dets,
        # The integer quaternions q, r behind each determinant.
        "pairs": [[list(q), list(r)] for q, r in pairs],
        # Every trial is an exact +1 or -1.
        "max_deviation": 0.0,
        "reference": round(reference, 6),
        "mirror_determinant": mirror,
        # Plus 0.0 turns a rounded -0.0 into 0.0.
        "unlinked_control": round(control, 6) + 0.0,
    }
    lines = [
        f"  trial {i + 1:2d}: det[q, iq, r, ir] = {det:5d}, Lk = {link:+d}"
        for i, (det, link) in enumerate(zip(dets, links))
    ]
    human = (
        "\n".join(lines)
        + f"\nreference (trial 1, {args.samples} samples): Gauss sum Lk = {reference:+.5f}"
        + f"\nmirror (trial 1): det[q, qi, r, ri] = {mirror} < 0"
        + f"\nunlinked control: {control:+.2e}"
        + f"\nevery pair of distinct fibers links once ({args.trials} integer certificates)"
    )
    _emit(args, payload, human)
    return 0


def cmd_lift(args) -> int:
    if args.steps > _MAX_STEPS:
        raise ValueError(f"--steps must be at most {_MAX_STEPS}")
    if args.loop != "homotopy" and (args.slice is not None or args.variant is not None):
        raise ValueError("--slice and --variant apply only to --loop homotopy")
    from . import so3

    if args.loop == "homotopy":
        mats = so3.homotopy_slice_matrices(
            args.variant or "alpha",
            1.0 if args.slice is None else args.slice,
            args.steps,
            args.turns,
        )
    else:
        mats = so3.loop_matrices(args.loop, args.steps, args.turns)
    sign = so3.lift_loop(mats)
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


def _render_report(report) -> str:
    from .derivation import StepStatus

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
    from .derivation import report_from_json, report_to_json
    from .reports import build_stem_report

    payload = report_to_json(build_stem_report(args.stem))
    # Replay what the JSON reads back as, so the outputs must survive it.
    report = report_from_json(json.loads(json.dumps(payload)))
    report.replay()  # raises VerificationError on any non-reproducing step
    _emit(args, payload, _render_report(report))
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
        "--seed",
        type=int,
        default=0,
        help="non-negative seed for randomized geometric checks",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=512,
        help=(
            "sample count per curve for geometric checks "
            f"(linking accepts {_MIN_SAMPLES} to {_MAX_SAMPLES})"
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("adams", help="apply an Adams operation to a ring element")
    p.add_argument(
        "--space",
        required=True,
        help=f"e.g. cp2, hp2, s2, s2-smash-cp2 (indices at most {_MAX_ADAMS_INDEX})",
    )
    p.add_argument("--k", type=int, required=True, help=f"at most {_MAX_ADAMS_K}")
    p.add_argument(
        "--elem",
        required=True,
        help=(
            "basis monomial, e.g. mu or mu^2*nu "
            f"(exponents at most {_MAX_ADAMS_EXPONENT})"
        ),
    )
    p.set_defaults(func=cmd_adams)

    p = sub.add_parser("einv", help="splitting verdict and e-invariant")
    p.add_argument(
        "--space",
        required=True,
        help=(
            "a two-cell space, e.g. hp2 or s2-smash-cp2 "
            f"(indices at most {_MAX_ADAMS_INDEX})"
        ),
    )
    p.add_argument(
        "--primes",
        default="2,3,5",
        help=(
            f"comma-separated Adams indices, each from 2 to {_MAX_ADAMS_K} "
            f"(at most {_MAX_PRIMES} of them)"
        ),
    )
    p.add_argument(
        "--expect-verdict",
        # The values of ``einv.Verdict``, spelled out so that building the
        # parser imports no layer.
        choices=("Splits", "DoesNotSplit", "Inconclusive"),
        help="fail (exit 3) unless the verdict matches",
    )
    p.set_defaults(func=cmd_einv)

    p = sub.add_parser("jorder", help="J-order bound m(t), three ways")
    p.add_argument(
        "--t", type=int, required=True, help=f"at most {_MAX_BERNOULLI_INDEX}"
    )
    p.add_argument(
        "--K", type=int, default=200, help=f"gcd fold over k = 2..K (at most {_MAX_FOLD_K})"
    )
    p.add_argument(
        "--N",
        type=int,
        default=None,
        help=f"exponent of k in the fold (default t + 10, at most {_MAX_FOLD_N})",
    )
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
        "--Bn",
        type=int,
        default=None,
        help="J-order B_n (for n >= 2; n = 1 takes only the computed B_1)",
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
    p.add_argument(
        "--trials",
        type=int,
        default=20,
        help=f"fiber pairs to certify (at most {_MAX_TRIALS})",
    )
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
        "--slice",
        type=float,
        help="homotopy slice parameter in [0, 1] (default 1; --loop homotopy only)",
    )
    p.add_argument(
        "--variant",
        choices=["alpha", "beta"],
        help="homotopy target loop (default alpha; --loop homotopy only)",
    )
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
