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

import json
import re
import sys
import types

from .errors import VerificationError

#: Fewest and most ``--samples`` that ``linking`` accepts.  No certificate
#: reads the flag: every count runs on exact round circles.  It stays
#: accepted within these bounds, and echoed as ``samples`` in ``--json``,
#: only because the ``linking`` rows of ``perfbench/run.py`` pass it and
#: their oracle reads it back.
_MIN_SAMPLES = 64
_MAX_SAMPLES = 4096
#: Largest ``linking --trials``: a trial is a few integer 4x4
#: determinants, about 1000 trials in 0.03 s.
_MAX_TRIALS = 1000
#: Largest ``bernoulli --n`` and ``jorder --t``: the tangent-number
#: recurrence costs O(n^2) operations on O(n log n)-bit integers, about
#: 0.55 s at this size in-process on a 2-vCPU x86-64 VM.
_MAX_BERNOULLI_INDEX = 2000
#: Largest ``jorder --K`` and ``--N``: past its first term the gcd fold
#: reduces each term modulo the running gcd, K modular powers of exponent
#: at most N, about 5 ms at both caps and ``--t 2000``.
_MAX_FOLD_K = 1024
_MAX_FOLD_N = 4096
#: Largest index in an ``adams`` or ``einv`` ``--space`` label, ``adams --k``
#: and exponent of ``--elem``: psi^k of the exponent e sums e images
#: psi^(kj) of the generator, about e * n coefficients each one ratio step
#: from the last, 7 ms on hp256 at k = 256 and e = 32 in-process on a
#: 2-vCPU x86-64 VM.
_MAX_ADAMS_INDEX = 256
_MAX_ADAMS_K = 256
_MAX_ADAMS_EXPONENT = 32
#: Most Adams indices in ``einv --primes``; each one costs an Adams matrix,
#: and each index is at most ``_MAX_ADAMS_K``.
_MAX_PRIMES = 64
#: Largest ``thom --n``, ``--mult`` and ``--suspend``: the output lists one
#: cell per index, each of a dimension that grows with all three.
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


def _check_digit_counts(runs, flag: str, cap: int) -> None:
    """Reject a run of digits with more significant digits than ``cap``
    before anything reads it: int() refuses more than 4300 digits."""
    if any(len(run.lstrip("0")) > len(str(cap)) for run in runs):
        raise ValueError(f"{flag} must be at most {cap}")


def _parse_bounded_space(label: str):
    """The space of a ``--space`` label, whose indices are at most
    ``_MAX_ADAMS_INDEX``; checked before any ring is built."""
    from .kring import parse_space

    _check_digit_counts(re.findall(r"\d+", label), "--space index", _MAX_ADAMS_INDEX)
    space = parse_space(label)
    # The digits of a parsed label are its cell indices.
    if max(int(n) for n in re.findall(r"\d+", space.label)) > _MAX_ADAMS_INDEX:
        raise ValueError(f"--space index must be at most {_MAX_ADAMS_INDEX}")
    return space


def cmd_adams(args) -> int:
    from .kring import _SUPERSCRIPTS, adams, element_to_json, make_ring, parse_element

    if args.k > _MAX_ADAMS_K:
        raise ValueError(f"--k must be at most {_MAX_ADAMS_K}")
    model = make_ring(_parse_bounded_space(args.space))
    _check_digit_counts(re.findall(r"\^(\d+)", args.elem), "--elem exponent", _MAX_ADAMS_EXPONENT)
    elem = parse_element(model, args.elem)
    # ``elem`` is one basis monomial, named by its projective exponent.
    (mono,) = (m for m, c in zip(model.basis, elem.coeffs) if c)
    if mono > _MAX_ADAMS_EXPONENT:
        raise ValueError(f"--elem exponent must be at most {_MAX_ADAMS_EXPONENT}")
    if args.k < 1:
        raise ValueError("the Adams index k must be at least 1")
    image = adams(args.k, elem)
    sup = str(args.k).translate(_SUPERSCRIPTS)
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
        digits = entry.lstrip("+-0") or "0"
        long = len(digits) > len(str(_MAX_ADAMS_K))
        if entry.startswith("-") or (not long and int(digits) < 2):
            raise ValueError("Adams indices must be at least 2")
        if long or int(digits) > _MAX_ADAMS_K:
            raise ValueError(f"--primes index must be at most {_MAX_ADAMS_K}")
        primes.append(int(digits))
    return primes


def cmd_einv(args) -> int:
    from fractions import Fraction

    from . import einv
    from .kring import make_ring

    space = _parse_bounded_space(args.space)
    primes = _parse_primes(args.primes)
    model = make_ring(space)
    cells = [einv.two_cell_from(model, k) for k in primes]
    cert = einv.verdict_from_cells(cells)
    if args.expect_verdict and cert["verdict"] != args.expect_verdict:
        raise VerificationError(
            f"expected verdict {args.expect_verdict}, computed {cert['verdict']}"
        )
    lines = [f"  k={cell.k}: e = {einv.e_of_cells(cell)}" for cell in cells]
    human = (
        f"{space.label}: {cert['verdict']} "
        f"(witness k={cert['k']}, c={cert['c']}, modulus={cert['modulus']}, "
        f"e={Fraction(cert['e'])})\n"
        + "\n".join(lines)
    )
    _emit(args, cert, human)
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
    value = bound["m"]
    if args.expect is not None and value != str(args.expect):
        raise VerificationError(f"expected m({args.t}) = {args.expect}, computed {value}")
    human = (
        f"m({args.t}) = {value}  "
        f"[{', '.join(f'{m}={value}' for m in bound['methods'])}]  stable=True"
    )
    _emit(args, bound, human)
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

    if args.n > 1:
        raise ValueError("--n must be 1: B_n is computed only for n = 1")
    equivalent = jorder.feder_gitler_equivalent(args.n, args.k, args.l)
    bn = jorder._jorder_b1()
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

    for flag, value in (("--n", args.n), ("--mult", args.mult), ("--suspend", args.suspend)):
        if value > _MAX_THOM_INDEX:
            raise ValueError(f"{flag} must be at most {_MAX_THOM_INDEX}")
    space = jorder.thom_space(args.family, args.n, args.mult, suspension=args.suspend)
    human = f"T({args.mult}·H over P^{args.n}) = {space['label']}, cells {space['cells']}"
    _emit(args, space, human)
    return 0


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
    # The first pair ties the sign convention to an independent integer, the
    # disc crossings of its fibers' round images, and the same count of its
    # mirror-fibration circles, like their determinant, is the negative
    # control of that sign.
    q, r = pairs[0]
    reference = hopf.fiber_circle_linking(q, r)
    if reference != links[0]:
        raise VerificationError(
            f"linking certificate failed: the reference crossing count is "
            f"{reference:+d}, the determinant {dets[0]} gives {links[0]:+d}"
        )
    mirror = hopf.mirror_determinant(q, r)
    if not mirror < 0:
        raise VerificationError(
            f"linking certificate failed: mirror determinant {mirror} is not negative"
        )
    mirror_link = hopf.fiber_circle_linking(q, r, mirror=True)
    if mirror_link != -1:
        raise VerificationError(
            f"linking certificate failed: the mirror crossing count is {mirror_link:+d}, not -1"
        )
    try:
        control = hopf.circle_linking(*hopf.UNLINKED_CONTROL)
    except ValueError as exc:
        raise VerificationError(f"linking certificate failed: unlinked control: {exc}") from None
    if control != 0:
        raise VerificationError(
            f"linking certificate failed: unlinked control reads {control:+d}"
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
        "reference": reference,
        "mirror_determinant": mirror,
        "unlinked_control": control,
    }
    lines = [
        f"  trial {i + 1:2d}: det[q, iq, r, ir] = {det:5d}, Lk = {link:+d}"
        for i, (det, link) in enumerate(zip(dets, links))
    ]
    human = (
        "\n".join(lines)
        + f"\nreference (trial 1): disc crossings Lk = {reference:+d}"
        + f"\nmirror (trial 1): det[q, qi, r, ri] = {mirror} < 0, disc crossings Lk = {mirror_link:+d}"
        + f"\nunlinked control: disc crossings Lk = {control}"
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


def _render_report(report: dict) -> str:
    from .derivation import COMPUTED
    from .kring import _SUBSCRIPTS

    stem_sub = str(report["stem"]).translate(_SUBSCRIPTS)
    group = _GROUP_DISPLAY[report["group"]]
    gen = _GENERATOR_DISPLAY[report["generator"]]
    lines = [f"Stem {report['stem']}: π{stem_sub}^S = {group}, generator {gen}"]
    for i, step in enumerate(report["steps"], start=1):
        lines.append(f"  {i}. [{step['status']:13}] {step['claim']}")
        lines.append(f"       └ {step['citation']}")
    computed = sum(step["status"] == COMPUTED for step in report["steps"])
    lines.append(
        f"replayed {computed} computed step{'s' if computed != 1 else ''}; "
        f"{len(report['steps']) - computed} step(s) rest on cited literature"
    )
    return "\n".join(lines)


def cmd_report(args) -> int:
    from .derivation import replay
    from .reports import build_stem_report

    # Replay what the JSON reads back as, so the outputs must survive it.
    report = json.loads(json.dumps(build_stem_report(args.stem)))
    replay(report)  # raises VerificationError on any non-reproducing step
    _emit(args, report, _render_report(report))
    return 0

# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------

#: Per subcommand, and under None for the options before it, the help line
#: and the options.  An option is ``(flag, type, default, required,
#: choices, help)``; type ``bool`` marks a switch that takes no value, and
#: every level also takes ``-h``/``--help``.  ``main`` runs subcommand
#: ``name`` through ``cmd_<name>``, looked up when it dispatches.
_TABLE = {
    None: ("Exact-arithmetic certificates for the first three stable homotopy stems.", (
        ("--json", bool, False, False, None, "emit machine-readable JSON"),
        ("--seed", int, 0, False, None, "non-negative seed for randomized geometric checks"),
        ("--samples", int, 512, False, None, f"changes no certificate; kept for the benchmark's linking rows ({_MIN_SAMPLES} to {_MAX_SAMPLES})"),
    )),
    "adams": ("apply an Adams operation to a ring element", (
        ("--space", str, None, True, None, f"e.g. cp2, hp2, s2-smash-cp2 (indices <= {_MAX_ADAMS_INDEX})"),
        ("--k", int, None, True, None, f"at most {_MAX_ADAMS_K}"),
        ("--elem", str, None, True, None, f"monomial, e.g. mu^2*nu (exponents <= {_MAX_ADAMS_EXPONENT})"),
    )),
    "einv": ("splitting verdict and e-invariant", (
        ("--space", str, None, True, None, f"two-cell space, e.g. hp2 (indices <= {_MAX_ADAMS_INDEX})"),
        ("--primes", str, "2,3,5", False, None, f"up to {_MAX_PRIMES} Adams indices in 2..{_MAX_ADAMS_K}"),
        # The names in ``einv.VERDICTS``, spelled out so that reading the
        # command line imports no layer.
        ("--expect-verdict", str, None, False, ("Splits", "DoesNotSplit", "Inconclusive"),
         "fail (exit 3) unless the verdict matches"),
    )),
    "jorder": ("J-order bound m(t), three ways", (
        ("--t", int, None, True, None, f"at most {_MAX_BERNOULLI_INDEX}"),
        ("--K", int, 200, False, None, f"gcd fold over k = 2..K (at most {_MAX_FOLD_K})"),
        ("--N", int, None, False, None, f"exponent in the fold (default t + 10, at most {_MAX_FOLD_N})"),
        ("--expect", int, None, False, None, "fail (exit 3) unless m(t) matches"),
    )),
    "bernoulli": ("exact Bernoulli number B_n (n even)", (
        ("--n", int, None, True, None, f"at most {_MAX_BERNOULLI_INDEX}"),
    )),
    "feder-gitler": ("stable equivalence of stunted projective spaces", (
        ("--n", int, None, True, None, "must be 1 (B_n is computed only for n = 1)"),
        ("--k", int, None, True, None, None),
        ("--l", int, None, True, None, None),
    )),
    "thom": ("Thom space as a stunted projective space", (
        ("--family", str, None, True, ("complex", "quaternionic"), None),
        ("--n", int, None, True, None, f"base projective space index (at most {_MAX_THOM_INDEX})"),
        ("--mult", int, None, True, None, f"number of bundle copies (at most {_MAX_THOM_INDEX})"),
        ("--suspend", int, 0, False, None, f"extra suspensions (at most {_MAX_THOM_INDEX})"),
    )),
    "linking": ("linking numbers of random Hopf fibers", (
        ("--trials", int, 20, False, None, f"fiber pairs to certify (at most {_MAX_TRIALS})"),
    )),
    "lift": ("monodromy of a rotation loop's lift", (
        ("--loop", str, "gamma", False,
         ("gamma", "alpha", "beta", "alpha-then-beta", "ball-gamma", "identity", "homotopy"), None),
        ("--steps", int, 1024, False, None, f"sample intervals of the whole loop (256 to {_MAX_STEPS})"),
        ("--turns", int, 1, False, None, "times the loop is run (at most --steps)"),
        ("--slice", float, None, False, None, "homotopy slice in [0, 1] (default 1; homotopy only)"),
        ("--variant", str, None, False, ("alpha", "beta"), "target loop (default alpha; homotopy only)"),
        ("--expect-monodromy", int, None, False, (1, -1), None),
    )),
    "report": ("derivation report for a stem", (("--stem", int, None, True, (1, 2, 3), None),)),
}
_HELP_FLAGS = ("-h", "--help")
#: A token that starts with "-" but names no option is still a value when
#: it looks like a negative number (argparse's pattern) or holds a space.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Stop(Exception):
    """Reading the command line stops, in the options of the command in
    ``args[0]`` (None: the global ones): at an error, whose message is
    ``args[1]``, or for ``-h``/``--help``, with no message."""


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _classify(token: str, options: dict, command):
    """How argparse reads ``token`` against ``options``: None for a value,
    else ``(flag, explicit value or None)``, the flag None for an unknown
    option.  A subcommand's long flags abbreviate to a unique prefix."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    head, sep, explicit = token.partition("=")
    if sep and head in options:
        return head, explicit
    if token[1] == "-":
        found = [f for f in options if f.startswith(head)] if command else []
        explicit = explicit if sep else None
    else:
        # A one-letter flag takes the rest of its token as its value.
        found, explicit = [f for f in options if f == token[:2]], token[2:]
    if len(found) > 1:
        raise _Stop(command, f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], explicit
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _read(tokens: list, command, values: dict) -> list:
    """Read the options of ``command`` (None: the global ones) from
    ``tokens`` into ``values``, as argparse does, and return the tokens
    left unrecognized.  At the top level the first value names the
    subcommand, which reads every token after it."""
    specs = _TABLE[command][1]
    options = dict.fromkeys(_HELP_FLAGS) | {spec[0]: spec for spec in specs}
    # Every token is read before any option acts, so an ambiguous
    # abbreviation fails even after -h.  "--" is no value, and every token
    # after it is one.
    kinds = []
    for token in tokens:
        if token == "--":
            kinds += ["--"] + [None] * (len(tokens) - len(kinds) - 1)
            break
        kinds.append(_classify(token, options, command))
    values.update((_dest(spec[0]), spec[2]) for spec in specs)
    seen, extras, i = set(), [], 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind is None or kind == "--":
            if command is not None:
                extras.append(token)
                continue
            if token not in _TABLE:
                choices = ", ".join(repr(name) for name in _TABLE if name)
                raise _Stop(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
            values["command"] = token
            return extras + _read(tokens[i:], token, values)
        flag, explicit = kind
        if flag is None:
            extras.append(token)
            continue
        spec = options[flag]
        if spec is None or spec[1] is bool:
            # Only "-hh..." repeats a one-letter switch inside its token.
            if explicit is not None and not (flag == "-h" and token.strip("h") == "-"):
                raise _Stop(command, f"argument {flag}: ignored explicit argument in {token!r}")
            if spec is None:
                raise _Stop(command)
            values[_dest(flag)] = True
            continue
        if explicit is None:
            if i == len(tokens) or kinds[i] is not None:
                raise _Stop(command, f"argument {flag}: expected one argument")
            explicit, i = tokens[i], i + 1
        convert, choices = spec[1], spec[4]
        try:
            value = convert(explicit)
        except ValueError:
            raise _Stop(command, f"argument {flag}: invalid {convert.__name__} value: {explicit!r}") from None
        if choices and value not in choices:
            allowed = ", ".join(map(repr, choices))
            raise _Stop(command, f"argument {flag}: invalid choice: {value!r} (choose from {allowed})")
        values[_dest(flag)] = value
        seen.add(flag)
    missing = [spec[0] for spec in specs if spec[3] and spec[0] not in seen]
    if missing:
        raise _Stop(command, f"the following arguments are required: {', '.join(missing)}")
    return extras


def _shown(spec: tuple) -> str:
    """An option as usage and help show it, with its value's placeholder."""
    if spec[1] is bool:
        return spec[0]
    return f"{spec[0]} " + ("{%s}" % ",".join(map(str, spec[4])) if spec[4] else _dest(spec[0]).upper())


def _usage(command) -> str:
    shown = [_shown(spec) if spec[3] else f"[{_shown(spec)}]" for spec in _TABLE[command][1]]
    prog = f"stemcert {command}" if command else "stemcert"
    return " ".join(["usage:", prog, "[-h]", *shown] + ([] if command else ["command ..."]))


def _help(command) -> str:
    """The help page that ``-h`` prints for ``command`` (None: the top)."""
    options = [("-h, --help", "show this help message and exit")]
    options += [(_shown(spec), spec[5]) for spec in _TABLE[command][1]]
    commands = [(name, info[0]) for name, info in _TABLE.items() if name]
    tables = {"options": options} if command else {"commands": commands, "options": options}
    sections = [_usage(command), _TABLE[command][0]]
    for title, rows in tables.items():
        width = min(max(len(left) for left, _ in rows), 24)
        sections.append("\n".join([f"{title}:"] + [f"  {a:<{width}}  {b or ''}".rstrip() for a, b in rows]))
    return "\n\n".join(sections) + "\n"


def main(argv=None) -> int:
    values = {"command": None}
    try:
        extras = _read(sys.argv[1:] if argv is None else list(argv), None, values)
        if extras:
            raise _Stop(None, f"unrecognized arguments: {' '.join(extras)}")
    except _Stop as stop:
        command, *message = stop.args
        if not message:
            print(_help(command), end="")
            return 0
        prog = f"stemcert {command}" if command else "stemcert"
        print(f"{_usage(command)}\n{prog}: error: {message[0]}", file=sys.stderr)
        return 2
    if values["command"] is None:
        print(_help(None), end="")
        return 2
    try:
        return globals()["cmd_" + _dest(values["command"])](types.SimpleNamespace(**values))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
