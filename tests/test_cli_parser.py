"""The command-line parser of :mod:`stemcert.cli` against the argparse
parser it replaced, kept here verbatim as the reference: on every input both
give the same exit class (0, 2 or a help page) and, when they accept it, the
same option values and handler."""

import argparse
import contextlib
import io
import re
import shlex
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from stemcert import cli
from stemcert.cli import (
    _MAX_ADAMS_EXPONENT,
    _MAX_ADAMS_INDEX,
    _MAX_ADAMS_K,
    _MAX_BERNOULLI_INDEX,
    _MAX_FOLD_K,
    _MAX_FOLD_N,
    _MAX_PRIMES,
    _MAX_SAMPLES,
    _MAX_STEPS,
    _MAX_THOM_INDEX,
    _MAX_TRIALS,
    _MIN_SAMPLES,
    cmd_adams,
    cmd_bernoulli,
    cmd_einv,
    cmd_feder_gitler,
    cmd_jorder,
    cmd_lift,
    cmd_linking,
    cmd_report,
    cmd_thom,
)
from test_cli import MALFORMED


# The argparse parser that stemcert.cli built before it read its table,
# verbatim.
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
        # The names in ``einv.VERDICTS``, spelled out so that building the
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
    p.add_argument("--n", type=int, required=True, help="must be 1 (B_n is computed only for n = 1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
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


REFERENCE = build_parser()
HANDLERS = sorted(name for name in vars(cli) if name.startswith("cmd_"))
#: argparse's negative-number pattern, which the new parser follows.
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def narrowed(token: str) -> bool:
    """Tokens that the new parser rejects, exit 2, where an argparse version
    does not: ``--``, which from Python 3.12 may separate the subcommand
    from the options before it; ``-h=...``, help on 3.11 when only h's
    follow; ``--flag=--``, which argparse stores as an empty list that every
    handler fails on with a TypeError; and a dash-digit token outside the
    pattern above, which later versions may read as a negative number."""
    return (
        token == "--"
        or token.startswith("-h=")
        or (token.startswith("-") and token.partition("=")[2] == "--")
        or (re.match(r"-\.?\d", token) is not None and not NEGATIVE_NUMBER.match(token))
    )


def help_page(out: str):
    """The subcommand whose help page ``out`` is; None for the top one."""
    assert out.startswith("usage: stemcert "), out
    word = out.split()[2]
    return word if word in cli._TABLE else None


def reference_outcome(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            args = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return ("help", help_page(out.getvalue())) if exc.code == 0 else (2,)
    values = vars(args)
    func = values.pop("func", None)
    return (2,) if func is None else (0, func.__name__, repr(sorted(values.items())))


def new_outcome(argv):
    """``cli.main``'s exit class on ``argv``, with every handler replaced
    by one that records the arguments it was given."""
    calls = []

    def recorder(name):
        def handler(args):
            calls.append((name, repr(sorted(vars(args).items()))))
            return 0

        return handler

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.multiple(cli, **{name: recorder(name) for name in HANDLERS}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if calls:
        assert code == 0 and out.getvalue() == err.getvalue() == ""
        ((name, values),) = calls
        return (0, name, values)
    if code == 0:
        assert err.getvalue() == ""
        return ("help", help_page(out.getvalue()))
    assert code == 2
    if not err.getvalue():
        # No subcommand: the top help page, on stdout.
        assert help_page(out.getvalue()) is None
        return (2,)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert lines[0].startswith("usage: stemcert"), lines
    assert re.fullmatch(r"stemcert( [a-z-]+)?: error: .+", lines[-1]), lines
    # The message names the token, or the flag, that it rejects.
    named = {token for token in argv if token} | {token.partition("=")[0] for token in argv}
    assert "required" in lines[-1] or any(token in lines[-1] for token in named), lines
    return (2,)


def assert_same(argv):
    reference, new = reference_outcome(list(argv)), new_outcome(list(argv))
    if new != reference:
        # Only a documented narrowing may differ, and only to exit 2.
        assert new == (2,) and any(narrowed(token) for token in argv), (argv, reference, new)


#: Every row the benchmark runs, with values from its ranges.
BENCHMARK_ROWS = [
    "--help",
    "--json report --stem 1",
    "--json report --stem 2",
    "--json report --stem 3",
    "--json jorder --t 2",
    "--json bernoulli --n 12",
    "--json adams --space cp2 --k 7 --elem mu",
    "--json adams --space hp2 --k 2 --elem phi",
    "--json adams --space s2-smash-cp2 --k 9 --elem mu*nu",
    "--json einv --space s2-smash-cp2",
    "--json einv --space hp2",
    "--json feder-gitler --n 1 --k 17 --l 65",
    "--json thom --family quaternionic --n 4 --mult 1 --suspend 3",
    "--json lift --loop gamma",
    "--json lift --loop homotopy --variant beta --slice 0.617",
    "--json jorder --t 318",
    "--json bernoulli --n 400",
    "--json adams --space hp110 --k 110 --elem phi",
    "--json adams --space cp60 --k 7 --elem mu",
    "--json adams --space s2-smash-hp30 --k 30 --elem phi*nu",
    "--json --seed 1234567 linking --trials 20",
    "--json --seed 1234567 --samples 1024 linking --trials 4",
    "--json --seed 1234567 --samples 128 linking --trials 300",
    "--json lift --loop gamma --steps 16384",
    "--json lift --loop homotopy --variant alpha --slice 0.0 --steps 16384",
]

EDGE_CASES = [
    # "=" forms.
    "--json jorder --t=2",
    "--seed=5 --samples=64 linking --trials=3",
    "lift --loop=homotopy --slice=0.5",
    "adams --space=cp2 --k=2 --elem=mu",
    "adams --space cp2 --k 2 --elem=-mu",
    "adams --space cp2 --k 2 --elem=",
    "--json=1 jorder --t 2",
    "--json= jorder --t 2",
    "jorder --t=",
    "--seed= linking",
    "--help=x",
    "linking --help=",
    "linking --he=x",
    "linking --trials=--",
    "linking --tr=3",
    "bernoulli --=5",
    # Abbreviations: unique prefixes inside a subcommand only.
    "linking --tri 2",
    "linking --t 2",
    "lift --s 3",
    "lift -h --s 3",
    "lift --st 300",
    "lift --loop homotopy --sl 0.5",
    "lift --expect-m 1",
    "lift --he",
    "lift --h",
    "jorder --e 24 --t 2",
    "jorder --ex=24 --t 2",
    "feder-gitler --n 1 --k 12 --l 0 --B 24",
    "einv --sp hp2 --p 2 --e Splits",
    "report --st 1",
    "--js jorder --t 2",
    "--se 1 linking",
    "--sa 64 linking",
    "lin --trials 2",
    # Repeats keep the last value.
    "jorder --t 2 --t 4",
    "--seed 1 --seed 2 linking",
    "--json --json jorder --t 2",
    "report --stem 1 --stem 2",
    "lift --loop gamma --loop homotopy --slice 1",
    # Negative, nan and infinite values.
    "--seed -1 linking",
    "--samples -5 linking",
    "lift --loop homotopy --slice -0.5",
    "lift --loop homotopy --slice -.5",
    "lift --loop homotopy --slice -1e3",
    "lift --loop homotopy --slice -1.",
    "lift --loop homotopy --slice nan",
    "lift --loop homotopy --slice -nan",
    "lift --loop homotopy --slice -inf",
    "lift --expect-monodromy -1",
    "lift --expect-monodromy 01",
    "jorder --t 2 --expect -24",
    "linking --trials -3",
    "bernoulli --n -0",
    "bernoulli --n ' 12 '",
    "bernoulli --n 1_2",
    # Single-dash tokens.
    "-x",
    "-",
    "- linking",
    "linking -",
    "linking -t 3",
    "-j jorder --t 2",
    "jorder -t 2",
    "adams --space cp2 --k 2 --elem -mu",
    "adams --space cp2 --k 2 --elem '-mu 2'",
    "adams --space cp2 --k 2 --elem '--mu 2'",
    "-1 jorder",
    "jorder --t 2 -1",
    "jorder --t 2 '-x y'",
    "-hh",
    "linking -hhh",
    "-hx",
    "linking -h-h",
    "-h=",
    "-h=h",
    "linking -h=hh",
    "-hh=h",
    "---json jorder --t 2",
    # Options of the top level after the subcommand.
    "linking --seed 5",
    "jorder --t 2 --json",
    "linking --samples 64",
    "jorder --json --t 2",
    "--bogus linking -h",
    "--bogus linking",
    "--bogus",
    "--bogus adams",
    # "--".
    "--",
    "-- linking",
    "linking --",
    "-h --",
    "linking -h --",
    "linking -- -h",
    "--json --",
    "--seed -- 5 linking",
    "jorder --t 2 -- --t 3",
    # Empty tokens.
    "''",
    "'' linking",
    "linking ''",
    "jorder --t ''",
]


def with_help_everywhere(line):
    """``line`` with -h, and with --help, inserted at each position."""
    argv = shlex.split(line)
    return [argv[:i] + [flag] + argv[i:] for flag in ("-h", "--help") for i in range(len(argv) + 1)]


CORPUS = (
    [shlex.split(line) for line, _ in MALFORMED]
    + [shlex.split(line) for line in BENCHMARK_ROWS + EDGE_CASES]
    + [
        argv
        for line in BENCHMARK_ROWS[1:] + [line for line, _ in MALFORMED]
        for argv in with_help_everywhere(line)
    ]
    + [[]]
)


def test_corpus_reads_as_argparse_read_it():
    for argv in CORPUS:
        assert_same(argv)


def test_the_corpus_reaches_every_outcome():
    outcomes = [new_outcome(argv) for argv in CORPUS]
    assert {outcome[0] for outcome in outcomes} == {0, 2, "help"}
    assert {outcome[1] for outcome in outcomes if outcome[0] == "help"} == set(cli._TABLE)
    assert {outcome[1] for outcome in outcomes if outcome[0] == 0} == set(HANDLERS)


def test_narrowings_exit_two_and_help_before_them_still_prints():
    narrowings = ["--", "-- linking", "linking -- -h", "-h=h", "linking -h=hh", "linking --trials=--"]
    for line in narrowings + ["lift --slice -1e3"]:
        assert new_outcome(shlex.split(line)) == (2,), line
    for line, page in (("-h --", None), ("linking -h --", "linking"), ("-hh -- x", None)):
        assert new_outcome(shlex.split(line)) == ("help", page), line


def test_help_pages_list_every_subcommand_and_option(capsys):
    assert cli.main(["--help"]) == 0
    top = capsys.readouterr().out
    for command, (about, specs) in cli._TABLE.items():
        if command:
            assert f"  {command}" in top and about in top
            assert cli.main([command, "--help"]) == 0
        page = capsys.readouterr().out if command else top
        assert page.startswith("usage: stemcert" + (f" {command} " if command else " "))
        for flag, _, _, _, _, text in specs:
            assert f"  {flag}" in page and (text or "") in page


FLAGS = sorted({spec[0] for _, specs in cli._TABLE.values() for spec in specs} | {"-h", "--help"})
PREFIXES = sorted({flag[:n] for flag in FLAGS for n in range(2, len(flag))} - set(FLAGS))
VALUES = [
    "0", "1", "2", "3", "12", "-1", "-2", "-0.5", ".5", "-.5", "1e3", "-1e3", "nan", "inf", "x",
    "hp2", "cp2", "s2-smash-cp2", "mu", "phi", "mu*nu", "2,3,5", "gamma", "homotopy", "alpha",
    "beta", "complex", "quaternionic", "Splits", "", " ", "-x", "-", "--x", "-1 2", "=",
]
COMMANDS = [name for name in cli._TABLE if name]
TOKENS = st.one_of(
    st.sampled_from(FLAGS + PREFIXES + VALUES + COMMANDS + ["--", "-hh", "-hx", "-h=h", "lin"]),
    st.builds(
        lambda flag, value: f"{flag}={value}", st.sampled_from(FLAGS + PREFIXES), st.sampled_from(VALUES)
    ),
)


@st.composite
def command_lines(draw):
    """Tokens before a subcommand, its name, and tokens after it; each part
    leans on the flags of its own level."""
    command = draw(st.sampled_from(COMMANDS))
    top = [spec[0] for spec in cli._TABLE[None][1]]
    own = [spec[0] for spec in cli._TABLE[command][1]]
    def level(flags):
        return st.lists(st.one_of(st.sampled_from(flags), st.sampled_from(VALUES), TOKENS), max_size=6)

    return draw(level(top)) + [command] + draw(level(own))


@settings(max_examples=400, deadline=None)
@given(st.lists(TOKENS, max_size=8))
def test_any_tokens_read_as_argparse_read_them(argv):
    assert_same(argv)


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_command_lines_read_as_argparse_read_them(argv):
    assert_same(argv)
