"""Command-line surface: output contracts and exit codes."""

import importlib.metadata
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import stemcert
from stemcert import cli, jorder
from stemcert.derivation import report_from_json
from stemcert.reports import build_stem_report

# The directory that holds the imported ``stemcert`` package (``src/`` in a
# checkout), and the project root whose ``pyproject.toml`` declares the
# console script.
PACKAGE_PARENT = Path(stemcert.__file__).resolve().parent.parent
PROJECT_ROOT = Path(__file__).resolve().parent.parent


# Modules that only the geometric subcommands need, and numpy, which none
# of them loads.
GEOMETRY_MODULES = ("numpy", "stemcert.hopf", "stemcert._kernels")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment in which a child runs the same ``stemcert`` that this
    suite imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")])
    )
    return env


def run_child(argv):
    """Run ``argv`` against the same ``stemcert`` that this suite imported."""
    return subprocess.run(argv, capture_output=True, text=True, env=child_env())


def run_child_rusage(argv):
    """Run ``argv`` as :func:`run_child` does; return its exit code, its
    stdout and its peak resident set in KiB, as ``os.wait4`` reports it."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss counts KiB on Linux")
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env()
    )
    with proc.stdout:
        out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def declared_console_script():
    """The ``stemcert`` entry of ``[project.scripts]``, as an EntryPoint.

    An installed distribution answers from its metadata; a checkout answers
    from its ``pyproject.toml``.
    """
    try:
        importlib.metadata.distribution("stemcert")
    except importlib.metadata.PackageNotFoundError:
        tomllib = pytest.importorskip("tomllib")
        with open(PROJECT_ROOT / "pyproject.toml", "rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["stemcert"]
        return importlib.metadata.EntryPoint(
            name="stemcert", value=value, group="console_scripts"
        )
    (entry,) = importlib.metadata.entry_points(
        group="console_scripts", name="stemcert"
    )
    return entry


# --------------------------------------------------------------------------
# Exit codes
# --------------------------------------------------------------------------


def test_success_is_zero(capsys):
    code, out, _ = run_cli(capsys, "jorder", "--t", "2")
    assert code == 0
    assert "24" in out


def test_argument_errors_are_two(capsys):
    code, _, err = run_cli(capsys, "adams", "--space", "xyz", "--k", "2", "--elem", "mu")
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(capsys, "bernoulli", "--n", "13")
    assert code == 2
    code, _, _ = run_cli(capsys, "adams", "--space", "cp2", "--k", "0", "--elem", "mu")
    assert code == 2


def test_verification_failures_are_three(capsys):
    code, _, err = run_cli(capsys, "jorder", "--t", "2", "--expect", "23")
    assert code == 3
    assert "verification failure" in err
    code, _, _ = run_cli(capsys, "einv", "--space", "cp2", "--expect-verdict", "Splits")
    assert code == 3
    code, _, _ = run_cli(
        capsys, "lift", "--loop", "gamma", "--expect-monodromy", "1"
    )
    assert code == 3


def test_no_subcommand_prints_help(capsys):
    code, out, _ = run_cli(capsys)
    assert code == 2
    assert "usage" in out.lower()


def test_unknown_subcommand_exits_two():
    proc = run_child([sys.executable, "-m", "stemcert.cli", "frobnicate"])
    assert proc.returncode == 2


def test_python_m_stemcert_passes_exit_codes():
    proc = run_child([sys.executable, "-m", "stemcert", "--json", "jorder", "--t", "2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["m"] == "24"
    proc = run_child([sys.executable, "-m", "stemcert", "frobnicate"])
    assert proc.returncode == 2
    # argparse exits 2 by itself; exit 3 comes only from main's return value.
    proc = run_child(
        [sys.executable, "-m", "stemcert", "jorder", "--t", "2", "--expect", "23"]
    )
    assert proc.returncode == 3


def test_installed_entry_point_runs():
    # What the console-script wrapper that the installer generates does:
    # import the declared callable, let it read sys.argv, exit with its value.
    entry = declared_console_script()
    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("stemcert")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = run_child(command + ["--json", "jorder", "--t", "2"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["m"] == "24"


# --------------------------------------------------------------------------
# Import cost: only the code a subcommand runs gets imported
# --------------------------------------------------------------------------

# Runs stemcert.cli.main in one fresh interpreter on each argv of the JSON
# list in argv[1], then prints the exit codes and which GEOMETRY_MODULES
# were loaded.
MAIN_IN_CHILD = """
import contextlib, io, json, sys
from stemcert.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({
    "codes": codes,
    "loaded": [m for m in json.loads(sys.argv[2]) if m in sys.modules],
}))
"""


def main_in_child(*argvs):
    proc = run_child(
        [
            sys.executable,
            "-c",
            MAIN_IN_CHILD,
            json.dumps(argvs),
            json.dumps(GEOMETRY_MODULES),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_subcommands_do_not_import_geometry():
    exact = [
        ["--help"],
        ["report", "--stem", "1"],
        ["report", "--stem", "2"],
        ["report", "--stem", "3"],
        ["jorder", "--t", "2"],
        ["bernoulli", "--n", "12"],
        ["adams", "--space", "cp2", "--k", "2", "--elem", "mu"],
        ["einv", "--space", "s2-smash-cp2"],
        ["thom", "--family", "quaternionic", "--n", "1", "--mult", "24"],
        ["feder-gitler", "--n", "1", "--k", "12", "--l", "0"],
        # Lifting runs on stdlib floats in ``stemcert.so3``.
        ["lift", "--loop", "gamma"],
        ["lift", "--loop", "homotopy"],
        ["lift", "--loop", "ball-gamma"],
        ["lift", "--loop", "alpha-then-beta"],
    ]
    child = main_in_child(*exact)
    assert child["codes"] == [0] * len(exact)
    assert child["loaded"] == []
    # Positive control: the same probe sees hopf and its kernel once linking
    # runs, and still no numpy.
    child = main_in_child(["linking", "--trials", "1"])
    assert child["codes"] == [0]
    assert child["loaded"] == ["stemcert.hopf", "stemcert._kernels"]


# Runs stemcert.cli.main on the argv in argv[1] in a fresh interpreter, then
# prints the exit code and the name of every loaded module.
ONE_COMMAND_IN_CHILD = """
import contextlib, io, json, sys
from stemcert.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

PACKAGE_MODULES = {
    f"stemcert.{path.stem}"
    for path in Path(stemcert.__file__).parent.glob("*.py")
    if path.stem not in ("__init__", "__main__")
}
EXACT_LAYERS = {
    f"stemcert.{name}"
    for name in ("derivation", "einv", "exact", "jorder", "kring", "reports")
}
JORDER_ONLY = {"stemcert.kring", "stemcert.einv", "stemcert.reports", "stemcert.derivation"}


@pytest.mark.parametrize(
    "argv,not_loaded",
    [
        (["--help"], PACKAGE_MODULES - {"stemcert.cli", "stemcert.errors"}),
        (["jorder", "--t", "2"], JORDER_ONLY),
        (["bernoulli", "--n", "12"], JORDER_ONLY),
        (["thom", "--family", "complex", "--n", "2", "--mult", "3"], JORDER_ONLY),
        (["feder-gitler", "--n", "1", "--k", "12", "--l", "0"], JORDER_ONLY),
        (
            ["adams", "--space", "s2-smash-cp2", "--k", "3", "--elem", "mu*nu"],
            {"stemcert.jorder", "stemcert.einv", "stemcert.reports", "stemcert.exact", "fractions"},
        ),
        (["lift", "--loop", "gamma"], EXACT_LAYERS),
        (["lift", "--loop", "homotopy"], EXACT_LAYERS),
        (
            ["einv", "--space", "hp2"],
            {"stemcert.jorder", "stemcert.reports", "stemcert.exact"},
        ),
        (["report", "--stem", "3"], {"stemcert.so3", "stemcert.hopf"}),
        (["--samples", "256", "linking", "--trials", "1"], EXACT_LAYERS),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_subcommand_loads_only_the_layers_it_runs(argv, not_loaded):
    # One interpreter per command: sys.modules only grows.
    proc = run_child([sys.executable, "-c", ONE_COMMAND_IN_CHILD, json.dumps(argv)])
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["code"] == 0
    loaded = set(child["modules"])
    assert sorted(loaded & not_loaded) == []
    # Nothing in the package imports these, linking included.
    assert sorted(loaded & {"dataclasses", "inspect", "numpy"}) == []


# Blocks numpy the way an interpreter without it fails to import it, then runs
# each argv of argv[1] through stemcert.cli.main and prints the exit codes.
WITHOUT_NUMPY_IN_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from stemcert.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_every_subcommand_runs_without_numpy():
    commands = [
        ["report", "--stem", "1"],
        ["jorder", "--t", "2"],
        ["bernoulli", "--n", "12"],
        ["adams", "--space", "cp2", "--k", "2", "--elem", "mu"],
        ["einv", "--space", "hp2"],
        ["feder-gitler", "--n", "1", "--k", "12", "--l", "0"],
        ["thom", "--family", "quaternionic", "--n", "1", "--mult", "24"],
        ["--samples", "64", "linking", "--trials", "3"],
        ["lift", "--loop", "homotopy"],
    ]
    subcommands = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    assert {next(a for a in argv if a in subcommands) for argv in commands} == subcommands
    proc = run_child(
        [sys.executable, "-c", WITHOUT_NUMPY_IN_CHILD, json.dumps(commands)]
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(commands)


# Checks the package API in a fresh interpreter, before and after every
# exported name has been read, and prints what it found.
PACKAGE_API_IN_CHILD = """
import importlib, json, sys
import stemcert
heavy = json.loads(sys.argv[1])
facts = {
    "loaded_by_import": [m for m in heavy if m in sys.modules],
    "missing_from_dir": sorted(set(stemcert.__all__) - set(dir(stemcert))),
    "table_vs_all": sorted(set(stemcert._EXPORTS) ^ set(stemcert.__all__)),
    "mismatched": [],
}
for name in stemcert.__all__:
    owner = importlib.import_module("stemcert." + stemcert._EXPORTS[name])
    value = getattr(stemcert, name)
    defined_in = getattr(value, "__module__", None)
    if value is not getattr(owner, name) or (
        defined_in and defined_in.startswith("stemcert.") and defined_in != owner.__name__
    ):
        facts["mismatched"].append(name)
try:
    stemcert.nope
    facts["nope"] = "resolved"
except AttributeError as exc:
    facts["nope"] = str(exc)
print(json.dumps(facts))
"""


def test_package_exports_resolve_on_first_use():
    proc = run_child(
        [sys.executable, "-c", PACKAGE_API_IN_CHILD, json.dumps(GEOMETRY_MODULES)]
    )
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts == {
        "loaded_by_import": [],
        "missing_from_dir": [],
        "table_vs_all": [],
        "mismatched": [],
        "nope": "module 'stemcert' has no attribute 'nope'",
    }
    # The first read of a name caches it in the package globals.
    assert stemcert.fiber_linking is stemcert.hopf.fiber_linking
    assert "fiber_linking" in vars(stemcert)


# --------------------------------------------------------------------------
# JSON contracts
# --------------------------------------------------------------------------


def test_adams_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "adams", "--space", "s2-smash-cp2", "--k", "2",
        "--elem", "mu*nu",
    )
    assert code == 0
    assert json.loads(out) == {"space": "s2-smash-cp2", "coeffs": ["4", "2"]}


def test_einv_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "einv", "--space", "s2-smash-cp2", "--primes", "2,3,5"
    )
    assert code == 0
    assert json.loads(out) == {
        "verdict": "DoesNotSplit",
        "k": 2,
        "c": 2,
        "modulus": 4,
        "e": "1/2",
    }


def test_expect_verdict_choices_are_the_verdicts():
    from stemcert import einv

    (subparsers,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    (action,) = (
        a for a in subparsers.choices["einv"]._actions if a.dest == "expect_verdict"
    )
    assert list(action.choices) == [v.value for v in einv.Verdict]


def test_jorder_json_contract(capsys):
    code, out, _ = run_cli(capsys, "--json", "jorder", "--t", "2")
    assert code == 0
    assert json.loads(out) == {
        "t": 2,
        "m": "24",
        "methods": ["gcd", "closed", "bernoulli"],
        "stable": True,
    }


def test_bernoulli_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "bernoulli", "--n", "12")
    assert code == 0
    assert json.loads(out) == {"n": 12, "value": "-691/2730"}


def test_feder_gitler_json(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "feder-gitler", "--n", "1", "--k", "12", "--l", "0"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["equivalent"] is False
    assert blob["Bn"] == "24"


def test_feder_gitler_prints_the_b1_it_decided_with(capsys, monkeypatch):
    # A B_1 other than 24 shows that the printed modulus is the one the
    # decision used, not a literal.
    monkeypatch.setattr(jorder, "_jorder_b1", lambda: 7)
    code, out, _ = run_cli(
        capsys, "--json", "feder-gitler", "--n", "1", "--k", "7", "--l", "0"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["Bn"] == "7"
    assert blob["equivalent"] is True
    code, out, _ = run_cli(capsys, "feder-gitler", "--n", "1", "--k", "7", "--l", "0")
    assert code == 0
    assert "(mod 7)" in out and "are stably equivalent" in out


def test_feder_gitler_rejects_a_b1_other_than_the_computed_one(capsys):
    code, out, _ = run_cli(capsys, "feder-gitler", "--n", "1", "--k", "1", "--l", "25")
    assert code == 0 and "stably equivalent" in out
    for flag in ("5", "0"):
        code, out, err = run_cli(
            capsys, "feder-gitler", "--n", "1", "--k", "1", "--l", "25", "--Bn", flag
        )
        assert (code, out) == (2, "")
        assert err == f"error: B_1 is the computed 24, not the supplied {flag}\n"
    code, out, _ = run_cli(
        capsys, "feder-gitler", "--n", "1", "--k", "1", "--l", "25", "--Bn", "24"
    )
    assert code == 0 and "stably equivalent" in out


def test_thom_json(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "thom", "--family", "quaternionic", "--n", "1",
        "--mult", "24",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["cells"] == [96, 100]
    assert blob["label"] == "HP^25/HP^23"


def test_lift_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "lift", "--loop", "gamma")
    assert code == 0
    assert json.loads(out)["monodromy"] == -1
    code, out, _ = run_cli(
        capsys, "--json", "lift", "--loop", "gamma", "--turns", "2"
    )
    assert json.loads(out)["monodromy"] == 1


def test_lift_at_its_step_cap_holds_no_more_than_help():
    # Lifting streams its samples, so even the step cap needs no memory
    # beyond what the interpreter holds for --help; held as a list, the
    # 65537 samples alone would take about 35 MB.
    code, out, help_kib = run_child_rusage([sys.executable, "-m", "stemcert.cli", "--help"])
    assert code == 0 and out
    code, out, lift_kib = run_child_rusage(
        [sys.executable, "-m", "stemcert.cli", "--json", "lift", "--loop", "gamma", "--steps", "65536"]
    )
    assert code == 0
    assert json.loads(out)["monodromy"] == -1
    assert lift_kib - help_kib <= 4 * 1024


ONE_TURN_MONODROMY = {
    "gamma": -1,
    "alpha": -1,
    "beta": -1,
    "alpha-then-beta": 1,
    "ball-gamma": -1,
    "identity": 1,
    "homotopy": -1,
}


@pytest.mark.parametrize("turns", [1, 2, 3])
@pytest.mark.parametrize("loop", sorted(ONE_TURN_MONODROMY))
def test_lift_monodromy_is_the_one_turn_sign_to_the_power_turns(capsys, loop, turns):
    code, out, err = run_cli(
        capsys, "--json", "lift", "--loop", loop, "--turns", str(turns)
    )
    assert code == 0, err
    assert json.loads(out) == {
        "loop": loop,
        "steps": 1024,
        "turns": turns,
        "monodromy": ONE_TURN_MONODROMY[loop] ** turns,
    }


@pytest.mark.parametrize("loop", sorted(set(ONE_TURN_MONODROMY) - {"identity"}))
def test_lift_rejects_more_turns_than_its_steps_can_follow(capsys, loop):
    # 16 turns in 256 steps move every non-constant loop by more than 0.2
    # radians per step.
    code, out, err = run_cli(
        capsys, "lift", "--loop", loop, "--steps", "256", "--turns", "16"
    )
    assert (code, out) == (2, "")
    assert "error: discontinuity" in err
    code, out, err = run_cli(
        capsys, "lift", "--loop", loop, "--steps", "256", "--turns", str(10**400)
    )
    assert (code, out) == (2, "")
    assert "error: turns must be at most the number of steps" in err


@pytest.mark.parametrize(
    "flag,value,default", [("--slice", "0.5", "1"), ("--variant", "beta", "alpha")]
)
def test_lift_homotopy_flags_apply_only_to_the_homotopy(capsys, flag, value, default):
    for loop in sorted(set(ONE_TURN_MONODROMY) - {"homotopy"}):
        code, out, err = run_cli(capsys, "lift", "--loop", loop, flag, value)
        assert (code, out) == (2, ""), loop
        assert err == "error: --slice and --variant apply only to --loop homotopy\n"
    code, out, err = run_cli(capsys, "--json", "lift", "--loop", "homotopy", flag, value)
    assert code == 0, err
    assert json.loads(out)["monodromy"] == -1
    # Omitting the flag runs the homotopy at its default.
    implicit = run_cli(capsys, "--json", "lift", "--loop", "homotopy")
    assert implicit == run_cli(capsys, "--json", "lift", "--loop", "homotopy", flag, default)


@pytest.mark.parametrize("loop,steps,turns", [("gamma", 257, 256), ("alpha", 301, 300)])
def test_lift_rejects_turns_that_alias_to_a_small_step(capsys, loop, steps, turns):
    # Each step turns by nearly a full turn; lifted, these loops read -1.
    code, out, err = run_cli(
        capsys, "lift", "--loop", loop, "--steps", str(steps), "--turns", str(turns)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: discontinuity: ")


def test_linking_command_certifies(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "--seed", "11", "--samples", "256", "linking",
        "--trials", "3",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["max_deviation"] == 0.0
    assert abs(blob["unlinked_control"]) <= 0.02
    assert len(blob["trials"]) == 3
    # Each trial is the exact sign of a non-zero integer determinant; the
    # first pair's Gauss sum has that sign and its mirror pair the other.
    assert all(type(det) is int and det != 0 for det in blob["determinants"])
    assert blob["trials"] == [1 if det > 0 else -1 for det in blob["determinants"]]
    assert abs(blob["reference"] - blob["trials"][0]) <= 0.02
    assert type(blob["mirror_determinant"]) is int and blob["mirror_determinant"] < 0


def test_linking_json_prints_no_negative_zero(capsys):
    # This control's sum is a tiny negative number, which rounds to -0.0.
    code, out, err = run_cli(
        capsys, "--json", "--seed", "7", "--samples", "128", "linking", "--trials", "3"
    )
    assert code == 0, err
    assert "-0.0" not in out
    assert json.loads(out)["unlinked_control"] == 0.0


def leibniz_determinant(rows):
    """The determinant as the signed sum over permutations of products of
    entries, one from each row and column; exact on ints."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = -1 if inversions % 2 else 1
        for row, column in zip(rows, perm):
            term *= row[column]
        total += term
    return total


def test_linking_json_records_the_pair_behind_each_determinant(capsys):
    code, out, err = run_cli(
        capsys, "--json", "--seed", "3", "--samples", "64", "linking", "--trials", "20"
    )
    assert code == 0, err
    blob = json.loads(out)
    pairs = blob["pairs"]
    assert len(pairs) == len(blob["determinants"]) == 20
    for (q, r), det in zip(pairs, blob["determinants"]):
        assert all(type(c) is int and -6 <= c <= 6 for c in q + r)
        # i (w, x, y, z) = (-x, w, -z, y), the fiber through q.
        left = [(-x, w, -z, y) for w, x, y, z in (q, r)]
        assert leibniz_determinant([q, left[0], r, left[1]]) == det
    # (w, x, y, z) i = (-x, w, z, -y), the mirror fiber through q.
    q, r = pairs[0]
    right = [(-x, w, z, -y) for w, x, y, z in (q, r)]
    assert leibniz_determinant([q, right[0], r, right[1]]) == blob["mirror_determinant"]


@pytest.mark.parametrize(
    "name,tamper,message",
    [
        ("fiber_linking", lambda real: lambda *a, **k: -real(*a, **k), "reference Gauss sum reads -1.0"),
        ("mirror_determinant", lambda real: lambda q, r: -real(q, r), "is not negative"),
        # r = q i: the pair lies on one circle of the mirror fibration.
        ("draw_fiber_pair", lambda real: lambda rng: ((1, 0, 1, 0), (0, 1, 0, -1)), "mirror determinant 0"),
        # r = 2 q: the pair lies on one Hopf fiber.
        ("draw_fiber_pair", lambda real: lambda rng: ((1, 2, 0, 0), (2, 4, 0, 0)), "zero fiber determinant"),
    ],
    ids=["reference-sign", "mirror-positive", "mirror-zero", "zero-determinant"],
)
def test_linking_exits_three_on_a_tampered_certificate(capsys, monkeypatch, name, tamper, message):
    from stemcert import hopf

    monkeypatch.setattr(hopf, name, tamper(getattr(hopf, name)))
    code, out, err = run_cli(capsys, "--samples", "64", "linking", "--trials", "2")
    assert (code, out) == (3, "")
    assert message in err


def test_linking_rejects_zero_trials(capsys):
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "linking", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "error: --trials must be at least 1" in err


def test_linking_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "--seed", "-1", "linking", "--trials", "1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative\n"


def test_linking_rejects_samples_above_the_cap(capsys):
    code, out, err = run_cli(capsys, "--samples", "4097", "linking", "--trials", "1")
    assert code == 2
    assert out == ""
    assert "error: --samples must be at most 4096" in err


def test_linking_rejects_samples_below_the_floor_before_sampling(capsys):
    for samples in ("32", "63", "0", "-5"):
        code, out, err = run_cli(capsys, "--samples", samples, "linking", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: --samples must be at least 64\n"


@pytest.mark.parametrize(
    "argv,flag,cap",
    [
        (("bernoulli", "--n", "{}"), "--n", 2000),
        (("jorder", "--t", "{}"), "--t", 2000),
        (("jorder", "--t", "2", "--K", "{}"), "--K", 1024),
        (("jorder", "--t", "2", "--N", "{}"), "--N", 4096),
        (("adams", "--space", "hp{}", "--k", "2", "--elem", "phi"), "--space index", 256),
        (("adams", "--space", "s2-smash-hp{}", "--k", "2", "--elem", "phi*nu"), "--space index", 256),
        (("adams", "--space", "cp2", "--elem", "mu", "--k", "{}"), "--k", 256),
        (("adams", "--space", "hp256", "--k", "256", "--elem", "phi^{}"), "--elem exponent", 32),
        (("einv", "--space", "hp2", "--primes", "2,{}"), "--primes index", 256),
        (("thom", "--family", "complex", "--mult", "1", "--n", "{}"), "--n", 100000),
        (("thom", "--family", "quaternionic", "--n", "1", "--mult", "{}"), "--mult", 100000),
        (("lift", "--loop", "gamma", "--steps", "{}"), "--steps", 65536),
        # 1000 integer trials and two Gauss sums at 128 samples take about 0.2 s.
        (("--samples", "128", "linking", "--trials", "{}"), "--trials", 1000),
    ],
    ids=[
        "bernoulli-n",
        "jorder-t",
        "jorder-K",
        "jorder-N",
        "adams-space",
        "adams-smash",
        "adams-k",
        "adams-exponent",
        "einv-primes-index",
        "thom-n",
        "thom-mult",
        "lift-steps",
        "linking-trials",
    ],
)
def test_size_caps_answer_at_the_cap_and_reject_above_it(capsys, argv, flag, cap):
    """``{}`` in ``argv`` stands for the capped value."""

    def run(value):
        return run_cli(capsys, "--json", *(a.format(value) for a in argv))

    code, out, err = run(cap)
    assert code == 0, err
    assert json.loads(out)
    code, out, err = run(cap + 1)
    assert code == 2
    assert out == ""
    assert f"error: {flag} must be at most {cap}" in err


def test_linking_sums_two_gauss_integrals_whatever_its_trial_count(capsys, monkeypatch):
    # The trials are integer determinants; only the reference pair and the
    # unlinked control pay an O(samples^2) sum, so --samples alone bounds the
    # run and --trials is capped only by its own limit.
    from stemcert import _kernels

    calls = []
    kernel = _kernels.gauss_linking_sum

    def counted(*arrays):
        calls.append(len(arrays[0]))
        return kernel(*arrays)

    monkeypatch.setattr(_kernels, "gauss_linking_sum", counted)
    for trials in ("1", "1000"):
        calls.clear()
        code, out, err = run_cli(capsys, "--json", "--samples", "64", "linking", "--trials", trials)
        assert code == 0, err
        assert len(json.loads(out)["determinants"]) == int(trials)
        assert calls == [64, 64]


def test_einv_checks_the_space_index_before_building_the_ring(capsys, monkeypatch):
    from stemcert import kring

    code, out, err = run_cli(capsys, "--json", "einv", "--space", "s256-smash-cp2")
    assert code == 0, err
    assert json.loads(out)["verdict"] == "DoesNotSplit"

    def no_ring(space):
        raise AssertionError("the ring was built before the label was checked")

    monkeypatch.setattr(kring, "make_ring", no_ring)
    for label in ("s258-smash-cp2", "cp257", "cp2000000"):
        code, out, err = run_cli(capsys, "einv", "--space", label)
        assert (code, out) == (2, "")
        assert "error: --space index must be at most 256" in err


@pytest.mark.parametrize("command", ["adams", "einv"])
@pytest.mark.parametrize(
    "label,message",
    [
        # Syntax first, the right-hand atom read whole ...
        ("cp300-smash-xyz", "unrecognized space 'xyz'"),
        ("s2-smash-cp2-smash-cp3", "unrecognized space 'cp2-smash-cp3'"),
        ("s301", "only even spheres are modeled, got s301"),
        ("s3-smash-cp300", "only even spheres are modeled, got s3"),
        # ... then the index cap ...
        ("cp0-smash-cp300", "--space index must be at most 256"),
        ("s2-smash-s514", "--space index must be at most 256"),
        # ... then the pairing, and the degree last.
        ("cp0-smash-cp3", "smash models must pair one even sphere with one projective space"),
        ("s2-smash-s4", "smash models must pair one even sphere with one projective space"),
        ("s2-smash-cp0", "degree must be at least 1, got 0"),
        ("hp0", "degree must be at least 1, got 0"),
    ],
)
def test_space_errors_report_syntax_then_the_cap_then_pairing_and_degree(
    capsys, command, label, message
):
    argv = ["--k", "2", "--elem", "mu"] if command == "adams" else []
    code, out, err = run_cli(capsys, command, "--space", label, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_einv_caps_the_number_of_primes(capsys):
    def run(count):
        primes = ",".join(str(k) for k in range(2, 2 + count))
        return run_cli(capsys, "--json", "einv", "--space", "hp2", "--primes", primes)

    code, out, err = run(64)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "DoesNotSplit"
    code, out, err = run(65)
    assert (code, out) == (2, "")
    assert "error: --primes length must be at most 64" in err


@pytest.mark.parametrize(
    "primes,message",
    [
        ("2,a", "--primes entries must be integers, got 'a'"),
        ("2.5", "--primes entries must be integers, got '2.5'"),
        # int() refuses more than 4300 digits; the cap reads the digit count.
        ("3," + "9" * 5000, "--primes index must be at most 256"),
        ("1" + "0" * 40, "--primes index must be at most 256"),
        ("-" + "9" * 5000, "Adams indices must be at least 2"),
        ("2,1", "Adams indices must be at least 2"),
    ],
    ids=["letter", "decimal", "5000-digits", "41-digits", "negative-5000-digits", "one"],
)
def test_einv_checks_the_primes_before_building_the_ring(capsys, monkeypatch, primes, message):
    from stemcert import kring

    def no_ring(space):
        raise AssertionError("the ring was built before --primes was checked")

    monkeypatch.setattr(kring, "make_ring", no_ring)
    code, out, err = run_cli(capsys, "einv", "--space", "s250-smash-cp2", "--primes", primes)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_linking_is_seed_reproducible(capsys):
    _, first, _ = run_cli(
        capsys, "--json", "--seed", "5", "--samples", "256", "linking",
        "--trials", "2",
    )
    _, second, _ = run_cli(
        capsys, "--json", "--seed", "5", "--samples", "256", "linking",
        "--trials", "2",
    )
    assert first == second


# --------------------------------------------------------------------------
# Reports through the CLI
# --------------------------------------------------------------------------


@pytest.mark.parametrize("stem,group", [(1, "Z2"), (2, "Z2"), (3, "Z24")])
def test_report_json_parses_back_to_the_library_object(capsys, stem, group):
    code, out, _ = run_cli(capsys, "--json", "report", "--stem", str(stem))
    assert code == 0
    recovered = report_from_json(json.loads(out))
    assert recovered == build_stem_report(stem)
    assert recovered.group == group


def test_report_human_output_names_the_conclusion(capsys):
    code, out, _ = run_cli(capsys, "report", "--stem", "1")
    assert code == 0
    assert "Z₂" in out and "η" in out
    code, out, _ = run_cli(capsys, "report", "--stem", "3")
    assert "Z₂₄" in out and "ν" in out
    assert "PaperAsserted" in out and "Computed" in out


# --------------------------------------------------------------------------
# README examples
# --------------------------------------------------------------------------


def readme_examples():
    """``(argv, shown output lines)`` of each ``$ stemcert ...`` example in
    the console block of README's "Command line" section."""
    text = (PROJECT_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```console\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.split("\n")
        assert command.startswith("$ stemcert "), command
        examples.append((shlex.split(command)[2:], shown))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv,shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    # A "..." line stands for one or more lines; every other line is literal.
    pattern = "\n".join(
        r"(?:.*\n)*.*" if line.strip() == "..." else re.escape(line) for line in shown
    )
    assert re.fullmatch(pattern, out.rstrip("\n")), out
