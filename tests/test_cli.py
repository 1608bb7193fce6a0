"""Command-line surface: output contracts and exit codes."""

import hashlib
import importlib.metadata
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import pytest

import stemcert
from stemcert import cli, jorder
from stemcert.derivation import replay
from stemcert.reports import build_stem_report
from test_hopf import MOVED, span_circle

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
    # main returns every exit code, 2 and 3 included; only __main__'s
    # sys.exit passes them on to the process.
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
        codes.append(main(argv))
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
    # Positive control: the same probe sees hopf once linking runs, and
    # still neither the Gauss-sum kernel nor numpy.
    child = main_in_child(["linking", "--trials", "1"])
    assert child["codes"] == [0]
    assert child["loaded"] == ["stemcert.hopf"]


# Runs stemcert.cli.main on the argv in argv[1] in a fresh interpreter, then
# prints the exit code and the name of every loaded module.
ONE_COMMAND_IN_CHILD = """
import contextlib, io, json, sys
from stemcert.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
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
JORDER_ONLY = {
    "stemcert.kring", "stemcert.einv", "stemcert.reports", "stemcert.derivation", "stemcert._frozen",
}
#: What argparse would load: the command line is read from a table in
#: ``cli`` instead, off the start-up path of every command.
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv,not_loaded",
    [
        (argv, not_loaded | ARGPARSE_MODULES)
        for argv, not_loaded in [
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
            # The exact circle count runs on Python ints alone.
            (["--samples", "256", "linking", "--trials", "1"], EXACT_LAYERS | {"fractions", "decimal"}),
        ]
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


# Imports the package in a fresh interpreter and prints the submodules (and
# numpy, if any) that the import loaded and the package attributes that
# would re-export a name.
IMPORT_IN_CHILD = """
import json, sys
import stemcert
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith("stemcert.")),
    "re_exports": sorted({"__all__", "__getattr__", "__dir__"} & set(vars(stemcert))),
}))
"""


def test_import_stemcert_loads_no_submodule():
    # Every public name is imported from the module that defines it.
    proc = run_child([sys.executable, "-c", IMPORT_IN_CHILD])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "re_exports": []}


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


def test_einv_prints_the_parsed_label(capsys):
    code, out, err = run_cli(capsys, "einv", "--space", "HP2")
    assert code == 0, err
    assert out.startswith("hp2: DoesNotSplit")
    # The label is read with its leading zeros stripped, not echoed back.
    long_label = "hp" + "0" * 5000 + "2"
    code, out, err = run_cli(capsys, "einv", "--space", long_label)
    assert code == 0, err
    assert out.startswith("hp2: DoesNotSplit")
    assert len(out) < 500
    # --json carries no label, so it is the same for every spelling.
    outputs = {
        run_cli(capsys, "--json", "einv", "--space", label)[1]
        for label in ("hp2", "HP2", long_label)
    }
    assert len(outputs) == 1


def test_expect_verdict_choices_are_the_verdicts():
    from stemcert import einv

    (choices,) = (spec[4] for spec in cli._TABLE["einv"][1] if spec[0] == "--expect-verdict")
    assert choices == einv.VERDICTS


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


def test_feder_gitler_decides_only_with_the_computed_b1(capsys):
    code, out, _ = run_cli(capsys, "feder-gitler", "--n", "1", "--k", "1", "--l", "25")
    assert code == 0 and "stably equivalent" in out
    # No B_n is taken from the user, so no verdict rests on one.
    for n, bn in (("1", "24"), ("1", "5"), ("2", "7")):
        code, out, err = run_cli(
            capsys, "feder-gitler", "--n", n, "--k", "1", "--l", "8", "--Bn", bn
        )
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: --Bn {bn}\n")
    for n in ("2", "5"):
        code, out, err = run_cli(capsys, "feder-gitler", "--n", n, "--k", "1", "--l", "25")
        assert (code, out) == (2, "")
        assert err == "error: --n must be 1: B_n is computed only for n = 1\n"


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


def test_linking_at_its_sample_cap_holds_little_more_than_help():
    # The polygons are held as coordinate columns, 8 bytes a coordinate, and
    # the crossing sweeps keep only the boxes still open, so at the sample
    # cap, with a second pole tried (a sample of seed 23's reference pair
    # comes within 1e-3 of -1), linking needs about 1 MiB beyond --help.
    # Held as tuples, the 4096-gons took about 9 MiB more.
    code, out, help_kib = run_child_rusage([sys.executable, "-m", "stemcert.cli", "--help"])
    assert code == 0 and out
    argv = "--json --seed 23 --samples 4096 linking --trials 1".split()
    code, out, linking_kib = run_child_rusage([sys.executable, "-m", "stemcert.cli", *argv])
    assert code == 0
    assert json.loads(out)["reference"] == 1
    assert linking_kib - help_kib <= 1536


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
    assert len(blob["trials"]) == 3
    # Each trial is the exact sign of a non-zero integer determinant; the
    # first pair's disc crossings count that sign and its mirror pair has
    # the other.
    assert all(type(det) is int and det != 0 for det in blob["determinants"])
    assert blob["trials"] == [1 if det > 0 else -1 for det in blob["determinants"]]
    assert type(blob["reference"]) is int and blob["reference"] == blob["trials"][0]
    assert type(blob["mirror_determinant"]) is int and blob["mirror_determinant"] < 0
    assert type(blob["unlinked_control"]) is int and blob["unlinked_control"] == 0


@pytest.mark.parametrize("samples", ["64", "128", "1024"])
def test_linking_reference_and_control_are_exact_integers(capsys, samples):
    for seed in ("1", "2", "3", "7"):
        code, out, err = run_cli(
            capsys, "--json", "--seed", seed, "--samples", samples, "linking", "--trials", "3"
        )
        assert code == 0, err
        blob = json.loads(out)
        assert type(blob["reference"]) is int and blob["reference"] == blob["trials"][0]
        assert type(blob["unlinked_control"]) is int and blob["unlinked_control"] == 0


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
        ("circle_linking", lambda real: lambda a, b: -real(a, b), "the reference crossing count is -1"),
        # The control's second circle moved through the first one's disc.
        ("UNLINKED_CONTROL", lambda real: (real[0], span_circle(*MOVED)), "unlinked control reads -1"),
        (
            "fiber_circle_linking",
            lambda real: lambda q, r, mirror=False: real(q, r),
            "the mirror crossing count is +1, not -1",
        ),
        ("mirror_determinant", lambda real: lambda q, r: -real(q, r), "is not negative"),
        # r = q i: the pair lies on one circle of the mirror fibration.
        ("draw_fiber_pair", lambda real: lambda rng: ((1, 0, 1, 0), (0, 1, 0, -1)), "mirror determinant 0"),
        # r = 2 q: the pair lies on one Hopf fiber.
        ("draw_fiber_pair", lambda real: lambda rng: ((1, 2, 0, 0), (2, 4, 0, 0)), "zero fiber determinant"),
    ],
    ids=[
        "crossing-sign",
        "control-through-disc",
        "mirror-count",
        "mirror-positive",
        "mirror-zero",
        "zero-determinant",
    ],
)
def test_linking_exits_three_on_a_tampered_certificate(capsys, monkeypatch, name, tamper, message):
    from stemcert import hopf

    monkeypatch.setattr(hopf, name, tamper(getattr(hopf, name)))
    code, out, err = run_cli(capsys, "--samples", "64", "linking", "--trials", "2")
    assert (code, out) == (3, "")
    assert message in err


def test_linking_exits_three_once_every_move_leaves_the_projection_degenerate(
    capsys, monkeypatch
):
    # Seed 23's first pair: r = (3, -2, 0, 0) lies on the fiber through the
    # pole -1, so the count needs the move by 1 + j, which is taken away.
    from stemcert import hopf

    code, out, err = run_cli(capsys, "--json", "--seed", "23", "linking", "--trials", "1")
    assert code == 0, err
    assert json.loads(out)["pairs"] == [[[6, -2, -5, -6], [3, -2, 0, 0]]]
    monkeypatch.setattr(hopf, "_MOVES", ((1, 0, 0, 0),))
    code, out, err = run_cli(capsys, "--seed", "23", "linking", "--trials", "1")
    assert (code, out) == (3, "")
    assert err == (
        "verification failure: every projection of the fibers through (6, -2, -5, -6) and "
        "(3, -2, 0, 0) is degenerate (1 moves; the last: a fiber passes through the pole)\n"
    )


def test_linking_json_depends_on_samples_only_through_its_echo(capsys):
    # No certificate reads --samples; it is accepted within its bounds and
    # echoed back.
    blobs = []
    for samples in ("64", "4096"):
        code, out, err = run_cli(capsys, "--json", "--seed", "5", "--samples", samples, "linking")
        assert (code, err) == (0, "")
        blobs.append(json.loads(out))
    assert [blob.pop("samples") for blob in blobs] == [64, 4096]
    assert blobs[0] == blobs[1]


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
        (("thom", "--family", "complex", "--n", "1", "--mult", "1", "--suspend", "{}"), "--suspend", 100000),
        (("lift", "--loop", "gamma", "--steps", "{}"), "--steps", 65536),
        # 1000 integer trials and three exact circle counts take about 0.03 s.
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
        "thom-suspend",
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
    at_cap = out
    code, out, err = run(cap + 1)
    assert code == 2
    assert out == ""
    assert f"error: {flag} must be at most {cap}" in err
    if flag.endswith(("index", "exponent")):
        # Digits inside a label or a list, which int() refuses past 4300:
        # leading zeros are read past, and too many digits get the cap.
        assert run("0" * 5000 + str(cap)) == (0, at_cap, "")
        assert run("9" * 5000) == (2, "", f"error: {flag} must be at most {cap}\n")


#: Malformed values for every subcommand, each with the exit code it must
#: give: 0 for a value that is valid after all, 2 for a value rejected by
#: the program or by the command-line parser, 3 for a failed ``--expect``.
MALFORMED = [
    ("bernoulli --n 3", 2),
    ("bernoulli --n -2", 2),
    ("bernoulli --n 0", 0),
    ("bernoulli --n x", 2),
    ("bernoulli --n 123456789012345678901234567890", 2),
    ("jorder --t 2 --K 0", 2),
    ("jorder --t 2 --K -5", 2),
    ("jorder --t 2 --K 1", 2),
    ("jorder --t 0", 2),
    ("jorder --t 3", 0),
    ("jorder --t -2", 2),
    ("jorder --t 2 --N 0", 2),
    ("jorder --t 2 --N -1", 2),
    ("jorder --t 2 --expect 0", 3),
    ("adams --space hp2 --k 2 --elem phi^-1", 2),
    ("adams --space hp2 --k 2 --elem 3*phi", 2),
    ("adams --space hp2 --k 2 --elem phi^0", 2),
    ("adams --space hp2 --k 2 --elem ''", 2),
    ("adams --space hp2 --k 2 --elem mu", 2),
    ("adams --space cp2 --k 2 --elem mu^3", 2),
    ("adams --space cp2 --k 0 --elem mu", 2),
    ("adams --space cp2 --k -3 --elem mu", 2),
    ("adams --space cp0 --k 2 --elem mu", 2),
    ("adams --space xx --k 2 --elem mu", 2),
    ("einv --space hp2 --primes 1", 2),
    ("einv --space hp2 --primes ''", 2),
    ("einv --space hp2 --primes ,,", 2),
    ("einv --space hp2 --primes 2.0", 2),
    ("einv --space cp3", 2),
    ("einv --space s2", 2),
    ("einv --space hp2 --expect-verdict Splits", 3),
    ("einv --space hp2 --expect-verdict Bogus", 2),
    ("thom --family complex --n 2 --mult 3 --suspend -1", 2),
    ("thom --family complex --n 0 --mult 3", 2),
    ("thom --family complex --n -1 --mult 3", 2),
    ("thom --family complex --n 2 --mult 0", 2),
    ("thom --family complex --n 2 --mult -3", 2),
    ("thom --family real --n 2 --mult 3", 2),
    ("feder-gitler --n 1 --k 12 --l 0 --Bn 0", 2),
    ("feder-gitler --n 1 --k 12 --l 0 --Bn -24", 2),
    ("feder-gitler --n 0 --k 12 --l 0", 2),
    ("feder-gitler --n -1 --k 12 --l 0", 2),
    ("feder-gitler --n 2 --k 12 --l 0", 2),
    ("feder-gitler --n 2 --k 12 --l 0 --Bn 0", 2),
    ("feder-gitler --n 2 --k 1 --l 8 --Bn 7", 2),
    ("feder-gitler --n 1 --k -1 --l 0", 2),
    ("lift --loop homotopy --slice nan", 2),
    ("lift --loop homotopy --slice inf", 2),
    ("lift --loop homotopy --slice -0.5", 2),
    ("lift --loop homotopy --slice 2", 2),
    ("lift --turns 0", 2),
    ("lift --turns -1", 2),
    ("lift --steps 0", 2),
    ("lift --steps 255", 2),
    ("lift --loop nope", 2),
    ("lift --variant beta", 2),
    ("lift --expect-monodromy 1", 3),
    ("report --stem 4", 2),
    ("report --stem 0", 2),
    ("report --stem x", 2),
    ("linking --trials 0", 2),
    ("--seed 123456789012345678901234567890 --samples 64 linking --trials 1", 0),
    ("--samples nan linking", 2),
    ("--seed x linking", 2),
]


@pytest.mark.parametrize("line,code", MALFORMED, ids=[line for line, _ in MALFORMED])
def test_malformed_values_exit_with_a_deliberate_message(capsys, line, code):
    # In this process: main returns every exit code, a rejected argument's
    # included; no value may escape as an uncaught exception.
    got = cli.main(shlex.split(line))
    out, err = capsys.readouterr()
    assert got == code, err
    if code == 0:
        assert err == "" and out
    else:
        assert err.startswith(("error: ", "verification failure: ", "usage: ")), err


def test_malformed_values_cover_every_subcommand():
    subcommands = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    covered = {next(a for a in shlex.split(line) if a in subcommands) for line, _ in MALFORMED}
    assert covered == subcommands


@pytest.mark.parametrize("seed,moved", [("0", False), ("23", True)])
def test_linking_counts_the_same_circle_pairs_whatever_its_trial_count(
    capsys, monkeypatch, seed, moved
):
    # The trials are integer determinants; only the first pair's fibers, in
    # both fibrations, are projected to circles, so that work does not grow
    # with --trials.  At seed 23 the first pair needs a move, and --trials
    # changes that no more than at seed 0.
    from stemcert import hopf

    fiber_circle = hopf._fiber_circle

    def counted(q, mirror):
        calls.append(None)
        return fiber_circle(q, mirror)

    monkeypatch.setattr(hopf, "_fiber_circle", counted)
    counts = {}
    for trials in ("1", "1000"):
        calls = []
        code, out, err = run_cli(
            capsys, "--json", "--seed", seed, "--samples", "64", "linking", "--trials", trials
        )
        assert code == 0, err
        assert len(json.loads(out)["determinants"]) == int(trials)
        assert (len(calls) > 4) == moved
        counts[trials] = len(calls)
    assert counts["1"] == counts["1000"]


#: SHA-256 (first 16 hex digits) of ``--json --seed S --samples N linking``
#: stdout, as the tuple-based polygons of the previous release printed it.
LINKING_DIGESTS = {
    (0, 64): "6ffa36f9115154a8",
    (0, 512): "19069e709db456fe",
    (0, 1024): "6c676b9332555bb6",
    (1, 64): "82c4060724ef6ceb",
    (1, 512): "d723b170ec2f979b",
    (1, 1024): "c0fbaea20b8f62ee",
    (2, 64): "f8d5817b583e9433",
    (2, 512): "e53a287eb1554645",
    (2, 1024): "de0716513e2de702",
    (3, 64): "84295295d7dedcc1",
    (3, 512): "6891f01ad0c24c2b",
    (3, 1024): "a6c2936b36ec30ca",
    (4, 64): "95561e7ee8051a3d",
    (4, 512): "bf08b16b12b9f902",
    (4, 1024): "1505066f391c0b7b",
    (5, 64): "40470994a225f783",
    (5, 512): "d9f412600fc8f8eb",
    (5, 1024): "1397ee7d24230f00",
    (6, 64): "e84a837f6a81aeda",
    (6, 512): "232aa11150e80d74",
    (6, 1024): "4f2b93423bdac70a",
    (7, 64): "45237f58a2772c3e",
    (7, 512): "a7bd8a6aecb44aa9",
    (7, 1024): "40c562b7160c2e51",
    (8, 64): "5f36161d20f451c8",
    (8, 512): "5b7738e13e550d4f",
    (8, 1024): "900295400b87af43",
    (9, 64): "36b4ba947ee557c6",
    (9, 512): "45fba139fcf2edf8",
    (9, 1024): "838257ec7d2f2afa",
    (23, 64): "ece2119a422d27a9",
    (23, 512): "78eccf9b1096bef1",
    (23, 1024): "661da59044c58fc3",
    (23, 4096): "5afe40df96b6645d",
}


def test_linking_json_is_byte_identical_to_the_recorded_digests(capsys):
    for (seed, samples), digest in LINKING_DIGESTS.items():
        argv = f"--json --seed {seed} --samples {samples} linking".split()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, (seed, samples)


def test_linking_at_both_caps_runs_within_its_time_bound(capsys):
    # Three exact circle counts and 1000 determinants: about 0.03 s in this
    # process on a 2-vCPU x86-64 VM.  The bound leaves room for a loaded
    # machine.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", "--samples", "4096", "linking", "--trials", "1000")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert len(json.loads(out)["trials"]) == 1000
    assert elapsed < 2.0


#: The loops other than the homotopy, each lifted at the step cap too.
CAPPED_LOOPS = [loop for loop in ONE_TURN_MONODROMY if loop != "homotopy"]
#: Every other capped command at its caps, as the CI caps step runs it.
CAPPED_COMMANDS = [
    "jorder --t 2000 --K 1024 --N 4096",
    "bernoulli --n 2000",
    "adams --space hp256 --k 256 --elem phi^32",
    "einv --space s256-smash-cp2 --primes " + ",".join(map(str, range(193, 257))),
    "lift --loop homotopy --steps 65536",
    "thom --family complex --n 100000 --mult 100000 --suspend 100000",
    "thom --family quaternionic --n 100000 --mult 100000 --suspend 100000",
    *(f"lift --loop {loop} --steps 65536" for loop in CAPPED_LOOPS),
]


@pytest.mark.parametrize(
    "command",
    CAPPED_COMMANDS,
    ids=[
        "jorder",
        "bernoulli",
        "adams",
        "einv",
        "lift",
        "thom-complex",
        "thom-quaternionic",
        *(f"lift-{loop}" for loop in CAPPED_LOOPS),
    ],
)
def test_capped_commands_run_within_their_time_bound(capsys, command):
    # At most about 0.55 s each (jorder and bernoulli 0.53-0.55 s, adams
    # 0.19 s; a lift takes 0.12-0.23 s) in this process on a 2-vCPU x86-64
    # VM.  The bound leaves room for a loaded machine.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--json", *command.split())
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert json.loads(out)
    assert elapsed < 5.0


def test_linking_runs_in_one_process(capsys, monkeypatch):
    def no_fork(*args):
        raise AssertionError("linking forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run_cli(capsys, "--samples", "64", "linking", "--trials", "2")
    assert code == 0, err


#: A unit circle in the xy-plane and one through its disc, in the xz-plane:
#: linking number +-1.
LINKED_CIRCLES = (((0, 0, 1), (0, 0, 0), 1, 1, 1), ((0, -1, 0), (1, 0, 0), 1, 1, 1))


def refuse(*args, **kwargs):
    raise ValueError("no reference")


@pytest.mark.parametrize(
    "name,replacement,code,message",
    [
        ("fiber_circle_linking", refuse, 2, "error: no reference\n"),
        (
            "UNLINKED_CONTROL",
            LINKED_CIRCLES,
            3,
            "verification failure: linking certificate failed: unlinked control reads ",
        ),
        (
            "UNLINKED_CONTROL",
            (LINKED_CIRCLES[0], LINKED_CIRCLES[0]),
            3,
            "verification failure: linking certificate failed: unlinked control: "
            "the circles are coplanar\n",
        ),
    ],
    ids=["reference-error", "linked-control", "touching-control"],
)
def test_linking_errors_exit_with_their_own_codes(capsys, monkeypatch, name, replacement, code, message):
    from stemcert import hopf

    monkeypatch.setattr(hopf, name, replacement)
    got_code, out, err = run_cli(capsys, "--samples", "64", "linking", "--trials", "2")
    assert (got_code, out) == (code, "")
    assert err.startswith(message), err


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
    recovered = json.loads(out)
    assert recovered == build_stem_report(stem)
    assert replay(recovered) is True
    assert recovered["group"] == group


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
