"""Command-line surface: output contracts and exit codes."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
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


# Modules that only the geometric subcommands need; numpy comes in with them.
GEOMETRY_MODULES = ("numpy", "stemcert.hopf", "stemcert._kernels")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(argv):
    """Run ``argv`` against the same ``stemcert`` that this suite imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")])
    )
    return subprocess.run(argv, capture_output=True, text=True, env=env)


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
    # Positive control: the same probe sees numpy and hopf once linking runs.
    child = main_in_child(["linking", "--trials", "1"])
    assert child["codes"] == [0]
    assert {"numpy", "stemcert.hopf"} <= set(child["loaded"])


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


def test_linking_command_certifies(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "--seed", "11", "--samples", "256", "linking",
        "--trials", "3",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["max_deviation"] <= 0.02
    assert abs(blob["unlinked_control"]) <= 0.02
    assert len(blob["trials"]) == 3


def test_linking_rejects_zero_trials(capsys):
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "linking", "--trials", trials)
        assert code == 2
        assert out == ""
        assert "error: --trials must be at least 1" in err


def test_linking_rejects_samples_above_the_cap(capsys):
    code, out, err = run_cli(capsys, "--samples", "4097", "linking", "--trials", "1")
    assert code == 2
    assert out == ""
    assert "error: --samples must be at most 4096" in err


@pytest.mark.parametrize(
    "argv,flag,cap",
    [
        (("bernoulli", "--n"), "--n", 2000),
        (("jorder", "--t"), "--t", 2000),
        (("thom", "--family", "complex", "--mult", "1", "--n"), "--n", 100000),
        (("thom", "--family", "quaternionic", "--n", "1", "--mult"), "--mult", 100000),
        (("lift", "--loop", "gamma", "--steps"), "--steps", 65536),
    ],
    ids=["bernoulli-n", "jorder-t", "thom-n", "thom-mult", "lift-steps"],
)
def test_size_caps_answer_at_the_cap_and_reject_above_it(capsys, argv, flag, cap):
    code, out, err = run_cli(capsys, "--json", *argv, str(cap))
    assert code == 0, err
    assert json.loads(out)
    code, out, err = run_cli(capsys, "--json", *argv, str(cap + 1))
    assert code == 2
    assert out == ""
    assert f"error: {flag} must be at most {cap}" in err


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
