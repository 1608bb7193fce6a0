"""Every public function and method runs on a command-line path or is a
named oracle.

One fresh interpreter runs every subcommand through ``stemcert.cli.main``
under ``sys.setprofile`` and records the code objects that ran, from the
first import on, so calls made at import time (``register_check``) count.
A module-level function in a layer's ``__all__`` that never ran must be
listed in ``ORACLES`` with the reason it stays, and so must a public method,
property getter or staticmethod defined on a class in that ``__all__``.  A
class listed in ``ORACLES`` exempts its methods.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import stemcert

LAYERS = ("derivation", "reports", "kring", "einv", "jorder", "exact", "hopf", "so3", "_kernels")

#: Public functions, methods and classes that no subcommand runs, by
#: defining module, and why each stays.
ORACLES = {
    "stemcert.kring.laurent_to_phi": (
        "Laurent reduction, the independent check of the closed form for "
        "psi^k on HP^n"
    ),
    "stemcert.einv.conjugacy_witness": (
        "brute-force integer-conjugacy search, the oracle for the splitting verdicts"
    ),
    "stemcert.kring.LaurentPoly": (
        "the Laurent polynomials of the laurent_to_phi reduction"
    ),
    "stemcert.einv.TwoCellModel.diagonal": (
        "the diagonal entries k^a and k^b, which only conjugacy_witness reads"
    ),
    "stemcert.hopf.hopf_map": (
        "the Hopf map conj(q) i q by quaternion products, against which the "
        "tests check the closed form _hopf_point that base_point and "
        "fiber_curve map through"
    ),
    "stemcert.hopf.rot_from_quat": (
        "the double cover S^3 -> SO(3), which quat_from_rot inverts"
    ),
    "stemcert.hopf.stereographic_inverse": (
        "inverts the stereographic projection that fiber_linking runs"
    ),
    "stemcert._kernels.get_backend": "names the kernel implementation in benchmark provenance",
    "stemcert.hopf.gauss_linking": (
        "the float Gauss-integral oracle of criterion 10, against which "
        "circle_linking's disc crossings are checked"
    ),
    "stemcert.hopf.fiber_linking": (
        "the float Gauss-integral oracle of criterion 10 for a pair of fibers"
    ),
    "stemcert._kernels.gauss_linking_sum": (
        "the double sum of the float Gauss-integral oracle of criterion 10"
    ),
    "stemcert.hopf.random_sphere_point": (
        "uniform float base points for the Gauss-integral oracle of criterion 10"
    ),
    "stemcert.hopf.choose_pole": (
        "the projection pole of fiber_linking, the float oracle of criterion 10"
    ),
    # linking counts the round circles exactly; these sample them for the
    # float oracle.
    "stemcert.hopf.base_point": (
        "the float base point of an integer fiber, where fiber_linking, the float oracle, samples it"
    ),
    "stemcert.hopf.fiber_curve": "the fiber samples of fiber_linking, the float oracle",
    "stemcert.hopf.stereographic": "the projection of fiber_linking, the float oracle",
    "stemcert.hopf.unlinked_control": (
        "samples of the circles UNLINKED_CONTROL gives circle_linking, for the float oracle"
    ),
    # The so3 loop builders check their arguments once per loop and build
    # each sample by the arithmetic of these point functions, which
    # tests/test_so3.py checks them against.
    "stemcert.so3.matrix_path": "the gamma, alpha and beta samples of loop_matrices",
    "stemcert.so3.loop_point": "the ball-gamma samples of loop_matrices, through ball_to_rotation",
    "stemcert.so3.ball_to_rotation": "the ball-gamma and homotopy samples",
}

LOOPS = ("gamma", "alpha", "beta", "alpha-then-beta", "ball-gamma", "identity", "homotopy")
COMMANDS = [
    *(["report", "--stem", str(stem)] for stem in (1, 2, 3)),
    ["jorder", "--t", "2"],
    ["bernoulli", "--n", "12"],
    ["adams", "--space", "cp2", "--k", "3", "--elem", "mu"],
    ["adams", "--space", "hp2", "--k", "3", "--elem", "phi"],
    ["adams", "--space", "s2-smash-cp2", "--k", "3", "--elem", "mu*nu"],
    ["einv", "--space", "s2-smash-cp2"],
    ["einv", "--space", "hp2"],
    ["feder-gitler", "--n", "1", "--k", "12", "--l", "0"],
    ["thom", "--family", "quaternionic", "--n", "1", "--mult", "24", "--suspend", "1"],
    ["linking", "--trials", "2"],
    *(["lift", "--loop", loop] for loop in LOOPS),
    ["lift", "--loop", "homotopy", "--variant", "beta", "--slice", "0.5"],
]

# Runs every argv of argv[1] through stemcert.cli.main with a profiler that
# records each Python code object entered, then prints the exit codes and
# which public functions and methods of the layers in argv[2] ran.
TRACE_IN_CHILD = """
import contextlib, importlib, io, json, sys, types
seen = set()

def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(record)
from stemcert.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)

def public_functions(module):
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.FunctionType):
            yield value.__module__ + "." + value.__name__, value
        elif isinstance(value, type):
            for attr, member in vars(value).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, staticmethod):
                    member = member.__func__
                if not attr.startswith("_") and isinstance(member, types.FunctionType):
                    yield f"{value.__module__}.{value.__qualname__}.{attr}", member

ran, idle = set(), set()
for layer in json.loads(sys.argv[2]):
    module = importlib.import_module("stemcert." + layer)
    for key, fn in public_functions(module):
        (ran if fn.__code__ in seen else idle).add(key)
print(json.dumps({"codes": codes, "ran": sorted(ran), "idle": sorted(idle)}))
"""


def test_every_public_function_runs_on_a_command_or_is_an_oracle():
    argvs = COMMANDS + [["--json", *argv] for argv in COMMANDS]
    env = dict(os.environ)
    package_parent = str(Path(stemcert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_IN_CHILD, json.dumps(argvs), json.dumps(LAYERS)],
        capture_output=True,
        text=True,
        env=env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["codes"] == [0] * len(argvs), proc.stderr
    idle = set(child["idle"])
    owners = {key.rpartition(".")[0] for key in idle}
    exempt = set(ORACLES) | {key for key in idle if key.rpartition(".")[0] in ORACLES}
    # Nothing public is left that neither a command nor an oracle needs...
    assert sorted(idle - exempt) == []
    # ...and each exception names a function or method that no command runs,
    # or a class with such a method.
    assert sorted(set(ORACLES) - idle - owners) == []
    assert elapsed < 3.0
