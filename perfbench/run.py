#!/usr/bin/env python3
"""Closed-loop benchmark of the stemcert command-line interface.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 56 --trace 0

The benchmark process runs one ``python -m stemcert.cli --json ...`` child at a
time, so every timing includes interpreter start-up and imports, as a user
or CI job pays them.  A *pass* is a workload's fixed list of invocations;
the seed picks the small inputs and the sizes within each band, and every
output is checked by ``oracles.py``, which shares no code with the program.
Passes repeat until ``--seconds`` is used up, each preceded by no-work
``--help`` invocations that give the set-up time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` pairs every
untraced pass with a traced one on the same inputs, in which each child is
``tracer.py`` running ``stemcert.cli.main`` with every layer function
wrapped, and reports per-layer metrics.  The last line of stdout is one
JSON object; the lines before it are the same numbers for a reader, with
sample counts and provenance.  Exit status 1 means an output was wrong or
an invocation failed; 2 means the checkout has no stemcert sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
sys.pycache_prefix = str(WORK / "pycache")

import oracles  # noqa: E402
from tracer import LAYERS  # noqa: E402

#: Longest a single child may run before it is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Passes measured even when one pass alone outlasts ``--seconds``.
MIN_PASSES = 2
#: No-work ``--help`` invocations before each pass; their median is setup_s.
HELP_PER_PASS = 2

#: Layer names as metric prefixes: the ``stemcert._kernels`` module reports
#: as ``kernels``, since a metric name starts with a letter.
METRIC_LAYERS = tuple(layer.lstrip("_") for layer in LAYERS)
#: Functions whose own self time later changes are expected to move.
HOT_FUNCTIONS = {
    "jorder": ("bernoulli", "stabilized_gcd", "m_closed_form"),
    "kring": ("adams", "adams_matrix", "mul", "make_ring"),
    "einv": ("splitting_verdict", "two_cell_from"),
    "derivation": ("replay_step",),
    "reports": ("build_stem_report",),
    "hopf": (
        "fiber_curve",
        "choose_pole",
        "fiber_linking",
        "gauss_linking",
        "random_sphere_point",
        "lift_loop",
        "loop_matrices",
        "matrix_path",
        "quat_from_rot",
        "homotopy_slice_matrices",
        "ball_to_rotation",
    ),
    "kernels": ("gauss_linking_sum",),
    "exact": ("is_prime", "gcd"),
}
#: Log-log slope of per-call self time against the size each row scales.
SCALING = ("jorder.bernoulli", "kring.adams", "hopf.gauss_linking")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in METRIC_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    units.update({"startup.import_s": "s", "startup.interp_s": "s", "startup.numpy_loaded": "flag"})
    for layer, names in HOT_FUNCTIONS.items():
        for name in names:
            units.update({f"{layer}.{name}.calls": "count", f"{layer}.{name}.self_s": "s"})
    units.update({f"{key}.scaling_exp": "slope" for key in SCALING})
    units.update(
        {
            "hopf.sphere_draw_ratio": "ratio",
            "hopf.linking_max_dev": "abs",
            "trace.overhead_ratio": "ratio",
            "trace.install_s": "s",
            "trace.remainder_s": "s",
        }
    )
    return units


# --------------------------------------------------------------------------
# Workloads: one pass each, inputs drawn from (seed, pass index)
# --------------------------------------------------------------------------


class Invocation(NamedTuple):
    argv: tuple
    check: Callable  # parsed JSON -> None, or the linking deviation
    size: Optional[tuple] = None  # (traced function, size) for scaling fits
    trials: int = 0  # linking trials, each drawing two useful base points


def _inv(args: str, check, size=None, **check_kw) -> Invocation:
    return Invocation(("--json", *args.split()), partial(check, **check_kw), size)


def certify(seed: int, index: int) -> list:
    """Every subcommand but ``linking`` once, at its default size."""
    rng = random.Random(seed * 1_000_003 + index)
    k = rng.randint(2, 9)
    fg_k = rng.randint(0, 48)
    fg_l = fg_k + 24 * rng.randint(0, 2) if rng.random() < 0.5 else rng.randint(0, 96)
    family = rng.choice(["complex", "quaternionic"])
    n, mult, suspend = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
    variant, s = rng.choice(["alpha", "beta"]), round(rng.random(), 3)
    rows = [_inv(f"report --stem {stem}", oracles.check_report, stem=stem) for stem in (1, 2, 3)]
    rows += [
        _inv("jorder --t 2", oracles.check_jorder, t=2, size=("jorder.bernoulli", 2)),
        _inv("bernoulli --n 12", oracles.check_bernoulli, n=12, size=("jorder.bernoulli", 12)),
    ]
    rows += [
        _inv(f"adams --space {space} --k {k} --elem {elem}", oracles.check_adams, space=space, k=k, elem=elem)
        for space, elem in (("cp2", "mu"), ("hp2", "phi"), ("s2-smash-cp2", "mu*nu"))
    ]
    rows += [_inv(f"einv --space {space}", oracles.check_einv, space=space) for space in ("s2-smash-cp2", "hp2")]
    rows += [
        _inv(f"feder-gitler --n 1 --k {fg_k} --l {fg_l}", oracles.check_feder_gitler, k=fg_k, l=fg_l),
        _inv(
            f"thom --family {family} --n {n} --mult {mult} --suspend {suspend}",
            oracles.check_thom,
            family=family,
            n=n,
            mult=mult,
            suspend=suspend,
        ),
        _inv("lift --loop gamma", oracles.check_lift, loop="gamma", steps=1024),
        _inv(
            f"lift --loop homotopy --variant {variant} --slice {s}",
            oracles.check_lift,
            loop="homotopy",
            steps=1024,
        ),
    ]
    return rows


GOLDEN = (math.sqrt(5) - 1) / 2


def _band(lo: int, hi: int, u: float, step: int = 1) -> int:
    return lo + step * round((hi - lo) / step * u)


def exact_rows(seed: int, index: int) -> list:
    """Bernoulli numbers and the Laurent reduction at sizes where they
    dominate; ``hopf`` stays idle.  Sizes follow a golden-ratio sequence from a seeded start, and
    each pass pairs a size with its mirror image in the band, so passes cost
    about the same while the run still covers the whole band."""
    u = (random.Random(seed).random() + index * GOLDEN) % 1.0
    t1, t2 = _band(240, 400, u, 2), _band(240, 400, 1 - u, 2)
    n = _band(300, 400, (u + 0.5) % 1.0, 2)
    v = (u + 0.25) % 1.0
    rows = [
        _inv(f"jorder --t {t}", oracles.check_jorder, t=t, size=("jorder.bernoulli", t)) for t in (t1, t2)
    ]
    rows.append(_inv(f"bernoulli --n {n}", oracles.check_bernoulli, n=n, size=("jorder.bernoulli", n)))
    rows += [
        _inv(
            f"adams --space hp{h} --k {h} --elem phi",
            oracles.check_adams,
            space=f"hp{h}",
            k=h,
            elem="phi",
            size=("kring.adams", h),
        )
        for h in (_band(60, 110, v), _band(60, 110, 1 - v))
    ]
    rows += [
        _inv("adams --space cp60 --k 7 --elem mu", oracles.check_adams, space="cp60", k=7, elem="mu"),
        _inv(
            "adams --space s2-smash-hp30 --k 30 --elem phi*nu",
            oracles.check_adams,
            space="s2-smash-hp30",
            k=30,
            elem="phi*nu",
        ),
    ]
    return rows


def geometry_rows(seed: int, index: int) -> list:
    """Fiber sampling, projection, the separation check and the Gauss sum at
    three sample counts, plus long loop lifts; the exact layers stay idle."""
    rng = random.Random(seed * 1_000_003 + index)
    cli_seed = rng.randrange(2**31)
    variant, s = rng.choice(["alpha", "beta"]), round(rng.random(), 3)
    rows = []
    for samples, trials in ((None, 20), (1024, 4), (128, 300)):
        opt = f" --samples {samples}" if samples else ""
        rows.append(
            Invocation(
                ("--json", *f"--seed {cli_seed}{opt} linking --trials {trials}".split()),
                partial(oracles.check_linking, trials=trials, samples=samples or 512),
                ("hopf.gauss_linking", samples or 512),
                trials,
            )
        )
    rows += [
        _inv("lift --loop gamma --steps 16384", oracles.check_lift, loop="gamma", steps=16384),
        _inv(
            f"lift --loop homotopy --variant {variant} --slice {s} --steps 16384",
            oracles.check_lift,
            loop="homotopy",
            steps=16384,
        ),
    ]
    return rows


def scale(seed: int, index: int) -> list:
    """The exact rows and the geometry rows in one pass."""
    return exact_rows(seed, index) + geometry_rows(seed, index)


# The exact and geometry rows share one workload so that each run can last
# about a minute: on a shared 2-vCPU machine, runs of 35-40 s left a
# run-to-run spread of about 20%, and 60 s runs about 7%.
WORKLOADS = {"certify": certify, "scale": scale}


# --------------------------------------------------------------------------
# Running children
# --------------------------------------------------------------------------


@dataclass
class Child:
    """One finished child process and what its output showed."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    t_spawn: float
    error: Optional[str] = None
    deviation: Optional[float] = None
    trace: Optional[dict] = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(cmd: list, env: dict) -> tuple:
    """Run ``cmd`` to completion; return (Child with timings, stdout text)."""
    with open(WORK / "stdout", "wb+") as out, open(WORK / "stderr", "wb+") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text, err_text = out.read().decode(), err.read().decode()
    child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, t_spawn)
    if proc.returncode != 0:
        reason = "timed out" if wall >= CHILD_TIMEOUT_S else f"exit {proc.returncode}"
        child.error = f"{reason}: {err_text.strip()[-300:]}"
    return child, text


def run_help(env: dict) -> Child:
    child, text = spawn([sys.executable, "-m", "stemcert.cli", "--help"], env)
    if child.error is None:
        try:
            oracles.check_help(text)
        except oracles.OracleError as exc:
            child.error = str(exc)
    return child


def run_invocation(inv: Invocation, env: dict, traced: bool) -> Child:
    trace_path = WORK / "trace.json"
    if traced:
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), *inv.argv]
    else:
        cmd = [sys.executable, "-m", "stemcert.cli", *inv.argv]
    child, text = spawn(cmd, env)
    if child.error is None:
        try:
            child.deviation = inv.check(json.loads(text))
        except (oracles.OracleError, ValueError, KeyError, TypeError) as exc:
            child.error = f"{type(exc).__name__}: {exc}"
    if traced and child.error is None:
        child.trace = json.loads(trace_path.read_text())
    return child


@dataclass
class Pass:
    invocations: list
    children: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def run_pass(invocations: list, env: dict, traced: bool) -> Pass:
    result = Pass(invocations)
    for inv in invocations:
        result.children.append(run_invocation(inv, env, traced))
    return result


def probe(env: dict) -> dict:
    """Check which stemcert the children import, warm the bytecode cache,
    and read the versions and kernel backend."""
    code = (
        "import importlib, importlib.util, json, stemcert, stemcert.cli\n"
        "try:\n    import numpy; np_version = numpy.__version__\n"
        "except ImportError:\n    np_version = None\n"
        "backend = 'python'\n"
        "if importlib.util.find_spec('stemcert._kernels'):\n"
        "    backend = importlib.import_module('stemcert._kernels').get_backend()\n"
        "print(json.dumps({'file': stemcert.__file__, 'numpy': np_version, 'backend': backend}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import stemcert: {proc.stderr.strip()[-500:]}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"children import stemcert from {info['file']}, not from this checkout")
    return info


def provenance(seed: int, env: dict) -> dict:
    info = probe(env)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
        "backend": info["backend"],
    }


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def end_to_end(helps: list, passes: list) -> dict:
    latencies = [c.wall_s for p in passes for c in p.children]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(c.wall_s for c in helps),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": deciles[8],
        "cpu_s": statistics.median(sum(c.cpu_s for c in p.children) for p in passes),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in p.children) for p in passes),
    }


def _slope(points: list) -> float:
    """Least-squares slope of log y against log x; 0 without two sizes."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def breakdown(child: Child) -> dict:
    """Where a traced invocation's wall time went; the parts add up to it."""
    trace = child.trace
    parts = {
        "interp": trace["t_enter"] - child.t_spawn,
        "import": trace["import_s"],
        "install": trace["install_s"],
        "layers": sum(v[1] for v in trace["funcs"].values()),
    }
    parts["remainder"] = child.wall_s - sum(parts.values())
    return parts


def per_layer(pairs: list) -> dict:
    """Per-layer metrics from (untraced pass, traced pass) pairs.

    Counts and self times are summed over a pass and reported as the median
    over traced passes.  A metric of a function or layer the program no
    longer has is left out.
    """
    traced = [t for _, t in pairs]
    ok = [(inv, c) for p in traced for inv, c in zip(p.invocations, p.children) if c.trace]
    present = {key for _, c in ok for key in c.trace["funcs"]}

    def pass_sum(keys: list, column: int) -> float:
        return statistics.median(
            sum(c.trace["funcs"][k][column] for c in p.children if c.trace for k in keys if k in c.trace["funcs"])
            for p in traced
        )

    metrics = {}
    for layer in METRIC_LAYERS:
        keys = [k for k in present if k.split(".", 1)[0] == layer]
        if keys:
            for suffix, column in (("calls", 0), ("self_s", 1), ("errors", 2)):
                metrics[f"{layer}.{suffix}"] = pass_sum(keys, column)
    parts = [breakdown(c) for _, c in ok]
    metrics["startup.import_s"] = statistics.median(p["import"] for p in parts)
    metrics["startup.interp_s"] = statistics.median(p["interp"] for p in parts)
    metrics["startup.numpy_loaded"] = max(int(c.trace["numpy_loaded"]) for _, c in ok)
    for layer, names in HOT_FUNCTIONS.items():
        for name in names:
            key = f"{layer}.{name}"
            if key in present:
                metrics[f"{key}.calls"] = pass_sum([key], 0)
                metrics[f"{key}.self_s"] = pass_sum([key], 1)
    for key in SCALING:
        if key in present:
            points = [
                (inv.size[1], c.trace["funcs"][key][1] / c.trace["funcs"][key][0])
                for inv, c in ok
                if inv.size and inv.size[0] == key and c.trace["funcs"].get(key, [0])[0]
            ]
            metrics[f"{key}.scaling_exp"] = _slope(points)
    if "hopf.random_sphere_point" in present:
        draws = sum(c.trace["funcs"]["hopf.random_sphere_point"][0] for _, c in ok)
        useful = sum(2 * inv.trials for inv, c in ok)
        metrics["hopf.sphere_draw_ratio"] = useful / draws if draws else 0.0
    deviations = [c.deviation for p, _ in pairs for c in p.children if c.deviation is not None]
    metrics["hopf.linking_max_dev"] = max(deviations, default=0.0)
    metrics["trace.overhead_ratio"] = statistics.median(t.wall_s / u.wall_s for u, t in pairs)
    metrics["trace.install_s"] = statistics.median(p["install"] for p in parts)
    metrics["trace.remainder_s"] = statistics.median(p["remainder"] for p in parts)
    return metrics


# --------------------------------------------------------------------------
# Measurement loop
# --------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    """Alternate ``--help`` runs and passes until ``seconds`` are used up."""
    env = child_env()
    build = WORKLOADS[workload]
    helps, pairs, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        started = time.perf_counter()
        invocations = build(seed, index)
        helps += [run_help(env) for _ in range(HELP_PER_PASS)]
        plain = run_pass(invocations, env, traced=False)
        pairs.append((plain, run_pass(invocations, env, traced=True) if traced else None))
        index += 1
        rounds.append(time.perf_counter() - started)
        # Start another round only if at least half of it fits in the time left.
        if index >= MIN_PASSES and time.perf_counter() + statistics.median(rounds) / 2 > deadline:
            return helps, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stemcert" / "cli.py").is_file():
        print(f"no stemcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = child_env()
    info = provenance(args.seed, env)
    helps, pairs = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    children = helps + [c for p, t in pairs for c in p.children + (t.children if t else [])]
    failures = [c.error for c in children if c.error]
    passes = [p for p, _ in pairs]
    print(f"# {args.workload}: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# {len(passes)} passes of {len(passes[0].invocations)} invocations, {len(helps)} --help runs")
    for error in failures[:10]:
        print(f"# FAILED {error}")
    print(f"fail_rate {len(failures) / len(children):.4f} ({len(failures)}/{len(children)} invocations)")
    if args.trace:
        units = per_layer_units()
        metrics = per_layer(pairs) if not failures else {}
        for i, (_, traced) in enumerate(pairs if metrics else []):
            parts = [breakdown(c) for c in traced.children]
            total = " + ".join(f"{k} {sum(p[k] for p in parts):.3f}" for k in parts[0])
            print(f"# traced pass {i}: wall {traced.wall_s:.3f} s = {total}")
    else:
        units = END_TO_END
        metrics = end_to_end(helps, passes)
        pooled = sum(len(p.children) for p in passes)
        deviations = [c.deviation for p in passes for c in p.children if c.deviation is not None]
        if deviations:
            print(f"linking_max_dev {max(deviations):.6g} abs (max | |Lk| - 1 | over all trials)")
        print(f"# latency quantiles pool {pooled} invocations; setup_s is the median of {len(helps)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
        else:
            print(f"{name} absent")
    report = {
        "correct": not failures,
        "attempted": len(children),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    samples = {
        "help_wall_s": [c.wall_s for c in helps],
        "pass_wall_s": [p.wall_s for p in passes],
        "invocation_wall_s": [[c.wall_s for c in p.children] for p in passes],
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, **report, "samples": samples}, indent=1)
    )
    print(json.dumps(report))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
