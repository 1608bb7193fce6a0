"""The names that ``BENCHMARK.json`` reads from the package still exist,
and one pass of each workload runs and satisfies its oracles.

The benchmark's tracer wraps, per layer, the functions that the layer's
``__all__`` lists (``cli``: ``main`` and ``cmd_*``), and its provenance
probe calls ``stemcert._kernels.get_backend()``.  A per-layer metric whose
layer or function is gone reads "absent", and a failing probe stops the
benchmark before it prints a result line.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from stemcert.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
PERFBENCH = ROOT / "perfbench"


def per_layer_calls():
    """``(layer, function or None)`` for each declared ``*.calls`` metric."""
    pairs = []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        if name.endswith(".calls"):
            layer, _, function = name[: -len(".calls")].partition(".")
            pairs.append((layer, function or None))
    return pairs


def layer_module(layer):
    return importlib.import_module(
        "stemcert._kernels" if layer == "kernels" else f"stemcert.{layer}"
    )


@pytest.mark.parametrize(
    "layer,function", per_layer_calls(), ids=lambda part: part or "layer"
)
def test_declared_layer_metric_names_an_existing_target(layer, function):
    module = layer_module(layer)
    if function is None:
        return
    if layer == "cli":
        assert function == "main" or function.startswith("cmd_")
    else:
        assert function in module.__all__
    assert callable(getattr(module, function))


def test_kernel_module_reports_its_backend():
    assert isinstance(layer_module("kernels").get_backend(), str)


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module.  Importing it points
    ``sys.pycache_prefix`` at the benchmark's scratch directory and needs
    ``perfbench`` on ``sys.path``; both are restored afterwards."""
    prefix, path = sys.pycache_prefix, list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.pycache_prefix = prefix
        sys.path[:] = path
    return module


def test_benchmark_probe_runs(bench):
    # Raises unless a child imports ``stemcert.cli`` from this checkout and
    # reads the kernel backend.
    bench.probe(bench.child_env())


@pytest.mark.parametrize("workload", ["certify", "scale"])
def test_one_benchmark_pass_satisfies_its_oracles(bench, workload, capsys):
    for inv in bench.WORKLOADS[workload](1, 0):
        code = main(list(inv.argv))
        out, err = capsys.readouterr()
        assert code == 0, (inv.argv, err)
        inv.check(json.loads(out))
