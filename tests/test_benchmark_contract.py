"""The names that ``BENCHMARK.json`` reads from the package still exist.

The benchmark's tracer wraps, per layer, the functions that the layer's
``__all__`` lists (``cli``: ``main`` and ``cmd_*``), and its provenance
probe calls ``stemcert._kernels.get_backend()``.  A per-layer metric whose
layer or function is gone reads "absent", and a missing ``get_backend``
stops the benchmark before it measures anything.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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
