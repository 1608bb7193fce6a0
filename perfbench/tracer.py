"""Run one stemcert CLI invocation in this process with its layers traced.

Usage: ``python tracer.py TRACE_OUT ARG...`` with ``src`` on ``PYTHONPATH``.
It imports ``stemcert.cli``, wraps every function of each layer, calls
``stemcert.cli.main(ARG...)`` and exits with its return code.  The CLI's
output goes to stdout as usual; TRACE_OUT receives one JSON object with the
start-up times and, per wrapped function, ``[calls, self_s, errors]``.

A function belongs to the layer whose ``__all__`` lists it (a layer without
``__all__`` contributes its public functions; ``cli`` contributes ``main``
and ``cmd_*``).  It is wrapped in every ``stemcert`` module that binds it,
so ``cli.adams`` and ``hopf``'s view of ``_kernels.gauss_linking_sum`` both
count.  Self time is a call's duration minus that of the wrapped calls it
made.  Each invocation needs its own process: the package caches Bernoulli
numbers in memory, which a CLI user never reuses.
"""

import time

T_ENTER = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LAYERS = ("cli", "derivation", "reports", "kring", "einv", "jorder", "exact", "hopf", "_kernels")


def layer_functions(layer: str, module) -> dict:
    """Public callables of one layer module, by name."""
    if layer == "cli":
        names = ["main"] + [n for n in vars(module) if n.startswith("cmd_")]
    elif hasattr(module, "__all__"):
        names = module.__all__
    else:
        names = [
            n
            for n, v in vars(module).items()
            if not n.startswith("_")
            and isinstance(v, types.FunctionType)
            and v.__module__ == module.__name__
        ]
    found = {}
    for name in names:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type):
            found[name] = obj
    return found


class Tracer:
    """Per-function call counts, self times and escaped exceptions."""

    def __init__(self):
        self.stats = {}
        self._children = []

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                span = clock() - start
                stat[0] += 1
                stat[1] += span - children.pop()
                if children:
                    children[-1] += span

        return traced

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"stemcert.{layer}")
            except ImportError:
                continue
            for name, fn in layer_functions(layer, module).items():
                key = f"{layer.lstrip('_')}.{name}"  # metric names start with a letter
                targets.setdefault(id(fn), (fn, self.wrap(key, fn)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stemcert" and not mod_name.startswith("stemcert."):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t_import = time.perf_counter()
    import stemcert.cli

    t_imported = time.perf_counter()
    numpy_loaded = "numpy" in sys.modules
    tracer = Tracer()
    tracer.install()
    t_installed = time.perf_counter()
    rc = None
    try:
        rc = stemcert.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "t_enter": T_ENTER,
                    "import_s": t_imported - t_import,
                    "install_s": (t_import - T_ENTER) + (t_installed - t_imported),
                    "numpy_loaded": numpy_loaded,
                    "rc": rc,
                    "funcs": tracer.stats,
                },
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
