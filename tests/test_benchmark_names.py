"""Every per-layer metric of BENCHMARK.json names a function that exists.

The benchmark harness keys a per-layer metric ``<key>.<stat>`` by the
public sp4lr function or method it traces, or by a sub-key of one (as
``numerics.expm.n4``); a metric whose function was deleted or renamed
stops a traced run with a KeyError.  This test reads only BENCHMARK.json
and the package.
"""

import importlib
import inspect
import json
from pathlib import Path

_BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# metrics the harness computes itself instead of reading a traced function
_COMPUTED = ("trace.", "checks.worst_ratio", "lr_ode.evolve.expm_per_call.")


def _traced(key):
    """Whether ``key`` (``module.function`` or ``module.Class.method``) is a
    callable the tracer wraps: defined in ``sp4lr.<module>`` under a public
    name (``__call__`` counts as public on a class)."""
    short, _, rest = key.partition(".")
    owner_name, _, attr = rest.partition(".")
    try:
        mod = importlib.import_module("sp4lr." + short)
    except ImportError:
        return False
    obj = vars(mod).get(owner_name)
    if owner_name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    if not attr:
        return inspect.isfunction(obj) and obj.__name__ == owner_name
    if not inspect.isclass(obj) or "." in attr or (attr.startswith("_") and attr != "__call__"):
        return False
    raw = vars(obj).get(attr)
    return inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))


def test_per_layer_metrics_name_traced_functions():
    names = [m["name"] for m in json.loads(_BENCHMARK.read_text())["per_layer"]]
    assert names
    missing = []
    for name in names:
        if name.startswith(_COMPUTED):
            continue
        key = name.rpartition(".")[0]
        if not (_traced(key) or _traced(key.rpartition(".")[0])):
            missing.append(name)
    assert missing == [], "per-layer metrics that name no sp4lr function: %s" % missing
