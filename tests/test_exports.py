"""Every public module-level tolerance of the package is exported.

A ``*_TOL`` constant is a bound a caller may read or monkeypatch by
name; each module lists its own in ``__all__``.  Constants imported from
another module are not counted: only assignments in the module's source.
"""

import ast
import importlib
import inspect
import pkgutil

import sp4lr


def _defined_tolerances(mod):
    names = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets
                     if isinstance(t, ast.Name) and t.id.endswith("_TOL") and not t.id.startswith("_"))
    return names


def test_every_tolerance_constant_is_in_its_modules_all():
    seen = {}
    for info in pkgutil.iter_modules(sp4lr.__path__):
        mod = importlib.import_module("sp4lr." + info.name)
        for name in _defined_tolerances(mod):
            seen[name] = mod.__name__
            assert name in getattr(mod, "__all__", ()), "%s.%s" % (mod.__name__, name)
    assert {"CHI_TOL", "COMM_TOL", "STEP_TOL", "EXPM_TOL", "REGIME_TOL"} <= set(seen)
