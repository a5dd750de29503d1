"""What a fresh interpreter loads, and the package's lazy exports.

``import sp4lr.cli`` loads no numerics module; each run loads the modules
of its mode when it runs.  The package's public names resolve on first
access, to the defining module's object.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sp4lr

_SRC = str(Path(sp4lr.__file__).resolve().parents[1])
_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_NUMERICS = {"algebra", "numerics", "hamiltonian", "lr_ode", "point_transform", "crosschecks"}


def _loaded(code):
    """The sp4lr submodules, by short name, that a fresh interpreter has
    loaded after running ``code``."""
    script = code + ("\nimport sys\nprint('loaded:', *sorted(m[len('sp4lr.'):] for m in "
                     "sys.modules if m.startswith('sp4lr.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:", proc.stdout
    return set(last[1:])


def _run(name, tmp_path):
    return ("from sp4lr.cli import main\n"
            "assert main(['run', '--config', %r, '--out', %r]) == 0"
            % (str(_SCENARIOS / name), str(tmp_path)))


def test_importing_the_cli_loads_no_numerics():
    loaded = _loaded("import sp4lr.cli")
    assert "cli" in loaded
    assert loaded & _NUMERICS == set()


def test_describe_loads_no_numerics():
    loaded = _loaded("from sp4lr.cli import main\nassert main(['run', '--describe']) == 0")
    assert loaded & _NUMERICS == set()


@pytest.mark.parametrize("name, needs, skips", [
    ("regime_map.json", {"algebra", "numerics", "hamiltonian"},
     {"lr_ode", "point_transform", "crosschecks"}),
    ("lr_closed_form_alpha3.json", {"algebra", "numerics", "hamiltonian", "lr_ode"},
     {"point_transform", "crosschecks"}),
])
def test_a_run_loads_only_its_modes_modules(tmp_path, name, needs, skips):
    loaded = _loaded(_run(name, tmp_path))
    assert needs <= loaded
    assert loaded & skips == set()


def test_a_bare_package_import_loads_nothing_and_reaches_every_submodule():
    code = ("import sp4lr\n"
            "assert sp4lr.point_transform.__name__ == 'sp4lr.point_transform'\n"
            "assert sp4lr.crosschecks.__name__ == 'sp4lr.crosschecks'")
    assert _loaded("import sp4lr") == set()
    assert {"point_transform", "crosschecks"} <= _loaded(code)


def test_every_export_is_its_defining_modules_object():
    assert sp4lr.__all__
    for name in sp4lr.__all__:
        obj = getattr(sp4lr, name)
        assert obj.__module__.startswith("sp4lr."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_export():
    assert set(sp4lr.__all__) <= set(dir(sp4lr))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sp4lr import *", namespace)
    for name in sp4lr.__all__:
        assert namespace[name] is getattr(sp4lr, name), name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sp4lr.no_such_name
