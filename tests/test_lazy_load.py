"""``import monometric`` loads the kernel-and-metric core; the property
harness (``channels``, ``quadrature``, ``sampling``, ``verify``) loads the
first time one of its names, or the module itself, is used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monometric

CORE = {"monometric", *(f"monometric.{m}" for m in ("errors", "linalg", "monotone", "chentsov", "metric"))}
HARNESS = ("channels", "quadrature", "sampling", "verify")


def run_fresh(code: str):
    """What ``code`` prints as JSON, run in a new interpreter that imports
    this same copy of the package."""
    src = str(Path(monometric.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m == 'monometric' or m.startswith('monometric.'))"


def test_package_and_cli_import_loads_only_the_core():
    loaded = run_fresh(f"import json, sys\nimport monometric, monometric.cli\nprint(json.dumps({LOADED}))")
    assert set(loaded) == CORE | {"monometric.io", "monometric.cli"}


def test_each_harness_module_loads_on_first_use_as_the_submodule():
    # one at a time, each before any module that imports it
    order = ("sampling", "quadrature", "channels", "verify")
    code = (
        "import json, sys\nimport monometric\nout = []\n"
        f"for name in {order!r}:\n"
        "    out.append([getattr(monometric, name) is sys.modules['monometric.' + name], " + LOADED + "])\n"
        "print(json.dumps(out))"
    )
    loaded = set(CORE)
    for name, (is_submodule, now) in zip(order, run_fresh(code)):
        loaded.add(f"monometric.{name}")
        assert is_submodule and now == sorted(loaded), name


def test_a_deferred_name_loads_its_own_module_only():
    code = f"import json, sys\nimport monometric\nmonometric.integrate\nprint(json.dumps({LOADED}))"
    assert set(run_fresh(code)) == CORE | {"monometric.quadrature"}


@pytest.mark.parametrize("name", monometric.__all__)
def test_every_public_name_is_its_defining_modules_object(name):
    obj = getattr(monometric, name)
    assert obj.__module__.startswith("monometric.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_and_dir_lists_every_public_name():
    namespace = {}
    exec("from monometric import *", namespace)
    assert set(monometric.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(monometric, name) for name in monometric.__all__)
    listed = dir(monometric)
    assert set(monometric.__all__) | set(HARNESS) <= set(listed)
    assert listed == sorted(listed)


def test_a_deferred_name_is_read_from_its_module_on_every_access(monkeypatch):
    """The package binds no deferred name, so patching the module is seen
    through the package, and undoing the patch is too."""
    real = monometric.run_verification
    stand_in = object()
    monkeypatch.setattr(monometric.verify, "run_verification", stand_in)
    assert monometric.run_verification is stand_in
    monkeypatch.undo()
    assert monometric.run_verification is real
    assert "run_verification" not in vars(monometric)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'monometric' has no attribute 'no_such_name'$"):
        monometric.no_such_name
    assert not hasattr(monometric, "no_such_name")
    assert getattr(monometric, "no_such_name", 7) == 7
    with pytest.raises(ImportError):
        exec("from monometric import no_such_name", {})
