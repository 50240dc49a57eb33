"""Rules checked on syntax trees.

Batching eigensolves is decided in one place: only ``linalg`` names its
stack way ``_jacobi_stack``; every other module hands its matrices to
``linalg.hermitian_eig_each``. And every test's ``approx`` that states a
``rel=`` states its ``abs=`` too: pytest's default ``abs=1e-12`` would
otherwise pass a small expected value far more loosely than written."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monometric"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def names(source: str) -> set[str]:
    """Every name read, every attribute taken and every name imported."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rpartition(".")[2] for a in node.names)
    return out


def test_finds_a_name_however_it_is_written():
    for source in (
        "from .linalg import _jacobi_stack as s\n",
        "from . import linalg\nlinalg._jacobi_stack(x)\n",
        "import monometric.linalg._jacobi_stack\n",
    ):
        assert "_jacobi_stack" in names(source), source


def test_every_other_module_is_checked():
    assert {"metric.py", "monotone.py", "verify.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_names_the_stack_eigensolver(path):
    assert "_jacobi_stack" not in names(path.read_text(encoding="utf-8"))


def approx_without_abs(source: str) -> list[int]:
    """The lines of the ``approx`` calls that pass ``rel=`` and no ``abs=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keys = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in keys and "abs" not in keys:
                lines.append(node.lineno)
    return lines


def test_finds_an_approx_without_abs_however_it_is_written():
    assert approx_without_abs("x == pytest.approx(1.0, rel=1e-9)\n") == [1]
    assert approx_without_abs("from pytest import approx\nx == approx(\n    1.0,\n    rel=1e-9,\n)\n") == [2]
    assert approx_without_abs("x == pytest.approx(1.0, rel=1e-9, abs=0.0)\ny == pytest.approx(1.0)\n") == []


def test_every_test_module_is_checked():
    assert {"test_linalg.py", "test_verify.py", "test_ownership.py"} <= {p.name for p in TESTS}


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_relative_approx_states_its_abs(path):
    assert approx_without_abs(path.read_text(encoding="utf-8")) == []
