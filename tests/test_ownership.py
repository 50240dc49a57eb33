"""Batching eigensolves is decided in one place: only ``linalg`` names
its stack way ``_jacobi_stack``; every other module hands its matrices to
``linalg.hermitian_eig_each``. Checked on each module's syntax tree."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monometric"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py")


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
