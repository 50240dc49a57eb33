"""Rules checked on syntax trees.

Batching eigensolves is decided in one place: only ``linalg`` names its
stack way ``_jacobi_stack``; every other module hands its matrices to
``linalg.hermitian_eig_each``. Gram-Schmidt is written once, in
``sampling``: no other module defines one, and only ``sampling`` names
its stacked ``_gram_schmidt``. Trace preservation has one owner,
``KrausChannel``: only ``channels`` names its stacked check
``_kraus_check``, and no other module builds a ``KrausChannel`` through
``__new__``, which skips ``__post_init__``. A contraction trial has one
owner, ``channels.monotonicity_trial_each``: only ``channels`` names the
trial floor ``TRIAL_STATE_FLOOR`` or maps stacks with
``apply_channel_each``. Grouping items by key is
written once, in ``errors._batched``: no other module groups with
``setdefault(key, []).append`` or ``defaultdict(list)``. The kernel
integral's sum over the jumps of a weight is written only in
``monotone``: no other module reads ``jumps`` or ``kernel_constant``. And
every test's ``approx`` that states a ``rel=`` states its ``abs=`` too:
pytest's default ``abs=1e-12`` would otherwise pass a small expected
value far more loosely than written."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monometric"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "linalg.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# names, each read only in the module that owns it
OWNED = {
    "_jacobi_stack": "linalg.py",
    "_gram_schmidt": "sampling.py",
    "_kraus_check": "channels.py",
    "TRIAL_STATE_FLOOR": "channels.py",
    "apply_channel_each": "channels.py",
}


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
    for name in OWNED:
        for source in (
            f"from .linalg import {name} as s\n",
            f"from . import linalg\nlinalg.{name}(x)\n",
            f"import monometric.linalg.{name}\n",
            f"f = {name}\n",
        ):
            assert name in names(source), source


def test_finds_a_trial_name_where_a_second_module_forms_images():
    """The shape the trial rule forbids outside ``channels``: images mapped
    and validated under the trial floor by the caller, under any import."""
    caller = (
        "from .channels import (\n    TRIAL_STATE_FLOOR,\n    apply_channel_each as each,\n)\n"
        "images = DensityMatrix.from_matrices(each(channels, xs), floor=TRIAL_STATE_FLOOR)\n"
    )
    assert {"TRIAL_STATE_FLOOR", "apply_channel_each"} <= names(caller)
    assert "TRIAL_STATE_FLOOR" in names("from . import channels\nfloor = channels.TRIAL_STATE_FLOOR\n")
    assert {"TRIAL_STATE_FLOOR", "apply_channel_each"} <= names((PACKAGE / "channels.py").read_text(encoding="utf-8"))


def test_every_other_module_is_checked():
    assert {"metric.py", "monotone.py", "verify.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_names_the_stack_eigensolver(path):
    assert "_jacobi_stack" not in names(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_stacks_are_named_only_by_their_owner(path):
    found = names(path.read_text(encoding="utf-8"))
    assert [name for name, owner in OWNED.items() if name in found and owner != path.name] == []


def gram_schmidts(source: str) -> list[str]:
    """The functions that are a Gram-Schmidt: named for one, or holding a
    projection step ``y -= (x.conj() @ y) * x``, an in-place subtraction
    of a product with a matrix product of a conjugate."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        named = any(word in node.name.lower() for word in ("gram", "schmidt", "orthonormal"))
        if named or any(is_projection(step) for step in ast.walk(node)):
            found.append(node.name)
    return found


def is_projection(node) -> bool:
    if not (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)):
        return False
    for part in ast.walk(node.value):
        if isinstance(part, ast.BinOp) and isinstance(part.op, ast.MatMult):
            for leaf in ast.walk(part):
                if isinstance(leaf, ast.Attribute) and leaf.attr == "conj":
                    return True
    return False


def test_finds_a_gram_schmidt_however_it_is_written():
    loop = (Path(__file__).resolve().parent / "oracle_loops.py").read_text(encoding="utf-8")
    assert "gram_schmidt_loop" in gram_schmidts(loop)
    renamed = "def tidy(v):\n    for j in range(3):\n        v[:, j] -= (v[:, 0].conj() @ v[:, j]) * v[:, 0]\n"
    assert gram_schmidts(renamed) == ["tidy"]
    batched = "def f(v, x, y):\n    y -= (x[:, None].conj() @ y[:, :, None])[:, 0] * x\n"
    assert gram_schmidts(batched) == ["f"]
    assert gram_schmidts("def orthonormalize(g):\n    return g\n") == ["orthonormalize"]
    assert gram_schmidts("def f(a, b):\n    a -= b @ b\n    return a.conj()\n") == []
    assert "_gram_schmidt" in gram_schmidts((PACKAGE / "sampling.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "sampling.py"], ids=lambda p: p.name)
def test_only_sampling_defines_a_gram_schmidt(path):
    assert gram_schmidts(path.read_text(encoding="utf-8")) == []


def kraus_built_through_new(source: str) -> list[int]:
    """The lines that call ``__new__`` on ``KrausChannel`` or with it as an
    argument, under any name it is imported as."""
    aliases = {"KrausChannel"}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update(a.asname for a in node.names if a.name == "KrausChannel" and a.asname)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
            for part in (node.func.value, *node.args):
                if (isinstance(part, ast.Name) and part.id in aliases) or (
                    isinstance(part, ast.Attribute) and part.attr == "KrausChannel"
                ):
                    lines.append(node.lineno)
                    break
    return lines


def test_finds_a_kraus_channel_built_through_new_however_it_is_written():
    for source in (
        "c = object.__new__(KrausChannel)\n",
        "c = KrausChannel.__new__(KrausChannel)\n",
        "from . import channels\nc = object.__new__(channels.KrausChannel)\n",
        "from .channels import KrausChannel as K\nc = object.__new__(K)\n",
    ):
        assert kraus_built_through_new(source), source
    assert kraus_built_through_new("c = KrausChannel(operators=ops)\nd = object.__new__(Other)\n") == []
    assert kraus_built_through_new((PACKAGE / "channels.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "channels.py"], ids=lambda p: p.name)
def test_only_channels_builds_a_kraus_channel_without_its_check(path):
    assert kraus_built_through_new(path.read_text(encoding="utf-8")) == []


def groupings(source: str) -> list[int]:
    """The lines that group by key: ``X.setdefault(k, []).append(...)``
    (or with ``list()``), or ``defaultdict(list)`` under any name."""
    aliases = {"defaultdict"}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update(a.asname for a in node.names if a.name == "defaultdict" and a.asname)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in aliases and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "list":
            lines.append(node.lineno)
        elif name == "append" and isinstance(func.value, ast.Call) and is_list_setdefault(func.value):
            lines.append(node.lineno)
    return lines


def is_list_setdefault(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "setdefault" and len(call.args) == 2):
        return False
    default = call.args[1]
    return isinstance(default, ast.List) or (
        isinstance(default, ast.Call) and getattr(default.func, "id", None) == "list"
    )


def test_finds_a_grouping_however_it_is_written():
    for source in (
        "groups.setdefault(key(x), []).append(i)\n",
        "self.shapes.setdefault(np.shape(g), list()).append(g)\n",
        "from collections import defaultdict\ngroups = defaultdict(list)\n",
        "import collections\ngroups = collections.defaultdict(list)\n",
        "from collections import defaultdict as dd\ngroups = dd(list)\n",
    ):
        assert groupings(source), source
    assert groupings("d.setdefault(k, 0)\nd.setdefault(k, []).extend(v)\ne = defaultdict(int)\nx.append(1)\n") == []
    assert groupings((PACKAGE / "errors.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_groups_by_key(path):
    assert groupings(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "monotone.py"], ids=lambda p: p.name)
def test_only_monotone_reads_the_jumps_of_a_weight(path):
    assert {"jumps", "kernel_constant"} & names(path.read_text(encoding="utf-8")) == set()


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
