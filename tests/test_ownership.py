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
``monotone``: no other module reads ``jumps`` or ``kernel_constant``. A
state's kept coefficients have one reader and writer,
``metric._kept_coefficients``, which ``metric_form`` and
``metric_quadratic`` share: no module but ``metric`` names the field
``_coefficients``, as a name, an attribute or a string. A weight's kept integral has one reader and
writer, ``weighted_kernel_integral``: no module but ``monotone`` names the
field ``_kept_integral`` in any of those ways. And every test's
``approx`` states its ``abs=``, under whatever name its module binds
``pytest.approx`` to: pytest's defaults, ``rel=1e-6`` and
``abs=1e-12``, would otherwise pass a value far more loosely than it
allows, and a small expected value more loosely still. No test compares
arrays with ``np.array_equal`` or ``np.array_equiv``, which count -0.0 as
0.0: a bit-for-bit claim goes through ``oracle_loops.same_bits``."""

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


KEPT_COEFFICIENTS = "_coefficients"


def field_mentions(source: str, field: str = KEPT_COEFFICIENTS) -> list[int]:
    """The lines that name ``field``: as a name, an attribute, an imported
    name or a string, the way ``getattr`` and ``object.__setattr__`` take it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, ast.Name) and node.id == field)
            or (isinstance(node, ast.Attribute) and node.attr == field)
            or (isinstance(node, ast.Constant) and node.value == field)
            or (isinstance(node, ast.alias) and field in (node.name, node.asname))
        ):
            lines.append(node.lineno)
    return lines


def test_finds_the_kept_coefficients_however_they_are_named():
    for source in (
        "kern = state._coefficients[1]\n",
        "kept = getattr(state, '_coefficients', None)\n",
        "object.__setattr__(state, '_coefficients', None)\n",
        "vars(state)['_coefficients'] = None\n",
        "from .metric import _coefficients\n",
        "_coefficients = {}\n",
    ):
        assert field_mentions(source) == [1], source
    assert field_mentions("coefficients = state.coefficients\nx = '_coefficients_'\n") == []
    assert len(field_mentions((PACKAGE / "metric.py").read_text(encoding="utf-8"))) >= 3


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "metric.py"], ids=lambda p: p.name)
def test_only_metric_names_the_kept_coefficients(path):
    assert field_mentions(path.read_text(encoding="utf-8")) == []


KEPT_INTEGRAL = "_kept_integral"


def test_finds_the_kept_integral_however_it_is_named():
    for source in (
        "value = h._kept_integral[1]\n",
        "kept = getattr(h, '_kept_integral', None)\n",
        "object.__setattr__(h, '_kept_integral', (t, v))\n",
        "vars(h)['_kept_integral'] = None\n",
        "from .monotone import _kept_integral\n",
        "_kept_integral = {}\n",
    ):
        assert field_mentions(source, KEPT_INTEGRAL) == [1], source
    assert field_mentions("kept = h.kept_integral\nx = '_kept_integral_'\n", KEPT_INTEGRAL) == []
    assert len(field_mentions((PACKAGE / "monotone.py").read_text(encoding="utf-8"), KEPT_INTEGRAL)) >= 3


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "monotone.py"], ids=lambda p: p.name)
def test_only_monotone_names_the_kept_integral(path):
    assert field_mentions(path.read_text(encoding="utf-8"), KEPT_INTEGRAL) == []


def approx_names(tree: ast.AST) -> set[str]:
    """The names a module binds to ``pytest.approx``: ``approx`` itself, an
    ``import ... as`` alias of it, and a name assigned from one of those
    or from an ``approx`` attribute, followed until no new name turns up."""
    bound = {"approx"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pytest":
            bound.update(a.asname for a in node.names if a.name == "approx" and a.asname)
    assigns = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)]
    while True:
        more = {
            target.id
            for node in assigns
            if (isinstance(node.value, ast.Name) and node.value.id in bound)
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "approx")
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        if more <= bound:
            return bound
        bound |= more


def approx_without_abs(source: str) -> list[int]:
    """The lines of the ``approx`` calls that pass no ``abs=``, with or
    without ``rel=``, under any name the module binds to ``approx``."""
    tree = ast.parse(source)
    bound = approx_names(tree)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr == "approx" if isinstance(func, ast.Attribute) else getattr(func, "id", None) in bound
            if called and "abs" not in {k.arg for k in node.keywords}:
                lines.append(node.lineno)
    return lines


def test_finds_an_approx_without_abs_however_it_is_written():
    assert approx_without_abs("x == pytest.approx(1.0, rel=1e-9)\n") == [1]
    assert approx_without_abs("from pytest import approx\nx == approx(\n    1.0,\n    rel=1e-9,\n)\n") == [2]
    assert approx_without_abs("x == pytest.approx(1.0)\n") == [1]
    assert approx_without_abs("x == pytest.approx(1.0, rel=1e-9, abs=0.0)\ny == pytest.approx(1.0, abs=1e-12)\n") == []
    # aliases: imported under another name, or assigned to one
    assert approx_without_abs("from pytest import approx as near\nx == near(1.0)\n") == [2]
    assert approx_without_abs("import pytest as pt\nx == pt.approx(1.0, rel=1e-9)\n") == [2]
    assert approx_without_abs("near = pytest.approx\nclose = near\nx == close(1.0)\ny == near(2.0, abs=0.0)\n") == [3]
    assert approx_without_abs("from pytest import raises as near\nnear(ValueError)\n") == []


def test_every_test_module_is_checked():
    assert {"test_linalg.py", "test_verify.py", "test_ownership.py"} <= {p.name for p in TESTS}


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_relative_approx_states_its_abs(path):
    assert approx_without_abs(path.read_text(encoding="utf-8")) == []


LOOSE_EQUALITIES = {"array_equal", "array_equiv"}


def loose_equalities(source: str) -> list[int]:
    """The lines that name ``array_equal`` or ``array_equiv``, as an
    attribute or an imported name, called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in LOOSE_EQUALITIES) or (
            isinstance(node, ast.alias) and node.name in LOOSE_EQUALITIES
        ):
            lines.append(node.lineno)
    return lines


def test_finds_a_loose_array_comparison_however_it_is_written():
    for source in (
        "assert np.array_equal(a, b)\n",
        "assert numpy.array_equiv(a, b)\n",
        "from numpy import array_equal\n",
        "from numpy import array_equiv as same\n",
        "check = np.array_equal\n",
    ):
        assert loose_equalities(source) == [1], source
    assert loose_equalities("assert same_bits(a, b)\nx = 'np.array_equal'\narray_equal = 1\n") == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_test_compares_arrays_with_array_equal(path):
    assert loose_equalities(path.read_text(encoding="utf-8")) == []
