"""Source hygiene: every module-level import, private helper and public function is used,
no float enters the arithmetic, no true division can make one, no random source feeds it,
form division is integral, the Smith form serves only the torsion group, and one draw
builds the blocks."""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import inspect
import io
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "curvepencils").glob("*.py"))
# files whose references keep a public function of the package in use
REFERRERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _module_imports(body: list[ast.stmt]) -> list[tuple[str, int]]:
    """Names bound by imports at module level, inside top-level ``if`` too."""
    out = []
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                out.append(((alias.asname or alias.name).split(".")[0], stmt.lineno))
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                out.append((alias.asname or alias.name, stmt.lineno))
        elif isinstance(stmt, ast.If):
            out.extend(_module_imports(stmt.body + stmt.orelse))
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})" for name, line in _module_imports(tree.body) if name not in used
    ]
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def test_unused_import_is_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import Optional, Sequence\n"
        "if True:\n"
        "    from math import gcd\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return json.dumps(x)\n"
    )
    used = _used_names(tree)
    assert [n for n, _ in _module_imports(tree.body) if n not in used] == ["Sequence", "gcd"]


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level private functions and classes: ``_name``, not dunder."""
    return [
        (stmt.name, stmt.lineno)
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
    ]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken, and names imported anywhere in the module."""
    out = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    return [
        f"{name}: {symbol} (line {line})"
        for name, tree in trees.items()
        for symbol, line in _private_definitions(tree)
        if symbol not in referenced
    ]


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    unreferenced = _unreferenced_private(trees)
    assert not unreferenced, f"private helpers no source file references: {unreferenced}"


def test_unreferenced_private_helper_is_caught():
    trees = {
        "a.py": ast.parse(
            "def _called(): pass\n"
            "def _imported(): pass\n"
            "def _orphan(): pass\n"
            "class _Shape: pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _called() + _Shape.__name__\n"
        ),
        "b.py": ast.parse("def f():\n    from .a import _imported\n    return _imported\n"),
    }
    assert _unreferenced_private(trees) == ["a.py: _orphan (line 3)"]


def _public_functions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level functions and methods of module-level classes, not private or dunder."""
    out = []
    for stmt in tree.body:
        body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        out.extend(
            (node.name, node.lineno)
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
        )
    return out


def _string_references(tree: ast.Module) -> set[str]:
    """Names in string literals that are dotted identifiers, outside ``__all__``.

    Such strings name attributes for ``monkeypatch.setattr`` or for the
    benchmark's tracer, e.g. ``"Arrangement.from_json"``.
    """
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(id(n) for n in ast.walk(node.value))
    return {
        part
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in exported
        and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)
        for part in node.value.split(".")
    }


def _unreferenced_public(sources: dict[str, ast.Module], referrers: list[ast.Module]) -> list[str]:
    referenced = set().union(
        *(_referenced_names(tree) | _string_references(tree) for tree in referrers)
    )
    return [
        f"{name}: {symbol} (line {line})"
        for name, tree in sources.items()
        for symbol, line in _public_functions(tree)
        if symbol not in referenced
    ]


def test_no_unreferenced_public_functions():
    sources = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    referrers = [ast.parse(path.read_text(), filename=str(path)) for path in REFERRERS]
    unreferenced = _unreferenced_public(sources, referrers)
    assert not unreferenced, f"public functions nothing references: {unreferenced}"


def test_unreferenced_public_function_is_caught():
    source = ast.parse(
        "__all__ = ['exported_only', 'used']\n"
        "def exported_only(): pass\n"
        "def used(): pass\n"
        "def traced(): pass\n"
        "def __getattr__(name): pass\n"
        "class Shape:\n"
        "    def area(self): pass\n"
        "    def perimeter(self): pass\n"
        "    def __len__(self): pass\n"
    )
    test = ast.parse(
        "from pkg.a import used\n"
        "def test_it(shape, monkeypatch):\n"
        "    '''Calls perimeter, but a docstring is no reference.'''\n"
        "    monkeypatch.setattr(a, 'traced', used)\n"
        "    return shape.area()\n"
    )
    assert _unreferenced_public({"a.py": source}, [source, test]) == [
        "a.py: exported_only (line 2)",
        "a.py: perimeter (line 8)",
    ]


# public functions that no golden report and no fast fixture catalog enters,
# each with the reason it stays; a path that only the slow fixtures (a3, b3,
# exfin3) reach would go here too, naming the fixture
UNREACHED = {
    "exactalg.IntMatrix.to_lists": "read by `IntMatrix.__repr__`, which no report prints",
}


def _functions(member) -> list:
    """The plain functions behind a class member or module attribute."""
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, functools.cached_property):
        return [member.func]
    if isinstance(member, (classmethod, staticmethod)):
        return [member.__func__]
    return [member] if inspect.isfunction(member) else []


def _public_code() -> dict[types.CodeType, str]:
    """The code of every public function and method of `src/`, by dotted name.

    Public means defined in the module and not named with a leading
    underscore, so private helpers and dunders are left out; properties count
    by their getters.  Private helpers are covered by
    `test_no_unreferenced_private_helpers`.
    """
    out = {}
    for path in SOURCES:
        if path.stem.startswith("__"):
            continue  # no functions; importing `__main__` runs the command line
        module = importlib.import_module(f"curvepencils.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
            for attr, member in members:
                if attr is None or not attr.startswith("_"):
                    dotted = ".".join(filter(None, (path.stem, name, attr)))
                    out.update((f.__code__, dotted) for f in _functions(member))
    return out


def test_every_public_function_is_reached():
    # the reach audit: a public function that neither the golden reports
    # nor the fast fixture catalogs enter serves only tests, so it belongs
    # in `tests/` or on UNREACHED with its reason
    from arrfixtures import a2, ceva2, ceva3, deleted_b3, ex2, triangle
    from curvepencils.catalog import build_catalog
    from curvepencils.cli import main
    from test_cli import FIXTURES, GOLDEN_CASES

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _, argv in GOLDEN_CASES:
            argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        for make in (deleted_b3, a2, ceva2, ceva3, ex2, triangle):
            build_catalog(make()).to_json()  # records derive values as they render
    finally:
        sys.setprofile(previous)
    public = _public_code()
    assert set(UNREACHED) <= set(public.values()), "UNREACHED names a function src/ lacks"
    reached = sorted({public[code] for code in entered if code in public} & set(UNREACHED))
    assert not reached, f"reached, so drop from UNREACHED: {reached}"
    missed = sorted({name for code, name in public.items() if code not in entered} - set(UNREACHED))
    assert not missed, f"public functions that only tests reach: {missed}"


def _float_uses(tree: ast.Module) -> list[str]:
    """Float and complex literals, and every read of the name ``float``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append(f"float (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_floats(path):
    # arithmetic stays exact: integers and Fractions only
    uses = _float_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name}: floats: {', '.join(uses)}"


def test_float_use_is_caught():
    tree = ast.parse(
        "x = 1.5\n"
        "y = 2j\n"
        "z = 10 ** 6\n"
        "s = 'float 0.5'\n"
        "def f(a: float) -> int:\n"
        "    return int(float(a) * 1e3)\n"
    )
    assert sorted(_float_uses(tree)) == [
        "1.5 (line 1)",
        "1000.0 (line 6)",
        "2j (line 2)",
        "float (line 5)",
        "float (line 6)",
    ]


def _true_divisions(tree: ast.Module) -> list[str]:
    """Every ``/`` and ``/=`` in the module, nested ones included."""
    return sorted(
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_no_true_division():
    # int / int is a float, which test_no_floats cannot see: exact code
    # divides as Fraction(a, b), or as // where the division is exact
    uses = [
        f"{path.name} {use}"
        for path in SOURCES
        for use in _true_divisions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not uses, f"true divisions: {', '.join(uses)}"


def test_true_division_is_caught():
    tree = ast.parse(
        "a = 7 // 2 + 7 / 2\n"
        "s = 'x / y'\n"
        "def f(x, y):\n"
        "    x //= y\n"
        "    x /= y\n"
        "    return x\n"
    )
    assert _true_divisions(tree) == ["line 1", "line 5"]


# modules whose draws would make a result depend on a seed rather than the input
RANDOM_SOURCES = frozenset({"random", "hashlib", "secrets"})


def _random_imports(tree: ast.Module) -> list[str]:
    """Imports of a random source anywhere in the module, nested ones included."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        out.extend(
            f"{name} (line {node.lineno})"
            for name in names
            if name.split(".")[0] in RANDOM_SOURCES
        )
    return out


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_random_sources(path):
    # every probe is deterministic: sound by construction or confirmed exactly
    uses = _random_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name}: random sources: {', '.join(uses)}"


def test_random_source_is_caught():
    tree = ast.parse(
        "import itertools, random\n"
        "from hashlib import sha256\n"
        "from .random import helper\n"
        "def f():\n"
        "    import secrets.token as t\n"
        "    return t\n"
    )
    assert sorted(_random_imports(tree)) == [
        "hashlib (line 2)",
        "random (line 1)",
        "secrets.token (line 5)",
    ]


def _asserts(tree: ast.Module) -> list[str]:
    """Every ``assert`` statement in the module, nested ones included."""
    return [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_asserts(path):
    # invariant checks raise, so they still run under python -O
    uses = _asserts(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name}: assert statements: {', '.join(uses)}"


def test_assert_is_caught():
    tree = ast.parse(
        "assert ok\n"
        "class C:\n"
        "    def f(self, x):\n"
        "        if x:\n"
        "            assert x > 0, 'positive'\n"
        "        return 'assert x'\n"
        "check = lambda y: y\n"
    )
    assert _asserts(tree) == ["line 1", "line 5"]


def _fraction_uses(tree: ast.Module) -> list[str]:
    """Imports of the ``fractions`` module and every read of the name ``Fraction``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(
                f"import {alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name.split(".")[0] == "fractions"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            out.append(f"from fractions (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            out.append(f"Fraction (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            out.append(f".Fraction (line {node.lineno})")
    return sorted(out)


@pytest.mark.parametrize("name", ["resonance.py", "catalog.py"])
def test_module_is_fraction_free(name):
    # residue classes are integer vectors (every reduced cup relation has
    # pivot 1), and sweep parameters are reduced integer pairs
    path = ROOT / "src" / "curvepencils" / name
    uses = _fraction_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{name}: Fraction uses: {', '.join(uses)}"


def test_division_loop_is_fraction_free():
    # the one division loop pseudo-divides in integers (Knuth, TAOCP 4.6.1)
    tree = ast.parse((ROOT / "src" / "curvepencils" / "polyform.py").read_text())
    (loop,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_division"
    ]
    uses = _fraction_uses(loop)
    assert not uses, f"polyform._division: Fraction uses: {', '.join(uses)}"


def test_fraction_use_is_caught():
    tree = ast.parse(
        "import fractions\n"
        "from fractions import Fraction as Q\n"
        "s = 'Fraction(1, 2)'\n"
        "def f(x: int) -> int:\n"
        "    return fractions.Fraction(x, 2) + Fraction(x)\n"
    )
    assert _fraction_uses(tree) == [
        ".Fraction (line 5)",
        "Fraction (line 5)",
        "from fractions (line 2)",
        "import fractions (line 1)",
    ]


# the torsion group T(f) and its invariant factors are the one use of a
# Smith form; every other lattice is a kernel, whose normal form is the
# Hermite form of `exactalg.integer_kernel_basis`
SMITH = "smith_normal_form"
SMITH_USERS = ["torsion.py: TfGroup.kernel_smith", "torsion.py: _general_tf"]


def _scoped_uses(tree: ast.Module, picked) -> list[tuple[str, int]]:
    """(function, line) of each node that ``picked`` accepts; the function is
    a dotted name, ``<module>`` outside one."""
    out = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if picked(child):
                out.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, ())
    return sorted(out)


def _names_smith(node: ast.AST) -> bool:
    """A read of ``smith_normal_form``, or an import that renames it."""
    if isinstance(node, ast.Name):
        return node.id == SMITH
    if isinstance(node, ast.Attribute):
        return node.attr == SMITH
    if isinstance(node, ast.alias):
        return node.name == SMITH and node.asname not in (None, SMITH)
    return False


def _smith_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each read of ``smith_normal_form`` and each import that renames it."""
    return _scoped_uses(tree, _names_smith)


def test_smith_form_serves_only_the_torsion_group():
    uses = [
        f"{path.name}: {function}"
        for path in SOURCES
        for function, _ in _smith_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert uses == SMITH_USERS, f"Smith form used outside T(f): {uses}"


def test_smith_use_is_caught():
    tree = ast.parse(
        "from .exactalg import smith_normal_form\n"
        "from . import exactalg\n"
        "from .exactalg import smith_normal_form as snf\n"
        "s = 'smith_normal_form(A)'\n"
        "class Group:\n"
        "    def factors(self, A):\n"
        "        return smith_normal_form(A)\n"
        "def kernel(A):\n"
        "    def inner():\n"
        "        return exactalg.smith_normal_form(A).V\n"
        "    return inner\n"
        "decompose = smith_normal_form\n"
    )
    assert _smith_uses(tree) == [
        ("<module>", 3),
        ("<module>", 12),
        ("Group.factors", 7),
        ("kernel.inner", 10),
    ]


# one draw: a `_Block` is built only inside `iter_block_pairs`, where the
# depth-first draw interns it at a leaf, so the search and the sweep take
# their blocks from one generator and no second pair generator builds any
BLOCK = "_Block"
BLOCK_BUILDERS = ["pencil.py: iter_block_pairs.block"]


def _builds_a_block(node: ast.AST) -> bool:
    """A call of ``_Block``, by name or as a module attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == BLOCK
    return isinstance(func, ast.Attribute) and func.attr == BLOCK


def test_one_draw_builds_the_blocks():
    uses = [
        f"{path.name}: {function}"
        for path in SOURCES
        for function, _ in _scoped_uses(
            ast.parse(path.read_text(), filename=str(path)), _builds_a_block
        )
    ]
    assert uses == BLOCK_BUILDERS, f"blocks built outside the one draw: {uses}"


def test_block_construction_is_caught():
    tree = ast.parse(
        "from .pencil import _Block\n"
        "def second_draw(arr):\n"
        "    yield _Block(1, (0,), (1,), 1), pencil._Block(2, (1,), (1,), 1)\n"
        "class Tables:\n"
        "    def block(self, a: _Block) -> _Block:\n"
        "        return _Block(3, (0, 1), (1, 1), 1)\n"
    )
    assert _scoped_uses(tree, _builds_a_block) == [
        ("Tables.block", 6),
        ("second_draw", 3),
        ("second_draw", 3),
    ]


# a classification holds its arrangement and pencil; a second argument
# beside it would be a second source of truth that nothing checks
HANDLE = "PencilClassification"
HELD = frozenset({"Arrangement", "Pencil"})


def _annotation_names(annotation: ast.expr | None) -> set[str]:
    """Names an annotation mentions, inside string annotations too."""
    out: set[str] = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return out


def _classification_beside_its_parts(tree: ast.Module) -> list[str]:
    """Functions with a parameter annotated by the handle beside one annotated by a held part."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs
        params = [_annotation_names(a.annotation) for a in every]
        if any(HANDLE in names for names in params) and any(names & HELD for names in params):
            out.append(f"{node.name} (line {node.lineno})")
    return out


def test_no_classification_beside_its_arrangement_or_pencil():
    uses = [
        f"{path.name}: {use}"
        for path in SOURCES
        for use in _classification_beside_its_parts(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not uses, f"read these from the classification instead: {', '.join(uses)}"


def test_classification_beside_its_parts_is_caught():
    tree = ast.parse(
        "def classify(arr: Arrangement, pencil: Pencil) -> PencilClassification: pass\n"
        "def record(arr: Arrangement, cl: PencilClassification): pass\n"
        "def detect(pencil: 'Pencil', cl: 'PencilClassification'): pass\n"
        "def tf(cl: pencil.PencilClassification, *, arr: Arrangement | None = None): pass\n"
        "def report(cl: PencilClassification, clusters: list[int] | None = None): pass\n"
        "class Tables:\n"
        "    def pair(self, pencil: Pencil, cl: PencilClassification | None): pass\n"
    )
    assert _classification_beside_its_parts(tree) == [
        "record (line 2)",
        "detect (line 3)",
        "tf (line 4)",
        "pair (line 7)",
    ]


# the benchmark keeps its own copy of the fixtures and goldens it replays;
# a regenerated golden must be copied there too, or the benchmark counts
# every report of it as an incorrect output
SNAPSHOTS = [
    (ROOT / "perfbench" / "data" / kind / path.name, ROOT / "tests" / kind / path.name)
    for kind in ("golden", "fixtures")
    for path in sorted((ROOT / "perfbench" / "data" / kind).iterdir())
]


def test_benchmark_snapshot_is_not_empty():
    assert {copy.parent.name for copy, _ in SNAPSHOTS} == {"golden", "fixtures"}


@pytest.mark.parametrize(
    "copy, source", SNAPSHOTS, ids=[f"{c.parent.name}/{c.name}" for c, _ in SNAPSHOTS]
)
def test_benchmark_snapshot_matches_tests(copy, source):
    assert source.is_file(), f"{source.relative_to(ROOT)} is missing"
    assert copy.read_bytes() == source.read_bytes(), f"{copy.relative_to(ROOT)} differs"
