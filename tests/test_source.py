"""Source hygiene of the package, checked with the stdlib `ast` alone: no
unused module-level import, no private module-level function or class that
nothing calls, no public definition that only tests call, no export that
fails to resolve, no import of a package the project does not declare, and
no local variable that is assigned and never read."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import su3forms

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "su3forms"
MODULES = sorted(PACKAGE.glob("*.py"))

#: what an import may name: the standard library, the declared dependencies
#: (numpy, and pytest for the tests), the package and a sibling test module
ALLOWED_IMPORTS = (
    set(sys.stdlib_module_names)
    | {"numpy", "pytest", "su3forms"}
    | {path.stem for path in (ROOT / "tests").glob("*.py")}
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(node: ast.AST, skip: ast.AST | None = None, attributes: bool = True) -> set[str]:
    """Every identifier node refers to by name (and by attribute or imported
    name, if attributes), including those in quoted annotations, leaving out
    the subtree skip."""
    found: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif attributes and isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif attributes and isinstance(n, ast.alias):
            found.add(n.name)
        annotations = []
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = n.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [n.returns]
        elif isinstance(n, ast.AnnAssign):
            annotations = [n.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                stack.append(ast.parse(ann.value, mode="eval"))
        stack.extend(ast.iter_child_nodes(n))
    return found


def _module_level(tree: ast.Module):
    """Top-level statements, and those inside top-level `if` blocks (such as
    `if TYPE_CHECKING:`)."""
    for stmt in tree.body:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from stmt.body
            yield from stmt.orelse


def _exported(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = _tree(path)
    bound = set()
    for stmt in _module_level(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = _exported(tree) | _names(tree, attributes=False)
    assert sorted(bound - used) == []


def test_every_private_definition_is_referenced():
    trees = {path: _tree(path) for path in MODULES}
    unused = []
    for path, tree in trees.items():
        for stmt in _module_level(tree):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            elsewhere = (_names(t, skip=stmt if p == path else None) for p, t in trees.items())
            if not any(name in names for names in elsewhere):
                unused.append(f"{path.name}:{name}")
    assert unused == []


def _public_definitions(tree: ast.Module):
    """Public module-level functions and classes, and the public methods of
    those classes."""
    for stmt in _module_level(tree):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt
        if isinstance(stmt, ast.ClassDef):
            yield from (s for s in stmt.body if isinstance(s, ast.FunctionDef))


def test_every_public_definition_is_referenced():
    """Every public function, class or method of `src/`, `scripts/` or
    `perfbench/` is named somewhere in those trees outside its own
    definition.  `__init__.py` re-exports and test modules do not count as
    callers.  The match is by name only, so same-named definitions hide each
    other: a `Form.trace` that only tests call would pass, because
    `Endo.trace` is called, and so would a `DeformationParams.zero` or
    `DeformationParams.lam`, hidden by `Form.zero` and `ThreeFormParts.lam`."""
    sources = sorted(
        p
        for d in ("src", "scripts", "perfbench")
        for p in (ROOT / d).rglob("*.py")
        if p.name != "__init__.py" and not p.name.startswith("test_")
    )
    trees = {path: _tree(path) for path in sources}
    names = {path: _names(tree) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        elsewhere = set().union(*(n for p, n in names.items() if p != path))
        for stmt in _public_definitions(tree):
            name = stmt.name
            if name.startswith("_") or name in elsewhere:
                continue
            if name not in _names(tree, skip=stmt):
                unused.append(f"{path.relative_to(ROOT)}:{name}")
    assert unused == []


@pytest.mark.parametrize("name", su3forms.__all__)
def test_every_export_resolves(name):
    assert getattr(su3forms, name) is not None


def _imported_roots(tree: ast.Module):
    """Top-level names of the absolute imports anywhere in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_declared_dependencies_are_imported():
    sources = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
    undeclared = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sources
        for name in sorted(set(_imported_roots(_tree(path))) - ALLOWED_IMPORTS)
    ]
    assert undeclared == []


def _dead_locals(function: ast.FunctionDef) -> set[str]:
    """Names a function (with its nested functions and comprehensions)
    assigns but never reads, leaving out `_`."""
    stored, loaded = set(), set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name):
            (stored if isinstance(node.ctx, ast.Store) else loaded).add(node.id)
    return stored - loaded - {"_"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_variable_is_read(path):
    tree = _tree(path)
    # each outermost function, so that a closure's reads count for its parent
    functions = [
        node
        for stmt in _module_level(tree)
        for node in ([stmt] if not isinstance(stmt, ast.ClassDef) else stmt.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    dead = [
        f"{path.name}:{f.name}:{name}" for f in functions for name in sorted(_dead_locals(f))
    ]
    assert dead == []
