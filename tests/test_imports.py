"""Import hygiene of the package modules, checked with the standard ``ast``.

Every import sits at module level, and every module-level import is used.
``__init__.py`` is exempt: its imports are the public re-exports.  Every
module-level private helper (a function or class named ``_name``) is
referenced somewhere in the package outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weiljets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _local_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    names = ", ".join(a.name for a in inner.names)
                    found.append(f"line {inner.lineno} in {node.name}: {names}")
    return found


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _annotation_strings(tree: ast.Module):
    """Quoted annotations such as ``"Jet | None"``, parsed as expressions."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for inner in ast.walk(annotation) if annotation is not None else ():
            if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                yield ast.parse(inner.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        used |= {n.id for n in ast.walk(root) if isinstance(n, ast.Name)}
    return used


def _reference_counts(root: ast.AST) -> Counter:
    """How often each name is read under root: as a name, as an attribute
    or inside a quoted annotation."""
    counts = Counter()
    for tree in [root, *_annotation_strings(root)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
    return counts


def _dead_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_name`` functions and classes that no code outside their
    own definition refers to, across all the given modules."""
    total = sum((_reference_counts(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and total[node.name] == _reference_counts(node)[node.name]
            ):
                dead.append(f"{module}: {node.name}")
    return dead


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert _local_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _bound_names(tree).items()
        if name not in used
    )
    assert unused == []


def test_checks_catch_both_faults():
    tree = ast.parse(
        "import json\n"
        "from math import comb, gcd\n"
        "def f(x: 'Fraction') -> int:\n"
        "    from os import path\n"
        "    return comb(x, 2)\n"
    )
    assert _local_imports(tree) == ["line 4 in f: path"]
    unused = set(_bound_names(tree)) - _used_names(tree)
    assert unused == {"json", "gcd"}


def test_no_dead_private_helpers():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_helpers(trees) == []


def test_dead_helper_check_catches_unreferenced_helpers():
    trees = {
        "a.py": ast.parse(
            "def _used(x): return x\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "class _Dead: pass\n"
            "def _annotated() -> '_Hinted': pass\n"
            "class _Hinted: pass\n"
            "def __getattr__(name): pass\n"
        ),
        "b.py": ast.parse("from a import _used\nimport a\nprint(_used(1), a._annotated)\n"),
    }
    assert _dead_helpers(trees) == ["a.py: _recursive", "a.py: _Dead"]
