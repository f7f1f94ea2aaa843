"""Import hygiene of the package modules, checked with the standard ``ast``.

Every import sits at module level, and every module-level import is used.
``__init__.py`` is exempt: its imports are the public re-exports.
"""

import ast
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
