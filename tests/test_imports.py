"""Import hygiene of the package modules, checked with the standard ``ast``.

Every import sits at module level, and every module-level import is used.
``__init__.py`` is exempt: its imports are the public re-exports.  Every
module-level function or class is referenced somewhere in the package
outside its own definition; a re-export does not count.  The one exception
is :data:`AWAITING_OPS`, paper constructions that no session op reaches yet.
Every non-dunder method of a module-level class is likewise read by name or
attribute outside its own body.  Every module-level import of a test file
under ``tests/`` is used as well; there a name that a test takes as a
parameter counts as used, since pytest passes fixtures by name.  No
package code stores to a private attribute of anything but ``self``: what a
jet or an algebra derives is cached through ``weil._memo``, in the value's
own ``_memo`` dict.  Only ``poly``, which builds substitution maps, and
``apoints`` name them: every jet construction works in closed form.

No package code divides with ``/`` (``ast.Div``): scalars are ints and
Fractions, and ``int / int`` is a float, so every quotient is built on
numerators by ``poly._rational``.  The ``**`` sites are pinned in
:data:`POWER_SITES`; each raises an int to a non-negative integer exponent (a
degree, an exponent entry, or the top degree minus a degree), which is an
int, never a float.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weiljets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(TESTS.rglob("*.py"))

# Public constructions of the paper with no package caller, each waiting to be
# wired into a session op; an entry leaves the set when its op lands.  A
# construction that a session input already builds is no entry: the jet m^k
# is a ``jet`` binding with no ``generators`` and ``order_hint`` k - 1.
AWAITING_OPS = {
    "factor_epimorphism": "two regular A-points at a point differ by an automorphism of the source",
}


# The functions holding a ``**``, each with a non-negative integer exponent.
POWER_SITES = {
    "poly.py: _Powers.image": "scale ** (top - deg e) and scale ** top, with top the largest degree",
    "poly.py: _Powers.row": "scale ** deg e",
    "poly.py: TruncatedPolynomial.evaluate": "a ** k for an exponent entry k >= 1, "
    "q ** (top - deg e) and q ** top",
}


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


def _parameter_names(tree: ast.Module) -> set[str]:
    """Names that the functions under tree take as parameters."""
    return {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
    }


def _unused_imports(tree: ast.Module, fixtures: bool = False) -> list[str]:
    """``name (line N)`` for each module-level import that nothing reads.  With
    ``fixtures``, a name taken as a parameter counts as read: pytest passes an
    imported fixture to each test that names it."""
    used = _used_names(tree) | (_parameter_names(tree) if fixtures else set())
    return sorted(
        f"{name} (line {line})" for name, line in _bound_names(tree).items() if name not in used
    )


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


def _dead_helpers(trees: dict[str, ast.Module], public: bool = False) -> list[str]:
    """Module-level functions and classes that no code outside their own
    definition refers to, across all the given modules.

    Only ``_name`` helpers are checked unless ``public`` is set.  An import,
    such as a re-export from ``__init__.py``, is not a reference."""
    total = sum((_reference_counts(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__"):
                continue
            if not (public or node.name.startswith("_")):
                continue
            if total[node.name] == _reference_counts(node)[node.name]:
                dead.append(f"{module}: {node.name}")
    return dead


def _dead_methods(trees: dict[str, ast.Module]) -> list[str]:
    """``Class.method`` for each non-dunder method of a module-level class that
    no code outside the method's own body reads, by name or as an attribute."""
    total = sum((_reference_counts(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if total[node.name] == _reference_counts(node)[node.name]:
                    dead.append(f"{module}: {cls.name}.{node.name}")
    return dead


def _foreign_private_stores(tree: ast.Module) -> list[str]:
    """``line N: x._name`` for each store to a private, non-dunder attribute
    of any object other than ``self``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
            continue
        if not node.attr.startswith("_") or node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            continue
        found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def _true_divisions(tree: ast.Module) -> list[str]:
    """``line N: text`` for each ``/`` or ``/=``, in source order."""
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


def _power_sites(tree: ast.Module, module: str) -> set[str]:
    """``module: Class.function`` (or ``module: function``) for each function
    that holds a ``**`` of its own."""
    sites = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Pow):
                sites.add(f"{module}: {prefix[:-1]}")
                visit(child, prefix)
            else:
                visit(child, prefix)

    visit(tree, "")
    return sites


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_true_division(path):
    assert _true_divisions(_tree(path)) == []


def test_every_power_site_is_pinned():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= _power_sites(_tree(path), path.name)
    assert sites == set(POWER_SITES)


def test_division_and_power_checks_catch_planted_sites():
    tree = ast.parse(
        "def f(a, b):\n"
        "    c = a // b\n"
        "    d = a / b\n"
        "    a /= b\n"
        "    return c, d, f'{a / 2}'\n"
        "class K:\n"
        "    def g(self, x):\n"
        "        return [y ** 2 for y in x]\n"
        "    def h(self, x):\n"
        "        return dict(**x)\n"
    )
    assert _true_divisions(tree) == ["line 3: a / b", "line 4: a /= b", "line 5: a / 2"]
    assert _power_sites(tree, "m.py") == {"m.py: K.g"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert _local_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: str(p.relative_to(TESTS)))
def test_no_unused_test_imports(path):
    assert _unused_imports(_tree(path), fixtures=True) == []


def test_test_import_check_counts_fixture_parameters():
    tree = ast.parse(
        "import json\n"
        "from conftest import P, algebra, jet\n"
        "def test_a(algebra):\n"
        "    assert P\n"
    )
    assert _unused_imports(tree, fixtures=True) == ["jet (line 2)", "json (line 1)"]
    assert _unused_imports(tree) == ["algebra (line 2)", "jet (line 2)", "json (line 1)"]


def test_checks_catch_both_faults():
    tree = ast.parse(
        "import json\n"
        "from math import comb, gcd\n"
        "def f(x: 'Fraction') -> int:\n"
        "    from os import path\n"
        "    return comb(x, 2)\n"
    )
    assert _local_imports(tree) == ["line 4 in f: path"]
    assert _unused_imports(tree) == ["gcd (line 2)", "json (line 1)"]


def _names(tree: ast.Module) -> set[str]:
    """Every name the module reads, imports or defines."""
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_poly_and_apoints_substitute():
    # The normal form, the derived jet and its oracle all work in closed form:
    # tau fixes the free variables, so jets moves nothing through a map.
    substituting = {"substitution", "truncated_substitute"}
    assert [p.stem for p in MODULES if _names(_tree(p)) & substituting] == ["apoints", "poly"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_stores_on_other_objects(path):
    assert _foreign_private_stores(_tree(path)) == []


def test_private_store_check_catches_a_planted_store():
    tree = ast.parse(
        "class Jet:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "def hat(p, h, f):\n"
        "    p._hat = h\n"
        "    p.hat = h\n"
        "    p._memo[0] = h\n"
        "    f.__name__ = 'g'\n"
        "    p.quotient._table, p._fields = h, h\n"
    )
    assert _foreign_private_stores(tree) == [
        "line 5: p._hat", "line 9: p.quotient._table", "line 9: p._fields"
    ]


def test_no_dead_private_helpers():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_helpers(trees) == []


def test_no_dead_public_names():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    dead = _dead_helpers(trees, public=True)
    assert sorted(entry.split(": ")[1] for entry in dead) == sorted(AWAITING_OPS)


def test_no_dead_methods():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_methods(trees) == []


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
    # Public names: one read by another definition, one thin wrapper that is
    # only re-exported, and one (like a dense helper whose last reader went
    # sparse) read by nothing.
    trees["c.py"] = ast.parse(
        "def apply(m, v): return [v]\n"
        "def solve(m, v): return apply(m, v)\n"
        "def query(kind, m, v): return solve(m, v)\n"
        "def mat_vec(rows, v): return mat_vec(rows[1:], v) if rows else []\n"
        "class Dense: pass\n"
    )
    trees["__init__.py"] = ast.parse("from .c import apply, solve, query\n")
    assert _dead_helpers(trees) == ["a.py: _recursive", "a.py: _Dead"]
    assert _dead_helpers(trees, public=True) == [
        "a.py: _recursive",
        "a.py: _Dead",
        "c.py: query",
        "c.py: mat_vec",
        "c.py: Dense",
    ]
    # Methods: one read by another method, one read only through an attribute
    # in another module, one read only by its own recursion, one read by
    # nothing, and dunders, which the language reads.
    trees["d.py"] = ast.parse(
        "class Point:\n"
        "    def __eq__(self, other): return self.norm() == other.norm()\n"
        "    def norm(self): return self._square()\n"
        "    def _square(self): return 0\n"
        "    @property\n"
        "    def base(self): return 0\n"
        "    def walk(self, n): return self.walk(n - 1) if n else 0\n"
        "    def unused(self): return 1\n"
    )
    trees["e.py"] = ast.parse("from d import Point\nprint(Point().base)\n")
    assert _dead_methods(trees) == ["d.py: Point.walk", "d.py: Point.unused"]
