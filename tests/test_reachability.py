"""Every package function is reached by some session, apart from an allowance.

A child process sets ``sys.setprofile`` before it imports ``weiljets`` and
records every function the package calls while it runs:

- the corpus under ``sessions/``, rendered in both formats, with and without
  ``verify_oracles``;
- the adversarial sessions through ``cli.main``, apart from
  ``dense_prolong.json``, which runs for seconds until it exhausts the
  address space;
- the one-shot ``algebra``, ``jet`` and ``apoint`` shortcuts through
  ``cli.main``;
- the seed-1 cases of the benchmark's workloads, generated by
  ``bench/workloads.py`` (read only) and rendered.

The functions defined in ``src/weiljets`` are read with ``ast``; a function
is named by its module and its qualified name.  The ones no run reaches must
be exactly the keys of :data:`UNREACHED`, each with its reason: a newly dead
function fails the test, and so does an entry that some run now reaches.

Run as a script (``python tests/test_reachability.py``), this file is the
probe: it prints the qualified names it saw called, one a line.
"""

import ast
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weiljets"

# The probe runs under the adversarial tests' cap on its address space.
ADDRESS_SPACE_CAP = 256 * 2**20

_FACTOR = "epimorphism factorization, which no op reaches yet (AWAITING_OPS)"
_ELEMENT = "element equality and its hash, kept for APoint equality and factorization's check; no op compares"
_REPR = "a debugging view: no report prints the value's repr"

# Function -> why no session reaches it.
UNREACHED = {
    "apoints.APoint.__repr__": _REPR,
    "apoints.factor_epimorphism": _FACTOR,
    "apoints.factor_epimorphism.lift": _FACTOR,
    "jets.Jet.__repr__": _REPR,
    "poly.TruncatedPolynomial.__repr__": _REPR,
    "subspace.Subspace.__repr__": _REPR,
    "weil.AlgebraElement.__eq__": _ELEMENT,
    "weil.AlgebraElement.__hash__": _ELEMENT,
    "weil.AlgebraElement.__repr__": _REPR,
    "weil.WeilAlgebra.__repr__": _REPR,
}


def package_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) of every function's code object ->
    ``module.Qualified.name``.  A decorated function's code starts at its
    first decorator."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[(module, first, child.name)] = name
                visit(child, module, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, f"{path.stem}.")
    return found


def _probe() -> None:
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from weiljets import cli
    from weiljets.session import execute, parse_session, render

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))

    for path in sorted((ROOT / "sessions").glob("*.json")):
        session = parse_session(path.read_text())
        for verify in (False, True):
            report = execute(session, verify_oracles=verify)
            for fmt in ("json", "text"):
                render(report, fmt)
    for path in sorted((ROOT / "tests" / "adversarial").glob("*.json")):
        if path.name != "dense_prolong.json":
            main("run", str(path))
    main("algebra", "--vars", "2", "--relations", "x^2", "y^3")
    main("algebra", "--vars", "2", "--relations", "x y", "--bound", "3", "--describe", "--format", "text")
    for op in ("info", "hat", "cotangent", "tangent", "fields", "normal_form", "derive", "contact", "taylor"):
        main("jet", "--vars", "2", "--generators", "y - x^2", "--order-hint", "2", "--point", "1", "1", "--op", op)
    main("apoint", "--algebra-vars", "1", "--relations", "x^3", "--images", "1,2,0", "0,1,1", "--poly", "x y")
    main("apoint", "--algebra-vars", "1", "--bound", "2", "--images", "0,1,0", "--format", "text")
    for name in [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]:
        for case in workloads.generate(name, 1, ROOT):
            render(execute(parse_session(case.text)))
    sys.setprofile(None)

    names = package_functions()
    for code in called:
        key = (Path(code.co_filename).stem, code.co_firstlineno, code.co_name)
        if Path(code.co_filename).parent == PACKAGE and key in names:
            print(names[key])


def reached() -> set[str]:
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP)
        ),
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_every_function_is_reached_or_allowed():
    unreached = set(package_functions().values()) - reached()
    assert sorted(unreached) == sorted(UNREACHED)
    assert all(UNREACHED.values())


if __name__ == "__main__":
    _probe()
