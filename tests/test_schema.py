"""The session schema: malformed input, window caps, deep exponents, fuzzing, docs.

Every input either gives a result or a typed error: exit 2 for a bad binding,
one structured per-command error for a bad command, and never a traceback.
"""

import ast
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weiljets import cli, session
from weiljets.errors import SessionParseError, WindowTooLargeError
from weiljets.monomials import MAX_WINDOW, window, window_size
from weiljets.poly import _Powers
from weiljets.session import execute, parse_session

ROOT = Path(__file__).resolve().parent.parent

_ALGEBRA = {"algebra": "A", "vars": 1, "relations": ["x^2"]}
_JET = {"jet": "p", "vars": 1, "generators": ["x^2"], "order_hint": 1}
_GROUP = {"group": "G", "dim": 1, "law": ["x + y"], "inverse": ["-x"]}
_WEIL = {"op": "weil_check", "a": "A", "b": "A", "vars": 1, "poly": "x"}


def _run_cli(doc) -> tuple[int, str, str]:
    """``weiljets run`` on the session, in this process: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
    return code, out.getvalue(), err.getvalue()


def _run(doc):
    return execute(parse_session(json.dumps(doc)))


def _bind(*bindings):
    return {"bind": list(bindings)}


# Bindings that break the schema: (session, expected message).
BAD_BINDINGS = [
    pytest.param(_bind(dict(_JET, point=5)), "'point' must be a list", id="jet-point-int"),
    pytest.param(
        _bind(_ALGEBRA, {"apoint": "P", "algebra": "A", "images": [5]}),
        "'images' must be a list",
        id="apoint-image-int",
    ),
    pytest.param(
        _bind(_ALGEBRA, {"apoint": "P", "algebra": ["A"], "images": [["1", "0"]]}),
        "'algebra' must name an algebra",
        id="apoint-algebra-list",
    ),
    pytest.param(
        _bind(dict(_GROUP, identity=0)),
        "'identity' must be a list",
        id="group-identity-int",
    ),
    pytest.param(
        _bind({"jet": "p", "vars": 1, "ideal": "x", "order_hint": 2}),
        "unknown binding key 'ideal'",
        id="jet-unknown-key",
    ),
    pytest.param(
        _bind(dict(_ALGEBRA, bogus=1)), "unknown binding key 'bogus'", id="algebra-unknown-key"
    ),
    pytest.param(_bind(dict(_JET, strict="no")), "'strict' must be true or false", id="strict-str"),
    pytest.param(
        _bind({"algebra": "A", "relations": ["x^2"]}), "needs the key 'vars'", id="missing-vars"
    ),
    pytest.param(_bind(dict(_JET, point=[True])), "not an exact rational", id="bool-rational"),
    pytest.param(
        _bind({"group": "G", "dim": 1, "law": ["x + y"]}), "needs the key 'inverse'", id="no-inverse"
    ),
    pytest.param(
        _bind({"group": "G", "dim": 1, "inverse": ["-x"]}), "needs the key 'law'", id="no-law"
    ),
    pytest.param(
        _bind(dict(_GROUP, law=["x + y", "x"])),
        "'law' must have one component per dimension",
        id="law-length",
    ),
    pytest.param(
        _bind(dict(_GROUP, identity=["0", "0"])),
        "'identity' must have one coordinate per dimension",
        id="identity-length",
    ),
]


class TestBadBindings:
    @pytest.mark.parametrize("doc, message", BAD_BINDINGS)
    def test_is_a_parse_error(self, doc, message):
        with pytest.raises(SessionParseError, match=message):
            parse_session(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", BAD_BINDINGS)
    def test_exits_2(self, doc, message):
        code, _, err = _run_cli(doc)
        assert code == 2
        assert "session error" in err and re.search(message, err)


# Commands that break the schema: (command over A and p, expected message).
BAD_COMMANDS = [
    pytest.param(dict(_WEIL, point=[5]), "'point' must be a list", id="weil-point-int"),
    pytest.param(dict(_WEIL, point=[[5]]), "'point' must be a list", id="weil-point-row-int"),
    pytest.param(
        dict(_WEIL, point=[[[0.5, "2"], ["3", "7"]]]), "not an exact rational", id="weil-point-float"
    ),
    pytest.param(
        {"op": "stability", "of": "A", "ideal": "x"}, "'ideal' must be a list", id="stability-str"
    ),
    pytest.param(
        {"op": "prolong", "algebra": "A", "vars": 1, "ideal": "x"},
        "'ideal' must be a list",
        id="prolong-str",
    ),
    pytest.param(
        {"op": "info", "of": "A", "bogus": 1}, "unknown command key 'bogus'", id="unknown-key"
    ),
    pytest.param(
        {"op": "derive", "of": "p", "verify": "no"}, "'verify' must be true or false", id="verify-str"
    ),
    pytest.param(
        {"op": "evaluate", "of": "A", "poly": "x"}, "needs an A-point under 'of'", id="wrong-kind"
    ),
    pytest.param({"op": "pushforward", "of": "p"}, "needs the key 'map'", id="missing-map"),
]


class TestBadCommands:
    @pytest.mark.parametrize("command, message", BAD_COMMANDS)
    def test_is_a_per_command_error(self, command, message):
        report = _run({"bind": [_ALGEBRA, _JET], "run": [command, {"op": "info", "of": "A"}]})
        assert report.exit_status == 1
        assert [r["ok"] for r in report.results] == [False, True]
        assert re.search(message, report.results[0]["error"]["message"])

    @pytest.mark.parametrize("command, message", BAD_COMMANDS)
    def test_exits_1(self, command, message):
        code, out, err = _run_cli({"bind": [_ALGEBRA, _JET], "run": [command]})
        assert code == 1 and "Traceback" not in err
        (entry,) = json.loads(out)["results"]
        assert set(entry["error"]) == {"kind", "message"}
        assert re.search(message, entry["error"]["message"])

    def test_verify_key_is_typed(self):
        report = _run({"bind": [_JET], "run": [{"op": "derive", "of": "p", "verify": True}]})
        assert report.results[0]["result"]["oracle_agrees"] is True


_HUGE = "x^99999999999"
_SHIFTED_JET = {"jet": "p", "vars": 1, "point": ["1"], "order_hint": 1}


class TestWindowCap:
    def test_window_above_the_cap_is_refused(self):
        assert window_size(2, 76) > MAX_WINDOW
        with pytest.raises(WindowTooLargeError, match="monomials"):
            window(2, 76)

    @pytest.mark.parametrize(
        "binding",
        [
            {"algebra": "A", "vars": 40, "bound": 6},
            {"algebra": "A", "vars": 3, "bound": 60},
            {"algebra": "A", "vars": 1, "relations": [_HUGE]},
            dict(_SHIFTED_JET, generators=[_HUGE + " - 1"]),
            dict(_SHIFTED_JET, generators=["x^3000 - 1"]),
            {"jet": "p", "vars": 2, "graph": {"1": _HUGE}, "point": ["1", "0"], "order_hint": 1},
            dict(_GROUP, law=["x + y + " + _HUGE]),
            dict(_GROUP, law=["x + y + x^40 y^40"]),
            dict(_JET, vars=10_000_000, generators=["x1"]),
            {"algebra": "A", "vars": 10_000_000, "relations": ["x1"]},
            dict(_GROUP, dim=5_000_000),
        ],
        ids=[
            "R_40^6",
            "R_3^60",
            "huge-relation",
            "huge-jet-shift",
            "deep-jet-shift",
            "huge-graph-shift",
            "huge-group-law",
            "group-law-squared-degree",
            "huge-jet-vars",
            "huge-algebra-vars",
            "huge-group-dim",
        ],
    )
    def test_bind_time_exits_2(self, binding):
        code, _, err = _run_cli(_bind(binding))
        assert code == 2
        assert "more than the cap" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            {"op": "tensor", "of": "B", "with": "B"},
            {"op": "prolong", "algebra": "B", "vars": 1, "ideal": [_HUGE]},
            {"op": "prolong", "algebra": "B", "vars": 1, "ideal": ["x^5000"]},
            {"op": "evaluate", "of": "P", "poly": _HUGE},
            {"op": "weil_check", "a": "A", "b": "A", "vars": 1, "poly": _HUGE,
             "point": [[["1", "0"], ["0", "1"]]]},
        ],
        ids=["tensor", "huge-prolong", "deep-prolong", "huge-evaluate", "huge-weil-check"],
    )
    def test_run_time_is_a_per_command_error(self, command):
        algebra = {"algebra": "B", "vars": 6, "bound": 2}
        point = {"apoint": "P", "algebra": "A", "images": [["1", "1"]]}
        run = [command, {"op": "info", "of": "B"}]
        report = _run({"bind": [_ALGEBRA, algebra, point], "run": run})
        assert [r["ok"] for r in report.results] == [False, True]
        assert report.results[0]["error"]["kind"] == "WindowTooLargeError"


class TestDeepExponents:
    """A high exponent once recursed once per degree in the power-product cache."""

    def test_power_products_walk_without_recursion(self):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b % 1_000_003

        power = _Powers(1, [3], mul, 1, [3]).product
        assert power((2999,)) == pow(3, 2999, 1_000_003)
        # One product per new exponent; the first power is seeded.
        assert len(calls) == 2998
        # The walk down cached every exponent on the way.
        assert power((2998,)) == pow(3, 2998, 1_000_003) and len(calls) == 2998
        # The next degree's window is above the cap: refused before any product.
        with pytest.raises(WindowTooLargeError):
            power((3000,))
        assert len(calls) == 2998

    def test_power_products_lower_the_first_variable_first(self):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        power = _Powers(1, [3, 5], mul, 1, [3, 5]).product
        # Down to the seeded (0, 1): 40 products, then one for (0, 2).
        assert power((40, 2)) == 3**40 * 25 and len(calls) == 41
        # (0, 3) costs one product on top of the cached (0, 2).
        assert power((0, 3)) == 125 and len(calls) == 42

    def test_jet_with_a_deep_shift(self):
        jet = dict(_SHIFTED_JET, generators=["x^2999 - 1"])
        report = _run({"bind": [jet], "run": [{"op": "info", "of": "p"}]})
        assert report.results[0]["result"]["generators"] == ["x"]

    def test_prolong_of_a_deep_power(self):
        command = {"op": "prolong", "algebra": "A", "vars": 1, "ideal": ["x^2999"]}
        assert _run({"bind": [_ALGEBRA], "run": [command]}).exit_status == 0


# -- fuzzing the schema ---------------------------------------------------------------
#
# A fuzzed session starts from well-formed entries over the schema's own keys
# and then mutates some: it drops keys, adds stray ones, and swaps values for
# small values of any type.

_POLYS = ["x", "x^2", "y - x^2", "x^4", "1", "x + y", "z - x y", "x2^3", "1/0 x", "x^", ""]
_RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "1/0", "a", 0, 3, 0.5, True])
_WILD = st.recursive(
    st.integers(-1, 3) | st.booleans() | _RATIONALS | st.sampled_from(_POLYS + ["A0", "p1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "y"]), inner, max_size=2),
    max_leaves=6,
)

# Well-formed bindings of each kind; an A-point is over the first algebra, "A0".
_BASES = {
    "algebra": [
        {"vars": 1, "relations": ["x^2"]},
        {"vars": 2, "bound": 2},
        {"vars": 2, "relations": ["x^2", "y^3"]},
    ],
    "jet": [
        {"vars": 2, "order_hint": 2, "generators": ["y - x^2"]},
        {"vars": 1, "order_hint": 1, "generators": ["x^2 - 1/4"], "point": ["1/2"], "strict": False},
        {"vars": 2, "order_hint": 2, "graph": {"1": "x^2"}},
    ],
    "group": [{"dim": 1, "law": ["x + y"], "identity": ["0"], "inverse": ["-x"]}],
    "apoint": [{"algebra": "A0", "images": [["3", "1"]]}],
}
_LABELS = {"algebra": "A", "jet": "p", "group": "G", "apoint": "P"}
_COMMAND_VALUES = {
    "vars": 1,
    "poly": "x^2",
    "ideal": ["x"],
    "map": ["x", "x^2"],
    "verify": True,
    "point": [[["1", "0"], ["0", "1"]]],
    "p": [["1", "1"]],
    "q": [["2", "0"]],
}


def _command_base(op: str, names: dict[str, str]) -> dict:
    """A plausible command: each name key names a binding of its kind, or of
    another kind when there is none."""
    cmd = {"op": op}
    for key, spec in session._OPERATIONS[op].keys.items() if op in session._OPERATIONS else ():
        if isinstance(spec.convert, session._Ref):
            cmd[key] = names.get(spec.convert.kind) or next(iter(names.values()))
        else:
            cmd[key] = _COMMAND_VALUES[key]
    return cmd


@st.composite
def _mutated(draw, entry: dict, keys) -> dict:
    """The entry, or (one time in three) the entry with some keys changed."""
    if draw(st.integers(0, 2)):
        return entry
    entry = dict(entry)
    for key in draw(st.lists(st.sampled_from(sorted(keys) + ["stray"]), max_size=2, unique=True)):
        if key in entry and draw(st.booleans()):
            del entry[key]
        else:
            entry[key] = draw(_WILD)
    return entry


@st.composite
def _sessions(draw):
    kinds = draw(st.lists(st.sampled_from(list(_LABELS)), min_size=1, max_size=3))
    if "apoint" in kinds:
        kinds.append("algebra")
    binds, names = [], {}
    for index, kind in enumerate(sorted(kinds, key=list(_LABELS).index)):
        label = f"{_LABELS[kind]}{index}"
        names.setdefault(kind, label)
        base = dict(draw(st.sampled_from(_BASES[kind])), **{kind: label})
        binds.append(draw(_mutated(base, session._BINDINGS[kind][1])))
    run = []
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(sorted(session._OPERATIONS) + ["bogus"]))
        keys = session._OPERATIONS[op].keys if op in session._OPERATIONS else {}
        run.append(draw(_mutated(_command_base(op, names), keys)))
    return {"bind": binds, "run": run}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sessions())
def test_fuzzed_sessions_fail_cleanly(doc):
    code, out, err = _run_cli(doc)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        failed = [r for r in json.loads(out)["results"] if not r["ok"]]
        assert failed
        for entry in failed:
            assert set(entry["error"]) == {"kind", "message"}
            assert entry["error"]["kind"] and entry["error"]["message"]


# -- the README documents the schema ----------------------------------------------------


def _readme_schema() -> str:
    text = (ROOT / "README.md").read_text()
    return text[text.index("### Session schema") : text.index("## Conventions worth knowing")]


def _documented(first_column: str) -> dict[str, dict[str, bool]]:
    """{name: {key: required}} from the README table headed by ``first_column``."""
    section = _readme_schema()
    table = section[section.index(f"| {first_column} | keys |") :].split("\n\n")[0]
    documented = {}
    for name, keys in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M):
        found = re.findall(r"`(\w+)`( \(optional\))?:", keys)
        documented[name] = {key: not optional for key, optional in found}
    return documented


def _declared(tables) -> dict[str, dict[str, bool]]:
    return {name: {key: spec.required for key, spec in keys.items()} for name, keys in tables.items()}


def test_readme_lists_every_op_and_its_keys():
    documented = _documented("op")
    assert list(documented) == list(session._OPERATIONS)
    assert documented == _declared({op: c.keys for op, c in session._OPERATIONS.items()})


def test_readme_lists_every_binding_kind_and_its_keys():
    documented = _documented("binding")
    assert set(documented) == set(session._BINDINGS)
    assert documented == _declared({kind: keys for kind, (_, keys) in session._BINDINGS.items()})


def test_readme_example_parses_and_runs():
    section = _readme_schema()
    start = section.index("```json") + len("```json")
    example = section[start : section.index("```", start)]
    report = execute(parse_session(example))
    assert report.exit_status == 0 and len(report.results) == 4


# -- the README lists every internal check ----------------------------------------------


def _raised_check_messages() -> list[str]:
    """The message of every ``raise InternalCheckError(...)`` in the package,
    read with ``ast``.  An f-string's message is its constant text before the
    first replacement field, up to the colon that introduces the details."""
    messages = []
    for path in sorted((ROOT / "src" / "weiljets").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            if getattr(node.exc.func, "id", None) != "InternalCheckError":
                continue
            (message,) = node.exc.args
            if isinstance(message, ast.JoinedStr):
                prefix = ""
                for part in message.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix += part.value
                messages.append(prefix.partition(":")[0])
            else:
                messages.append(message.value)
    return messages


def test_readme_check_table_lists_every_raise_site():
    text = (ROOT / "README.md").read_text()
    start = text.index("| # | Site | Fact checked |")
    table = text[start : text.index("\n\n", start)]
    documented = re.findall(r'^ *\| \d+ \| `\w+`[^"|]*: "([^"]+)" \|', table, re.M)
    raised = _raised_check_messages()
    assert sorted(documented) == sorted(raised)
