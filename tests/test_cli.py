import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weiljets.errors import SessionParseError, UnknownNameError
from weiljets.poly import as_fraction, parse_polynomial
from weiljets.session import execute, parse_session, render

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = sorted((ROOT / "sessions").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"


def run_session(path: Path, fmt: str = "json") -> str:
    session = parse_session(path.read_text())
    return render(execute(session), fmt)


class TestParseSession:
    def test_minimal_session(self):
        text = json.dumps(
            {
                "bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}],
                "run": [{"op": "info", "of": "A"}],
            }
        )
        session = parse_session(text)
        assert set(session.algebras) == {"A"}
        assert len(session.commands) == 1

    def test_unknown_name_rejected(self):
        text = json.dumps(
            {
                "bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}],
                "run": [{"op": "info", "of": "B"}],
            }
        )
        with pytest.raises(UnknownNameError):
            parse_session(text)

    def test_forward_reference_rejected(self):
        # An A-point may only reference an algebra bound before it.
        text = json.dumps(
            {
                "bind": [
                    {"apoint": "P", "algebra": "A", "images": [["0", "1"]]},
                    {"algebra": "A", "vars": 1, "relations": ["x^2"]},
                ],
                "run": [],
            }
        )
        with pytest.raises(SessionParseError):
            parse_session(text)

    def test_bad_json_reports_position(self):
        with pytest.raises(SessionParseError) as err:
            parse_session("{not json")
        assert "line" in str(err.value)

    def test_duplicate_names_rejected(self):
        text = json.dumps(
            {
                "bind": [
                    {"algebra": "A", "vars": 1, "relations": []},
                    {"jet": "A", "vars": 1, "generators": [], "order_hint": 1},
                ],
                "run": [],
            }
        )
        with pytest.raises(SessionParseError):
            parse_session(text)

    def test_floats_rejected(self):
        text = json.dumps(
            {
                "bind": [
                    {
                        "jet": "p",
                        "vars": 1,
                        "point": [0.5],
                        "generators": ["x"],
                        "order_hint": 1,
                    }
                ],
                "run": [],
            }
        )
        with pytest.raises(SessionParseError):
            parse_session(text)

    def test_jet_generator_round_trip(self):
        text = json.dumps(
            {
                "bind": [
                    {
                        "jet": "p",
                        "vars": 2,
                        "generators": ["y - x^2"],
                        "order_hint": 2,
                    }
                ],
                "run": [{"op": "info", "of": "p"}],
            }
        )
        session = parse_session(text)
        jet = session.jets["p"]
        assert (jet.order, jet.width) == (2, 1)


class TestExecute:
    def test_info_matches_documented_shape(self):
        text = json.dumps(
            {
                "bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}],
                "run": [{"op": "info", "of": "A"}],
            }
        )
        report = execute(parse_session(text))
        assert report.exit_status == 0
        assert report.results[0]["result"] == {
            "dim": 2,
            "order": 1,
            "width": 1,
            "der_dim": 1,
        }

    def test_empty_command_list(self):
        report = execute(parse_session('{"bind": [], "run": []}'))
        assert report.exit_status == 0
        assert report.results == []

    def test_errors_are_captured_per_command(self):
        text = json.dumps(
            {
                "bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}],
                "run": [
                    {"op": "describe", "of": "A"},
                    {"op": "weil_check", "a": "A", "b": "A", "vars": 1, "poly": "x", "point": 3},
                    {"op": "info", "of": "A"},
                ],
            }
        )
        report = execute(parse_session(text))
        assert report.exit_status == 1
        assert [r["ok"] for r in report.results] == [True, False, True]

    def test_fail_fast_stops(self):
        text = json.dumps(
            {
                "bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}],
                "run": [
                    {"op": "weil_check", "a": "A", "b": "A", "vars": 1, "poly": "x", "point": 3},
                    {"op": "info", "of": "A"},
                ],
            }
        )
        report = execute(parse_session(text), fail_fast=True)
        assert len(report.results) == 1

    def test_verify_oracles_flag(self):
        text = json.dumps(
            {
                "bind": [
                    {"jet": "p", "vars": 2, "generators": ["y - x^2"], "order_hint": 2}
                ],
                "run": [{"op": "derive", "of": "p"}],
            }
        )
        report = execute(parse_session(text), verify_oracles=True)
        assert report.results[0]["result"]["oracle_agrees"] is True


class TestZeroDenominator:
    def test_kernel_parsers_raise_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction("1/0")
        with pytest.raises(ValueError, match="zero denominator"):
            parse_polynomial("x + 1/0 y", 2)

    @pytest.mark.parametrize(
        "binding",
        [
            {"apoint": "P", "algebra": "A", "images": [["1/0", "1"]]},
            {"algebra": "B", "vars": 1, "relations": ["1/0 x^2"]},
            {"jet": "p", "vars": 1, "point": ["1/0"], "generators": ["x^2"], "order_hint": 1},
        ],
    )
    def test_bind_time_is_a_parse_error(self, binding):
        text = json.dumps({"bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}, binding]})
        with pytest.raises(SessionParseError, match="zero denominator"):
            parse_session(text)

    def test_run_time_is_a_per_command_error(self):
        text = json.dumps(
            {
                "bind": [
                    {"algebra": "A", "vars": 1, "relations": ["x^2"]},
                    {"apoint": "P", "algebra": "A", "images": [["3", "1"]]},
                ],
                "run": [
                    {"op": "evaluate", "of": "P", "poly": "1/0 x^2"},
                    {"op": "evaluate", "of": "P", "poly": "x^2"},
                ],
            }
        )
        report = execute(parse_session(text))
        assert report.exit_status == 1
        assert [r["ok"] for r in report.results] == [False, True]
        assert report.results[0]["error"]["kind"] == "SessionParseError"


def _graph_session(graph: dict) -> str:
    bind = {"jet": "p", "vars": 2, "order_hint": 2, "graph": graph}
    return json.dumps({"bind": [bind], "run": [{"op": "info", "of": "p"}]})


class TestGraphKeys:
    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"y": "x^2"}, "graph key 'y'"),
            ({"5": "x^2"}, "graph key '5'"),
            ({"-1": "x^2"}, "graph key '-1'"),
            ({"1": "x^2", "01": "x^3"}, "twice"),
        ],
    )
    def test_bad_key_is_a_parse_error(self, graph, message):
        with pytest.raises(SessionParseError, match=message):
            parse_session(_graph_session(graph))

    def test_index_key_binds_the_graph(self):
        jet = parse_session(_graph_session({"1": "x^2"})).jets["p"]
        assert jet.classical and (jet.order, jet.width) == (2, 1)


_ALGEBRA = {"algebra": "A", "vars": 1, "relations": ["x^2"]}
_PARABOLA = {"jet": "p", "vars": 2, "order_hint": 2, "graph": {"1": "x^2"}}


def _run_on_algebra(command):
    return {"bind": [_ALGEBRA], "run": [command]}


# (session, expected message): each must fail to parse, never run.
MALFORMED = [
    pytest.param(
        {"bind": [dict(_PARABOLA, generators=["x"])]},
        "'graph' or 'generators'",
        id="graph-and-generators",
    ),
    pytest.param(_run_on_algebra({"op": ["info"], "of": "A"}), "string 'op'", id="list-op"),
    pytest.param(_run_on_algebra({"op": 1, "of": "A"}), "string 'op'", id="number-op"),
    pytest.param(_run_on_algebra({"op": "info", "of": ["A"]}), "'of' must name", id="list-of"),
    pytest.param({"bind": [dict(_ALGEBRA, vars=True)]}, "'vars'", id="bool-algebra-vars"),
    pytest.param({"bind": [dict(_ALGEBRA, bound=True)]}, "'bound'", id="bool-bound"),
    pytest.param({"bind": [dict(_PARABOLA, vars=True)]}, "'vars'", id="bool-jet-vars"),
    pytest.param({"bind": [dict(_PARABOLA, order_hint=True)]}, "'order_hint'", id="bool-order-hint"),
    pytest.param({"bind": [{"group": "G", "dim": True, "law": ["x + y"]}]}, "'dim'", id="bool-dim"),
]


class TestMalformedSessions:
    @pytest.mark.parametrize("doc, message", MALFORMED)
    def test_is_a_parse_error(self, doc, message):
        with pytest.raises(SessionParseError, match=message):
            parse_session(json.dumps(doc))

    def test_graph_alone_still_binds(self):
        jet = parse_session(json.dumps({"bind": [_PARABOLA]})).jets["p"]
        assert jet.classical

    def test_info_looks_up_names_only(self):
        session = parse_session(json.dumps({"bind": [_ALGEBRA]}))
        session.commands.append({"op": "info", "of": ["A"]})
        report = execute(session)
        assert report.results[0]["error"]["kind"] == "UnknownNameError"


class TestDeterminismAndGoldens:
    @pytest.mark.parametrize("path", SESSIONS, ids=lambda p: p.stem)
    def test_byte_identical_across_runs(self, path):
        assert run_session(path) == run_session(path)
        assert run_session(path, "text") == run_session(path, "text")

    @pytest.mark.parametrize("path", SESSIONS, ids=lambda p: p.stem)
    def test_matches_golden(self, path):
        golden = (GOLDEN / f"{path.stem}.out.json").read_text()
        assert run_session(path) == golden
        golden_text = (GOLDEN / f"{path.stem}.out.txt").read_text()
        assert run_session(path, "text") == golden_text

    @pytest.mark.parametrize("path", SESSIONS, ids=lambda p: p.stem)
    def test_builds_no_integral_fraction(self, path, monkeypatch):
        # Integral scalars stay ints: every Fraction a corpus session builds,
        # in either rendering, has a denominator > 1, and the reports are the
        # goldens.
        built = []
        new = Fraction.__new__

        def spy(cls, *args, **kwargs):
            value = new(cls, *args, **kwargs)
            built.append(value)
            return value

        monkeypatch.setattr(Fraction, "__new__", spy)
        reports = run_session(path), run_session(path, "text")
        monkeypatch.undo()
        assert [f for f in built if f.denominator == 1] == []
        assert reports == tuple(
            (GOLDEN / f"{path.stem}.out.{fmt}").read_text() for fmt in ("json", "txt")
        )

    @pytest.mark.parametrize("path", SESSIONS, ids=lambda p: p.stem)
    def test_json_round_trips(self, path):
        rendered = run_session(path)
        assert json.loads(rendered) == json.loads(run_session(path))


class TestCommandLine:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "weiljets.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_run_exit_codes(self):
        ok = self._run("run", str(ROOT / "sessions" / "algebra_dual.json"))
        assert ok.returncode == 0
        err = self._run("run", str(ROOT / "sessions" / "command_error.json"))
        assert err.returncode == 1
        missing = self._run("run", str(ROOT / "sessions" / "nope.json"))
        assert missing.returncode == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = self._run("run", str(bad))
        assert result.returncode == 2
        assert "session error" in result.stderr

    def test_zero_denominator_exit_codes(self, tmp_path):
        algebra = {"algebra": "A", "vars": 1, "relations": ["x^2"]}
        at_bind = tmp_path / "bind.json"
        at_bind.write_text(
            json.dumps({"bind": [algebra, {"apoint": "P", "algebra": "A", "images": [["1/0", "1"]]}]})
        )
        result = self._run("run", str(at_bind))
        assert result.returncode == 2
        assert "zero denominator" in result.stderr and "Traceback" not in result.stderr
        at_run = tmp_path / "run.json"
        at_run.write_text(
            json.dumps(
                {
                    "bind": [algebra, {"apoint": "P", "algebra": "A", "images": [["3", "1"]]}],
                    "run": [{"op": "evaluate", "of": "P", "poly": "1/0 x"}],
                }
            )
        )
        result = self._run("run", str(at_run))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        error = json.loads(result.stdout)["results"][0]["error"]
        assert error["kind"] == "SessionParseError"

    @pytest.mark.parametrize("key", ["y", "5"])
    def test_bad_graph_key_exit_code(self, tmp_path, key):
        path = tmp_path / "graph.json"
        path.write_text(_graph_session({key: "x^2"}))
        result = self._run("run", str(path))
        assert result.returncode == 2
        assert f"graph key {key!r}" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("doc, message", MALFORMED)
    def test_malformed_session_exit_code(self, tmp_path, doc, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        result = self._run("run", str(path))
        assert result.returncode == 2
        assert "session error" in result.stderr and "Traceback" not in result.stderr
        assert re.search(message, result.stderr)

    def test_render_out_of_memory_is_a_typed_failure(self):
        # The report is rendered after every command's guard; running out of
        # memory there is a one-line error with exit 1 and an empty stdout.
        script = (
            "import sys\n"
            "import weiljets.cli as cli\n"
            "def render(report, fmt):\n"
            "    raise MemoryError\n"
            "cli.render = render\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, "run", str(ROOT / "sessions" / "algebra_dual.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_module_entry_point(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", module, "run", str(ROOT / "sessions" / name)],
                capture_output=True,
                text=True,
            )
            for module in ("weiljets", "weiljets.cli")
            for name in ("algebra_dual.json", "command_error.json")
        ]
        assert [r.returncode for r in runs] == [0, 1, 0, 1]
        assert runs[0].stdout == runs[2].stdout and runs[1].stdout == runs[3].stdout

    def test_algebra_shortcut(self):
        result = self._run("algebra", "--vars", "1", "--relations", "x^2")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["results"][0]["result"]["dim"] == 2

    def test_a_huge_variable_count_is_refused_before_parsing(self):
        result = self._run("algebra", "--vars", "10000000", "--relations", "x1")
        assert result.returncode == 2
        assert "more than the cap" in result.stderr and "Traceback" not in result.stderr

    def test_jet_shortcut(self):
        result = self._run(
            "jet",
            "--vars", "2",
            "--generators", "y - x^2",
            "--order-hint", "2",
            "--op", "derive",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["results"][0]["result"]["taylor_condition"] is True

    def test_apoint_shortcut(self):
        result = self._run(
            "apoint",
            "--algebra-vars", "1",
            "--relations", "x^2",
            "--images", "3,1",
            "--poly", "x^2",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["results"][0]["result"]["components"] == ["9", "6"]

    def test_session_format_selector(self, tmp_path):
        doc = {
            "format": "text",
            "bind": [{"algebra": "A", "vars": 1, "relations": ["x^2"]}],
            "run": [{"op": "info", "of": "A"}],
        }
        path = tmp_path / "fmt.json"
        path.write_text(json.dumps(doc))
        result = self._run("run", str(path))
        assert result.returncode == 0
        assert result.stdout.startswith("exit 0")
        # An explicit flag overrides the selector.
        result_json = self._run("run", str(path), "--format", "json")
        assert json.loads(result_json.stdout)["exit"] == 0
