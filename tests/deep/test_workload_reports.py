"""Every benchmark workload's reports against the standard library's encoder.

Every seed-1 case of every workload named in ``BENCHMARK.json``, generated
by ``bench/workloads.py`` (read only), is executed and rendered: each JSON
report must equal the indented ``json.dumps`` of its payload.  This reaches
the R_4^4 structure constants and derivation images, which the corpus
goldens do not.  Any difference fails the test, and so does an empty batch.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import importlib
import json
from pathlib import Path

import pytest

from weiljets.session import execute, parse_session, render

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.deep
def test_workload_reports_equal_json_dumps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    rendered, bad = 0, []
    for name in names:
        for case in workloads.generate(name, 1, ROOT):
            report = execute(parse_session(case.text))
            payload = {"exit": report.exit_status, "results": report.results}
            rendered += 1
            if render(report) != json.dumps(payload, sort_keys=True, indent=2) + "\n":
                bad.append(f"{name}, {case.label}: the report differs from json.dumps")
    assert names and rendered > 0, "no workload case was rendered"
    assert not bad, "\n".join(bad)
