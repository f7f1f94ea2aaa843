"""The benchmark's A-point ladder against its own oracles.

The ``point_ladder`` cases of seeds 1, 41 and 2031, generated by
``bench/workloads.py`` (read only), run through ``execute`` and ``render``:
every result is judged by its case's own check (the components of f at the
point, the group law and its inverse against polynomial oracles, the
prolonged shapes, the Weil check).  Each case must give one result per
check, every check must pass, and a batch in which no check ran fails too.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import importlib
import json
from pathlib import Path

import pytest

from weiljets.session import execute, parse_session, render

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (1, 41, 2031)


def run(text: str) -> dict:
    return json.loads(render(execute(parse_session(text))))


@pytest.mark.deep
def test_point_ladder_passes_its_oracles(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    checked, bad = 0, []
    for seed in SEEDS:
        for case in workloads.generate("point_ladder", seed, ROOT):
            results = run(case.text)["results"]
            where = f"seed {seed}, {case.label}"
            if len(results) != len(case.checks):
                bad.append(f"{where}: {len(results)} results, {len(case.checks)} checks")
            for entry, check in zip(results, case.checks):
                checked += 1
                message = check(entry, run)
                if message:
                    bad.append(f"{where}, [{entry['index']}] {entry['op']}: {message}")
    assert not bad, "\n".join(bad)
    assert checked, "no check ran"
