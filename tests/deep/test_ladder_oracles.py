"""The benchmark's ladder jets with every oracle and route comparison on.

The ``jet_ladder`` cases of seeds 1 and 41, generated by
``bench/workloads.py`` (read only), run through
``execute(..., verify_oracles=True)``: the corpus has three jets, the ladder
many more.  Every command must succeed and every route flag must be true,
and each of the three flags must have been checked at least once over the
batch, so an empty batch fails too.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from weiljets.session import execute, parse_session

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (1, 41)
FLAGS = ("oracle_agrees", "annihilator_equals_generated", "kernel_inside_cartan")


@pytest.mark.deep
def test_ladder_jets_pass_every_oracle(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    checked, bad = Counter(), []
    for seed in SEEDS:
        for case in workloads.generate("jet_ladder", seed, ROOT):
            report = execute(parse_session(case.text), verify_oracles=True)
            for entry in report.results:
                result = entry.get("result", {})
                flags = {k: result[k] for k in FLAGS if k in result}
                checked.update(flags)
                if not entry["ok"] or False in flags.values():
                    bad.append(f"seed {seed}, {case.label}: {entry}")
    assert not bad, "\n".join(bad)
    assert set(checked) == set(FLAGS), dict(checked)
