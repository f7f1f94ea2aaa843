"""Self-tests of the benchmark: ``python -m pytest bench``."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import oracles as O
import workloads as W
from worker import Gate, measure, measure_traced

from weiljets import session
from weiljets.weil import derivation_space, free_truncated_algebra

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _corpus(names):
    cases = W.generate("corpus_mix", 1, ROOT)
    return [c for c in cases if c.label in names]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = W.generate(workload, 11, ROOT)
    again = W.generate(workload, 11, ROOT)
    other = W.generate(workload, 12, ROOT)
    assert [c.text for c in first] == [c.text for c in again]
    assert [c.label for c in first] == [c.label for c in other]
    assert [c.text for c in first] != [c.text for c in other]


def test_generated_jets_vanish_at_their_base_points():
    # A generator that does not vanish at the base point is an EmptyQuotientError.
    for workload in ("corpus_mix", "jet_ladder"):
        for case in W.generate(workload, 5, ROOT):
            session.parse_session(case.text)


def test_gate_accepts_the_goldens_and_rejects_a_perturbed_one():
    (case,) = _corpus({"corpus algebra_dual"})
    rendered = session.render(session.execute(session.parse_session(case.text)))
    gate = Gate(session, [case])
    assert gate.judge(0, rendered, None) == 0
    bad = replace(case, golden_json=case.golden_json.replace('"dim": 2', '"dim": 3', 1))
    assert bad.golden_json != case.golden_json
    gate = Gate(session, [bad])
    assert gate.judge(0, rendered, None) >= 1
    assert gate.failed >= 1 and gate.messages


def test_gate_rejects_a_perturbed_text_golden():
    (case,) = _corpus({"corpus apoint_eval"})
    gate = Gate(session, [case])
    gate.check_text_goldens()
    assert gate.failed == 0
    gate = Gate(session, [replace(case, golden_text=case.golden_text + " ")])
    gate.check_text_goldens()
    assert gate.failed == 1


def test_gate_counts_wrong_results_and_changed_bytes():
    case = W.generate("point_ladder", 3, ROOT)[0]
    rendered = session.render(session.execute(session.parse_session(case.text)))
    gate = Gate(session, [case])
    assert gate.judge(0, rendered, None) == 0
    report = json.loads(rendered)
    report["results"][0]["result"]["components"][0] = "12345"
    tampered = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert gate.judge(0, tampered, None) == 1
    assert Gate(session, [case]).judge(0, tampered, None) == 1
    assert Gate(session, [case]).judge(0, None, "ValueError: boom") == case.commands


@pytest.mark.parametrize("m, l", [(1, 3), (2, 3), (3, 3), (2, 5)])
def test_derivation_dimension_formula(m, l):
    assert derivation_space(free_truncated_algebra(m, l)).dimension == O.free_der_dim(m, l)


def test_end_to_end_metric_names_match_the_declaration(tmp_path):
    cases = _corpus({"corpus algebra_dual", "corpus apoint_eval"})
    metrics, _ = measure(session, cases, Gate(session, cases), 0.0)
    names = set(metrics) | {"setup_s"}  # run.py adds the set-up time
    assert names == {m["name"] for m in DECLARED["end_to_end"]}


def test_per_layer_metric_names_match_the_declaration(tmp_path):
    cases = _corpus({"corpus jet_parabola", "corpus weil_check"})
    metrics, detail = measure_traced(session, cases, Gate(session, cases), tmp_path / "s.tsv.gz")
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert detail["spans"] > 0 and (tmp_path / "s.tsv.gz").stat().st_size > 0
    # The wrappers are gone again: the package's own functions are back.
    assert not hasattr(session.parse_session, "__wrapped__")
    assert not hasattr(session._OPERATIONS["derive"], "__wrapped__")


_COUNT_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads, worker
from weiljets import session
cases = workloads.generate("corpus_mix", 4, worker.ROOT)
tracer, _ = worker.traced_pass(session, cases, worker.Gate(session, cases), True)
m = tracer.metrics()
print(json.dumps({k: v for k, v in m.items() if k.endswith((".calls", ".fraction_ops"))}))
"""


def test_exact_counts_repeat_across_hash_seeds():
    counts = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", _COUNT_SCRIPT, str(BENCH), str(ROOT / "src")],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        counts.append(json.loads(out.stdout.splitlines()[-1]))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["subspace.fraction_ops"] > 0


def test_run_fails_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no src/, no corpus.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        DECLARED["command"] + ["--workload", "corpus_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
