"""One benchmark run in a fresh interpreter; started by ``run.py``.

Prints ``ready`` once weiljets is imported and the workload generated (the
end of set-up), then, unless ``--setup-only``, runs the sessions in a closed
loop with one client and prints one JSON line with the counts, metrics and
detail.  Each session goes through the ``weiljets run`` path in process:
``parse_session`` -> ``execute`` -> ``render``.  The correctness gate runs
outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep

import oracles as O
import workloads as W
from speed import INTERVAL_S, WINDOW_S, SpeedSampler
from tracer import OUTSIDE, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _import_session():
    """weiljets.session from this checkout's src/, or exit if it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from weiljets import session
    except ImportError as exc:
        sys.exit(f"cannot import weiljets from {src}: {exc}")
    if not Path(session.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"weiljets was imported from {session.__file__}, not from {src}")
    return session


class Gate:
    """Judges every rendered report; counts commands whose outcome is wrong.

    A corpus session must match its golden report byte for byte.  The first
    report of a generated session is checked command by command against the
    oracles; every later report of the same session must render the same bytes.
    """

    def __init__(self, session, cases):
        self.session = session
        self.cases = cases
        self.reference: dict[int, tuple[str, int]] = {}
        self.failed = 0
        self.messages: list[str] = []

    def run(self, text: str) -> dict:
        """A follow-up session, for checks that compose two results."""
        s = self.session
        return json.loads(s.render(s.execute(s.parse_session(text))))

    def judge(self, index: int, rendered: str | None, error: str | None) -> int:
        case = self.cases[index]
        if rendered is None:
            failed = case.commands
            self._note(case, f"raised {error}")
        elif index not in self.reference:
            failed = self._first(case, rendered)
            self.reference[index] = (rendered, failed)
        else:
            want, known = self.reference[index]
            failed = known
            if rendered != want:
                failed = min(case.commands, known + O.compare_reports(rendered, want))
                self._note(case, "a re-execution rendered different bytes")
        self.failed += failed
        return failed

    def _first(self, case, rendered: str) -> int:
        if case.golden_json is not None:
            failed = O.compare_reports(rendered, case.golden_json)
            if failed:
                self._note(case, f"{failed} commands differ from the golden report")
            return failed
        results = json.loads(rendered)["results"]
        failed = abs(len(results) - len(case.checks))
        for entry, check in zip(results, case.checks):
            message = check(entry, self.run)
            if message:
                failed += 1
                self._note(case, f"[{entry['index']}] {entry['op']}: {message}")
        return failed

    def check_text_goldens(self) -> None:
        """Corpus sessions rendered as text must match the text goldens."""
        s = self.session
        for case in self.cases:
            if case.golden_text is None:
                continue
            text = s.render(s.execute(s.parse_session(case.text)), "text")
            if text != case.golden_text:
                self.failed += 1
                self._note(case, "text report differs from the golden")

    def _note(self, case, message: str) -> None:
        if len(self.messages) < 50:
            self.messages.append(f"{case.label}: {message}")


@dataclass(frozen=True)
class Sample:
    """One timed session: raw seconds, and seconds at the nominal machine speed."""

    label: str
    raw_s: float
    scaled_s: float
    commands: int


def run_pass(session, cases, gate, tracer=None) -> list[tuple[str, float, float, int]]:
    """One closed-loop pass: (label, start, end, commands) per session, parse to render."""
    timed = []
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.session_id = index
        error = None
        # Every session starts from the same collector state, so the
        # collections that fall inside it are the same on every pass.
        gc.collect()
        started = perf_counter()
        try:
            parsed = session.parse_session(case.text)
            rendered = session.render(session.execute(parsed), parsed.format)
        except Exception as exc:  # any untyped failure is counted, not fatal
            rendered, error = None, f"{type(exc).__name__}: {exc}"
        timed.append((case.label, started, perf_counter(), case.commands))
        gate.judge(index, rendered, error)
    return timed


def _scaled(sampler: SpeedSampler, timed) -> list[Sample]:
    return [Sample(label, *sampler.scale(start, end), commands) for label, start, end, commands in timed]


def _settle() -> None:
    """Let the sampler take the samples just after the last session."""
    sleep(WINDOW_S + 2 * INTERVAL_S)


def _summary(samples: list[Sample], key: str) -> dict:
    """Throughput over all samples; latency percentiles over the sessions of a pass.

    Each session's latency is its median over the run's passes, and p50 and
    p90 are taken over those, interpolating between sessions.  A pass holds
    a fixed mix of sessions of very different sizes, so percentiles over all
    samples would land on the noisy edge of whichever session straddles the
    rank.
    """
    by_label: dict[str, list[float]] = {}
    for sample in samples:
        by_label.setdefault(sample.label, []).append(getattr(sample, key))
    typical = sorted(statistics.median(times) for times in by_label.values())
    cuts = statistics.quantiles(typical, n=20, method="inclusive")
    return {
        "cmds_per_s": sum(s.commands for s in samples) / sum(getattr(s, key) for s in samples),
        "session_ms_p50": 1000 * cuts[9],
        "session_ms_p90": 1000 * cuts[17],
    }


def measure(session, cases, gate, seconds: float) -> tuple[dict, dict]:
    """Whole passes until ``seconds`` of session time, at least two."""
    timed = []
    passes = 0
    peak_rss_mb = 0.0
    with SpeedSampler() as sampler:
        while passes < 2 or sum(end - start for _, start, end, _ in timed) < seconds:
            timed += run_pass(session, cases, gate)
            passes += 1
            if passes == 2:
                # The high-water mark of a fixed amount of work, whatever the run length.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _settle()
    samples = _scaled(sampler, timed)
    metrics = _summary(samples, "scaled_s")
    metrics["peak_rss_mb"] = peak_rss_mb
    detail = {
        "passes": passes,
        "sessions": len(samples),
        "commands": sum(s.commands for s in samples),
        "session_seconds": sum(s.raw_s for s in samples),
        "speed_samples": len(sampler.times),
        "reference_median_s": statistics.median(sampler.times),
        "raw": _summary(samples, "raw_s"),
        "rungs": _rungs(samples),
    }
    return metrics, detail


def traced_pass(session, cases, gate, count_fractions: bool):
    """One pass with the tracer installed; returns the tracer and the pass's timings."""
    tracer = Tracer()
    tracer.install(count_fractions=count_fractions)
    try:
        timed = run_pass(session, cases, gate, tracer)
    finally:
        tracer.uninstall()
    return tracer, timed


def measure_traced(session, cases, gate, spans_path: Path) -> tuple[dict, dict]:
    """Warm-up, untraced, timed-trace and counting-trace passes over the same cases.

    Wrapping ``Fraction`` slows each layer in proportion to its arithmetic,
    so self times and spans come from a pass that counts no ``Fraction``
    calls, and the counts from a second traced pass that does.  No speed
    sampler runs here: its handler would land in the layers' spans.
    """
    run_pass(session, cases, gate)
    untraced = run_pass(session, cases, gate)
    timing, traced = traced_pass(session, cases, gate, count_fractions=False)
    counting, _ = traced_pass(session, cases, gate, count_fractions=True)
    metrics = counting.metrics()
    metrics.update((k, v) for k, v in timing.metrics().items() if k.endswith("_s"))
    untraced_s = sum(end - start for _, start, end, _ in untraced)
    traced_s = sum(end - start for _, start, end, _ in traced)
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1
    detail = {
        "passes": 4,
        "commands": 4 * sum(t[3] for t in untraced),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": timing.write_spans(spans_path),
        "spans_file": spans_path.name,
        "dominant_layer": max(
            (k.split(".")[0] for k in metrics if k.endswith(".self_s")),
            key=lambda layer: metrics[f"{layer}.self_s"],
        ),
        "functions": timing.per_function(),
        "unattributed_fraction_ops": counting.fraction_ops[OUTSIDE],
    }
    return metrics, detail


def _rungs(samples: list[Sample]) -> dict:
    """Per-session (per ladder rung) times, raw and scaled."""
    by_label: dict[str, list[Sample]] = {}
    for sample in samples:
        by_label.setdefault(sample.label, []).append(sample)
    return {
        label: {
            "samples": len(group),
            "median_ms": 1000 * statistics.median(s.scaled_s for s in group),
            "raw_median_ms": 1000 * statistics.median(s.raw_s for s in group),
        }
        for label, group in by_label.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    session = _import_session()
    cases = W.generate(args.workload, args.seed, ROOT)
    print("ready", flush=True)
    gc.collect()
    gc.freeze()
    if args.setup_only:
        return 0

    gate = Gate(session, cases)
    if args.trace:
        metrics, detail = measure_traced(session, cases, gate, args.spans)
    else:
        metrics, detail = measure(session, cases, gate, args.seconds)
    gate.check_text_goldens()
    attempted = detail["commands"]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        cases=len(cases),
        failed_frac=gate.failed / attempted,
        gate_messages=gate.messages,
    )
    result = {
        "correct": gate.failed == 0,
        "attempted": attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "detail": detail,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
