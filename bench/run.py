"""The weiljets benchmark: seeded session workloads through ``weiljets run``.

    python3 bench/run.py --workload jet_ladder --seed 1 --seconds 20 --trace 0

Workloads: corpus_mix, algebra_ladder, jet_ladder, point_ladder (see
``workloads.py``).  Run from the root of a checkout; the package is imported
from its ``src/``.  The run starts fresh interpreters: a warm-up and several
set-up probes that import weiljets and generate the workload, then one worker
that does the same and runs the sessions in a closed loop with one client
(one thread).

With ``--trace 0`` the worker runs whole passes over the workload's sessions
until ``--seconds`` of session time have passed (at least two passes) and
reports the end-to-end metrics; times are scaled to a nominal machine speed
(see ``speed.py``).  With ``--trace 1`` it runs a fixed four passes (warm-up,
untraced, traced for time, traced for counts), so the per-layer counts repeat
exactly, and reports the per-layer metrics.  The detail of the run (the seed,
raw and scaled per-rung session times, set-up samples, the trace's
per-function counts and spans, the gate's messages) goes to ``bench/out/``;
the last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


def _worker_command(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def _start(command: list[str]) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it with its set-up time (spawn to ``ready``),
    raw and scaled by the reference kernel timed just before the spawn."""
    reference = statistics.median(reference_s() for _ in range(21))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line.strip() or 'no output'}")
    return proc, setup, setup * NOMINAL_S / reference


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="weiljets session benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weiljets" / "__init__.py").is_file():
        print(f"no weiljets package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{stem}.spans.tsv.gz"
    try:
        # The first interpreter compiles the sources; its set-up is not counted.
        raw, scaled = [], []
        for probe in range(SETUP_PROBES + 1):
            proc, setup, setup_scaled = _start(_worker_command(args, "--setup-only"))
            _finish(proc)
            if probe:
                raw.append(setup)
                scaled.append(setup_scaled)
        proc, setup, setup_scaled = _start(_worker_command(args, "--spans", str(spans)))
        raw.append(setup)
        scaled.append(setup_scaled)
        lines = _finish(proc).splitlines()
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    detail = result.pop("detail")
    detail["setup_raw_s"] = raw
    detail["setup_scaled_s"] = scaled
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(scaled)
    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    if set(units) != set(result["metrics"]):
        print(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    detail_path = OUT / f"{stem}.json"
    detail_path.write_text(json.dumps(dict(detail, metrics=result["metrics"]), indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} commands, {result['failed']} failed; detail in "
          f"{detail_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _declared_metrics(trace: int) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
