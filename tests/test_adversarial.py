"""Malformed and adversarial sessions through ``python -m weiljets run``.

Each session under ``tests/adversarial/`` runs in a child process whose
address space alone is capped, and must end with its documented exit code
and a clear message, never a Python traceback.  The CI workflow replays the
same sessions, with the exit codes of :data:`EXIT_CODES`, through the
installed ``weiljets`` console script under ``ulimit -v``.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "tests" / "adversarial"

# Session file -> (exit code, text the report or the error message contains).
# Exit 2 is an input refused before any command runs; exit 1 is a session
# whose failing command is reported with its error kind.
EXIT_CODES = {
    "float_image.json": (2, "not an exact rational"),
    "zero_denominator.json": (2, "zero denominator"),
    "unit_generator.json": (2, "does not vanish at the base point"),
    "strict_hint.json": (2, "reached the hint"),
    "huge_prolong.json": (1, "WindowTooLargeError"),
    "deep_prolong.json": (1, "2999 x^2998 y"),
    "dense_prolong.json": (1, "OutOfMemoryError"),
    "huge_vars.json": (2, "more than the cap"),
    "huge_op_vars.json": (1, "more than the cap"),
    # (10^99 + e)^50 in R[e]/(e^2): its constant component 10^4950 is longer
    # than the interpreter's int-to-string limit and prints exactly.
    "long_integer.json": (0, "1" + "0" * 4950),
}

# Each session but dense_prolong.json runs within 64 MiB of address space under
# CPython 3.11 on Linux; the cap leaves room for other interpreters and stops a
# runaway allocation.  dense_prolong.json prolongs a dense degree-10 polynomial
# over R_4^4, whose cached products outgrow the cap: its command must fail with
# a typed error (after about 5 s on a 2-core x86-64 machine).
ADDRESS_SPACE_CAP = 256 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def test_every_session_has_an_exit_code():
    assert sorted(p.name for p in SESSIONS.glob("*.json")) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_session_exits_with_its_code(name):
    code, text = EXIT_CODES[name]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "weiljets", "run", str(SESSIONS / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    assert text in result.stdout + result.stderr
