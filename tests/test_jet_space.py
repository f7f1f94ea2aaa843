"""The paper's jet-space identities on drawn graph jets, through sessions.

Let p be the k-jet, at a point of the graph, of a polynomial map from R^m to
R^(n-m).  Its algebra is the truncated polynomial algebra R_m^k, the jet
space has its classical tangent dimension at p, and the derived jet of p is
the (k-1)-jet of the same graph.  So:

- dim A = C(m+k, k), and the jet has order k;
- the ``tangent`` op's dim is n + (n-m)(C(m+k, k) - 1);
- the ``derive`` op's jet has dim C(m+k-1, k-1) and order k-1, and its
  taylor condition hat(p') <= p holds.

Every expected value comes from ``math.comb`` alone, so the oracle shares no
code with the package.

The jet m^k at a point, a ``jet`` binding with no ``generators`` and
``order_hint`` k - 1, has the algebra R_n^(k-1) and the derived jet m^(k-1):

- ``info`` reports dim C(n+k-1, n);
- the ``tangent`` op's dim is n dim A - dim Der(A, A), with the Der half from
  ``bench/oracles.py:free_der_dim`` (read only);
- ``derive`` reports the generators and order that ``info`` reports for the
  binding with ``order_hint`` k - 2.  The jets enter through ``parse_session`` and
``execute``, with the ``graph`` key; the dependent coordinates of the base
point are computed here, on the graph.

:func:`graph_case` makes every choice through one ``choose(options)``
callable, so Hypothesis draws the cases below and a seeded
``random.Random.choice`` draws the higher-order batch of
``tests/deep/test_higher_order_jet_space.py``.
"""

import importlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.session import execute, parse_session

ROOT = Path(__file__).resolve().parent.parent
COEFFICIENTS = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2))
FREE_COORDINATES = (Fraction(0), Fraction(1), Fraction(-2))


def _polynomial_text(terms: list[tuple[Fraction, tuple[int, ...]]]) -> str:
    """``terms`` (coefficient, exponent) in the session syntax, x1..xn."""
    parts = []
    for c, exp in terms:
        factors = [f"x{i + 1}^{e}" for i, e in enumerate(exp) if e]
        parts.append(("- " if c < 0 else "+ ") + "*".join([str(abs(c)), *factors]))
    return " ".join(parts).removeprefix("+ ") or "0"


def graph_case(choose, orders) -> tuple[int, int, int, str]:
    """(n, m, k, session text) of the k-jet of a drawn graph, with the info,
    tangent and derive ops; ``choose(options)`` makes every choice.

    2 <= n <= 4, 1 <= m < n, k from ``orders``.  Each dependent variable is a
    sum of up to 3 terms of degree <= 3 in the free variables."""
    n = choose(range(2, 5))
    m = choose(range(1, n))
    k = choose(orders)
    dependent = choose(list(combinations(range(n), n - m)))
    free = [i for i in range(n) if i not in dependent]
    point = [choose(FREE_COORDINATES) if i in free else None for i in range(n)]
    graph = {}
    for j in dependent:
        terms = []
        for _ in range(choose(range(4))):
            exp = [0] * n
            for _ in range(choose(range(4))):
                exp[choose(free)] += 1
            terms.append((choose(COEFFICIENTS), tuple(exp)))
        point[j] = sum(c * prod(point[i] ** e for i, e in enumerate(exp) if e) for c, exp in terms)
        graph[str(j)] = _polynomial_text(terms)
    session = {
        "bind": [{
            "jet": "p", "vars": n, "point": [str(x) for x in point], "graph": graph,
            "order_hint": k,
        }],
        "run": [{"op": op, "of": "p"} for op in ("info", "tangent", "derive")],
    }
    return n, m, k, json.dumps(session)


def expected_results(n: int, m: int, k: int) -> list[dict]:
    """What the info, tangent and derive ops must report, from math.comb."""
    return [
        {"dim": comb(m + k, k), "order": k},
        {"dim": n + (n - m) * (comb(m + k, k) - 1)},
        {"dim": comb(m + k - 1, k - 1), "order": k - 1, "taylor_condition": True},
    ]


def identity_mismatches(n: int, m: int, k: int, text: str) -> list[str]:
    """Each reported value of the session that breaks an identity."""
    report = execute(parse_session(text))
    found = []
    for entry, expected in zip(report.results, expected_results(n, m, k)):
        if not entry["ok"]:
            found.append(f"{entry['op']} failed: {entry['error']}")
            continue
        got = {key: entry["result"][key] for key in expected}
        if got != expected:
            found.append(f"{entry['op']}: got {got}, expected {expected}")
    return found


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph_jets_satisfy_the_jet_space_identities(data):
    n, m, k, text = graph_case(lambda options: data.draw(st.sampled_from(options)), range(1, 5))
    assert identity_mismatches(n, m, k, text) == []


def test_a_broken_identity_is_reported():
    # The parabola y = x^2 at (1, 1), order 2: every identity holds, and a
    # wrong m shows up as mismatches.
    session = {
        "bind": [{"jet": "p", "vars": 2, "point": ["1", "1"], "graph": {"1": "x1^2"},
                  "order_hint": 2}],
        "run": [{"op": op, "of": "p"} for op in ("info", "tangent", "derive")],
    }
    text = json.dumps(session)
    assert identity_mismatches(2, 1, 2, text) == []
    assert len(identity_mismatches(2, 2, 2, text)) == 3


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("n", range(1, 4))
def test_power_jets_satisfy_the_jet_space_identities(monkeypatch, n, k):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    oracles = importlib.import_module("oracles")
    session = {
        "bind": [
            {"jet": "p", "vars": n, "order_hint": k - 1},
            {"jet": "q", "vars": n, "order_hint": k - 2},
        ],
        "run": [{"op": op, "of": "p"} for op in ("info", "tangent", "derive")]
        + [{"op": "info", "of": "q"}],
    }
    report = execute(parse_session(json.dumps(session)))
    info, tangent, derived, lower = (entry["result"] for entry in report.results)
    assert info["dim"] == comb(n + k - 1, n)
    assert tangent["dim"] == n * info["dim"] - oracles.free_der_dim(n, k - 1)
    assert (derived["generators"], derived["order"]) == (lower["generators"], lower["order"])
