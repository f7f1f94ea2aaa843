"""Second derived jets by both routes, at orders above the Tier-1 draws.

The derived towers of 100 jets of orders 5 and 6 drawn with seed 1, graphs
(``graph_jet`` of ``tests/test_derived_chart.py``) and non-graphs
(``non_graph_case``) in turn; the Tier-1 tests draw orders up to 5 only.
Each derived jet that keeps the width carries its chart, and the jet derived
from it there must equal the derived jet of a chart-less copy and the
generation oracle (``tower_checks``).  Any mismatch fails the test, and so
does a batch in which no chart-built jet was compared.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import random

import pytest

from test_derived_chart import graph_jet, non_graph_case, tower_checks


@pytest.mark.deep
def test_second_derived_jets_agree_by_both_routes():
    rng = random.Random(1)
    jets, compared, bad = 0, 0, []
    for make in (graph_jet, non_graph_case) * 50:
        p = make(rng.choice, (5, 6))
        jets += 1
        count, mismatches = tower_checks(p)
        compared += count
        bad += [f"{make.__name__}, {p!r}: {mismatch}" for mismatch in mismatches]
    assert jets == 100
    assert not bad, "\n".join(bad)
    assert compared > 0, "no chart-built derived jet was compared"
