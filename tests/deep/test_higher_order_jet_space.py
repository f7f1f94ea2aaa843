"""The jet-space identities of ``tests/test_jet_space.py`` at higher orders.

100 graph jets of orders 5 and 6 drawn with seed 1 by ``graph_case``; the
Tier-1 test draws orders up to 4 only.  Each jet's ``info``, ``tangent`` and
``derive`` results must equal the values ``math.comb`` gives
(``identity_mismatches``).  Any mismatch fails the test, and so does an
empty batch.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import random

import pytest

from test_jet_space import graph_case, identity_mismatches


@pytest.mark.deep
def test_higher_order_graph_jets_satisfy_the_jet_space_identities():
    rng = random.Random(1)
    checked, bad = 0, []
    for _ in range(100):
        n, m, k, text = graph_case(rng.choice, (5, 6))
        checked += 1
        for mismatch in identity_mismatches(n, m, k, text):
            bad.append(f"n={n}, m={m}, k={k}: {mismatch}\n{text}")
    assert checked == 100
    assert not bad, "\n".join(bad)
