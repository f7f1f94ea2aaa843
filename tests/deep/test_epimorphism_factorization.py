"""Epimorphism factorization on drawn pairs, at orders above the Tier-1 draws.

300 pairs of epimorphisms R_n^l -> A, as regular A-points of R^n at the
origin with their l, drawn with seed 1 (``drawn_target`` and
``drawn_pair`` of ``tests/test_factorization.py``), at orders up to 4; the
Tier-1 test draws targets of orders up to 3 only.  ``factor_epimorphism``
must return an automorphism g with beta = alpha o g, by substitution of
representatives, and a nonzero determinant of its linear part
(``factorization_mismatches``).  Any mismatch or exception fails the test,
and so does an empty batch.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import random

import pytest

from test_factorization import drawn_pair, drawn_target, factorization_mismatches


@pytest.mark.deep
def test_drawn_epimorphism_pairs_factor():
    rng = random.Random(1)
    checked, bad = 0, []
    for _ in range(300):
        alpha, beta, order = drawn_pair(rng.choice, drawn_target(rng.choice, range(5)))
        checked += 1
        bad += [
            f"R_{alpha.ambient_dimension}^{order} -> {alpha.algebra!r}: {mismatch}"
            for mismatch in factorization_mismatches(alpha, beta, order)
        ]
    assert checked == 300
    assert not bad, "\n".join(bad)
