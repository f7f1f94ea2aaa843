"""The closed-form chart against the substitution routes, on a drawn batch.

300 jets drawn with seed 1 (``random.Random(1)``) in 2 to 4 variables, of
order 1 to 5 in two variables and 1 to 3 in three or four.  Their generators
are in turn classical (a graph y_j = f_j(x), f_j of degree 1 to 3),
non-classical (1 or 2 sums of terms of degree 2 to 4, half of them with a
linear term) and width-dropping (the square of a linear form, with a graph
generator in half the draws), each at the origin or, in half the draws, at
a rational point where the generators vanish.  For each jet:

- p pushed through sigma row by row (``conftest.transformed_ideal``) is
  the ideal of the pivot variables and the Q list that the normal form
  reads off p's own rows (``conftest.normal_form_ideal``);
- the Cartan system of the graph-tangent fields, valued in closed form,
  equals the route through the transformed algebra and psi
  (``conftest.transported_cartan``);
- the derived jet, built in closed form, equals the pullback through tau
  (``conftest.pulled_back_derived``), and so does the jet derived from it
  when it keeps p's width.

The test fails on a mismatch, on a batch short of 300 jets, and on a batch
in which no jet has a nonzero straightening tail h, no derived jet keeps the
width or no derived jet drops the width.

Deep tests are deselected by default; run them with ``pytest -m deep``.
"""

import random
from fractions import Fraction

import pytest

from weiljets.jets import contact_and_cartan, derived_jet, jet_from_ideal, normal_form
from weiljets.poly import TruncatedPolynomial, truncated_product

from conftest import normal_form_ideal, pulled_back_derived, transformed_ideal, transported_cartan

SEED, JETS = 1, 300
COEFFICIENTS = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2))
COORDINATES = (Fraction(1), Fraction(-2), Fraction(1, 3))


def monomial(rng, n, variables, degree) -> tuple[int, ...]:
    exp = [0] * n
    for _ in range(degree):
        exp[rng.choice(variables)] += 1
    return tuple(exp)


def classical(rng, n) -> list[TruncatedPolynomial]:
    """y_j - f_j(x) for 1 to n - 1 dependent variables y_j."""
    dependent = rng.sample(range(n), rng.randint(1, n - 1))
    free = [i for i in range(n) if i not in dependent]
    generators = []
    for j in dependent:
        f = {monomial(rng, n, free, rng.randint(1, 3)): rng.choice(COEFFICIENTS) for _ in range(3)}
        generators.append(TruncatedPolynomial.variable(n, 4, j) - TruncatedPolynomial(n, 4, f))
    return generators


def non_classical(rng, n) -> list[TruncatedPolynomial]:
    """1 or 2 sums of 1 to 3 terms of degree 2 to 4, the first with a linear
    term in half the draws."""
    every = range(n)
    generators = [
        {monomial(rng, n, every, rng.randint(2, 4)): rng.choice(COEFFICIENTS) for _ in range(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 2))
    ]
    if rng.random() < 0.5:
        generators[0][monomial(rng, n, every, 1)] = Fraction(1)
    return [TruncatedPolynomial(n, 4, g) for g in generators]


def width_dropping(rng, n) -> list[TruncatedPolynomial]:
    """L^2 for a linear form L in two variables, whose derivative 2L is
    linear, with a graph generator in half the draws."""
    form = TruncatedPolynomial(
        n, 4, {monomial(rng, n, [k], 1): rng.choice(COEFFICIENTS) for k in rng.sample(range(n), 2)}
    )
    generators = [truncated_product(form, form, 4)]
    if rng.random() < 0.5:
        generators += classical(rng, n)[:1]
    return generators


def draw_jet(rng, kind):
    n = rng.choice((2, 3, 4))
    order = rng.randint(1, 5 if n == 2 else 3)
    point = [rng.choice(COORDINATES) for _ in range(n)] if rng.random() < 0.5 else [0] * n
    away = [-c for c in point]
    generators = [g.shift(away) for g in kind(rng, n)]
    return jet_from_ideal(n, point, generators, order)


@pytest.mark.deep
def test_closed_form_chart_matches_the_substitution_routes():
    rng = random.Random(SEED)
    jets, tails, kept, drops, bad = 0, 0, 0, 0, []
    for kind in (classical, non_classical, width_dropping) * (JETS // 3):
        p = draw_jet(rng, kind)
        jets += 1
        nf = normal_form(p)
        tails += any(len(nf.sigma_inverse[j].coefficients) > 1 for j in nf.pivot_variables)
        if transformed_ideal(p) != normal_form_ideal(p):
            bad.append(f"{kind.__name__}, {p!r} at {p.base_point}: Q list")
        if contact_and_cartan(p).cartan_generated != transported_cartan(p):
            bad.append(f"{kind.__name__}, {p!r} at {p.base_point}: generated Cartan system")
        derived = derived_jet(p)
        drops += derived.width < p.width
        if derived.quotient != pulled_back_derived(p):
            bad.append(f"{kind.__name__}, {p!r} at {p.base_point}: derived jet")
        if derived.width == p.width:
            kept += 1
            if derived_jet(derived).quotient != pulled_back_derived(derived):
                bad.append(f"{kind.__name__}, {p!r} at {p.base_point}: second derived jet")
    assert jets == JETS
    assert not bad, "\n".join(bad)
    assert tails and kept and drops, (tails, kept, drops)
