"""The chart a derived jet carries, and the second derived jet built in it.

In the adapted coordinates of p's normal form, p = (y) + m^{l+1} + (Q(x))
and p' = (y) + m^l + (Q, d_x Q).  When p' keeps p's width, the same
coordinates are adapted to p', so p' carries them as its chart and p'' is
built in them with no second normal form.  Each chart-built derived jet is
compared with two routes that never read a chart: the derived jet of a
chart-less copy (through its own normal form) and the field-generation
oracle.

:func:`non_graph_case` makes every choice through one ``choose(options)``
callable, as :func:`test_jet_space.graph_case` does, so Hypothesis draws the
cases below and a seeded ``random.Random.choice`` draws the higher-order
batch of ``tests/deep/test_second_derived_jets.py``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets import jets
from weiljets.jets import Jet, cartan_generation_oracle, derived_jet, jet_from_ideal
from weiljets.poly import TruncatedPolynomial
from weiljets.session import execute, parse_session

from conftest import LADDER, P, ladder_jet, pulled_back_derived
from conftest import jets as drawn_jets
from test_jet_space import COEFFICIENTS, FREE_COORDINATES, graph_case


def non_graph_case(choose, orders) -> Jet:
    """The k-jet, at a drawn point, of 1 or 2 drawn generators in 2 or 3
    variables, each a sum of 1 to 3 terms of degree 2 to 4, and in half the
    draws one of them with a linear term as well; ``choose(options)`` makes
    every choice.  The jets are mostly not graphs: their Q is not empty, and
    a derivative may drop the width (d_v of v^2 is a unit)."""
    n = choose((2, 3))
    k = choose(orders)
    point = [choose(FREE_COORDINATES) for _ in range(n)]
    generators = []
    for _ in range(choose((1, 2))):
        terms = {}
        for _ in range(choose((1, 2, 3))):
            exp = [0] * n
            for _ in range(choose((2, 3, 4))):
                exp[choose(range(n))] += 1
            terms[tuple(exp)] = choose(COEFFICIENTS)
        generators.append(terms)
    if choose((False, True)):
        exp = [0] * n
        exp[choose(range(n))] = 1
        generators[0][tuple(exp)] = Fraction(1)
    away = [-c for c in point]
    moved = [TruncatedPolynomial(n, 4, g).shift(away) for g in generators]
    return jet_from_ideal(n, point, moved, k)


def graph_jet(choose, orders) -> Jet:
    """The jet of :func:`test_jet_space.graph_case`, bound through its session."""
    return parse_session(graph_case(choose, orders)[3]).jets["p"]


def tower_checks(p: Jet) -> tuple[int, list[str]]:
    """The number of chart-built derived jets in p's derived tower, and each
    step of the tower that breaks the chart's contract.

    A derived jet carries a chart exactly when it keeps the width of the jet
    it comes from; a jet with a chart derives to the same jet as its
    chart-less copy and as the generation oracle."""
    compared, found = 0, []
    jet = p
    while jet.order > 0:
        derived = derived_jet(jet)
        if (derived.chart is not None) != (derived.width == jet.width):
            found.append(
                f"order {derived.order}: width {jet.width} -> {derived.width}, "
                f"chart {derived.chart is not None}"
            )
        if derived.chart is not None:
            compared += 1
            second = derived_jet(derived)
            bare = derived_jet(Jet(derived.quotient, derived.base_point))
            oracle = cartan_generation_oracle(derived)
            if not second == bare == oracle:
                found.append(
                    f"order {derived.order}: chart {second!r}, bare {bare!r}, oracle {oracle!r}"
                )
        jet = derived
    return compared, found


def draw(data):
    return lambda options: data.draw(st.sampled_from(options))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_jets_derive_in_their_chart(data):
    assert tower_checks(graph_jet(draw(data), range(2, 6)))[1] == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_graph_jets_derive_in_their_chart(data):
    assert tower_checks(non_graph_case(draw(data), range(2, 6)))[1] == []


def test_a_chart_outlives_one_step_of_the_tower():
    # (x^3) + m^5 in the plane: Q = [x^3], so p' = (x^2) + m^4 keeps width 2
    # and carries Q' = [x^3, 3 x^2]; p'' = (x) + m^3 has width 1, no chart.
    # The jet derived from p'' keeps width 1, in the chart of p'''s normal form.
    p = jet_from_ideal(2, [Fraction(1, 2), -1], [P("x^3", 2).shift([Fraction(-1, 2), 1])], 4)
    first = derived_jet(p)
    assert (p.width, first.width, first.order) == (2, 2, 3)
    assert len(first.chart.q_list) == 2
    second = derived_jet(first)
    assert (second.width, second.chart) == (1, None)
    assert tower_checks(p) == (2, [])


def test_root_jets_and_the_ladder_cusp_derive_with_no_chart():
    cusp = ladder_jet(*LADDER[5])
    derived = derived_jet(cusp)
    assert (cusp.width, derived.width) == (2, 1)
    assert (cusp.chart, derived.chart) == (None, None)
    assert all(ladder_jet(*case).chart is None for case in LADDER)


def test_equality_and_hash_ignore_the_chart():
    derived = derived_jet(ladder_jet(*LADDER[1]))
    bare = Jet(derived.quotient, derived.base_point)
    assert derived.chart is not None and bare.chart is None
    assert derived == bare and hash(derived) == hash(bare)
    assert {derived: 1}[bare] == 1


def test_taylor_on_a_graph_jet_builds_one_normal_form(monkeypatch):
    # taylor reads the Cartan systems of p and p', so it derives p and p'.
    # The second derived jet comes from p's chart, not from a normal form of p'.
    built = []
    normal_form = jets.normal_form

    def spy(q):
        if ("normal_form",) not in q._memo:
            built.append(q)
        return normal_form(q)

    monkeypatch.setattr(jets, "normal_form", spy)
    bind = {"jet": "p", "vars": 2, "generators": ["y - x^3"], "order_hint": 4}
    session = parse_session(json.dumps({"bind": [bind], "run": [{"op": "taylor", "of": "p"}]}))
    result = execute(session).results[0]
    assert result["ok"] and result["result"]["cartan_projects"] is True
    assert built == [session.jets["p"]]


def test_the_pullback_receives_no_monomial_of_the_top_degree(monkeypatch):
    # sigma^*(m^l) = m^l, and the quotient at hint l - 1 holds m^l by itself:
    # p' is the quotient by the images tau_j of the pivot variables and by
    # (Q, d_x Q) alone.  Only the derived jet calls the quotient here: the
    # jets are bound, and their normal forms built, first.
    ladder = [ladder_jet(*case) for case in LADDER]
    for p in ladder:
        jets.normal_form(p)
    received = []
    quotient = jets.quotient_algebra

    def spy(n, hint, gens):
        received.extend((hint + 1, g) for g in gens)
        return quotient(n, hint, gens)

    monkeypatch.setattr(jets, "quotient_algebra", spy)
    for p in ladder:
        derived_jet(derived_jet(p))
    assert received
    # At l = 1 the pivot variables themselves are monomials of degree l.
    top = [g for l, g in received if len(g.coefficients) == 1 and g.degree() == l > 1]
    assert top == []


def test_derive_builds_no_substitution_map(monkeypatch):
    # tau fixes Q' and sends y_j to tau_j, so the derived jet substitutes
    # nothing; the normal form's push through sigma is built first, and the
    # jet (y^2 - x^3, z) has a zero tail, so its normal form pushes nothing.
    ladder = [ladder_jet(*case) for case in LADDER]
    for p in ladder[:-1]:
        jets.normal_form(p)
    built = []
    substitution = jets.substitution
    monkeypatch.setattr(
        jets, "substitution", lambda images, bound: built.append(bound) or substitution(images, bound)
    )
    for p in ladder:
        derived_jet(p)
    bind = {"jet": "p", "vars": 3, "generators": list(LADDER[-1][1]), "order_hint": 3}
    session = parse_session(json.dumps({"bind": [bind], "run": [{"op": "derive", "of": "p"}]}))
    assert execute(session).results[0]["ok"]
    assert built == []


# The last case draws its jets from Hypothesis; the ladder cases draw nothing,
# so Hypothesis runs each of them once.
@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", [*LADDER, pytest.param(None, id="drawn")])
def test_the_closed_form_derived_jet_equals_the_pullback(case, data):
    # p carries no chart; its derived jet carries one when it keeps the
    # width, and derives in it.
    p = data.draw(drawn_jets()) if case is None else ladder_jet(*case)
    for jet in (p, derived_jet(p)):
        derived = derived_jet(jet).quotient
        expected = pulled_back_derived(jet)
        assert derived == expected
        assert derived.minimal_generators == expected.minimal_generators
