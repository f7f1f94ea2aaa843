"""The normal form's x-part against the Zassenhaus intersection, a mutation
that its identity check has to catch, and counted work: the normal form and
the fields read the canonical rows they already hold instead of eliminating
them again.

The oracle is ``conftest.subspace_intersection`` (Zassenhaus' method, in
twice the ambient dimension) of the transformed ideal with the coordinate
subspace of the monomials in the free variables, built here from the window
layout.  It assumes nothing about where the transformed ideal's pivots lie.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets import jets
from weiljets.errors import InternalCheckError
from weiljets.jets import _x_part, jet_fields, jet_from_ideal, normal_form
from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial
from weiljets.subspace import Echelon, Subspace
from weiljets.weil import derivation_space

from conftest import LADDER, P, jets as drawn_jets, ladder_jet, rationals, subspace_intersection


@st.composite
def graph_jets(draw):
    """Graph jets y = f(x), f of degree <= 2 with a nonzero coefficient of x1,
    moved to a drawn rational base point, so that the straightening runs its
    degree-1 stage."""
    n = draw(st.integers(2, 3))
    ell = draw(st.integers(1, 3))
    y = n - 1
    coefficients = {e: draw(rationals) for e in window(n, 2)[1:] if not e[y]}
    coefficients[window(n, 1)[1]] = draw(rationals.filter(bool))
    g = TruncatedPolynomial.variable(n, 2, y) - TruncatedPolynomial(n, 2, coefficients)
    point = draw(st.lists(rationals, min_size=n, max_size=n))
    return jet_from_ideal(n, point, [g.shift([-c for c in point])], ell)


def coordinate_subspace(n, bound, pivot_vars, low, high):
    """The span of the monomials free of the pivot variables, of degree low..high."""
    exps = window(n, bound)
    span = Echelon(len(exps))
    for c, e in enumerate(exps):
        if low <= sum(e) <= high and not any(e[j] for j in pivot_vars):
            span.insert({c: Fraction(1)})
    return span.subspace()


def check_x_part(p):
    nf = normal_form(p)
    ideal, ys = nf.transformed_ideal, nf.pivot_variables
    n, bound = p.n, p.window_bound
    for high in (p.order, bound):
        expected = subspace_intersection(ideal, coordinate_subspace(n, bound, ys, 2, high))
        assert _x_part(ideal, n, bound, ys, 2, high) == expected


@settings(max_examples=40, deadline=None)
@given(drawn_jets())
def test_x_part_is_the_intersection_with_the_free_monomials(p):
    check_x_part(p)


@settings(max_examples=40, deadline=None)
@given(graph_jets())
def test_x_part_of_graph_jets_with_a_linear_tail(p):
    check_x_part(p)


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_x_part_of_the_ladder_jets(n, gens, order):
    check_x_part(ladder_jet(n, gens, order))


@pytest.mark.parametrize(
    "degree, message",
    [
        (1, "pivot variable missing"),
        (2, "normal form identity failed"),
        (3, "normal form identity failed"),
        (4, "normal form identity failed"),
    ],
)
def test_a_lost_pivot_monomial_row_fails_the_normal_form(monkeypatch, degree, message):
    # y - x^2 at order 3 runs the degree-2 stage; y is the pivot variable.
    p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 3)
    exps = window(2, p.window_bound)
    original = jets._substituted_ideal

    def dropping(ideal, n, bound, substitute):
        out = original(ideal, n, bound, substitute)
        lost = next(c for c in out.rows if exps[c][1] and sum(exps[c]) == degree)
        return Subspace(out.ambient_dimension, {c: r for c, r in out.rows.items() if c != lost})

    monkeypatch.setattr(jets, "_substituted_ideal", dropping)
    with pytest.raises(InternalCheckError, match=message):
        normal_form(p)


# -- counted work ------------------------------------------------------------------


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_x_part_makes_no_elimination(inserts_outside_saturation, n, gens, order):
    p = ladder_jet(n, gens, order)
    nf = normal_form(p)
    del inserts_outside_saturation[:]
    for high in (p.order, p.window_bound):
        _x_part(nf.transformed_ideal, n, p.window_bound, nf.pivot_variables, 2, high)
    assert inserts_outside_saturation == []


NON_CLASSICAL = ((3, ["z", "x^2"], 2), (3, ["z - x^2", "y^3 - x y"], 3))


@pytest.mark.parametrize("n, gens, order", LADDER + NON_CLASSICAL)
def test_normal_form_pushes_only_the_lower_rows(monkeypatch, inserts_outside_saturation, n, gens, order):
    p = ladder_jet(n, gens, order)
    stages = []
    substituted = jets._substituted_ideal
    monkeypatch.setattr(
        jets, "_substituted_ideal", lambda *args: stages.append(args) or substituted(*args)
    )
    saturated = []
    saturate = Echelon.saturate

    def recorded(self, rows, tables):
        rows = list(rows)
        saturated.append(rows)
        return saturate(self, rows, tables)

    monkeypatch.setattr(Echelon, "saturate", recorded)
    del inserts_outside_saturation[:]
    nf = normal_form(p)
    bound = p.window_bound
    exps = window(n, bound)
    # Outside saturation the window echelons take the pushed rows of p below
    # the top degree, once per stage, and never a row of the top degree (the
    # other inserts invert the linear part, in 2n columns).
    lower = sum(1 for c in p.ideal.rows if sum(exps[c]) < bound)
    pushed = [row for ambient, row in inserts_outside_saturation if ambient == len(exps)]
    assert len(pushed) == len(stages) * lower
    assert all(sum(exps[min(row)]) < bound for row in pushed)
    # The monomial block is seeded: each saturation starts from one Q row.
    assert saturated == [[q.to_sparse(bound)] for q in nf.q_list]


@pytest.mark.parametrize("n, gens, order", LADDER + NON_CLASSICAL)
def test_jet_fields_insert_only_the_derivation_rows(inserts_outside_saturation, n, gens, order):
    p = ladder_jet(n, gens, order)
    relations = derivation_space(p.quotient).relations
    del inserts_outside_saturation[:]
    jet_fields(p)
    assert len(inserts_outside_saturation) == relations.dimension
