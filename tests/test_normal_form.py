"""The normal form's closed-form straightening against a fixed-point
reference inverse, its x-part against the Zassenhaus intersection, mutations
that its checks have to catch, and counted work: the normal form and the
fields read the canonical rows they already hold instead of eliminating them
again.

The straightening substitution is read off p's degree-1 pivot rows
y_j + h_j(x): sigma = (x, y - h(x)) and tau = (x, y + h(x)).  The reference
``conftest.all_passes_inverse`` inverts sigma by every pass of
tau <- Lin^{-1} (x - N o tau) with ``ref_substitute``, so it assumes nothing
about the form of h, and both compositions are expanded by ``ref_substitute``.

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
from weiljets.jets import Jet, _x_part, derived_jet, jet_fields, jet_from_ideal, normal_form
from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial
from weiljets.subspace import Echelon, Subspace
from weiljets.weil import derivation_space

from conftest import (
    LADDER,
    P,
    all_passes_inverse,
    jets as drawn_jets,
    ladder_jet,
    rationals,
    ref_substitute,
    subspace_intersection,
)
from test_derived_chart import non_graph_case


@st.composite
def graph_jets(draw):
    """Graph jets y = f(x), f of degree <= 2 with a nonzero coefficient of x1,
    moved to a drawn rational base point, so that the straightening
    substitution has a linear tail."""
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


# -- closed-form straightening ----------------------------------------------------


def check_closed_form(p):
    """tau is the reference inverse of sigma, and sigma o tau = tau o sigma = id
    by ``ref_substitute``."""
    nf = normal_form(p)
    n, bound = p.n, max(p.order, 1)
    sigma = [f.coefficients for f in nf.sigma]
    tau = [f.coefficients for f in nf.sigma_inverse]
    assert tau == all_passes_inverse(nf.sigma, bound)
    identity = [{tuple(int(i == j) for j in range(n)): 1} for i in range(n)]
    assert [ref_substitute(f, tau, n, bound) for f in sigma] == identity
    assert [ref_substitute(f, sigma, n, bound) for f in tau] == identity


@settings(max_examples=40, deadline=None)
@given(drawn_jets())
def test_sigma_inverse_is_the_reference_inverse(p):
    check_closed_form(p)


@settings(max_examples=40, deadline=None)
@given(graph_jets())
def test_sigma_inverse_of_graph_jets_with_a_linear_tail(p):
    check_closed_form(p)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sigma_inverse_of_non_graph_jets(data):
    check_closed_form(non_graph_case(lambda options: data.draw(st.sampled_from(options)), range(1, 5)))


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_sigma_inverse_of_the_ladder_jets_and_their_derived_jets(n, gens, order):
    p = ladder_jet(n, gens, order)
    for jet in (p, derived_jet(p)):
        check_closed_form(jet)


def test_a_pivot_variable_in_a_tail_fails_the_normal_form():
    # y - x^2 at order 3: the pivot row of y is y - x^2.  Planting x y, a
    # monomial that holds the pivot variable, in that row breaks the fact that
    # the closed form rests on.
    p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 3)
    exps = window(2, p.window_bound)
    y, xy = exps.index((0, 1)), exps.index((1, 1))
    planted = Jet(p.quotient, p.base_point)
    planted.ideal = Subspace(
        p.ideal.ambient_dimension, {**p.ideal.rows, y: {**p.ideal.rows[y], xy: 1}}
    )
    with pytest.raises(InternalCheckError, match="tail holds a pivot variable"):
        normal_form(planted)


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
    # y - x^2 at order 3 is pushed through sigma = (x, y + x^2); y is the
    # pivot variable.
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
    # Outside saturation the only inserts are the pushed rows of p below the
    # top degree, in one push at most, and never a row of the top degree.
    lower = sum(1 for c in p.ideal.rows if sum(exps[c]) < bound)
    assert len(stages) <= 1
    assert all(ambient == len(exps) for ambient, _ in inserts_outside_saturation)
    pushed = [row for _, row in inserts_outside_saturation]
    assert len(pushed) == len(stages) * lower
    assert all(sum(exps[min(row)]) < bound for row in pushed)
    # The monomial block is seeded: each saturation starts from one Q row.
    assert saturated == [[q.to_sparse(bound)] for q in nf.q_list]


@pytest.mark.parametrize("n, gens, order", LADDER + NON_CLASSICAL + ((2, [], 2),))
def test_normal_form_builds_only_the_push_map(monkeypatch, n, gens, order):
    # The one substitution map is the push through sigma, built when some h_j
    # is nonzero.  tau = (x, y + h(x)) fixes x and no h_j holds a pivot
    # variable (check 5), so sigma o tau = id needs no map of its own.
    p = ladder_jet(n, gens, order)
    built = []
    substitution = jets.substitution
    monkeypatch.setattr(
        jets, "substitution", lambda images, bound: built.append(bound) or substitution(images, bound)
    )
    nf = normal_form(p)
    sub_bound = max(p.order, 1)
    pushed = list(nf.sigma) != [TruncatedPolynomial.variable(n, sub_bound, i) for i in range(n)]
    assert built == ([p.window_bound] if pushed else [])


@pytest.mark.parametrize("n, gens, order", LADDER + NON_CLASSICAL)
def test_jet_fields_insert_only_the_derivation_rows(inserts_outside_saturation, n, gens, order):
    p = ladder_jet(n, gens, order)
    relations = derivation_space(p.quotient).relations
    del inserts_outside_saturation[:]
    jet_fields(p)
    assert len(inserts_outside_saturation) == relations.dimension


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_graph_tangent_fields_have_no_duplicate(n, gens, order):
    fields = jets._graph_tangent_fields(normal_form(ladder_jet(n, gens, order)))
    keys = [tuple(sorted(field.items())) for field in fields]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "n, gens, order, count",
    [
        (3, ["z - x y"], 4, 12),
        (4, ["x4 - x1 x2", "x3 - x1^2"], 3, 18),
        (3, ["y^2 - x^3", "z"], 3, 15),
    ],
)
def test_graph_tangent_field_counts(n, gens, order, count):
    assert len(jets._graph_tangent_fields(normal_form(ladder_jet(n, gens, order)))) == count
