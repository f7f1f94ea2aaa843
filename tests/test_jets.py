from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.errors import (
    DimensionMismatchError,
    EmptyQuotientError,
    HintTooSmallError,
)
from weiljets.jets import (
    classical_jet,
    cotangent_module,
    hat_ideal,
    jet_fields,
    jet_from_ideal,
    normal_form,
    tangent_module,
)
from weiljets.monomials import window, window_index, window_size
from weiljets.poly import TruncatedPolynomial, format_polynomial
from weiljets.subspace import Echelon

from conftest import (
    P,
    add,
    basis,
    canonical_basis,
    class_of,
    contains_dense,
    differential,
    ideal_polynomials,
    jet_contains,
    jets,
    power_jet,
    transformed_ideal,
)


class TestJetFromIdeal:
    def test_point_jet(self):
        p = jet_from_ideal(1, [0], [P("x", 1)], 2)
        assert (p.order, p.width) == (0, 0)
        assert p.quotient.dimension == 1

    def test_parabola(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        assert (p.order, p.width) == (2, 1)
        assert p.quotient.dimension == 3
        assert p.quotient.basis_monomials == ((0, 0), (1, 0), (2, 0))

    def test_non_classical(self):
        p = jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x^2", 3)], 2)
        assert (p.order, p.width) == (2, 2)
        assert p.quotient.dimension == 5
        assert p.quotient.basis_monomials == (
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 2, 0),
        )

    def test_base_point_translation(self):
        # The parabola y = x^2 through (1, 1): translating to the origin
        # turns the generator into y - x^2 - 2x.
        p = jet_from_ideal(2, [1, 1], [P("y - x^2", 2)], 2)
        q = jet_from_ideal(2, [0, 0], [P("y - x^2 - 2 x", 2)], 2)
        assert p.ideal == q.ideal
        assert p.base_point == (Fraction(1), Fraction(1))
        assert jet_contains(p, P("y - x^2", 2))

    def test_generator_must_vanish_at_base(self):
        with pytest.raises(EmptyQuotientError):
            jet_from_ideal(1, [1], [P("x", 1)], 1)

    def test_idempotent_reingestion(self):
        p = jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x^2", 3)], 2)
        again = jet_from_ideal(3, [0, 0, 0], ideal_polynomials(p), p.order)
        assert again == p

    def test_strict_hint(self):
        # (y - x^2) alone is not finite-codimensional: the cap always binds.
        with pytest.raises(HintTooSmallError):
            jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2, strict_hint=True)
        # (x^2, y) is an honest ideal of finite codimension: order 1 < hint.
        p = jet_from_ideal(2, [0, 0], [P("x^2", 2), P("y", 2)], 3, strict_hint=True)
        assert p.order == 1


@settings(max_examples=40, deadline=None)
@given(jets(), st.integers(0, 3))
def test_embedded_ideal_matches_a_fresh_elimination(p, k):
    # Eliminate the ideal's rows, moved into the larger window, together with
    # every monomial of the new degrees.
    bound = p.window_bound + k
    idx = window_index(p.n, bound)
    exps = window(p.n, p.window_bound)
    span = Echelon(window_size(p.n, bound))
    for row in p.ideal.rows.values():
        span.insert({idx[exps[c]]: v for c, v in row.items()})
    for exp in window(p.n, bound):
        if sum(exp) > p.window_bound:
            span.insert({idx[exp]: Fraction(1)})
    embedded = p.embedded_ideal(bound)
    assert embedded == span.subspace()
    if k == 0:
        assert embedded is p.ideal


class TestClassicalJet:
    def test_line_one_jet(self):
        p = classical_jet(2, [0, 0], {1: P("0", 2)}, 1)
        assert p.classical
        assert p == jet_from_ideal(2, [0, 0], [P("y", 2)], 1)

    def test_graph_matches_ideal_route(self):
        p = classical_jet(2, [0, 0], {1: P("x^2", 2)}, 2)
        q = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        assert p == q

    def test_empty_graph_is_power_jet(self):
        p = classical_jet(1, [0], {}, 2)
        assert p == power_jet(1, 3)
        assert p.quotient.dimension == 3

    def test_graph_may_not_use_dependent_variables(self):
        with pytest.raises(DimensionMismatchError):
            classical_jet(2, [0, 0], {1: P("y", 2)}, 1)


class TestHatIdeal:
    def test_hat_of_maximal_ideal(self):
        m = jet_from_ideal(2, [0, 0], [P("x", 2), P("y", 2)], 0)
        assert hat_ideal(m) == power_jet(2, 2)

    def test_hat_of_powers(self):
        for n in (1, 2):
            for ell in (1, 2):
                assert hat_ideal(power_jet(n, ell + 1)) == power_jet(n, ell + 2)

    def test_hat_of_order_one_jet(self):
        # f = a y + q needs every partial back in (y) + m^2: the y-coefficient
        # dies and the x^2, xy coefficients of q die with it, leaving
        # (y^2) + m^3.  (Direct check: d/dx(x^2) = 2x is not in the ideal.)
        p = jet_from_ideal(2, [0, 0], [P("y", 2)], 1)
        expected = jet_from_ideal(2, [0, 0], [P("y^2", 2)], 2)
        assert hat_ideal(p) == expected

    def test_hat_inclusions(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        hat = hat_ideal(p)
        assert p.contains_jet(hat)
        # p^2 <= hat(p): the square (y - x^2)^2 of the generator qualifies.
        prod = TruncatedPolynomial(
            2,
            6,
            {
                (0, 2): Fraction(1),
                (2, 1): Fraction(-2),
                (4, 0): Fraction(1),
            },
        )
        assert jet_contains(hat, prod)


class TestTangentModule:
    def test_point_jet_recovers_ambient(self):
        m = jet_from_ideal(3, [0, 0, 0], [P("x", 3), P("y", 3), P("z", 3)], 0)
        tm = tangent_module(m)
        assert tm.dimension == 3
        assert tm.relations.dimension == 0

    def test_power_jet_on_line(self):
        tm = tangent_module(power_jet(1, 3))
        assert tm.ambient_dimension == 3
        assert tm.relations.dimension == 2
        assert tm.dimension == 1

    def test_order_one_jet(self):
        tm = tangent_module(jet_from_ideal(2, [0, 0], [P("y", 2)], 1))
        assert tm.ambient_dimension == 4
        assert tm.relations.dimension == 1
        assert tm.dimension == 3

    def test_value_of_field_class_arithmetic(self):
        p = power_jet(1, 3)
        tm = tangent_module(p)
        # With one coordinate the ambient row of a field is its coefficient's row.
        dd = class_of(p.quotient, P("1", 1, 2))
        shifted = class_of(p.quotient, P("1 + x", 1, 2))
        # d/dx and (1+x) d/dx differ by x d/dx, which is a relation here.
        assert tm.relations.contains_vector(add(shifted, dd, -1).row)
        assert not tm.relations.contains_vector(dd.row)


class TestCotangentModule:
    def test_maximal_ideal(self):
        m = jet_from_ideal(2, [0, 0], [P("x", 2), P("y", 2)], 0)
        assert cotangent_module(m).dimension == 2

    def test_power_jet_counts_top_forms(self):
        for n, ell in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            ct = cotangent_module(power_jet(n, ell + 1))
            top = [e for e in window(n, ell + 1) if sum(e) == ell + 1]
            assert ct.dimension == len(top)

    def test_order_one_jet_dimension(self):
        # With hat((y) + m^2) = (y^2) + m^3 the quotient has classes
        # y, x^2, xy: dimension 3.
        ct = cotangent_module(jet_from_ideal(2, [0, 0], [P("y", 2)], 1))
        assert ct.dimension == 3
        names = [format_polynomial(f) for f in ct.basis]
        assert "y" in names

    # d_p f is the tests' own (conftest.differential): Leibniz rows applied
    # to a tangent representative.

    def test_differential_evaluator(self):
        p = jet_from_ideal(2, [0, 0], [P("y", 2)], 1)
        d = p.quotient.dimension
        # Representative of the d/dy class in the ambient presentation A^2.
        rep = [Fraction(0)] * (2 * d)
        rep[d] = Fraction(1)
        assert differential(p, P("y", 2), rep) == (1, 0)

    def test_differential_constant_on_representatives(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        tm = tangent_module(p)
        d = p.quotient.dimension
        rep = [Fraction(0)] * (2 * d)
        rep[0] = Fraction(1)
        for rel in basis(tm.relations):
            shifted = [a + b for a, b in zip(rep, rel)]
            assert differential(p, P("y - x^2", 2), rep) == differential(p, P("y - x^2", 2), shifted)


class TestJetFields:
    def test_power_jet_fields_are_vanishing_fields(self):
        for n, ell in [(1, 2), (2, 1), (2, 2)]:
            p = power_jet(n, ell + 1)
            got = jet_fields(p)
            w = window_size(n, ell)
            rows = []
            for i in range(n):
                for c, exp in enumerate(window(n, ell)):
                    if sum(exp) >= 1:
                        row = [Fraction(0)] * (n * w)
                        row[i * w + c] = Fraction(1)
                        rows.append(row)
            assert got == canonical_basis(rows, n * w)

    def test_maximal_ideal_fields(self):
        p = jet_from_ideal(2, [0, 0], [P("x", 2), P("y", 2)], 0)
        got = jet_fields(p)
        # Coefficients are degree <= 0 polynomials; tangency needs them zero.
        assert got.dimension == 0

    def test_order_one_jet_fields(self):
        p = jet_from_ideal(2, [0, 0], [P("y", 2)], 1)
        got = jet_fields(p)
        # Direct constraint solve: a d/dx needs a(0) = 0 (since d/dx of the
        # ideal element x^2 is 2x, not in the ideal), b d/dy needs b in the
        # ideal, leaving x d/dx, y d/dx and y d/dy.
        assert got.dimension == 3
        w = window_size(2, 1)
        exps = list(window(2, 1))
        x_idx, y_idx = exps.index((1, 0)), exps.index((0, 1))
        for block, idx in [(0, x_idx), (0, y_idx), (1, y_idx)]:
            vec = [Fraction(0)] * (2 * w)
            vec[block * w + idx] = Fraction(1)
            assert contains_dense(got, vec)
        for block in (0, 1):
            bad = [Fraction(0)] * (2 * w)
            bad[block * w] = Fraction(1)  # constant coefficient
            assert not contains_dense(got, bad)


class TestNormalForm:
    def test_parabola(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        nf = normal_form(p)
        assert nf.r == 1
        assert nf.pivot_variables == (1,)
        assert nf.q_list == ()
        assert [format_polynomial(s) for s in nf.sigma] == ["x", "y + x^2"]

    def test_non_classical(self):
        p = jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x^2", 3)], 2)
        nf = normal_form(p)
        assert nf.r == 1
        assert nf.pivot_variables == (2,)
        assert [format_polynomial(s) for s in nf.sigma] == ["x", "y", "z"]
        assert [format_polynomial(q) for q in nf.q_list] == ["x^2"]

    def test_power_jet(self):
        nf = normal_form(power_jet(2, 3))
        assert nf.r == 0
        assert nf.q_list == ()
        assert [format_polynomial(s) for s in nf.sigma] == ["x", "y"]

    def test_cubic_tail_straightening(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2 - x^3", 2)], 3)
        nf = normal_form(p)
        assert nf.r == 1
        assert nf.q_list == ()
        # sigma must send y to y + x^2 + x^3 so the generator straightens.
        assert [format_polynomial(s) for s in nf.sigma] == ["x", "y + x^2 + x^3"]

    def test_mixed_tail_with_pivot_variable(self):
        # Tail involving the pivot variable itself exercises the degree
        # bookkeeping in the absorption loop.
        p = jet_from_ideal(2, [0, 0], [P("y - x^2 - x y", 2)], 2)
        nf = normal_form(p)
        assert nf.r == 1
        assert transformed_ideal(p).contains_vector(P("y", 2, 3).to_sparse(3))
