from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weiljets import apoints
from weiljets.apoints import apoint, evaluate, factor_epimorphism
from weiljets.errors import (
    DimensionMismatchError,
    EmptyQuotientError,
    InternalCheckError,
    NotAnIdealError,
    NotEpimorphismError,
)
from weiljets.monomials import monomials_of_degree, window, window_index, window_size
from weiljets.poly import TruncatedPolynomial
from weiljets.subspace import Echelon
from weiljets.weil import (
    WeilAlgebra,
    _rewindow,
    _variable_shifts,
    derivation_space,
    free_truncated_algebra,
    ideal_stability,
    quotient_algebra,
    tensor_product,
)

from conftest import (
    P,
    add,
    algebras,
    canonical_basis,
    class_of,
    compose,
    contains_dense,
    derivation_matrices,
    generator_images,
    inverse_morphism,
    is_identity,
    is_regular,
    linear_part,
    maximal_power,
    mat_vec,
    power,
    presentations,
    projected_derivations,
    rationals,
    ref_product,
    structure_constants,
    times,
    zero,
    zero_subspace,
)


class TestQuotientAlgebra:
    def test_dual_numbers(self):
        a = quotient_algebra(1, 2, [P("x^2", 1, 2)])
        assert a.dimension == 2
        assert a.basis_monomials == ((0,), (1,))
        assert (a.order, a.width) == (1, 1)

    def test_two_nilpotent_squares(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert a.dimension == 4
        assert a.basis_monomials == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert (a.order, a.width) == (2, 2)
        # Brute-force filtration: m^2 = span{xy}, m^3 = 0.
        assert a.filtration_dimensions == (3, 1, 0)
        xy = a.monomial_element((1, 1))
        for i in range(2):
            assert times(a.generator(i), xy) == zero(a)

    def test_free_truncated_dimensions(self):
        for m, ell in product(range(1, 4), range(0, 5)):
            a = free_truncated_algebra(m, ell)
            assert a.dimension == comb(m + ell, ell)
            # Enumeration cross-check: count exponents directly.
            count = sum(
                1
                for e in product(range(ell + 1), repeat=m)
                if sum(e) <= ell
            )
            assert a.dimension == count

    def test_real_line_algebra(self):
        a = quotient_algebra(1, 0, [])
        assert a.dimension == 1
        assert (a.order, a.width) == (0, 0)

    def test_unit_in_ideal_rejected(self):
        with pytest.raises(EmptyQuotientError):
            quotient_algebra(1, 2, [P("1 + x", 1, 2)])

    def test_structure_constants_commutative_associative(self):
        a = quotient_algebra(2, 3, [P("y^2 - x^2", 2, 3), P("x y", 2, 3)])
        d = a.dimension
        elems = [
            a.element([Fraction(1) if i == k else Fraction(0) for k in range(d)])
            for i in range(d)
        ]
        for u in elems:
            for v in elems:
                assert times(u, v).coordinates == times(v, u).coordinates
                for w in elems:
                    assert times(times(u, v), w).coordinates == times(u, times(v, w)).coordinates

    def test_filtration_strictly_decreases(self):
        a = quotient_algebra(3, 3, [P("z - x y", 3, 3)])
        dims = a.filtration_dimensions
        assert dims[-1] == 0
        assert all(dims[i] > dims[i + 1] for i in range(len(dims) - 1))
        assert maximal_power(a, a.order + 1).dimension == 0
        assert maximal_power(a, a.order).dimension > 0


class TestOrderAndWidth:
    def test_model_algebras(self):
        a = free_truncated_algebra(1, 1)
        assert (a.order, a.width) == (1, 1)
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert (a.order, a.width) == (2, 2)


class TestTensorProduct:
    def test_dual_tensor_dual(self):
        dual = free_truncated_algebra(1, 1)
        t = tensor_product(dual, dual)
        direct = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert t == direct
        assert t.dimension == 4

    def test_tensor_with_reals_is_identity(self):
        a = quotient_algebra(2, 3, [P("y - x^2", 2, 3)])
        reals = quotient_algebra(1, 0, [])
        t = tensor_product(a, reals)
        assert (t.dimension, t.order, t.width) == (a.dimension, a.order, a.width)
        # Identical structure constants after dropping the dead variable.
        assert [m[: a.n] for m in t.basis_monomials] == list(a.basis_monomials)
        assert list(structure_constants(t)) == list(structure_constants(a))

    def test_orders_add(self):
        t = tensor_product(free_truncated_algebra(1, 1), free_truncated_algebra(1, 2))
        assert t.dimension == 6
        assert t.order == 3
        # Witness: the top filtration step is nonzero exactly at order 3.
        assert t.filtration_dimensions[2] > 0

    def test_invariant_comparison_stops_short_of_isomorphism(self):
        def invariants(a):
            return (
                a.dimension,
                a.order,
                a.width,
                a.filtration_dimensions,
                derivation_space(a).dimension,
            )

        dual = free_truncated_algebra(1, 1)
        squares = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert invariants(tensor_product(dual, dual)) == invariants(squares)
        assert invariants(dual) != invariants(squares)

    def test_dimension_multiplicative_on_samples(self):
        algebras = [
            free_truncated_algebra(1, 1),
            free_truncated_algebra(2, 1),
            quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)]),
        ]
        for a in algebras:
            for b in algebras:
                t = tensor_product(a, b)
                assert t.dimension == a.dimension * b.dimension
                assert t.order == a.order + b.order


    def test_tensor_product_is_memoized_on_the_left_factor(self):
        dual = free_truncated_algebra(1, 1)
        squares = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        t = tensor_product(dual, squares)
        assert tensor_product(dual, squares) is t
        # Equal right factors share the entry; other pairs get their own.
        again = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert again is not squares and tensor_product(dual, again) is t
        assert tensor_product(squares, dual) is not t
        assert tensor_product(dual, dual) is not t


class TestDerivations:
    def test_reals_have_no_derivations(self):
        assert derivation_space(quotient_algebra(1, 0, [])).dimension == 0

    def test_dual_numbers(self):
        ders = derivation_space(free_truncated_algebra(1, 1))
        assert ders.dimension == 1
        # delta(x) = c x: the image is a multiple of x, never a constant.
        img = generator_images(ders)[0][0]
        assert img[0] == 0

    def test_second_order_line(self):
        assert derivation_space(free_truncated_algebra(1, 2)).dimension == 2

    def test_leibniz_on_all_basis_pairs(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        ders = derivation_space(a)
        d = a.dimension
        def mul(u, v):
            return times(a.element(u), a.element(v)).coordinates

        for matrix in derivation_matrices(ders):
            for alpha in range(d):
                for beta in range(d):
                    u = [Fraction(0)] * d
                    u[alpha] = Fraction(1)
                    v = [Fraction(0)] * d
                    v[beta] = Fraction(1)
                    uv = mul(u, v)
                    left = mat_vec(matrix, uv)
                    right = [
                        x + y
                        for x, y in zip(
                            mul(mat_vec(matrix, u), v),
                            mul(u, mat_vec(matrix, v)),
                        )
                    ]
                    assert left == right

    def test_commutator_stays_in_span(self):
        a = free_truncated_algebra(2, 2)
        matrices = derivation_matrices(derivation_space(a))
        d = a.dimension
        flat = canonical_basis(
            [[m[i][j] for i in range(d) for j in range(d)] for m in matrices],
            d * d,
        )
        for m1 in matrices:
            for m2 in matrices:
                comm = [
                    [
                        sum(m1[i][k] * m2[k][j] for k in range(d))
                        - sum(m2[i][k] * m1[k][j] for k in range(d))
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
                assert contains_dense(flat, [comm[i][j] for i in range(d) for j in range(d)])


class TestMorphisms:
    """An algebra morphism R_m^l -> A is an A-point of R^m at the origin; it is
    an epimorphism exactly when the point is regular."""

    def test_projection_to_dual_numbers_is_epi(self):
        r11 = free_truncated_algebra(1, 1)
        assert is_regular(apoint(r11, [r11.generator(0), zero(r11)]))

    def test_square_image_is_well_defined(self):
        r12 = free_truncated_algebra(1, 2)
        assert not is_regular(apoint(r12, [r12.monomial_element((2,))]))

    def test_identity_is_epimorphism(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert is_regular(apoint(a, [a.generator(i) for i in range(a.n)]))


class TestFactorEpimorphism:
    def setup_method(self):
        self.r11 = free_truncated_algebra(1, 1)
        self.eps = self.r11.generator(0)
        self.alpha = apoint(self.r11, [self.eps, zero(self.r11)])

    def _check(self, alpha, beta, order=1):
        g = factor_epimorphism(alpha, beta, order)
        assert g.algebra == free_truncated_algebra(alpha.ambient_dimension, order)
        for got, want in zip(compose(alpha, g).images, beta.images):
            assert got.coordinates == want.coordinates
        return g

    def test_shift_example(self):
        beta = apoint(self.r11, [self.eps, self.eps])
        self._check(self.alpha, beta)

    def test_equal_inputs_admit_identity(self):
        g = self._check(self.alpha, self.alpha)
        assert is_identity(g)

    def test_swap(self):
        beta = apoint(self.r11, [zero(self.r11), self.eps])
        g = self._check(self.alpha, beta)
        lin = linear_part(g)
        assert lin == [[0, 1], [1, 0]]

    def test_higher_order_factorization(self):
        r12 = free_truncated_algebra(1, 2)
        alpha = apoint(r12, [r12.generator(0), zero(r12)])
        beta = apoint(
            r12,
            [
                r12.element([0, 1, 1]),  # x + x^2
                r12.element([0, 0, 2]),  # 2 x^2
            ],
        )
        self._check(alpha, beta, 2)

    def test_order_zero_gives_the_identity_of_R(self):
        r = free_truncated_algebra(1, 0)
        point = apoint(r, [zero(r), zero(r)])
        g = self._check(point, point, 0)
        assert g.algebra.dimension == 1 and is_identity(g)

    def test_rejects_non_epimorphism(self):
        bad = apoint(self.r11, [zero(self.r11), zero(self.r11)])
        with pytest.raises(NotEpimorphismError, match="second A-point is not regular"):
            factor_epimorphism(self.alpha, bad, 1)
        with pytest.raises(NotEpimorphismError, match="first A-point is not regular"):
            factor_epimorphism(bad, self.alpha, 1)

    def test_rejects_a_nonzero_base_point(self):
        moved = apoint(self.r11, [[1, 1], [0, 0]])
        with pytest.raises(NotEpimorphismError, match="origin"):
            factor_epimorphism(moved, self.alpha, 1)
        with pytest.raises(NotEpimorphismError, match="origin"):
            factor_epimorphism(self.alpha, moved, 1)

    def test_rejects_an_order_below_the_algebra(self):
        r12 = free_truncated_algebra(1, 2)
        alpha = apoint(r12, [r12.generator(0)])
        with pytest.raises(NotEpimorphismError, match="order 2"):
            factor_epimorphism(alpha, alpha, 1)

    def test_rejects_different_algebras(self):
        r21 = free_truncated_algebra(2, 1)
        other = apoint(r21, [r21.generator(0), r21.generator(1)])
        with pytest.raises(DimensionMismatchError, match="algebra"):
            factor_epimorphism(self.alpha, other, 1)

    def test_rejects_different_ambient_dimensions(self):
        three = apoint(self.r11, [self.eps, zero(self.r11), zero(self.r11)])
        with pytest.raises(DimensionMismatchError, match="ambient dimension"):
            factor_epimorphism(self.alpha, three, 1)

    # The two exact self-checks state facts of the construction, so a failure
    # is a package bug: each is planted by breaking the route it re-checks.

    def test_a_failed_factorization_check_is_an_internal_error(self, monkeypatch):
        beta = apoint(self.r11, [self.eps, self.eps])
        monkeypatch.setattr(apoints, "evaluate", lambda f, point: zero(point.algebra))
        with pytest.raises(InternalCheckError, match="internal factorization check failed"):
            factor_epimorphism(self.alpha, beta, 1)

    def test_a_singular_substitution_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(WeilAlgebra, "generated_by", lambda self, rows: False)
        with pytest.raises(InternalCheckError, match="constructed substitution is not invertible"):
            factor_epimorphism(self.alpha, self.alpha, 1)

    def test_invert_substitution(self):
        r13 = free_truncated_algebra(1, 3)
        phi = apoint(r13, [r13.element([0, 1, 1, 0])])  # x + x^2
        inv = inverse_morphism(phi)
        assert is_identity(compose(phi, inv))
        assert is_identity(compose(inv, phi))


class TestIdealStability:
    def test_square_of_maximal_ideal_is_stable(self):
        a = free_truncated_algebra(1, 2)
        ideal = maximal_power(a, 2)
        report = ideal_stability(a, ideal)
        assert report.der_stable
        assert projected_derivations(a, ideal, report) is not None

    def test_unstable_principal_ideal(self):
        # In R_2^1 every pair (v_x, v_y) of nilpotents is a derivation, so
        # delta(x) = y is valid and carries span{x} outside itself.
        a = free_truncated_algebra(2, 1)
        idx_x = a.basis_monomials.index((1, 0))
        row = [Fraction(0)] * a.dimension
        row[idx_x] = Fraction(1)
        ideal = canonical_basis([row], a.dimension)
        report = ideal_stability(a, ideal)
        assert not report.der_stable

    def test_principal_ideal_in_square_zero_algebra_is_stable(self):
        # Checking the Leibniz constraints directly: in R[x,y]/(x^2, y^2)
        # every derivation has delta(x) in span{x, xy} and delta(y) in
        # span{y, xy}, so the ideal (x) = span{x, xy} is preserved.
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        idx_x = a.basis_monomials.index((1, 0))
        idx_xy = a.basis_monomials.index((1, 1))
        rows = []
        for idx in (idx_x, idx_xy):
            row = [Fraction(0)] * a.dimension
            row[idx] = Fraction(1)
            rows.append(row)
        ideal = canonical_basis(rows, a.dimension)
        ders = derivation_space(a)
        for images in generator_images(ders):
            assert contains_dense(ideal, images[0])
        assert ideal_stability(a, ideal).der_stable

    def test_zero_and_maximal_are_stable(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert ideal_stability(a, zero_subspace(a.dimension)).der_stable
        assert ideal_stability(a, maximal_power(a, 1)).der_stable

    def test_non_ideal_rejected(self):
        a = free_truncated_algebra(2, 2)
        one_dim = canonical_basis([[0, 1, 0, 0, 0, 0]], a.dimension)  # span{x}
        with pytest.raises(NotAnIdealError):
            ideal_stability(a, one_dim)


# -- independent oracle: sympy's groebner ----------------------------------------


@pytest.fixture(scope="module")
def groebner_invariants():
    """(dimension, order) of R[x]/((gens) + m^(bound+1)) from a grevlex basis.

    The dimension counts the standard monomials, those no leading monomial
    divides.  The order is the largest degree of a monomial outside the
    ideal, since m^k is spanned by the monomials of degree k.  (The largest
    degree of a standard monomial can fall short of it: a grevlex leading
    term may lower the degree, as y^2 -> x does for (x - y^2).)
    """
    sympy = pytest.importorskip("sympy")

    def invariants(n, bound, gens):
        xs = sympy.symbols(f"x1:{n + 1}")

        def term(exp, c=Fraction(1)):
            return sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
                *[x**k for x, k in zip(xs, exp)]
            )

        monomials = [e for e in product(range(bound + 2), repeat=n) if sum(e) <= bound + 1]
        polys = [sum(term(e, c) for e, c in g.coefficients.items()) for g in gens]
        polys += [term(e) for e in monomials if sum(e) == bound + 1]
        basis = sympy.groebner(polys, *xs, order="grevlex")
        leading = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
        inside = [e for e in monomials if sum(e) <= bound]
        standard = [
            e for e in inside if not any(all(a >= b for a, b in zip(e, lt)) for lt in leading)
        ]
        order = max(sum(e) for e in inside if not basis.contains(term(e)))
        return len(standard), order

    return invariants


def test_z_minus_xy_matches_groebner(groebner_invariants):
    gens = [P("z - x y", 3, 4)]
    algebra = quotient_algebra(3, 4, gens)
    assert (algebra.dimension, algebra.order) == groebner_invariants(3, 4, gens) == (15, 4)


@settings(max_examples=40, deadline=None)
@given(presentations())
@example((2, 4, [P("x - y^2", 2, 4)]))
def test_dimension_and_order_match_groebner(groebner_invariants, presentation):
    algebra = quotient_algebra(*presentation)
    assert (algebra.dimension, algebra.order) == groebner_invariants(*presentation)


def fresh_restatement(n, bound, rows, order):
    """The ideal restated in the order+1 window by a second elimination: the
    top-degree monomials and every row, each column moved by exponent."""
    new_bound = order + 1
    old, new = window(n, bound), window_index(n, new_bound)
    span = Echelon(window_size(n, new_bound))
    for exp in monomials_of_degree(n, new_bound):
        span.insert({new[exp]: Fraction(1)})
    for row in rows:
        span.insert({new[old[c]]: v for c, v in row.items() if sum(old[c]) <= new_bound})
    return span.subspace()


@settings(max_examples=80, deadline=None)
@given(presentations(), st.integers(0, 2), st.booleans())
# The free algebra at its own bound: the window grows by one degree.
@example((2, 2, []), 0, False)
# Relations far below the bound: the window shrinks.
@example((2, 1, [P("x", 2, 1), P("y", 2, 1)]), 2, True)
def test_rewindow_keeps_the_canonical_rows_of_a_fresh_elimination(presentation, extra, frozen):
    m, ell, generators = presentation
    bound = ell + extra
    rows = [r for g in generators if (r := g.to_sparse(bound))]
    ideal = Echelon(window_size(m, bound))
    ideal.saturate(rows, _variable_shifts(m, bound))
    algebra = _rewindow(m, bound, ideal.subspace() if frozen else ideal, rows)
    assert algebra.window_bound == algebra.order + 1
    assert algebra.defining_ideal == fresh_restatement(m, bound, ideal.rows.values(), algebra.order)


# -- element rows -------------------------------------------------------------------


def elements(algebra):
    d = algebra.dimension
    return st.lists(rationals, min_size=d, max_size=d).map(algebra.element)


@settings(max_examples=80, deadline=None)
@given(algebras(), st.data())
def test_element_rows_hold_no_zero_so_equality_is_decidable(a, data):
    # Equality and the hash compare the sparse rows, so every operation has to
    # drop the coordinates it cancels.
    u, v = data.draw(elements(a)), data.draw(elements(a))
    exps = st.sampled_from(window(2, 3))
    f = TruncatedPolynomial(2, 3, data.draw(st.dictionaries(exps, rationals, max_size=5)))
    point = apoint(a, [u, v])
    source = free_truncated_algebra(a.n, a.order)
    images = [data.draw(elements(a)).nilpotent_part() for _ in range(a.n)]
    phi = apoint(a, images)
    results = [
        add(u, v), add(u, v, -1), add(u, u, -1), times(u, v), times(u, u),
        power(u, data.draw(st.integers(0, 4))), evaluate(f, point), evaluate(f - f, point),
        evaluate(source.row_polynomial(data.draw(elements(source)).row), phi),
    ]
    for w in results:
        assert all(w.row.values())
    assert add(u, u, -1) == zero(a) and hash(add(u, u, -1)) == hash(zero(a))
    assert evaluate(f - f, point) == zero(a)
    assert a.element(u.coordinates) == u and hash(a.element(u.coordinates)) == hash(u)


# -- the sparse multiplication table -------------------------------------------
# Expected values come from products of basis monomials expanded by the
# reference ``ref_product`` and projected through conftest's ``class_of``: no
# multiplication table is read.


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_structure_constants_are_projected_products_of_representatives(algebra):
    n, bound = algebra.n, algebra.window_bound
    expected = []
    for a, left in enumerate(algebra.basis_monomials):
        for b, right in enumerate(algebra.basis_monomials):
            product = TruncatedPolynomial(n, bound, ref_product({left: 1}, {right: 1}, bound))
            row = class_of(algebra, product).row
            expected += [(a, b, g, row[g]) for g in sorted(row)]
    assert list(structure_constants(algebra)) == expected


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_multiplication_table_stores_nonzero_products_inside_the_order(algebra):
    # Products of degree above the order vanish, so none is stored.
    monomials = algebra.basis_monomials
    for a, row in enumerate(algebra._mult):
        for b, entries in row.items():
            assert entries and all(c for _, c in entries)
            assert sum(monomials[a]) + sum(monomials[b]) <= algebra.order
