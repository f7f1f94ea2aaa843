from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings

from weiljets.errors import (
    EmptyQuotientError,
    NotAnIdealError,
    NotEpimorphismError,
    NotWellDefinedError,
)
from weiljets.subspace import canonical_basis, mat_vec, zero_subspace
from weiljets.weil import (
    algebra_morphism,
    derivation_space,
    factor_epimorphism,
    free_truncated_algebra,
    ideal_stability,
    identity_morphism,
    invert_substitution,
    order_and_width,
    quotient_algebra,
    tensor_product,
)

from conftest import P, presentations


class TestQuotientAlgebra:
    def test_dual_numbers(self):
        a = quotient_algebra(1, 2, [P("x^2", 1, 2)])
        assert a.dimension == 2
        assert a.basis_monomials == ((0,), (1,))
        assert order_and_width(a) == (1, 1)

    def test_two_nilpotent_squares(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert a.dimension == 4
        assert a.basis_monomials == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert order_and_width(a) == (2, 2)
        # Brute-force filtration: m^2 = span{xy}, m^3 = 0.
        assert a.filtration_dimensions == (3, 1, 0)
        xy = a.monomial_element((1, 1))
        for i in range(2):
            assert (a.generator(i) * xy).is_zero()

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
        assert order_and_width(a) == (0, 0)

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
                assert (u * v).coordinates == (v * u).coordinates
                for w in elems:
                    assert ((u * v) * w).coordinates == (u * (v * w)).coordinates

    def test_filtration_strictly_decreases(self):
        a = quotient_algebra(3, 3, [P("z - x y", 3, 3)])
        dims = a.filtration_dimensions
        assert dims[-1] == 0
        assert all(dims[i] > dims[i + 1] for i in range(len(dims) - 1))
        assert a.maximal_power(a.order + 1).dimension == 0
        assert a.maximal_power(a.order).dimension > 0


class TestOrderAndWidth:
    def test_model_algebras(self):
        assert order_and_width(free_truncated_algebra(1, 1)) == (1, 1)
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert order_and_width(a) == (2, 2)


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
        assert list(t.structure_constants()) == list(a.structure_constants())

    def test_orders_add(self):
        t = tensor_product(free_truncated_algebra(1, 1), free_truncated_algebra(1, 2))
        assert t.dimension == 6
        assert t.order == 3
        # Witness: the top filtration step is nonzero exactly at order 3.
        assert t.filtration_dimensions[2] > 0

    def test_invariant_comparison_stops_short_of_isomorphism(self):
        from weiljets.weil import invariants_agree

        dual = free_truncated_algebra(1, 1)
        squares = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert invariants_agree(tensor_product(dual, dual), squares)
        assert not invariants_agree(dual, squares)

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
                assert hasattr(t, "basis_pairs")


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

    def test_basis_pairs_are_set_at_construction(self):
        a = quotient_algebra(1, 3, [P("x^3", 1, 3)])
        b = free_truncated_algebra(1, 1)
        t = tensor_product(a, b)
        assert t.basis_pairs == tuple((e[:1], e[1:]) for e in t.basis_monomials)
        assert sorted(t.basis_pairs) == sorted(
            (ea, eb) for ea in a.basis_monomials for eb in b.basis_monomials
        )
        assert a.basis_pairs is None


class TestDerivations:
    def test_reals_have_no_derivations(self):
        assert derivation_space(quotient_algebra(1, 0, [])).dimension == 0

    def test_dual_numbers(self):
        ders = derivation_space(free_truncated_algebra(1, 1))
        assert ders.dimension == 1
        # delta(x) = c x: the image is a multiple of x, never a constant.
        img = ders.generator_images[0][0]
        assert img[0] == 0

    def test_second_order_line(self):
        assert derivation_space(free_truncated_algebra(1, 2)).dimension == 2

    def test_leibniz_on_all_basis_pairs(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        ders = derivation_space(a)
        d = a.dimension
        for matrix in ders.matrices:
            for alpha in range(d):
                for beta in range(d):
                    u = [Fraction(0)] * d
                    u[alpha] = Fraction(1)
                    v = [Fraction(0)] * d
                    v[beta] = Fraction(1)
                    uv = a.mult_coords(u, v)
                    left = mat_vec(matrix, uv)
                    right = [
                        x + y
                        for x, y in zip(
                            a.mult_coords(mat_vec(matrix, u), v),
                            a.mult_coords(u, mat_vec(matrix, v)),
                        )
                    ]
                    assert left == right

    def test_commutator_stays_in_span(self):
        a = free_truncated_algebra(2, 2)
        ders = derivation_space(a)
        d = a.dimension
        flat = canonical_basis(
            [[m[i][j] for i in range(d) for j in range(d)] for m in ders.matrices],
            d * d,
        )
        for m1 in ders.matrices:
            for m2 in ders.matrices:
                comm = [
                    [
                        sum(m1[i][k] * m2[k][j] for k in range(d))
                        - sum(m2[i][k] * m1[k][j] for k in range(d))
                        for j in range(d)
                    ]
                    for i in range(d)
                ]
                assert flat.contains_vector(
                    [comm[i][j] for i in range(d) for j in range(d)]
                )


class TestMorphisms:
    def test_projection_to_dual_numbers_is_epi(self):
        r21 = free_truncated_algebra(2, 1)
        r11 = free_truncated_algebra(1, 1)
        phi = algebra_morphism(r21, r11, [r11.generator(0), r11.zero()])
        assert phi.is_epimorphism

    def test_inclusion_into_higher_order_fails(self):
        r11 = free_truncated_algebra(1, 1)
        r12 = free_truncated_algebra(1, 2)
        with pytest.raises(NotWellDefinedError) as err:
            algebra_morphism(r11, r12, [r12.generator(0)])
        assert "x^2" in str(err.value)

    def test_square_image_is_well_defined(self):
        r11 = free_truncated_algebra(1, 1)
        r12 = free_truncated_algebra(1, 2)
        phi = algebra_morphism(r11, r12, [r12.monomial_element((2,))])
        assert not phi.is_epimorphism

    def test_identity_is_epimorphism(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert identity_morphism(a).is_epimorphism

    def test_apply_is_multiplicative(self):
        r21 = free_truncated_algebra(2, 1)
        r11 = free_truncated_algebra(1, 1)
        phi = algebra_morphism(r21, r11, [r11.generator(0), r11.generator(0)])
        u = r21.element([1, 2, 3])
        v = r21.element([2, 0, Fraction(1, 2)])
        assert phi.apply(u * v).coordinates == (phi.apply(u) * phi.apply(v)).coordinates


class TestFactorEpimorphism:
    def setup_method(self):
        self.r21 = free_truncated_algebra(2, 1)
        self.r11 = free_truncated_algebra(1, 1)
        self.eps = self.r11.generator(0)

    def _check(self, alpha, beta):
        g = factor_epimorphism(alpha, beta)
        for got, want in zip(alpha.compose(g).images, beta.images):
            assert got.coordinates == want.coordinates
        return g

    def test_shift_example(self):
        alpha = algebra_morphism(self.r21, self.r11, [self.eps, self.r11.zero()])
        beta = algebra_morphism(self.r21, self.r11, [self.eps, self.eps])
        self._check(alpha, beta)

    def test_equal_inputs_admit_identity(self):
        alpha = algebra_morphism(self.r21, self.r11, [self.eps, self.r11.zero()])
        g = self._check(alpha, alpha)
        assert g.is_identity()

    def test_swap(self):
        alpha = algebra_morphism(self.r21, self.r11, [self.eps, self.r11.zero()])
        beta = algebra_morphism(self.r21, self.r11, [self.r11.zero(), self.eps])
        g = self._check(alpha, beta)
        lin = g.linear_part()
        assert lin == [[0, 1], [1, 0]]

    def test_higher_order_factorization(self):
        r12 = free_truncated_algebra(1, 2)
        r22 = free_truncated_algebra(2, 2)
        alpha = algebra_morphism(r22, r12, [r12.generator(0), r12.zero()])
        beta = algebra_morphism(
            r22,
            r12,
            [
                r12.element([0, 1, 1]),  # x + x^2
                r12.element([0, 0, 2]),  # 2 x^2
            ],
        )
        self._check(alpha, beta)

    def test_rejects_non_epimorphism(self):
        alpha = algebra_morphism(self.r21, self.r11, [self.eps, self.r11.zero()])
        bad = algebra_morphism(self.r21, self.r11, [self.r11.zero(), self.r11.zero()])
        with pytest.raises(NotEpimorphismError):
            factor_epimorphism(alpha, bad)

    def test_invert_substitution(self):
        r13 = free_truncated_algebra(1, 3)
        phi = algebra_morphism(r13, r13, [r13.element([0, 1, 1, 0])])  # x + x^2
        inv = invert_substitution(phi)
        assert phi.compose(inv).is_identity()
        assert inv.compose(phi).is_identity()


class TestIdealStability:
    def test_square_of_maximal_ideal_is_stable(self):
        a = free_truncated_algebra(1, 2)
        report = ideal_stability(a, a.maximal_power(2))
        assert report.der_stable
        assert report.projected_derivations is not None

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
        assert report.witness is not None

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
        for images in ders.generator_images:
            assert ideal.contains_vector(list(images[0]))
        assert ideal_stability(a, ideal).der_stable

    def test_zero_and_maximal_are_stable(self):
        a = quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^2", 2, 3)])
        assert ideal_stability(a, zero_subspace(a.dimension)).der_stable
        assert ideal_stability(a, a.maximal_ideal).der_stable

    def test_non_ideal_rejected(self):
        a = free_truncated_algebra(2, 2)
        one_dim = canonical_basis([[0, 1, 0, 0, 0, 0]], a.dimension)  # span{x}
        with pytest.raises(NotAnIdealError):
            ideal_stability(a, one_dim)

    def test_explicit_automorphism_check(self):
        a = free_truncated_algebra(1, 2)
        doubling = algebra_morphism(a, a, [a.element([0, 2, 0])])
        report = ideal_stability(a, a.maximal_power(2), [doubling])
        assert report.automorphism_stable == (True,)


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
