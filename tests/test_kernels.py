"""Oracles for the integer-numerator product kernels of poly, weil and apoints.

Every expected value is computed in this file with plain ``Fraction``
arithmetic: double loops over the terms, one ``Fraction`` per partial sum,
no common denominators.  Algebra products are then projected to the
quotient with ``project_polynomial``, which shares no code with the kernels.
Inputs mix denominators and signs, and the coefficient pool is small so
that terms cancel often.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weiljets.apoints import apoint, components_at, evaluate, prolong_polynomial
from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial, truncated_product, truncated_substitute
from weiljets.weil import free_truncated_algebra, quotient_algebra

from conftest import P

ZERO = Fraction(0)
POOL = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3, 4, 6)]
coefficients = st.sampled_from(POOL)


def ref_product(f: dict, g: dict, bound: int) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            exp = tuple(a + b for a, b in zip(ea, eb))
            if sum(exp) <= bound:
                out[exp] = out.get(exp, ZERO) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_substitute(f: dict, images: list[dict], n: int, bound: int) -> dict:
    total: dict = {}
    for exp, c in f.items():
        term = {(0,) * n: c}
        for image, k in zip(images, exp):
            for _ in range(k):
                term = ref_product(term, image, bound)
        for e, v in term.items():
            total[e] = total.get(e, ZERO) + v
    return {e: c for e, c in total.items() if c}


def assert_stored_fractions(poly: TruncatedPolynomial) -> None:
    for c in poly.coefficients.values():
        assert type(c) is Fraction and c != 0


@st.composite
def polynomials(draw, n: int, degree: int, max_terms: int = 6) -> dict:
    exps = window(n, degree)
    return draw(st.dictionaries(st.sampled_from(exps), coefficients, max_size=max_terms))


@st.composite
def product_case(draw):
    n = draw(st.integers(1, 3))
    f = draw(polynomials(n, 3))
    g = draw(polynomials(n, 3))
    if draw(st.booleans()) and f:
        # Append the negated f so that many partial products cancel.
        g = {**g, **{e: -c for e, c in f.items()}}
    return n, f, g, draw(st.integers(0, 6))


@settings(max_examples=120, deadline=None)
@given(product_case())
def test_truncated_product_matches_double_loop(case):
    n, f, g, bound = case
    got = truncated_product(TruncatedPolynomial(n, 3, f), TruncatedPolynomial(n, 3, g), bound)
    assert got.coefficients == ref_product(f, g, bound)
    assert got.degree_bound == bound
    assert_stored_fractions(got)


def test_product_cancels_cross_terms():
    f = P("1/2 x + 1/3 y", 2)
    g = P("1/2 x - 1/3 y", 2)
    got = truncated_product(f, g, 2)
    assert got.coefficients == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    assert_stored_fractions(got)
    assert truncated_product(f, -f + f, 2).coefficients == {}


@st.composite
def substitution_case(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    f = draw(polynomials(n, 3))
    images = [draw(polynomials(m, 2, max_terms=3)) for _ in range(n)]
    return n, m, f, images, draw(st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(substitution_case())
def test_truncated_substitute_matches_expansion(case):
    n, m, f, images, bound = case
    got = truncated_substitute(
        TruncatedPolynomial(n, 3, f), [TruncatedPolynomial(m, 2, g) for g in images], bound
    )
    assert got.coefficients == ref_substitute(f, images, m, bound)
    assert got.degree_bound == bound
    assert_stored_fractions(got)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), polynomials(n, 4), st.lists(coefficients, min_size=n, max_size=n))
))
def test_shift_matches_expansion(case):
    n, f, point = case
    images = []
    for i, p in enumerate(point):
        unit = tuple(int(j == i) for j in range(n))
        images.append({unit: Fraction(1), (0,) * n: p})
    got = TruncatedPolynomial(n, 4, f).shift(point)
    assert got.coefficients == ref_substitute(f, images, n, 4)
    assert_stored_fractions(got)


def test_integer_input_is_stored_as_fractions():
    f = TruncatedPolynomial(2, 2, {(1, 0): 2, (0, 1): -3, (1, 1): 0})
    assert f.coefficients == {(1, 0): 2, (0, 1): -3}
    assert_stored_fractions(f)
    for poly in (truncated_product(f, f, 2), truncated_substitute(f, [f, f], 2), f.shift([1, 2])):
        assert_stored_fractions(poly)


# -- A-point products --------------------------------------------------------------

BINOMIAL = quotient_algebra(2, 3, [P("x^2 - 2/3 y^2", 2, 3)])
ALGEBRAS = [
    free_truncated_algebra(1, 3),
    free_truncated_algebra(2, 2),
    free_truncated_algebra(3, 2),
    quotient_algebra(2, 3, [P("x^2", 2, 3), P("y^3", 2, 3)]),
    quotient_algebra(2, 3, [P("x y", 2, 3), P("y^2", 2, 3)]),
    BINOMIAL,
]


def test_binomial_quotient_has_fractional_structure_constants():
    assert any(c.denominator != 1 for *_, c in BINOMIAL.structure_constants())


def representative(algebra, coords) -> dict:
    return {algebra.basis_monomials[i]: c for i, c in enumerate(coords) if c}


def project(algebra, coefficients: dict) -> tuple:
    poly = TruncatedPolynomial(algebra.n, algebra.window_bound, coefficients)
    return algebra.project_polynomial(poly).coordinates


@st.composite
def algebra_pair(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    d = algebra.dimension
    vectors = st.lists(st.one_of(st.just(ZERO), coefficients), min_size=d, max_size=d)
    return algebra, draw(vectors), draw(vectors)


@settings(max_examples=150, deadline=None)
@given(algebra_pair())
def test_mult_coords_matches_product_of_representatives(case):
    algebra, u, v = case
    expected = project(
        algebra,
        ref_product(representative(algebra, u), representative(algebra, v), algebra.window_bound),
    )
    got = algebra.mult_coords(u, v)
    assert got == expected
    assert all(type(c) is Fraction for c in got)


def ref_value(f: dict, algebra, images) -> tuple:
    """[f(images)] in the algebra, by expanding representatives in this file."""
    reps = [representative(algebra, img) for img in images]
    value = ref_substitute(f, reps, algebra.n, algebra.window_bound)
    return project(algebra, value)


@st.composite
def point_case(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    n = draw(st.integers(1, 2))
    f = draw(polynomials(n, 3, max_terms=5))
    d = algebra.dimension
    images = [draw(st.lists(coefficients, min_size=d, max_size=d)) for _ in range(n)]
    return algebra, n, f, images


@settings(max_examples=60, deadline=None)
@given(point_case())
@example((BINOMIAL, 1, {(2,): Fraction(1, 2)}, [[1, 2, -1, 0, 0, 0, 0]]))
def test_evaluate_matches_expansion(case):
    algebra, n, f, images = case
    got = evaluate(TruncatedPolynomial(n, 3, f), apoint(algebra, images)).coordinates
    assert got == ref_value(f, algebra, images)


@settings(max_examples=40, deadline=None)
@given(point_case())
# x^2 at a point with a nonzero x-component meets the 2/3 in the binomial table.
@example((BINOMIAL, 1, {(2,): Fraction(1, 2)}, [[1, 2, -1, 0, 0, 0, 0]]))
def test_prolonged_components_match_expansion(case):
    algebra, n, f, images = case
    components = prolong_polynomial(TruncatedPolynomial(n, 3, f), algebra)
    for component in components:
        assert_stored_fractions(component)
    got = tuple(components_at(components, apoint(algebra, images)))
    assert got == ref_value(f, algebra, images)
