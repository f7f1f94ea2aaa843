"""Oracles for the morphism kernels: evaluation, the images of monomials,
kernel jets and automorphism round trips.

Each expected value is computed by the reference ``ref_substitute`` of
``conftest`` (plain ``Fraction`` double loops, the shift to the base point
included) on representatives read off the elements' rows, followed by
projection to the quotient.  Unlike ``truncated_substitute`` and
``TruncatedPolynomial.shift``, that route shares no code with the package's
power products and their top-degree weights.  The inverse of an
automorphism is the reference inverse of ``conftest``, which runs every
fixed-point pass on that route.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.apoints import apoint, evaluate, regularity_and_kernel
from weiljets.jets import jet_from_ideal, pushforward
from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial
from weiljets.weil import free_truncated_algebra, quotient_algebra

from conftest import (
    P,
    canonical_basis,
    class_of,
    compose,
    ideal_polynomials,
    inverse_morphism,
    is_identity,
    power_jet,
    ref_substitute,
)

ALGEBRAS = [
    free_truncated_algebra(1, 3),
    free_truncated_algebra(2, 2),
    free_truncated_algebra(2, 3),
    quotient_algebra(2, 3, [P("x^2 - y^2", 2, 3), P("x y", 2, 3)]),
    quotient_algebra(2, 4, [P("y^2 - x^3", 2, 4)]),
]

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def representative(element) -> dict:
    """The representative {exponent: coefficient} of an element, from its row."""
    return {element.algebra.basis_monomials[g]: c for g, c in element.row.items()}


def substitute_and_project(f: dict, algebra, images):
    """[f(images)] in the algebra, by substituting representatives."""
    reps = [representative(img) for img in images]
    value = ref_substitute(f, reps, algebra.n, algebra.window_bound)
    return class_of(algebra, TruncatedPolynomial(algebra.n, algebra.window_bound, value))


def substituted_value(f, algebra, images):
    """[f(images)] in the algebra; each image, constant term included, is one
    representative, so the shift to the base point is part of the expansion."""
    return substitute_and_project(f.coefficients, algebra, images)


@st.composite
def polynomial_and_point(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    n = draw(st.integers(1, 3))
    exps = window(n, 3)
    coeffs = draw(st.dictionaries(st.sampled_from(exps), rationals, max_size=6))
    f = TruncatedPolynomial(n, 3, coeffs)
    images = [
        draw(st.lists(rationals, min_size=algebra.dimension, max_size=algebra.dimension))
        for _ in range(n)
    ]
    return f, apoint(algebra, images)


@settings(max_examples=60, deadline=None)
@given(polynomial_and_point())
def test_evaluate_matches_substitution(case):
    f, point = case
    expected = substituted_value(f, point.algebra, point.images)
    assert evaluate(f, point) == expected


MORPHISMS = [
    # R_2^2 -> R_1^2: x -> e + e^2, y -> 2 e^2.
    (free_truncated_algebra(2, 2), free_truncated_algebra(1, 2), [[0, 1, 1], [0, 0, 2]]),
    # R_1^3 -> R_1^3: x -> x + x^2.
    (free_truncated_algebra(1, 3), free_truncated_algebra(1, 3), [[0, 1, 1, 0]]),
    # R_2^3 -> R_2^3: x -> x + y^2, y -> -y + x y.
    (
        free_truncated_algebra(2, 3),
        free_truncated_algebra(2, 3),
        [
            [0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, 1, 0, 0, 0, 0, 0],
        ],
    ),
    # R_2^3 onto the binomial quotient (x^2 - y^2, x y) + m^4, identity on generators.
    (free_truncated_algebra(2, 3), ALGEBRAS[3], None),
]


@pytest.mark.parametrize("source, target, images", MORPHISMS)
def test_morphism_columns_are_substituted_monomials(source, target, images):
    if images is None:
        images = [target.generator(i).coordinates for i in range(source.n)]
    phi = apoint(target, images)
    for exp in source.basis_monomials:
        expected = substitute_and_project({exp: Fraction(1)}, target, phi.images)
        monomial = TruncatedPolynomial(source.n, source.window_bound, {exp: 1})
        assert evaluate(monomial, phi).row == expected.row


KERNEL_CASES = [
    (power_jet(1, 4), [P("x^2", 1), P("x + x^3", 1)]),
    (jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 3), [P("x + y", 2), P("x y", 2)]),
    (jet_from_ideal(2, [1, "1/2"], [P("y - x^2 + 1/2", 2)], 2), [P("x^2 - y", 2)]),
    (jet_from_ideal(2, [0, 0], [P("y^2 - x^3", 2)], 3), [P("x", 2), P("y", 2), P("x y", 2)]),
]


@pytest.mark.parametrize("jet, phi", KERNEL_CASES)
def test_kernel_of_point_matches_pushforward(jet, phi):
    # The A-point x -> [phi(base + x)] is the morphism R[y] -> A whose
    # kernel is the pushforward jet.
    algebra = jet.quotient
    images = [class_of(algebra, f.shift(jet.base_point)) for f in phi]
    _, kernel = regularity_and_kernel(apoint(algebra, images))
    assert kernel == pushforward(jet, phi)
    assert kernel.base_point == tuple(f.evaluate(jet.base_point) for f in phi)

    # Independently: the kernel dies under substitution, and R[y]/kernel is
    # as large as the image, the span of the substituted monomials.
    m, bound = len(phi), algebra.window_bound
    nil = [img.nilpotent_part() for img in images]
    for g in ideal_polynomials(kernel):
        assert not substitute_and_project(g.coefficients, algebra, nil).row
    image = canonical_basis(
        [
            substitute_and_project({e: Fraction(1)}, algebra, nil).coordinates
            for e in window(m, bound)
        ],
        algebra.dimension,
    )
    assert kernel.quotient.dimension == image.dimension


def test_invert_substitution_rejects_singular_linear_part():
    r13 = free_truncated_algebra(1, 3)
    square = apoint(r13, [r13.element([0, 0, 1, 0])])  # x -> x^2
    assert inverse_morphism(square) is None


def test_invert_substitution_two_variables_round_trip():
    r23 = free_truncated_algebra(2, 3)
    phi = apoint(
        r23, [class_of(r23, P("2 x + y + x y - y^3", 2, 3)), class_of(r23, P("x - y + 1/2 x^2", 2, 3))]
    )
    inv = inverse_morphism(phi)
    assert is_identity(compose(phi, inv))
    assert is_identity(compose(inv, phi))


# Substitutions with terms in every degree up to 4; each pass of the reference
# inverse fixes one more degree, so a missing pass shows at the top degree.
SUBSTITUTIONS = {
    1: ["2 x + x^2 - 3 x^3 + 1/2 x^4"],
    2: ["x + 2 y + x y - y^2 + x^3 + x^2 y^2", "y - x + x^2 + 1/3 x y^2 - y^4"],
}


@pytest.mark.parametrize("n", sorted(SUBSTITUTIONS))
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_invert_substitution_round_trip_at_every_order(n, order):
    algebra = free_truncated_algebra(n, order)
    phi = apoint(algebra, [class_of(algebra, P(s, n, 4)) for s in SUBSTITUTIONS[n]])
    inv = inverse_morphism(phi)
    assert is_identity(compose(phi, inv))
    assert is_identity(compose(inv, phi))
