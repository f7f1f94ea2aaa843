"""Epimorphisms from a free truncated algebra, factored through an
automorphism of the source, against oracles.

Two regular A-points at a point differ by an automorphism of the source:
for regular A-points alpha, beta of R^n at the origin, that is epimorphisms
R_n^l -> A, ``factor_epimorphism`` returns an automorphism g of R_n^l, as an
A-point of R^n over R_n^l, with beta = alpha o g.  Each drawn pair is checked
twice over, with no package route: alpha o g = beta by substituting the
representatives of alpha's images into those of g's with ``ref_substitute``
(plain ``Fraction`` double loops), and g's linear part, read off its
coordinates at the classes 1..n, is invertible by a determinant computed here.  At order 0 the source is R and g must be its
identity.

:func:`drawn_target` and :func:`drawn_pair` make every choice through one
``choose(options)`` callable, as :func:`test_jet_space.graph_case` does, so
Hypothesis draws the cases below and a seeded ``random.Random.choice`` draws
the higher-order batch of
``tests/deep/test_epimorphism_factorization.py``.
"""

import random
import traceback
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.apoints import apoint, factor_epimorphism
from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial
from weiljets.weil import free_truncated_algebra, quotient_algebra

from conftest import algebras, class_of, is_identity, is_regular, linear_part, ref_substitute, zero
from test_morphism_oracles import representative

COEFFICIENTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3))


def drawn_target(choose, orders):
    """R_m^l, or a monomial or binomial quotient of it, for m <= 3 and l from
    ``orders``: the algebras of ``conftest.presentations``, at any order."""
    m = choose((1, 2, 3))
    ell = choose(orders)
    exps = window(m, ell)[1:]
    kind = choose(("free", "monomial", "binomial"))
    generators = []
    if kind == "monomial" and exps:
        generators = [TruncatedPolynomial.monomial(m, ell, choose(exps)) for _ in range(choose((1, 2, 3)))]
    elif kind == "binomial" and len(exps) > 1:
        left = choose(exps)
        right = choose([e for e in exps if e != left])
        generators = [
            TruncatedPolynomial.monomial(m, ell, left)
            - TruncatedPolynomial.monomial(m, ell, right, choose(COEFFICIENTS[1:]))
        ]
    return quotient_algebra(m, ell, generators)


def drawn_epimorphism(choose, n, target):
    """A regular A-point of R^n at the origin over target.  A drawn injection
    S sends the k-th coordinate it picks to a drawn degree-1 class plus a
    combination of the linear parts of the ones picked before, so S spans
    m/m^2; every other coordinate goes to any combination of the degree-1
    classes, and every image gets a drawn part in m^2."""
    w, d = target.width, target.dimension
    rest = list(range(n))
    classes = list(range(1, w + 1))
    linear = [{} for _ in range(n)]
    picked = []
    for _ in range(w):
        i = choose(rest)
        rest.remove(i)
        t = choose(classes)
        classes.remove(t)
        row = {t: Fraction(1)}
        for earlier in picked:
            c = choose(COEFFICIENTS)
            for g, v in linear[earlier].items():
                row[g] = row.get(g, 0) + c * v
        linear[i] = row
        picked.append(i)
    for i in rest:
        linear[i] = {g: choose(COEFFICIENTS) for g in range(1, w + 1)}
    images = []
    for row in linear:
        coordinates = [Fraction(0)] * d
        for g, v in row.items():
            coordinates[g] = v
        for g in range(w + 1, d):
            coordinates[g] = choose(COEFFICIENTS)
        images.append(coordinates)
    return apoint(target, images)


def drawn_pair(choose, target):
    """Two drawn epimorphisms R_n^l -> target, with n from the target's width
    to width + 2 and l its order or one more: the two A-points and l."""
    n = choose(range(target.width, target.width + 3))
    order = target.order + choose((0, 1))
    return drawn_epimorphism(choose, n, target), drawn_epimorphism(choose, n, target), order


def determinant(matrix) -> Fraction:
    """By Laplace expansion along the first row."""
    if not matrix:
        return Fraction(1)
    return sum(
        (-1) ** j * c * determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
        for j, c in enumerate(matrix[0])
        if c
    )


def factorization_mismatches(alpha, beta, order) -> list[str]:
    """Each way in which the factorization of beta through alpha fails."""
    try:
        g = factor_epimorphism(alpha, beta, order)
    except Exception:
        return [f"raised {traceback.format_exc()}"]
    return mismatches(alpha, beta, order, g)


def mismatches(alpha, beta, order, g) -> list[str]:
    """Each way in which g fails to be an automorphism of R_n^order with
    beta = alpha o g."""
    source, target = free_truncated_algebra(alpha.ambient_dimension, order), alpha.algebra
    if (g.algebra, g.ambient_dimension) != (source, source.n):
        return ["g is not an endomorphism of the source"]
    found = []
    reps = [representative(img) for img in alpha.images]
    for j, (image, want) in enumerate(zip(g.images, beta.images)):
        value = ref_substitute(representative(image), reps, target.n, target.window_bound)
        got = class_of(target, TruncatedPolynomial(target.n, target.window_bound, value))
        if got != want:
            found.append(f"alpha(g(x{j + 1})) = {got.coordinates}, beta(x{j + 1}) = {want.coordinates}")
    if source.order == 0:
        if not is_identity(g):
            found.append("g is not the identity of R")
    elif determinant(linear_part(g)) == 0:
        found.append(f"g has the singular linear part {linear_part(g)}")
    return found


@settings(max_examples=100, deadline=None)
@given(algebras(), st.data())
def test_drawn_epimorphisms_factor_through_an_automorphism(target, data):
    alpha, beta, order = drawn_pair(lambda options: data.draw(st.sampled_from(options)), target)
    assert is_regular(alpha) and is_regular(beta)
    assert factorization_mismatches(alpha, beta, order) == []


def test_the_oracles_report_a_broken_factorization():
    r21, r11 = free_truncated_algebra(2, 1), free_truncated_algebra(1, 1)
    eps = r11.generator(0)
    alpha = apoint(r11, [eps, zero(r11)])
    beta = apoint(r11, [zero(r11), eps])
    assert factorization_mismatches(alpha, beta, 1) == []
    # g must send x1 into span{x2}, so the identity misses beta on both
    # generators; the zero map misses it on x2 and is singular.
    identity = apoint(r21, [r21.generator(0), r21.generator(1)])
    zero_map = apoint(r21, [zero(r21), zero(r21)])
    assert len(mismatches(alpha, beta, 1, identity)) == 2
    found = mismatches(alpha, beta, 1, zero_map)
    assert len(found) == 2 and found[1].startswith("g has the singular linear part")


def test_a_seeded_higher_order_batch_factors():
    # The first cases of the deep batch, at orders up to 4.
    rng = random.Random(1)
    for _ in range(10):
        alpha, beta, order = drawn_pair(rng.choice, drawn_target(rng.choice, range(5)))
        assert factorization_mismatches(alpha, beta, order) == []
