"""Oracles for the integer-numerator product kernels of poly, weil and apoints.

Every expected value is computed with plain ``Fraction`` arithmetic, here
and in the reference ``ref_product`` and ``ref_substitute`` of ``conftest``:
double loops over the terms, one ``Fraction`` per partial sum, no common
denominators.  Algebra products are then projected to the
quotient with conftest's ``class_of``, which shares no code with the kernels.
Inputs mix denominators and signs, and the coefficient pool is small so
that terms cancel often.  A second pool with the coprime denominators 5 and
7 feeds substitution images and A-point images (hence base points), so that
the kernels' common denominators and their powers grow.  The pools hold
canonical scalars (``as_fraction``: ints when integral), as the package's own
rows do, and every stored value must keep that rule.
"""

import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weiljets import apoints, jets, poly
from weiljets.apoints import (
    apoint,
    component_names,
    evaluate,
    factor_epimorphism,
    prolong_polynomial,
    regularity_and_kernel,
)
from weiljets.errors import DimensionMismatchError, WindowTooLargeError
from weiljets.jets import jet_from_ideal, normal_form, tangent_map
from weiljets.monomials import monomial_sort_key, window
from weiljets.poly import (
    TruncatedPolynomial,
    as_fraction,
    format_polynomial,
    parse_polynomial,
    substitution,
    truncated_product,
    truncated_substitute,
    variable_names,
)
from weiljets.session import _op_prolong
from weiljets.weil import WeilAlgebra, free_truncated_algebra, quotient_algebra

from conftest import (
    P,
    algebras,
    canonical_basis,
    class_of,
    dense_row,
    ideal_polynomials,
    is_canonical_scalar,
    ref_product,
    ref_substitute,
    structure_constants,
    times,
)

ZERO = Fraction(0)
POOL = [as_fraction(Fraction(p, q)) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3, 4, 6)]
COPRIME_POOL = [as_fraction(Fraction(p, q)) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 5, 7)]
coefficients = st.sampled_from(POOL)
coprime_coefficients = st.sampled_from(COPRIME_POOL)
pools = st.sampled_from([coefficients, coprime_coefficients])


def assert_stored_canonical(poly: TruncatedPolynomial) -> None:
    for c in poly.coefficients.values():
        assert is_canonical_scalar(c) and c != 0


def assert_canonical_coordinates(coordinates: tuple) -> None:
    assert all(is_canonical_scalar(c) for c in coordinates)


def top_degree(f: dict) -> int:
    return max((sum(e) for e in f), default=0)


@st.composite
def polynomials(draw, n: int, degree: int, max_terms: int = 6, pool=coefficients) -> dict:
    exps = window(n, degree)
    return draw(st.dictionaries(st.sampled_from(exps), pool, max_size=max_terms))


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
    assert_stored_canonical(got)


def test_product_cancels_cross_terms():
    f = P("1/2 x + 1/3 y", 2)
    g = P("1/2 x - 1/3 y", 2)
    got = truncated_product(f, g, 2)
    assert got.coefficients == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    assert_stored_canonical(got)
    assert truncated_product(f, -f + f, 2).coefficients == {}


@st.composite
def substitution_case(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    f = draw(polynomials(n, 3))
    pool = draw(pools)
    images = [draw(polynomials(m, 2, max_terms=3, pool=pool)) for _ in range(n)]
    return n, m, f, images, draw(st.integers(0, 5))


X, Y = (1, 0), (0, 1)


@settings(max_examples=100, deadline=None)
@given(substitution_case())
# Zero images: every product past degree 0 vanishes, the constant term stays.
@example((2, 2, {(0, 0): Fraction(3, 5), X: Fraction(1, 7), (1, 1): Fraction(2)}, [{}, {}], 3))
# A constant-only f: the top degree is 0, and no image is ever multiplied.
@example((2, 1, {(0, 0): Fraction(-2, 7)}, [{(1,): Fraction(1, 5)}, {(0,): Fraction(3)}], 2))
# Bound 0 keeps only the constant terms of the images' products.
@example((2, 2, {X: Fraction(1, 5), (1, 1): Fraction(2, 7)},
          [{(0, 0): Fraction(3, 7), X: Fraction(1)}, {(0, 0): Fraction(-2, 5), Y: Fraction(1)}], 0))
def test_truncated_substitute_matches_expansion(case):
    n, m, f, images, bound = case
    got = truncated_substitute(
        TruncatedPolynomial(n, 3, f), [TruncatedPolynomial(m, 2, g) for g in images], bound
    )
    assert got.coefficients == ref_substitute(f, images, m, bound)
    assert got.degree_bound == bound
    assert_stored_canonical(got)


@st.composite
def substitution_map_case(draw):
    n, m, _, images, bound = draw(substitution_case())
    fs = draw(st.lists(polynomials(n, 3), min_size=1, max_size=4))
    return n, m, fs, images, bound


@settings(max_examples=80, deadline=None)
@given(substitution_map_case())
# Zero images: every polynomial keeps only its constant term.
@example((2, 2, [{(0, 0): Fraction(3, 5), X: Fraction(1, 7)}, {(1, 1): Fraction(2)}, {}], [{}, {}], 3))
# Bound 0 keeps only the constant terms of the images' products, for each f.
@example((2, 2, [{X: Fraction(1, 5), (1, 1): Fraction(2, 7)}, {(0, 2): Fraction(-1, 2)}],
          [{(0, 0): Fraction(3, 7), X: Fraction(1)}, {(0, 0): Fraction(-2, 5), Y: Fraction(1)}], 0))
def test_one_substitution_map_matches_expansion(case):
    # Several polynomials through one map share its power cache; each result
    # must still be its own expansion.
    n, m, fs, images, bound = case
    substitute = substitution([TruncatedPolynomial(m, 2, g) for g in images], bound)
    for f in fs:
        got = substitute(TruncatedPolynomial(n, 3, f))
        assert got.coefficients == ref_substitute(f, images, m, bound)
        assert got.degree_bound == bound
        assert_stored_canonical(got)


def test_substitution_checks_its_images_when_built(monkeypatch):
    with pytest.raises(DimensionMismatchError, match="disagree on variables"):
        substitution([P("x", 2), P("x", 1)], 2)
    # The window of degree 80 in two variables has 3321 monomials: refused
    # before any power cache is allocated.
    monkeypatch.setattr(poly, "_Powers", lambda *args: pytest.fail("cache allocated"))
    with pytest.raises(WindowTooLargeError):
        substitution([P("x", 2), P("y", 2)], 80)


def test_substitution_checks_the_image_count_per_polynomial():
    substitute = substitution([P("x", 1), P("x^2", 1)], 3)
    with pytest.raises(DimensionMismatchError, match="need 3 substitution images, got 2"):
        substitute(P("x y z", 3))
    assert substitute(P("x y", 2)) == P("x^3", 1, 3)


def test_normal_form_builds_one_power_cache_per_stage(monkeypatch):
    # y - x - x^2 - x^3 is straightened in closed form: x is the pivot
    # variable, and the ideal's rows are pushed once, through
    # sigma = (x + y - y^2 + y^3, y), one substitution map at the jet's
    # window, so one power cache.
    p = jet_from_ideal(2, [0, 0], [P("y - x - x^2 - x^3", 2)], 3)
    events = []
    powers = poly._Powers
    substituted_ideal = jets._substituted_ideal

    def spy_cache(*args):
        events.append(("cache", sys._getframe(1).f_locals["bound"]))
        return powers(*args)

    def spy_stage(*args):
        events.append(("stage", None))
        return substituted_ideal(*args)

    monkeypatch.setattr(poly, "_Powers", spy_cache)
    monkeypatch.setattr(jets, "_substituted_ideal", spy_stage)
    normal_form(p)
    at_window = [kind for kind, bound in events if kind == "stage" or bound == p.window_bound]
    assert at_window == ["cache", "stage"]


def test_tangent_maps_and_morphisms_build_one_power_cache(monkeypatch):
    # The kernel jet of a tangent map and its inclusion columns read one
    # morphism's products, as do the lift and the check of an epimorphism
    # factorization: one cache each, and every product read comes from it.
    p = jet_from_ideal(2, [1, 1], [P("y - x^2", 2)], 3)
    source = free_truncated_algebra(2, 2)
    target = quotient_algebra(2, 2, [P("x^2", 2), P("y^2", 2)])
    built, read = [], []
    power_numerators = WeilAlgebra._power_numerators
    row, image = poly._Powers.row, poly._Powers.image

    def spy_build(algebra, factors):
        built.append(power_numerators(algebra, factors))
        return built[-1]

    def spy_row(powers, exp):
        read.append(("row", powers))
        return row(powers, exp)

    def spy_image(powers, terms):
        read.append(("image", powers))
        return image(powers, terms)

    monkeypatch.setattr(WeilAlgebra, "_power_numerators", spy_build)
    monkeypatch.setattr(poly._Powers, "row", spy_row)
    monkeypatch.setattr(poly._Powers, "image", spy_image)
    tm = tangent_map(p, [P("x", 2, 3), P("x y + y", 2, 3)])
    assert tm.exists and len(built) == 1
    # One row per monomial of degree <= order (the top degree of the kernel
    # window maps to zero), then one per basis class of B.  The shifts of the
    # map go through substitution maps, which read no rows.
    rows = [powers is built[0] for kind, powers in read if kind == "row"]
    assert rows == [True] * (len(window(2, p.quotient.order)) + tm.image_jet.quotient.dimension)

    built.clear()
    read.clear()
    # alpha's cache alone: a row per nonconstant monomial of the source for
    # the lift, then an image per generator for the check alpha o g = beta.
    alpha = apoint(target, [target.generator(0), target.generator(1)])
    g = factor_epimorphism(alpha, alpha, source.order)
    assert len(built) == 1 and built[0] is alpha._powers and g.algebra == source
    kinds = [kind for kind, powers in read if powers is built[0]]
    assert len(kinds) == len(read)
    assert kinds == ["row"] * (source.dimension - 1) + ["image"] * source.n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        polynomials(n, 4),
        pools.flatmap(lambda pool: st.lists(pool, min_size=n, max_size=n)),
    )
))
def test_shift_matches_expansion(case):
    n, f, point = case
    images = []
    for i, p in enumerate(point):
        unit = tuple(int(j == i) for j in range(n))
        images.append({unit: Fraction(1), (0,) * n: p})
    got = TruncatedPolynomial(n, 4, f).shift(point)
    assert got.coefficients == ref_substitute(f, images, n, 4)
    assert_stored_canonical(got)


def test_integer_input_is_stored_as_ints():
    f = TruncatedPolynomial(2, 2, {(1, 0): 2, (0, 1): -3, (1, 1): 0})
    assert f.coefficients == {(1, 0): 2, (0, 1): -3}
    assert_stored_canonical(f)
    for poly in (truncated_product(f, f, 2), truncated_substitute(f, [f, f], 2), f.shift([1, 2])):
        assert_stored_canonical(poly)
        assert all(type(c) is int for c in poly.coefficients.values())


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
    assert any(c.denominator != 1 for *_, c in structure_constants(BINOMIAL))


def representative(algebra, coords) -> dict:
    return {algebra.basis_monomials[i]: c for i, c in enumerate(coords) if c}


def project(algebra, coefficients: dict) -> tuple:
    poly = TruncatedPolynomial(algebra.n, algebra.window_bound, coefficients)
    return class_of(algebra, poly).coordinates


@st.composite
def algebra_pair(draw):
    algebra = draw(st.sampled_from(ALGEBRAS))
    d = algebra.dimension
    vectors = st.lists(st.one_of(st.just(ZERO), coefficients), min_size=d, max_size=d)
    return algebra, draw(vectors), draw(vectors)


@settings(max_examples=150, deadline=None)
@given(algebra_pair())
def test_element_product_matches_product_of_representatives(case):
    algebra, u, v = case
    expected = project(
        algebra,
        ref_product(representative(algebra, u), representative(algebra, v), algebra.window_bound),
    )
    got = times(algebra.element(u), algebra.element(v)).coordinates
    assert got == expected
    assert_canonical_coordinates(got)


# -- the algebra product kernel: per row, the shorter side -----------------------


def dense_product(algebra, u: dict, v: dict) -> dict:
    """u * v as a dense double loop over every pair of basis classes, each
    pair read off ``structure_constants``."""
    table: dict = {}
    for a, b, g, c in structure_constants(algebra):
        table.setdefault((a, b), []).append((g, c))
    d = algebra.dimension
    out: dict = {}
    for a in range(d):
        for b in range(d):
            w = u.get(a, ZERO) * v.get(b, ZERO)
            for g, c in table.get((a, b), ()):
                out[g] = out.get(g, ZERO) + w * c
    return {g: c for g, c in out.items() if c}


@st.composite
def kernel_factors(draw, d: int) -> dict:
    """A sparse row of quotient coordinates: dense, sparse, a single entry,
    zero or one."""
    shape = draw(st.sampled_from(["dense", "sparse", "single", "zero", "one"]))
    if shape == "dense":
        return {k: draw(coefficients) for k in range(d)}
    if shape == "sparse":
        return draw(st.dictionaries(st.integers(0, d - 1), coefficients, max_size=d))
    if shape == "single":
        return {draw(st.integers(0, d - 1)): draw(coefficients)}
    return {} if shape == "zero" else {0: 1}


@st.composite
def kernel_case(draw):
    algebra = draw(algebras())
    d = algebra.dimension
    return algebra, draw(kernel_factors(d)), draw(kernel_factors(d))


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_algebra_product_matches_dense_double_loop(case):
    algebra, u, v = case
    powers = algebra._power_numerators([u, v])
    got = powers.row((1, 1))
    assert got == dense_product(algebra, u, v)
    assert all(is_canonical_scalar(c) and c for c in got.values())
    assert powers.row((2, 0)) == dense_product(algebra, u, u)
    assert powers.row((0, 2)) == dense_product(algebra, v, v)


class CountingRow(dict):
    """A table row that counts the kernel's inner steps: each lookup and each
    stored product walked."""

    def __init__(self, row):
        super().__init__(row)
        self.steps = 0

    def get(self, key, default=None):
        self.steps += 1
        return super().get(key, default)

    def items(self):
        for item in super().items():
            self.steps += 1
            yield item


R44 = free_truncated_algebra(4, 4)


def kernel_steps(left: dict, right: dict) -> list[int]:
    """The cost rule of one product left * right in R_4^4, per table row: a
    row of a nonzero of ``left`` costs the shorter of its stored products and
    the nonzeros of ``right``; every other row costs nothing."""
    return [min(len(row), len(right)) if a in left else 0 for a, row in enumerate(R44._mult)]


@pytest.mark.parametrize("shape", ["dense", "half", "single", "one"])
@pytest.mark.parametrize("route", ["evaluate", "powers"])
def test_product_walks_the_shorter_side_of_each_row(monkeypatch, shape, route):
    # R_4^4 has 70 basis classes and 495 stored products, from 70 in row 0
    # down to 1 in each row of degree 4.  Per row the kernel makes
    # min(stored products, nonzeros of v) steps, never more than the one
    # lookup per nonzero of v it made before.
    d = R44.dimension
    u = {a: Fraction(a + 1, 2) for a in range(d)}
    v = {
        "dense": {b: Fraction(1, b + 1) for b in range(d)},
        "half": {b: Fraction(-b, 3) for b in range(0, d, 2) if b},
        "single": {d // 2: Fraction(5, 7)},
        "one": {0: Fraction(1)},
    }[shape]
    expected = dense_product(R44, u, v)
    # y0 y1 under y0 -> v, y1 -> u is made as u * v: the first power u is
    # seeded from its factor, so no 1 * u product is made.
    want = kernel_steps(u, v)
    # The evaluate route is the session's: x y at the A-point (v, u).
    point = apoint(R44, [R44.element(dense_row(v, d)), R44.element(dense_row(u, d))])
    rows = [CountingRow(row) for row in R44._mult]
    monkeypatch.setitem(R44.__dict__, "_mult", rows)
    if route == "evaluate":
        got = evaluate(P("x y", 2), point).row
    else:
        got = R44._power_numerators([v, u]).row((1, 1))
    assert got == expected
    assert [row.steps for row in rows] == want
    if shape == "dense":
        # Every stored product once: 495 steps, where one lookup per pair
        # of nonzeros made 70 * 70.
        assert sum(want) == 495


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
    pool = draw(pools)
    images = [draw(st.lists(pool, min_size=d, max_size=d)) for _ in range(n)]
    return algebra, n, f, images


R22 = free_truncated_algebra(2, 2)


@settings(max_examples=60, deadline=None)
@given(point_case())
@example((BINOMIAL, 1, {(2,): Fraction(1, 2)}, [[1, 2, -1, 0, 0, 0, 0]]))
# deg f = 5 above the order 2, at a base point off the origin: f is shifted
# only to the order, and the terms past it must not reach the result.
@example((R22, 2, {(5, 0): Fraction(1, 5), (2, 3): Fraction(-3, 7), (1, 1): Fraction(2), (0, 0): Fraction(1)},
          [[Fraction(2, 5), 1, 0, Fraction(1, 7), 0, 0], [Fraction(-3, 7), 0, 1, 0, 2, 0]]))
# A constant-only f evaluates to a multiple of the unit.
@example((BINOMIAL, 1, {(0,): Fraction(-2, 7)}, [[Fraction(1, 5), 2, -1, 0, 0, 0, 0]]))
def test_evaluate_matches_expansion(case):
    algebra, n, f, images = case
    got = evaluate(TruncatedPolynomial(n, top_degree(f), f), apoint(algebra, images)).coordinates
    assert got == ref_value(f, algebra, images)
    assert_canonical_coordinates(got)


@settings(max_examples=40, deadline=None)
@given(point_case())
# x^2 at a point with a nonzero x-component meets the 2/3 in the binomial table.
@example((BINOMIAL, 1, {(2,): Fraction(1, 2)}, [[1, 2, -1, 0, 0, 0, 0]]))
def test_prolonged_components_match_expansion(case):
    algebra, n, f, images = case
    components = prolong_polynomial(TruncatedPolynomial(n, 3, f), algebra)
    for component in components:
        assert_stored_canonical(component)
    coords = [c for img in apoint(algebra, images).images for c in img.coordinates]
    got = tuple(f.evaluate(coords) for f in components)
    assert got == ref_value(f, algebra, images)


@st.composite
def index_keys(draw):
    """(n, exponents, keys): distinct dense exponents and their index keys, each
    key made by multiplying its variables onto () in a drawn order."""
    n = draw(st.integers(1, 12))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12, unique=True))
    keys = []
    for e in exps:
        factors = draw(st.permutations([v for v, k in enumerate(e) for _ in range(k)]))
        key = ()
        for v in factors:
            key = apoints._times_variable(key, v)
        keys.append(key)
    return n, exps, keys


@settings(max_examples=200, deadline=None)
@given(index_keys())
def test_index_keys_format_in_layout_order(case):
    # Each key names its exponent, and the index formatter writes the terms in
    # the order of monomial_sort_key: a distinct coefficient per term shows it.
    # The expected terms are reduced by Fraction, the formatter's by its gcd.
    n, exps, keys = case
    for e, key in zip(exps, keys):
        assert key == tuple(x for v, k in enumerate(e) if k for x in (v, -k))
    ordered = sorted(exps, key=monomial_sort_key)
    numerators = {key: ordered.index(e) + 1 for e, key in zip(exps, keys)}
    coefficients = [Fraction(j + 1, 7) for j in range(len(ordered))]
    expected = poly._format_terms(
        [(poly._monomial_text(e), c.numerator, c.denominator) for e, c in zip(ordered, coefficients)]
    )
    assert poly._format_index_terms(numerators, 7, variable_names(n)) == expected


@settings(max_examples=40, deadline=None)
@given(point_case())
@example((BINOMIAL, 1, {(2,): Fraction(1, 2)}, [[1, 2, -1, 0, 0, 0, 0]]))
def test_prolong_op_texts_parse_to_the_components(case):
    algebra, n, f, _ = case
    f = TruncatedPolynomial(n, 3, f)
    report = _op_prolong(algebra, n, [f])
    assert report["coordinates"] == component_names(algebra, n)
    (texts,) = report["components"]
    expected = prolong_polynomial(f, algebra)
    assert [parse_polynomial(t, n * algebra.dimension) for t in texts] == expected


def test_deep_prolongation_stays_small():
    # An index key grows with the variables of a monomial, not with its
    # degree: the 2,999 cached powers of x over R_1^1 hold two short keys each.
    f, r11 = P("x^2999 - 1", 1), free_truncated_algebra(1, 1)
    tracemalloc.start()
    try:
        components = prolong_polynomial(f, r11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert [format_polynomial(c) for c in components] == ["-1 + x^2999", "2999 x^2998 y"]
    assert _op_prolong(r11, 1, [f])["components"] == [["-1 + x^2999", "2999 x^2998 y"]]
    with pytest.raises(WindowTooLargeError, match="window of degree <= 5000 in 1 variables"):
        _op_prolong(r11, 1, [P("x^5000", 1)])


@settings(max_examples=40, deadline=None)
@given(point_case())
@example((BINOMIAL, 2, {}, [[Fraction(1, 5), 1, Fraction(-2, 7), 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]))
def test_kernel_jet_relations_vanish_at_the_point(case):
    # Each relation y^e - ... of the kernel jet, substituted into the
    # representatives of the images' nilpotent parts, is zero in A; and
    # R[y]/kernel is as large as the span of the substituted monomials.
    algebra, n, _, images = case
    point = apoint(algebra, images)
    _, kernel = regularity_and_kernel(point)
    assert kernel.base_point == tuple(Fraction(img[0]) for img in images)
    nil = [representative(algebra, [0] + list(img[1:])) for img in images]
    bound = algebra.window_bound
    for g in ideal_polynomials(kernel):
        assert_stored_canonical(g)
        value = ref_substitute(g.coefficients, nil, algebra.n, bound)
        assert not any(project(algebra, value))
    span = canonical_basis(
        [project(algebra, ref_substitute({e: Fraction(1)}, nil, algebra.n, bound))
         for e in window(n, bound)],
        algebra.dimension,
    )
    assert kernel.quotient.dimension == span.dimension


class TestFirstPowersAreSeeded:
    """Each power cache seeds every unit exponent from its prepared factor, so
    a first power costs no kernel call; a second power costs one."""

    def test_power_numerators(self, monkeypatch):
        d = R44.dimension
        u = {a: Fraction(a + 1, 2) for a in range(0, d, 3)}
        v = {d // 2: Fraction(5, 7), 1: Fraction(-1, 3)}
        calls = []
        kernel = WeilAlgebra._mult_numerators

        def counted(algebra, *args):
            calls.append(1)
            return kernel(algebra, *args)

        monkeypatch.setattr(WeilAlgebra, "_mult_numerators", counted)
        powers = R44._power_numerators([u, v])
        assert (powers.row((1, 0)), powers.row((0, 1))) == (u, v)
        assert not calls
        assert powers.row((1, 1)) == dense_product(R44, u, v) and len(calls) == 1

    def test_substitution(self, monkeypatch):
        # The images reach degree 3, above the bound 2, which the first
        # power truncates as a product would.
        images = [P("1/2 x + y^2 - x^3", 2), P("-2/3 y + x y", 2)]
        calls = []
        kernel = poly._product_numerators

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(poly, "_product_numerators", counted)
        substitute = substitution(images, 2)
        first = substitute(P("x - 3 y", 2))
        assert not calls
        assert first.coefficients == P("1/2 x + y^2 + 2 y - 3 x y", 2).coefficients
        assert first.degree_bound == 2
        substitute(P("x y", 2))
        assert len(calls) == 1

    def test_prolongation(self, monkeypatch):
        algebra = quotient_algebra(2, 2, [P("x^2 - 2/3 y^2", 2)])
        rows = [CountingRow(row) for row in algebra._mult]
        monkeypatch.setitem(algebra.__dict__, "_mult", rows)
        components = prolong_polynomial(P("2 x - y", 2), algebra)
        assert not any(row.steps for row in rows)
        # Component b of 2 x - y is 2 x_b - x_(d + b) in the component variables.
        d = algebra.dimension
        units = [tuple(int(j == k) for j in range(2 * d)) for k in range(2 * d)]
        assert [c.coefficients for c in components] == [
            {units[b]: 2, units[d + b]: -1} for b in range(d)
        ]
        prolong_polynomial(P("x y", 2), algebra)
        assert any(row.steps for row in rows)
