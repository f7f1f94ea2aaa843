"""Oracles for Der(A, A): the Leibniz action, ideal stability, the Leibniz
system over every ideal generator, the Leibniz rows and the sparse
multiplication columns, plus guards that the action is built only on demand
and that the Leibniz rows build no multiplication map.

Every expected value here is computed in this file or in ``conftest``:
derivation matrices and images of generators by expanding
delta(x^e) = sum_i e_i x^(e - 1_i) delta(x_i) with polynomial arithmetic and
projecting, the Leibniz rows from d f / d x_i times each basis monomial by
``ref_leibniz_columns``, stability by dense elimination against the ideal's
reduced basis, and the dimension of Der(A, A) as a nullity by sympy.  None of
it goes through the package's multiplication table, its sparse columns or its
Leibniz rows.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial
from weiljets.session import execute, parse_session
from weiljets.weil import (
    WeilAlgebra,
    derivation_space,
    free_truncated_algebra,
    ideal_stability,
    quotient_algebra,
)

from conftest import (
    P,
    algebras,
    basis,
    canonical_basis,
    derivation_matrices,
    pivots,
    projected_derivations,
    rationals,
    ref_leibniz_columns,
)

def leibniz_image(algebra, images, f):
    """delta(f) for the derivation x_i -> images[i], term by term:
    delta(x^e) = sum_i e_i x^(e - 1_i) delta(x_i), in polynomial arithmetic."""
    n, bound = algebra.n, algebra.window_bound
    values = [algebra.row_polynomial(v) for v in images]
    total = TruncatedPolynomial.zero(n, bound)
    for exp, c in f.coefficients.items():
        for i, k in enumerate(exp):
            if k:
                lowered = tuple(e - (j == i) for j, e in enumerate(exp))
                term = TruncatedPolynomial.monomial(n, bound, lowered) * values[i]
                total = total + term.scale(k * c)
    return algebra.project_polynomial(total).coordinates


def oracle_matrix(algebra, images):
    """Matrix of the derivation x_i -> images[i] by polynomial Leibniz expansion."""
    n, bound, d = algebra.n, algebra.window_bound, algebra.dimension
    cols = [
        leibniz_image(algebra, images, TruncatedPolynomial.monomial(n, bound, exp))
        for exp in algebra.basis_monomials
    ]
    return tuple(tuple(cols[b][g] for b in range(d)) for g in range(d))


def remainder(ideal, vector):
    """Dense remainder against a reduced row-echelon basis."""
    v = list(vector)
    for p, row in zip(pivots(ideal), basis(ideal)):
        if v[p]:
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
    return v


def reference_stability(algebra, ideal, matrices):
    """(der_stable, witness, projected_derivations) from dense matrices."""
    d = algebra.dimension
    for k, m in enumerate(matrices):
        for row in basis(ideal):
            img = tuple(sum((m[g][b] * row[b] for b in range(d)), Fraction(0)) for g in range(d))
            if any(remainder(ideal, img)):
                return False, (k, img), None
    complement = [c for c in range(d) if c not in pivots(ideal)]
    projected = tuple(
        tuple(
            tuple(remainder(ideal, [m[g][c_in] for g in range(d)])[c_out] for c_in in complement)
            for c_out in complement
        )
        for m in matrices
    )
    return True, None, projected


def principal_ideal(algebra, coords):
    """A * f, spanned by f times every basis class."""
    d = algebra.dimension
    units = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    f = algebra.element(coords)
    return [(f * algebra.element(u)).coordinates for u in units]


def element(algebra):
    return st.lists(rationals, min_size=algebra.dimension, max_size=algebra.dimension)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_matrices_match_polynomial_leibniz(algebra):
    ders = derivation_space(algebra)
    matrices = derivation_matrices(ders)
    assert len(matrices) == ders.dimension
    for images, matrix in zip(ders.sparse_images, matrices):
        assert matrix == oracle_matrix(algebra, images)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.data())
def test_stability_matches_dense_reference(algebra, data):
    d = algebra.dimension
    gens = data.draw(st.lists(element(algebra), min_size=1, max_size=2))
    ideal = canonical_basis([v for g in gens for v in principal_ideal(algebra, g)], d)
    ders = derivation_space(algebra)
    matrices = [oracle_matrix(algebra, images) for images in ders.sparse_images]
    report = ideal_stability(algebra, ideal)
    expected = reference_stability(algebra, ideal, matrices)
    assert (report.der_stable, report.witness, projected_derivations(report)) == expected


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_stability_with_several_ideal_generators(algebra, data):
    # Basis classes of the maximal ideal, and one nilpotent element, generate
    # ideals that need several generators; some of them are stable, some not.
    d = algebra.dimension
    if d < 3:
        return
    units = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
    picks = data.draw(st.lists(st.integers(1, d - 1), min_size=2, max_size=3, unique=True))
    gens = [units[b] for b in picks]
    if data.draw(st.booleans()):
        gens.append([Fraction(0)] + data.draw(element(algebra))[1:])
    ideal = canonical_basis([v for g in gens for v in principal_ideal(algebra, g)], d)
    ders = derivation_space(algebra)
    matrices = [oracle_matrix(algebra, images) for images in ders.sparse_images]
    report = ideal_stability(algebra, ideal)
    expected = reference_stability(algebra, ideal, matrices)
    assert (report.der_stable, report.witness, projected_derivations(report)) == expected


def test_stability_witness_for_unstable_ideal():
    # In R_2^2 the derivation y d/dx carries x outside the ideal (x).
    a = free_truncated_algebra(2, 2)
    x = a.generator(0).coordinates
    ideal = canonical_basis(principal_ideal(a, x), a.dimension)
    ders = derivation_space(a)
    matrices = [oracle_matrix(a, images) for images in ders.sparse_images]
    report = ideal_stability(a, ideal)
    assert not report.der_stable
    assert projected_derivations(report) is None
    assert (False, report.witness, None) == reference_stability(a, ideal, matrices)


def test_stability_checks_every_ideal_generator():
    # In R_2^2 every derivation keeps x^2 inside (x^2, xy), but y d/dx
    # carries the second generator xy to y^2, outside it.
    a = free_truncated_algebra(2, 2)
    units = [[Fraction(int(i == j)) for j in range(a.dimension)] for i in range(a.dimension)]
    x2, xy = (units[a.basis_monomials.index(e)] for e in [(2, 0), (1, 1)])
    ideal = canonical_basis(principal_ideal(a, x2) + principal_ideal(a, xy), a.dimension)
    ders = derivation_space(a)
    matrices = [oracle_matrix(a, images) for images in ders.sparse_images]
    report = ideal_stability(a, ideal)
    assert not report.der_stable
    assert (False, report.witness, None) == reference_stability(a, ideal, matrices)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.data())
def test_multiplication_map_columns_are_products_with_basis_classes(algebra, data):
    w = algebra.element(data.draw(element(algebra)))
    columns = algebra.multiplication_map(w.row)
    d = algebra.dimension
    assert len(columns) == d
    for b, column in enumerate(columns):
        assert all(column.values())
        product = w * algebra.monomial_element(algebra.basis_monomials[b])
        assert [column.get(g, 0) for g in range(d)] == list(product.coordinates)


def test_multiplication_map_drops_cancelled_entries():
    # In R[x, y]/(x^2 - 2xy) the element x - 2y kills x: both products land
    # on the same class and cancel, and the column must come out empty.
    a = quotient_algebra(2, 2, [P("x^2 - 2 x y", 2, 2)])
    w = (a.generator(0) - a.generator(1) * 2).row
    columns = a.multiplication_map(w)
    assert columns[a.basis_monomials.index((1, 0))] == {}
    assert all(all(column.values()) for column in columns)


def polynomials(algebra):
    """Polynomials on the algebra's window, with up to five rational terms."""
    n, bound = algebra.n, algebra.window_bound
    terms = st.dictionaries(st.sampled_from(window(n, bound)), rationals, max_size=5)
    return terms.map(lambda coefficients: TruncatedPolynomial(n, bound, coefficients))


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_leibniz_rows_are_derivatives_times_basis_monomials(algebra, data):
    # Row g, entry i*d + b: the a_g coordinate of [d f / d x_i] * a_b.
    for f in [data.draw(polynomials(algebra)), *algebra.minimal_generators]:
        expected: dict = {}
        columns = ref_leibniz_columns(f, algebra.basis_monomials, algebra)
        for j, column in enumerate(columns):
            for g, c in column.items():
                expected.setdefault(g, {})[j] = c
        rows = algebra.differential_rows(f)
        assert rows == expected
        assert list(rows) == sorted(rows)
        assert all(row and all(row.values()) for row in rows.values())


def _run(ops):
    session = parse_session(
        '{"bind": [{"algebra": "A", "vars": 3, "bound": 3}], "run": ['
        + ", ".join(ops)
        + "]}"
    )
    report = execute(session)
    assert all(entry["ok"] for entry in report.results)
    return session.algebras["A"]._derivations


def _count_maps(monkeypatch) -> list:
    built = []
    multiplication_map = WeilAlgebra.multiplication_map

    def counting(self, w):
        built.append(w)
        return multiplication_map(self, w)

    monkeypatch.setattr(WeilAlgebra, "multiplication_map", counting)
    return built


def test_reports_leave_the_leibniz_action_unbuilt(monkeypatch):
    # The Leibniz action on the whole basis needs one multiplication map per
    # derivation image; it lives in the tests, and no report builds a map.
    built = _count_maps(monkeypatch)
    ders = _run(['{"op": "info", "of": "A"}', '{"op": "describe", "of": "A"}',
                 '{"op": "derivations", "of": "A"}'])
    assert ders is not None
    assert not hasattr(ders, "columns")
    assert built == []


def test_stability_builds_the_leibniz_action_only_for_the_projection(monkeypatch):
    built = _count_maps(monkeypatch)
    ders = _run(['{"op": "stability", "of": "A", "ideal": ["x"]}',
                 '{"op": "stability", "of": "A", "ideal": ["x", "y", "z"]}'])
    algebra = ders.algebra
    # Only the variable maps, for the saturation and the m*I check.
    assert built == [algebra.generator(i).row for i in range(algebra.n)]
    report = ideal_stability(algebra, algebra.maximal_power(1))
    assert report.der_stable
    assert len(built) == algebra.n
    assert projected_derivations(report) is not None
    assert len(built) == algebra.n + algebra.n * ders.dimension


def test_stability_builds_each_variable_map_once(monkeypatch):
    # The ideal's saturation and the m*I check share WeilAlgebra.variable_maps.
    built = Counter()
    multiplication_map = WeilAlgebra.multiplication_map

    def counting(self, w):
        built[frozenset(w.items())] += 1
        return multiplication_map(self, w)

    monkeypatch.setattr(WeilAlgebra, "multiplication_map", counting)
    algebra = _run(['{"op": "stability", "of": "A", "ideal": ["x"]}']).algebra
    variables = [frozenset(algebra.generator(i).row.items()) for i in range(algebra.n)]
    assert [built[v] for v in variables] == [1, 1, 1]


def test_differential_rows_build_no_multiplication_map(monkeypatch):
    # The Leibniz rows are read off the multiplication table: no map is built
    # while they are.  The stability op calls them for the derivation solve
    # and for the ideal's generators.
    rows_built = []
    maps_built = []
    differential_rows = WeilAlgebra.differential_rows
    multiplication_map = WeilAlgebra.multiplication_map

    def counting(self, f):
        rows_built.append(f)
        return differential_rows(self, f)

    def spy(self, w):
        frame, inside = sys._getframe(1), False
        while frame is not None:
            inside = inside or frame.f_code.co_name == "differential_rows"
            frame = frame.f_back
        maps_built.append(inside)
        return multiplication_map(self, w)

    monkeypatch.setattr(WeilAlgebra, "differential_rows", counting)
    monkeypatch.setattr(WeilAlgebra, "multiplication_map", spy)
    _run(['{"op": "stability", "of": "A", "ideal": ["x"]}'])
    assert rows_built
    assert maps_built  # the variable maps of the saturation and the m*I check
    assert not any(maps_built)


# -- the Leibniz system over every generator, not only the minimal ones ---------


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_derivations_kill_every_ideal_generator(algebra):
    for images in derivation_space(algebra).sparse_images:
        for f in algebra.ideal_generators:
            assert not any(leibniz_image(algebra, images, f))


@pytest.fixture(scope="module")
def rank_over_qq():
    """Rank of a list of Fraction rows, by sympy's DomainMatrix over QQ."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def rank(rows, ncols):
        entries = [[QQ(a.numerator, a.denominator) for a in r] for r in rows]
        return DomainMatrix(entries, (len(rows), ncols), QQ).rank() if rows else 0

    return rank


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_dimension_is_the_nullity_over_every_generator(rank_over_qq, algebra):
    # Unknown i*d + b is the coefficient of a_b in delta(x_i); each generator g
    # gives d equations, the coordinates of sum_i [dg/dx_i] * delta(x_i).
    n, bound, d = algebra.n, algebra.window_bound, algebra.dimension
    rows = []
    for f in algebra.ideal_generators:
        columns = [
            algebra.project_polynomial(
                f.derivative(i) * TruncatedPolynomial.monomial(n, bound, exp)
            ).coordinates
            for i in range(n)
            for exp in algebra.basis_monomials
        ]
        rows += [[col[g] for col in columns] for g in range(d)]
    assert derivation_space(algebra).dimension == n * d - rank_over_qq(rows, n * d)


# -- the unit rows: delta(m) <= m, so top-degree generators add no constraint ----


def dense_kernel(rows, width):
    """Basis of {v : row . v = 0 for every row}, by Gauss-Jordan elimination
    on dense Fraction rows."""
    reduced, pivot_cols = [], []
    for row in rows:
        v = [Fraction(x) for x in row]
        for p, r in zip(pivot_cols, reduced):
            if v[p]:
                c = v[p]
                v = [a - c * b for a, b in zip(v, r)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        v = [x / v[lead] for x in v]
        for k, r in enumerate(reduced):
            if r[lead]:
                c = r[lead]
                reduced[k] = [a - c * b for a, b in zip(r, v)]
        reduced.append(v)
        pivot_cols.append(lead)
    kernel = []
    for free in (j for j in range(width) if j not in pivot_cols):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for p, r in zip(pivot_cols, reduced):
            v[p] = -r[free]
        kernel.append(v)
    return kernel


def leibniz_kernel(algebra):
    """Der(A, A) as the kernel of the Leibniz rows of every ideal generator,
    with no row assumed: row g of generator f holds the a_g coordinates of
    (d f / d x_i) * a_b, computed by ``ref_leibniz_columns``."""
    d, width = algebra.dimension, algebra.n * algebra.dimension
    rows = []
    for f in algebra.ideal_generators:
        columns = ref_leibniz_columns(f, algebra.basis_monomials, algebra)
        rows += [[column.get(g, 0) for column in columns] for g in range(d)]
    return canonical_basis(dense_kernel(rows, width), width)


def assert_relations_match_the_leibniz_kernel(algebra):
    assert derivation_space(algebra).relations == leibniz_kernel(algebra)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_relations_are_the_kernel_over_every_generator(algebra):
    assert_relations_match_the_leibniz_kernel(algebra)


@pytest.mark.parametrize("m, ell", [(1, 3), (2, 2), (3, 2)])
def test_free_algebra_relations_are_the_leibniz_kernel(m, ell):
    algebra = quotient_algebra(m, ell, [])
    assert all(
        all(sum(e) == algebra.order + 1 for e in f.coefficients)
        for f in algebra.minimal_generators
    )
    assert_relations_match_the_leibniz_kernel(algebra)
    assert derivation_space(algebra).dimension == m * (algebra.dimension - 1)


@pytest.mark.parametrize(
    "relations, degrees",
    [
        # Order 3: the minimal generators are x y, x^3 and y^4.
        (["x y", "x^3"], [2, 3, 4]),
        # Order 3: x^2 y and x^3 - y^3 have degree equal to the order, and
        # their Leibniz rows do constrain Der(A, A); one degree-4 monomial
        # joins them.
        (["x^2 y", "x^3 - y^3"], [3, 3, 4]),
    ],
)
def test_top_degree_generator_beside_lower_relations(relations, degrees):
    algebra = quotient_algebra(2, 3, [P(r, 2, 3) for r in relations])
    found = sorted(max(sum(e) for e in f.coefficients) for f in algebra.minimal_generators)
    assert algebra.order == 3 and found == degrees
    assert_relations_match_the_leibniz_kernel(algebra)


def test_order_zero_algebra_has_no_derivations():
    # A = R[x, y]/(x, y) = R: every generator is a top-degree monomial, and
    # the unit rows alone leave nothing.
    algebra = quotient_algebra(2, 1, [P("x", 2, 1), P("y", 2, 1)])
    assert (algebra.order, algebra.dimension) == (0, 1)
    assert_relations_match_the_leibniz_kernel(algebra)
    assert derivation_space(algebra).dimension == 0


# -- counted work: Leibniz rows are built only where a report reads them ---------


def _count_rows(monkeypatch) -> list:
    built = []
    differential_rows = WeilAlgebra.differential_rows

    def counting(self, f):
        built.append(f)
        return differential_rows(self, f)

    monkeypatch.setattr(WeilAlgebra, "differential_rows", counting)
    return built


@pytest.mark.parametrize("m, ell", [(2, 3), (3, 3), (4, 2)])
def test_free_derivation_solve_builds_no_leibniz_row(monkeypatch, m, ell):
    built = _count_rows(monkeypatch)
    algebra = quotient_algebra(m, ell, [])  # fresh: no cached derivations
    assert derivation_space(algebra).dimension == m * (algebra.dimension - 1)
    assert built == []


@pytest.mark.parametrize(
    "m, ell, relations, kept",
    [
        (2, 3, [], 0),
        (3, 3, [], 0),
        # The minimal generators are x y, x^3 and y^4; y^4 is above the order.
        (2, 3, ["x y", "x^3"], 2),
        (2, 3, ["x^2 y", "x^3 - y^3"], 2),
    ],
)
def test_derivation_solve_builds_generator_polynomials_below_the_top_degree_only(
    monkeypatch, m, ell, relations, kept
):
    algebra = quotient_algebra(m, ell, [P(r, m, ell) for r in relations])
    built = []
    from_sparse = TruncatedPolynomial.from_sparse
    monkeypatch.setattr(
        TruncatedPolynomial,
        "from_sparse",
        classmethod(lambda cls, n, bound, row: built.append(row) or from_sparse(n, bound, row)),
    )
    derivation_space(algebra)
    assert len(built) == kept
    assert_relations_match_the_leibniz_kernel(algebra)


def test_stability_builds_rows_for_the_generators_and_the_witness_on_read(monkeypatch):
    built = _count_rows(monkeypatch)
    algebra = _run(['{"op": "stability", "of": "A", "ideal": ["x1"]}']).algebra
    assert len(built) == 1  # (x1) has one generator, and R_3^3 solves with none
    x = algebra.generator(0).coordinates
    ideal = canonical_basis(principal_ideal(algebra, x), algebra.dimension)
    del built[:]
    report = ideal_stability(algebra, ideal)
    assert not report.der_stable
    assert len(built) == 1
    witness = report.witness  # one row per row of the ideal, once
    assert witness is not None and len(built) == 1 + ideal.dimension
    assert report.witness == witness and len(built) == 1 + ideal.dimension



@pytest.mark.parametrize(
    "m, ell, relations",
    [
        (2, 3, ["x y", "x^3"]),
        (2, 3, ["x^2 y", "x^3 - y^3"]),
        (3, 2, ["x1 x2 - x3^2"]),
    ],
)
def test_derivation_solve_reuses_the_read_minimal_generators(monkeypatch, m, ell, relations):
    algebra = quotient_algebra(m, ell, [P(r, m, ell) for r in relations])
    generators = algebra.minimal_generators
    built = []
    from_sparse = TruncatedPolynomial.from_sparse
    monkeypatch.setattr(
        TruncatedPolynomial,
        "from_sparse",
        classmethod(lambda cls, n, bound, row: built.append(row) or from_sparse(n, bound, row)),
    )
    derivation_space(algebra)
    assert built == []
    assert algebra.minimal_generators is generators
    assert_relations_match_the_leibniz_kernel(algebra)


def test_minimal_generators_reuse_the_polynomials_the_solve_built(monkeypatch):
    algebra = quotient_algebra(2, 3, [P(r, 2, 3) for r in ["x y", "x^3"]])
    built = []
    from_sparse = TruncatedPolynomial.from_sparse
    monkeypatch.setattr(
        TruncatedPolynomial,
        "from_sparse",
        classmethod(lambda cls, n, bound, row: built.append(row) or from_sparse(n, bound, row)),
    )
    derivation_space(algebra)
    assert len(built) == 2  # x y and x^3; y^4 is above the order
    generators = algebra.minimal_generators
    assert len(built) == len(generators) == 3
    assert [set(g.coefficients) for g in generators] == [{(1, 1)}, {(3, 0)}, {(0, 4)}]
