"""Oracles for Der(A, A): the Leibniz action, ideal stability, the Leibniz
system over every ideal generator and the sparse multiplication columns, plus
a guard that the action is built only on demand.

Every expected value here is computed in this file: derivation matrices and
images of generators by expanding delta(x^e) = sum_i e_i x^(e - 1_i) delta(x_i)
with polynomial arithmetic and projecting, stability by dense elimination
against the ideal's reduced basis, and the dimension of Der(A, A) as a nullity
by sympy.  None of it goes through the package's sparse columns or its
differential map.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.poly import TruncatedPolynomial
from weiljets.session import execute, parse_session
from weiljets.subspace import canonical_basis
from weiljets.weil import (
    derivation_space,
    free_truncated_algebra,
    ideal_stability,
    quotient_algebra,
)

from conftest import P, algebras, rationals

def leibniz_image(algebra, images, f):
    """delta(f) for the derivation x_i -> images[i], term by term:
    delta(x^e) = sum_i e_i x^(e - 1_i) delta(x_i), in polynomial arithmetic."""
    n, bound = algebra.n, algebra.window_bound
    values = [algebra.element_polynomial(v) for v in images]
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
    for p, row in zip(ideal.pivots, ideal.basis):
        if v[p]:
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
    return v


def reference_stability(algebra, ideal, matrices):
    """(der_stable, witness, projected_derivations) from dense matrices."""
    d = algebra.dimension
    for k, m in enumerate(matrices):
        for row in ideal.basis:
            img = tuple(sum((m[g][b] * row[b] for b in range(d)), Fraction(0)) for g in range(d))
            if any(remainder(ideal, img)):
                return False, (k, img), None
    complement = [c for c in range(d) if c not in ideal.pivots]
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
    return [algebra.mult_coords(coords, u) for u in units]


def element(algebra):
    return st.lists(rationals, min_size=algebra.dimension, max_size=algebra.dimension)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_matrices_match_polynomial_leibniz(algebra):
    ders = derivation_space(algebra)
    assert len(ders.matrices) == ders.dimension
    for images, matrix in zip(ders.generator_images, ders.matrices):
        assert matrix == oracle_matrix(algebra, images)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.data())
def test_stability_matches_dense_reference(algebra, data):
    d = algebra.dimension
    gens = data.draw(st.lists(element(algebra), min_size=1, max_size=2))
    ideal = canonical_basis([v for g in gens for v in principal_ideal(algebra, g)], d)
    ders = derivation_space(algebra)
    matrices = [oracle_matrix(algebra, images) for images in ders.generator_images]
    report = ideal_stability(algebra, ideal)
    expected = reference_stability(algebra, ideal, matrices)
    assert (report.der_stable, report.witness, report.projected_derivations) == expected


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
    matrices = [oracle_matrix(algebra, images) for images in ders.generator_images]
    report = ideal_stability(algebra, ideal)
    expected = reference_stability(algebra, ideal, matrices)
    assert (report.der_stable, report.witness, report.projected_derivations) == expected


def test_stability_witness_for_unstable_ideal():
    # In R_2^2 the derivation y d/dx carries x outside the ideal (x).
    a = free_truncated_algebra(2, 2)
    x = a.generator(0).coordinates
    ideal = canonical_basis(principal_ideal(a, x), a.dimension)
    ders = derivation_space(a)
    matrices = [oracle_matrix(a, images) for images in ders.generator_images]
    report = ideal_stability(a, ideal)
    assert not report.der_stable
    assert report.projected_derivations is None
    assert (False, report.witness, None) == reference_stability(a, ideal, matrices)


def test_stability_checks_every_ideal_generator():
    # In R_2^2 every derivation keeps x^2 inside (x^2, xy), but y d/dx
    # carries the second generator xy to y^2, outside it.
    a = free_truncated_algebra(2, 2)
    units = [[Fraction(int(i == j)) for j in range(a.dimension)] for i in range(a.dimension)]
    x2, xy = (units[a.basis_monomials.index(e)] for e in [(2, 0), (1, 1)])
    ideal = canonical_basis(principal_ideal(a, x2) + principal_ideal(a, xy), a.dimension)
    ders = derivation_space(a)
    matrices = [oracle_matrix(a, images) for images in ders.generator_images]
    report = ideal_stability(a, ideal)
    assert not report.der_stable
    assert (False, report.witness, None) == reference_stability(a, ideal, matrices)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.data())
def test_multiplication_map_is_transpose_of_left_mult_rows(algebra, data):
    w = data.draw(element(algebra))
    rows = algebra.left_mult_rows(w)
    columns = algebra.multiplication_map(w)
    d = algebra.dimension
    assert len(columns) == d
    for b, column in enumerate(columns):
        assert all(column.values())
        assert [column.get(g, 0) for g in range(d)] == [rows[g][b] for g in range(d)]


def test_multiplication_map_drops_cancelled_entries():
    # In R[x, y]/(x^2 - 2xy) the element x - 2y kills x: both products land
    # on the same class and cancel, and the column must come out empty.
    a = quotient_algebra(2, 2, [P("x^2 - 2 x y", 2, 2)])
    w = (a.generator(0) - a.generator(1) * 2).coordinates
    columns = a.multiplication_map(w)
    assert columns[a.basis_monomials.index((1, 0))] == {}
    assert all(all(column.values()) for column in columns)


def _run(ops):
    session = parse_session(
        '{"bind": [{"algebra": "A", "vars": 3, "bound": 3}], "run": ['
        + ", ".join(ops)
        + "]}"
    )
    report = execute(session)
    assert all(entry["ok"] for entry in report.results)
    return session.algebras["A"]._derivations


def test_reports_leave_the_leibniz_action_unbuilt():
    ders = _run(['{"op": "info", "of": "A"}', '{"op": "describe", "of": "A"}',
                 '{"op": "derivations", "of": "A"}'])
    assert ders is not None
    assert "columns" not in vars(ders)
    assert "matrices" not in vars(ders)


def test_stability_builds_the_leibniz_action_only_for_the_projection():
    ders = _run(['{"op": "stability", "of": "A", "ideal": ["x"]}',
                 '{"op": "stability", "of": "A", "ideal": ["x", "y", "z"]}'])
    assert "columns" not in vars(ders)
    assert "matrices" not in vars(ders)
    report = ideal_stability(ders.algebra, ders.algebra.maximal_ideal)
    assert report.der_stable
    assert "columns" not in vars(ders)
    assert report.projected_derivations is not None
    assert "columns" in vars(ders)
    assert "matrices" not in vars(ders)


# -- the Leibniz system over every generator, not only the minimal ones ---------


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_derivations_kill_every_ideal_generator(algebra):
    n, bound = algebra.n, algebra.window_bound
    for images in derivation_space(algebra).generator_images:
        for gen in algebra.ideal_generators:
            f = TruncatedPolynomial.from_vector(n, bound, gen)
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
    for gen in algebra.ideal_generators:
        f = TruncatedPolynomial.from_vector(n, bound, gen)
        columns = [
            algebra.project_polynomial(
                f.derivative(i) * TruncatedPolynomial.monomial(n, bound, exp)
            ).coordinates
            for i in range(n)
            for exp in algebra.basis_monomials
        ]
        rows += [[col[g] for col in columns] for g in range(d)]
    assert derivation_space(algebra).dimension == n * d - rank_over_qq(rows, n * d)
