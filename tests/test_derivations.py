"""Oracles for Der(A, A): the Leibniz action, ideal stability and the sparse
multiplication columns, plus a guard that the action is built only on demand.

Every expected value here is computed in this file: derivation matrices by
expanding delta(x^e) = sum_i e_i x^(e - 1_i) delta(x_i) with polynomial
arithmetic and projecting, and stability by dense elimination against the
ideal's reduced basis.  None of it goes through the package's sparse columns.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial
from weiljets.session import execute, parse_session
from weiljets.subspace import canonical_basis
from weiljets.weil import (
    derivation_space,
    free_truncated_algebra,
    ideal_stability,
    quotient_algebra,
)

from conftest import P

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def algebras(draw):
    """R_m^l, or a monomial or binomial quotient of it, for m, l <= 3."""
    m = draw(st.integers(1, 3))
    ell = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["free", "monomial", "binomial"]))
    exps = window(m, ell)[1:]
    if kind == "free" or not exps:
        return free_truncated_algebra(m, ell)
    if kind == "binomial" and len(exps) > 1:
        left, right = draw(st.lists(st.sampled_from(exps), min_size=2, max_size=2, unique=True))
        c = draw(rationals.filter(bool))
        gens = [
            TruncatedPolynomial.monomial(m, ell, left)
            - TruncatedPolynomial.monomial(m, ell, right, c)
        ]
    else:
        chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3, unique=True))
        gens = [TruncatedPolynomial.monomial(m, ell, e) for e in chosen]
    return quotient_algebra(m, ell, gens)


def oracle_matrix(algebra, images):
    """Matrix of the derivation x_i -> images[i] by polynomial Leibniz expansion."""
    n, bound, d = algebra.n, algebra.window_bound, algebra.dimension
    values = [algebra.element_polynomial(v) for v in images]
    cols = []
    for exp in algebra.basis_monomials:
        total = TruncatedPolynomial.zero(n, bound)
        for i, k in enumerate(exp):
            if k:
                lowered = tuple(e - (j == i) for j, e in enumerate(exp))
                total = total + (TruncatedPolynomial.monomial(n, bound, lowered) * values[i]).scale(k)
        cols.append(algebra.project_polynomial(total).coordinates)
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


def test_stability_builds_the_leibniz_action():
    ders = _run(['{"op": "stability", "of": "A", "ideal": ["x"]}'])
    assert "columns" in vars(ders)
    assert "matrices" not in vars(ders)
