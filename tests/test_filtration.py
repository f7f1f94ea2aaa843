"""The maximal-ideal filtration against an independent oracle, and what
building a Weil algebra pays for.

``WeilAlgebra`` reads m^k off the graded layout of its basis: the span of
the basis monomials of degree >= k.  The oracle here recomputes m^k from its
definition, the span of the classes of the monomials of degree >= k, with
sympy's DomainMatrix over QQ: the class of each window monomial e_c solves
e_c = (a combination of the defining ideal's rows) + (a combination of the
basis unit vectors), one inverse of the square matrix of those rows, and
m^k is the reduced row-echelon form of the classes.  It assumes nothing
about where the ideal's pivots lie.

The counted-work tests pin what the lazy parts of an algebra leave unbuilt:
no elimination besides the ideal saturation when an algebra is built and
its invariants are read, no multiplication table and no generator
polynomial for the algebra of a hat jet, and no derivation relations when
only the dimension of Der(A, A) is reported.
"""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings

from weiljets import session
from weiljets.jets import derived_jet, hat_ideal, jet_from_ideal
from weiljets.monomials import window
from weiljets.session import _op_info, execute, parse_session
from weiljets.subspace import dense
from weiljets.weil import derivation_space, quotient_algebra, tensor_product

from conftest import LADDER, P, algebras, ladder_jet, maximal_power


@pytest.fixture(scope="module")
def oracle():
    """The filtration of an algebra as the rref rows of m, m^2, ..., down to
    the first zero power, each row a tuple of Fractions."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def fractions(matrix):
        return [
            tuple(Fraction(int(a.numerator), int(a.denominator)) for a in r)
            for r in matrix.to_list()
        ]

    def filtration(algebra):
        size, d = algebra.window_dimension, algebra.dimension
        units = [{c: Fraction(1)} for c in algebra.basis_columns]
        spanning = [dense(r, size) for r in [*algebra.defining_ideal.rows.values(), *units]]
        assert len(spanning) == size
        entries = [[QQ(int(a.numerator), int(a.denominator)) for a in r] for r in spanning]
        # Column c of the inverse of the transpose holds the coordinates of e_c
        # over the spanning rows; the last d of them are the class of e_c.
        inverse = DomainMatrix(entries, (size, size), QQ).transpose().inv().to_list()
        classes = [[r[c] for r in inverse[size - d :]] for c in range(size)]
        degrees = [sum(e) for e in window(algebra.n, algebra.window_bound)]
        powers = []
        for k in range(1, algebra.window_bound + 2):
            high = [classes[c] for c in range(size) if degrees[c] >= k]
            rows = []
            if high:
                reduced, pivots = DomainMatrix(high, (len(high), d), QQ).rref()
                rows = fractions(reduced)[: len(pivots)]
            powers.append(rows)
            if not rows:
                return powers
        raise AssertionError("the filtration never reached zero")

    return filtration


def check_filtration(algebra, filtration):
    powers = filtration(algebra)
    d = algebra.dimension
    for k, rows in enumerate(powers, start=1):
        got = maximal_power(algebra, k)
        assert [tuple(dense(r, d)) for r in got.rows.values()] == rows, k
    assert maximal_power(algebra, len(powers) + 1).dimension == 0
    assert algebra.order == len(powers) - 1
    second = len(powers[1]) if len(powers) > 1 else 0
    assert algebra.width == len(powers[0]) - second
    assert algebra.filtration_dimensions == tuple(len(rows) for rows in powers)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_filtration_of_drawn_algebras(oracle, algebra):
    check_filtration(algebra, oracle)


@settings(max_examples=15, deadline=None)
@given(algebras(), algebras())
def test_filtration_of_tensor_products(oracle, a, b):
    assume(a.n + b.n <= 4)  # the oracle inverts a matrix the size of the window
    check_filtration(tensor_product(a, b), oracle)


# Presentations whose ideal rows span several degrees: the class of a pivot
# monomial of low degree lies on basis monomials of higher degree.
NON_HOMOGENEOUS = [
    (2, ["y - x^2"], 3),
    (2, ["y - x^2 - x^3"], 4),
    (2, ["x^2 - y^3", "x y"], 4),
    (3, ["z - x y", "y^2 - x^3"], 4),
    (2, ["y - 2 x^2", "x^3 - 3 y^2"], 3),
]


@pytest.mark.parametrize("n, gens, order", NON_HOMOGENEOUS)
def test_filtration_of_non_homogeneous_presentations(oracle, n, gens, order):
    check_filtration(quotient_algebra(n, order, [P(g, n, order) for g in gens]), oracle)


@pytest.mark.parametrize("n, gens, order", NON_HOMOGENEOUS[:2])
def test_filtration_of_tensor_products_of_non_homogeneous_presentations(oracle, n, gens, order):
    a = quotient_algebra(n, order, [P(g, n, order) for g in gens])
    b = quotient_algebra(1, 2, [])
    check_filtration(tensor_product(a, b), oracle)
    check_filtration(tensor_product(b, a), oracle)


@pytest.mark.parametrize("n, gens, order", [*LADDER[:4], NON_HOMOGENEOUS[3]])
def test_filtration_of_derived_and_hat_jets(oracle, n, gens, order):
    p = ladder_jet(n, gens, order)
    for jet in (p, derived_jet(p), hat_ideal(p), hat_ideal(derived_jet(p))):
        check_filtration(jet.quotient, oracle)


def test_filtration_at_a_base_point(oracle):
    # y + 2 = (x - 1)^2 at the point (1, -2).
    p = jet_from_ideal(2, [1, -2], [P("y - x^2 + 2 x + 1", 2)], 3)
    check_filtration(p.quotient, oracle)
    check_filtration(derived_jet(p).quotient, oracle)


@pytest.mark.parametrize(
    "n, bound, gens", [(1, 0, []), (2, 0, []), (2, 2, ["x", "y"]), (3, 2, ["x", "y - z^2", "z"])]
)
def test_filtration_of_the_rationals(oracle, n, bound, gens):
    algebra = quotient_algebra(n, bound, [P(g, n, bound) for g in gens])
    assert algebra.dimension == 1
    assert (algebra.order, algebra.width, algebra.filtration_dimensions) == (0, 0, (0,))
    check_filtration(algebra, oracle)
    assert algebra.generated_by([])


# -- counted work ------------------------------------------------------------------


@pytest.mark.parametrize("m, ell", [(1, 0), (1, 5), (2, 3), (3, 2), (4, 4)])
def test_a_free_algebra_is_built_with_no_elimination(inserts_outside_saturation, m, ell):
    algebra = quotient_algebra(m, ell, [])
    # R_m^l has C(m + l, m) monomials, C(m + k - 1, m) of them of degree < k.
    powers = tuple(comb(m + ell, m) - comb(m + k - 1, m) for k in range(1, ell + 2))
    assert (algebra.order, algebra.width, algebra.filtration_dimensions) == (ell, m if ell else 0, powers)
    assert tuple(maximal_power(algebra, k).dimension for k in range(1, ell + 2)) == powers
    assert inserts_outside_saturation == []


def test_a_quotient_reads_its_invariants_with_no_elimination(inserts_outside_saturation):
    algebra = quotient_algebra(3, 4, [P("z - x y", 3), P("y^2 - x^3", 3)])
    powers = tuple(maximal_power(algebra, k).dimension for k in range(1, algebra.order + 2))
    assert powers == algebra.filtration_dimensions
    assert algebra.width == powers[0] - powers[1]
    assert inserts_outside_saturation == []


def test_hat_builds_no_table_and_no_generator_polynomial(monkeypatch):
    built = []

    def recorded(p):
        hat = hat_ideal(p)
        built.append(hat)
        return hat

    monkeypatch.setattr(session, "hat_ideal", recorded)
    text = json.dumps(
        {
            "bind": [{"jet": "p", "vars": 3, "generators": ["z - x y", "y^2 - x^3"], "order_hint": 4}],
            "run": [{"op": "hat", "of": "p"}],
        }
    )
    report = execute(parse_session(text))
    assert report.exit_status == 0 and len(built) == 1
    lazy = built[0].quotient.__dict__
    for name in ("_table", "_mult", "_mult_den", "_classes", "minimal_generators"):
        assert name not in lazy, name


@pytest.mark.parametrize("n, gens, order", NON_HOMOGENEOUS)
def test_info_counts_derivations_with_no_relation_built(n, gens, order):
    algebra = quotient_algebra(n, order, [P(g, n, order) for g in gens])
    summary = _op_info(algebra)
    ders = derivation_space(algebra)
    assert "relations" not in ders.__dict__
    assert summary["der_dim"] == ders.relations.dimension
