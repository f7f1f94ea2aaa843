from fractions import Fraction

import pytest
from hypothesis import strategies as st

from weiljets.monomials import window
from weiljets.poly import TruncatedPolynomial, parse_polynomial
from weiljets.weil import quotient_algebra


def P(text, n, bound=None):
    return parse_polynomial(text, n, bound)


def Q(value):
    return Fraction(value)


@pytest.fixture
def parse():
    return P


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def presentations(draw):
    """(m, l, generators) of R_m^l, or of a monomial or binomial quotient of
    it, for m, l <= 3."""
    m = draw(st.integers(1, 3))
    ell = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["free", "monomial", "binomial"]))
    exps = window(m, ell)[1:]
    if kind == "free" or not exps:
        return m, ell, []
    if kind == "binomial" and len(exps) > 1:
        left, right = draw(st.lists(st.sampled_from(exps), min_size=2, max_size=2, unique=True))
        c = draw(rationals.filter(bool))
        return m, ell, [
            TruncatedPolynomial.monomial(m, ell, left)
            - TruncatedPolynomial.monomial(m, ell, right, c)
        ]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3, unique=True))
    return m, ell, [TruncatedPolynomial.monomial(m, ell, e) for e in chosen]


def algebras():
    """The quotient algebras of :func:`presentations`."""
    return presentations().map(lambda p: quotient_algebra(*p))
