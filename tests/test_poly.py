from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets.errors import DimensionMismatchError
from weiljets.poly import (
    TruncatedPolynomial,
    as_fraction,
    format_polynomial,
    parse_polynomial,
    truncated_product,
    truncated_substitute,
)

from conftest import P


class TestParseFormat:
    def test_simple_terms(self):
        f = P("3/2 x1^2 x3 - y", 3)
        assert f.coefficient((2, 0, 1)) == Fraction(3, 2)
        assert f.coefficient((0, 1, 0)) == Fraction(-1)

    def test_aliases_match_numbered_names(self):
        assert P("x + 2 y", 2) == P("x1 + 2 x2", 2)

    def test_round_trip(self):
        for text in ["1 - x^2", "y - x^2", "3/2 x y + z^3", "x^2 + 2 x y + y^2"]:
            f = P(text, 3)
            assert parse_polynomial(format_polynomial(f), 3) == f

    def test_rejects_unknown_variable(self):
        with pytest.raises(ValueError):
            P("w + 1", 3)

    def test_format_orders_terms_by_degree(self):
        assert format_polynomial(P("x^2 + 1 + x", 1)) == "1 + x + x^2"


def fraction_or_error(text):
    """What ``Fraction`` makes of a stripped string: a value, or the error
    ``as_fraction`` must raise (a zero denominator is a ValueError)."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        return ValueError(f"zero denominator in {text.strip()!r}")
    except ValueError as exc:
        return exc


def assert_as_fraction_agrees(text):
    expected = fraction_or_error(text)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            as_fraction(text)
        assert str(err.value) == str(expected)
    else:
        result = as_fraction(text)
        assert type(result) is Fraction and result == expected


class TestAsFraction:
    # The fast path takes ASCII [+-]digits[/digits]; each other spelling must
    # still reach Fraction's parser and keep its value or its error.
    @pytest.mark.parametrize(
        "text",
        ["7", "-7", "+7", "007", "3/4", "-6/8", "+6/8", " 5/10 ", "\t-2/3\n", "-0/5",
         "3/0", "0/0", "-1/00", "1 / 2", " 1/ 2", "1_000", "1_0/2_0", "1.5", "-.5",
         "1e3", "1.5e-2", "\u0661\u0662", "\u0661/\u0662", "\u00b2", "1/2/3", "+", "-",
         "", "/", "1/", "/2", "+-1", "--1", "1/+2", "1/-2", "x", "1" * 5000],
        ids=lambda text: repr(text) if len(text) < 20 else f"{len(text)} digits",
    )
    def test_agrees_with_fraction(self, text):
        assert_as_fraction_agrees(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789+-/ _.e", max_size=8))
    def test_agrees_with_fraction_on_drawn_text(self, text):
        assert_as_fraction_agrees(text)


class TestProduct:
    def test_difference_of_squares(self):
        f = P("1 + x", 1, 2)
        g = P("1 - x", 1, 2)
        assert truncated_product(f, g, 2) == P("1 - x^2", 1, 2)

    def test_nilpotent_square(self):
        x = P("x", 1, 1)
        assert truncated_product(x, x, 1).is_zero()

    def test_two_variable_square(self):
        f = P("x + y", 2, 2)
        assert truncated_product(f, f, 2) == P("x^2 + 2 x y + y^2", 2, 2)

    def test_random_point_cross_check(self):
        # Evaluate both sides at rational points; truncation drops degree > 2.
        f = P("x + y", 2, 2)
        prod = truncated_product(f, f, 2)
        for pt in [(1, 2), (Fraction(1, 3), Fraction(-2, 5)), (0, 7), (2, 2), (-1, 4)]:
            assert prod.evaluate(pt) == f.evaluate(pt) ** 2

    def test_variable_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            truncated_product(P("x", 1), P("x + y", 2), 2)


class TestSubstitute:
    def test_linear_pick_out(self):
        f = P("y", 2, 3)
        images = [P("x", 2, 3), P("y - x^2", 2, 3)]
        assert truncated_substitute(f, images, 3) == P("y - x^2", 2, 3)

    def test_expansion(self):
        f = P("x^2", 2, 2)
        images = [P("x + y", 2, 2), P("y", 2, 2)]
        assert truncated_substitute(f, images, 2) == P("x^2 + 2 x y + y^2", 2, 2)

    def test_high_degree_terms_vanish(self):
        f = P("x^3", 1, 3)
        images = [P("x + x^2", 1, 3)]
        assert truncated_substitute(f, images, 3) == P("x^3", 1, 3)

    def test_identity_substitution_fixes_polynomials(self):
        f = P("1 + 2 x - 3/4 y^2 + x y", 2, 3)
        images = [P("x", 2, 3), P("y", 2, 3)]
        assert truncated_substitute(f, images, 3) == f


def rationals():
    return st.fractions(max_denominator=6, min_value=-4, max_value=4)


def small_polys(n_vars=2, bound=3):
    exps = st.tuples(*[st.integers(0, bound) for _ in range(n_vars)]).filter(
        lambda e: sum(e) <= bound
    )
    return st.dictionaries(exps, rationals(), max_size=4).map(
        lambda d: TruncatedPolynomial(n_vars, bound, d)
    )


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_product_is_associative(f, g, h):
    left = truncated_product(truncated_product(f, g, 3), h, 3)
    right = truncated_product(f, truncated_product(g, h, 3), 3)
    assert left == right


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_product_is_commutative(f, g):
    assert truncated_product(f, g, 3) == truncated_product(g, f, 3)


@settings(max_examples=25, deadline=None)
@given(small_polys())
def test_shift_then_unshift_is_identity(f):
    point = (Fraction(1, 2), Fraction(-2))
    back = f.shift(point).shift(tuple(-c for c in point))
    assert back == f


@settings(max_examples=25, deadline=None)
@given(small_polys(), st.integers(0, 3))
def test_bounded_shift_is_the_truncated_shift(f, bound):
    point = (Fraction(1, 2), Fraction(-2))
    assert f.shift(point, bound) == f.shift(point).truncate(bound)


@settings(max_examples=25, deadline=None)
@given(small_polys(n_vars=1, bound=4))
def test_substitution_composition(f):
    # f((s o t)(x)) agrees with (f o s) o t up to the shared truncation.
    s = [P("x + x^2", 1, 4)]
    t = [P("x - x^3", 1, 4)]
    st_comp = [truncated_substitute(s[0], t, 4)]
    direct = truncated_substitute(f, st_comp, 4)
    stepwise = truncated_substitute(truncated_substitute(f, s, 4), t, 4)
    assert direct == stepwise
