import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets import poly
from weiljets.errors import DimensionMismatchError
from weiljets.poly import (
    TruncatedPolynomial,
    as_fraction,
    format_polynomial,
    parse_polynomial,
    truncated_product,
    truncated_substitute,
)
from weiljets.weil import free_truncated_algebra

from conftest import P, is_canonical_scalar


# -- a reference parser: one Fraction per sign and per coefficient token --------

_REF_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([a-zA-Z]\w*)|(\^|\*\*)|(\*)|([+-]))")


def reference_parse(text, n, bound=None):
    """(bound, {exponent: coefficient}) of the term syntax, or the error the
    parser must raise: the same walk as the documented grammar, with every
    sign, token and product a ``Fraction``."""
    names = {f"x{i + 1}": i for i in range(n)}
    if n <= 3:
        names.update({alias: i for i, alias in enumerate("xyz"[:n])})
    coeffs, sign, pending, pos = {}, Fraction(1), None, 0

    def flush():
        if pending is not None:
            exp = tuple(pending[1])
            coeffs[exp] = coeffs.get(exp, Fraction(0)) + pending[0]

    text = text.strip()
    if not text:
        return ValueError("empty polynomial text")
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            return ValueError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
        pos = m.end()
        number, name, power_op, times, sign_text = m.groups()
        if sign_text:
            flush()
            pending, sign = None, Fraction(1 if sign_text == "+" else -1)
        elif times:
            if pending is None:
                return ValueError("unexpected '*'")
        elif power_op:
            return ValueError("unexpected exponent operator")
        elif number:
            try:
                value = Fraction(number)
            except ZeroDivisionError:
                return ValueError(f"zero denominator in {number!r}")
            except ValueError as exc:  # more digits than int reads
                return exc
            if pending is None:
                pending, sign = [sign * value, [0] * n], Fraction(1)
            else:
                pending[0] *= value
        else:
            if name not in names:
                return ValueError(f"unknown variable {name!r} for {n} variables")
            power = 1
            pm = _REF_TOKEN.match(text, pos)
            if pm and pm.group(3):
                em = _REF_TOKEN.match(text, pm.end())
                if not em or not em.group(1) or "/" in em.group(1):
                    return ValueError("exponent must be a non-negative integer")
                power, pos = int(em.group(1)), em.end()
            if pending is None:
                pending, sign = [sign, [0] * n], Fraction(1)
            pending[1][names[name]] += power
    flush()
    if bound is None:
        bound = max((sum(e) for e in coeffs), default=0)
    return bound, {e: c for e, c in coeffs.items() if c and sum(e) <= bound}


# Well-formed pieces, then pieces that make an error where they land.  The
# digits include Arabic-Indic and fullwidth ones, which \d also matches.
_PIECES = ["0", "1", "2", "12", "3/4", "6/8", "0/5", "\u0663", "\u0661/\u0662", "\uff15",
           "x", "y", "z", "x1", "x2", "x4", "x^2", "y^3", "x**2", "*", "+", "-"]
_FAULTS = ["3/0", "3/\u0660", "^", "**", "w", "@", "x^y", "x^1/2"]


def dense_text(count):
    """``count`` terms in x and y, every monomial of the layout in turn, with
    mixed signs, zero and fractional coefficients and explicit powers."""
    exps = [(i, d - i) for d in range(count) for i in range(d, -1, -1)][:count]
    return " ".join(
        f"{'-' if k % 3 else '+'} {k % 7}/{k % 5 + 1} x^{i} y^{j}" for k, (i, j) in enumerate(exps)
    )


def _texts(pieces):
    return st.lists(
        st.tuples(st.sampled_from(pieces), st.sampled_from(["", " "])), max_size=9
    ).map(lambda parts: "".join(p + gap for p, gap in parts))


class TestParseFormat:
    def test_simple_terms(self):
        f = P("3/2 x1^2 x3 - y", 3)
        assert f.coefficients == {(2, 0, 1): Fraction(3, 2), (0, 1, 0): Fraction(-1)}

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

    @pytest.mark.parametrize(
        "text", ["2 x - 2 x + y^2", "x^2 - x^2 + 3/6 x", "-3 * 4/6 x y 5", "3/0 x", "x ** 2",
                 "**", "\u0663/\u0664 x", "x^\u0662", "1" * 5000 + " x", "2/" + "\u0661" * 4400,
                 "@ x + 1", "x + 1 @", "x +  \t@ y", "x^ @", "x y^2 ?", dense_text(2000)],
        ids=lambda text: repr(text) if len(text) < 20 else f"{len(text)} characters",
    )
    def test_agrees_with_the_reference_parser(self, text):
        assert_parse_agrees(text, 2, None)

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(_texts(_PIECES), _texts(_PIECES + _FAULTS)),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_agrees_with_the_reference_parser_on_drawn_text(self, text, n, bound):
        assert_parse_agrees(text, n, bound)

    @pytest.mark.parametrize(
        "text, n, bound", [("x", 1, -1), ("0", 2, -3), ("1", -1, None), ("1", -2, 2)]
    )
    def test_negative_count_or_bound_keeps_its_error(self, text, n, bound):
        message = "variable count and degree bound must be non-negative"
        with pytest.raises(ValueError, match=message):
            TruncatedPolynomial(n, -1 if bound is None else bound, {})
        with pytest.raises(ValueError, match=message):
            parse_polynomial(text, n, bound)

    def test_no_coefficient_is_validated_twice(self, monkeypatch):
        # Zero and above-bound terms are dropped by the parser itself.
        seen = []
        monkeypatch.setattr(poly, "as_fraction", lambda value: seen.append(value) or value)
        f = parse_polynomial("3/2 x^2 y - x + x + 2 x y - y^3 - 1/2", 2, 2)
        assert seen == []
        assert f.coefficients == {(1, 1): Fraction(2), (0, 0): Fraction(-1, 2)}


def assert_parse_agrees(text, n, bound):
    expected = reference_parse(text, n, bound)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            parse_polynomial(text, n, bound)
        assert str(err.value) == str(expected)
    else:
        f = parse_polynomial(text, n, bound)
        assert (f.variable_count, f.degree_bound, f.coefficients) == (n, *expected)


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
        assert is_canonical_scalar(result) and result == expected


class Int(int):
    pass


class Str(str):
    pass


class Half(Fraction):
    pass


HALF = Half(1, 2)


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

    # The exact types int, str and Fraction are dispatched first; every other
    # value, subclasses included, keeps its result or its error and message.
    # Integral input comes back as a plain int, bools and int subclasses too.
    @pytest.mark.parametrize(
        "value, expected",
        [(True, 1), (Int(7), 7), (HALF, HALF), (Str(" -6/8 "), Fraction(-3, 4)),
         (1.5, TypeError("floating-point input is not allowed; pass 'p/q' strings")),
         (None, TypeError("cannot interpret None as an exact rational")),
         (b"1", TypeError("cannot interpret b'1' as an exact rational"))],
        ids=["bool", "int subclass", "Fraction subclass", "str subclass", "float", "None", "bytes"],
    )
    def test_non_exact_types_keep_their_route(self, value, expected):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as err:
                as_fraction(value)
            assert str(err.value) == str(expected)
        else:
            result = as_fraction(value)
            assert result == expected and type(result) is type(expected)
            assert (result is value) == (value is HALF)

    def test_element_keeps_fractions_and_rejects_floats(self):
        algebra = free_truncated_algebra(1, 2)
        third = Fraction(1, 3)
        assert algebra.element([third, "2", 0]).row == {0: third, 1: Fraction(2)}
        assert algebra.element([third, "2", 0]).row[0] is third
        with pytest.raises(TypeError, match="floating-point"):
            algebra.element([third, 1.5, 0])


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
