"""Truncated multivariate polynomials with exact rational coefficients.

A polynomial is a sparse mapping from exponent tuples to ``Fraction``
coefficients together with a degree bound; every operation discards
monomials beyond the bound of the result.  Coefficients are never floats,
so equality of polynomials (and of everything built on top of them) is
exact.

The text syntax accepted by :func:`parse_polynomial` covers terms like
``3/2 x1^2 x3 - y``: rationals written ``p/q``, variables ``x1 .. xn`` with
the aliases ``x, y, z`` available when there are at most three variables,
and ``^`` (or ``**``) for powers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import DimensionMismatchError
from .monomials import Exponent, _check_window, window, window_index

Scalar = Fraction | int
_K = TypeVar("_K", bound=Hashable)
_T = TypeVar("_T")
_F = TypeVar("_F")

_ZERO = Fraction(0)


def _common_denominator(
    rows: Iterable[Iterable[tuple[_K, Scalar]]],
) -> tuple[list[list[tuple[_K, int]]], int]:
    """Rows of ``(key, value)`` pairs as integer numerators over one denominator.

    The denominator is the lcm of every value's denominator, so each value
    equals its numerator divided by it exactly; the keys and their order are
    kept.  This is the entry to every integer-numerator kernel.
    """
    rows = [list(row) for row in rows]
    den = lcm(*(c.denominator for row in rows for _, c in row))
    return [[(k, c.numerator * (den // c.denominator)) for k, c in row] for row in rows], den


class _Powers:
    """The ring morphism x_i -> factors[i], on monomials and on polynomials.

    The package keeps every product integer: the factors are numerators over
    one denominator, prepared once in whatever form ``mul`` reads fastest, so
    a product of k factors is a numerator over ``scale**k``.  :meth:`image`
    and :meth:`row` read a product as ``(key, numerator)`` pairs.  ``firsts[i]``
    is factors[i] as a product, so no first power costs a ``mul``.
    """

    __slots__ = ("_cache", "_factors", "_mul", "_scale")

    def __init__(
        self, one: _T, factors: Sequence[_F], mul: Callable[[_T, _F], _T], scale: int, firsts: list
    ):
        self._cache: dict[Exponent, _T] = {(0,) * len(factors): one}
        self._cache.update((_unit(len(factors), i), first) for i, first in enumerate(firsts))
        self._factors = factors
        self._mul = mul
        self._scale = scale

    def product(self, exp: Exponent) -> _T:
        """Memoized prod_i factors[i]^exp[i].

        Each new exponent costs one ``mul(product, factor)``: it lowers its
        first nonzero entry and multiplies the cached product of the lowered
        exponent by that factor.  A miss walks down to the nearest cached
        exponent and multiplies back up, so a high exponent needs no
        recursion.  Every exponent walked lies in the window of the requested
        degree, so a degree whose window is above ``MAX_WINDOW`` raises
        ``WindowTooLargeError`` before the walk: that caps both the products
        made and the cache.
        """
        cache = self._cache
        out = cache.get(exp)
        if out is not None:
            return out
        _check_window(len(exp), sum(exp))
        missing: list[tuple[Exponent, int]] = []
        while out is None:
            i = next(k for k, e in enumerate(exp) if e)
            missing.append((exp, i))
            exp = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
            out = cache.get(exp)
        mul, factors = self._mul, self._factors
        for exp, i in reversed(missing):
            out = cache[exp] = mul(out, factors[i])
        return out

    def image(self, terms: Iterable[tuple[Exponent, Scalar]]) -> tuple[dict, int]:
        """Numerators and their denominator of sum_e c_e x^e under the morphism.

        The products meet the coefficients once, at the top degree: a product
        of degree k is weighted by ``scale**(top - k)``, so every numerator
        lies over the coefficients' common denominator times ``scale**top``.
        """
        (row,), den = _common_denominator([terms])
        top = max((sum(e) for e, _ in row), default=0)
        scale = self._scale
        acc: dict = {}
        get = acc.get
        for e, c in row:
            w = c * scale ** (top - sum(e))
            for k, v in self.product(e):
                acc[k] = get(k, 0) + w * v
        return acc, den * scale**top

    def row(self, exp: Exponent) -> dict:
        """The image of x^exp as ``{key: Fraction}``, zero entries dropped."""
        den = self._scale ** sum(exp)
        return {k: Fraction(v, den) for k, v in self.product(exp) if v}


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings; floats are rejected.

    The exact types ``Fraction`` and ``str`` are tested first: ``isinstance``
    against ``Fraction`` goes through its ABC, and session coordinates are
    strings.  Subclasses take the same routes as before.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is not str:
        if isinstance(value, float):
            raise TypeError("floating-point input is not allowed; pass 'p/q' strings")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if not isinstance(value, str):
            raise TypeError(f"cannot interpret {value!r} as an exact rational")
    text = value.strip()
    # ASCII [+-]digits[/digits] is split into ints; every other spelling
    # goes through Fraction's own parser, so it keeps its value or error.
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    fast = text.isascii() and digits.isdigit() and (not slash or den.isdigit())
    try:
        return Fraction(int(num), int(den) if slash else 1) if fast else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class TruncatedPolynomial:
    """Polynomial of bounded degree; immutable by convention."""

    __slots__ = ("variable_count", "degree_bound", "coefficients")

    def __init__(
        self,
        variable_count: int,
        degree_bound: int,
        coefficients: Mapping[Exponent, Scalar] | None = None,
    ):
        if variable_count < 0 or degree_bound < 0:
            raise ValueError("variable count and degree bound must be non-negative")
        clean: dict[Exponent, Fraction] = {}
        for exp, raw in (coefficients or {}).items():
            if len(exp) != variable_count:
                raise DimensionMismatchError(
                    f"exponent {exp} does not have {variable_count} entries"
                )
            if sum(exp) > degree_bound:
                continue
            c = as_fraction(raw)
            if c:
                clean[exp] = c
        self.variable_count = variable_count
        self.degree_bound = degree_bound
        self.coefficients = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_numerators(
        cls, variable_count: int, degree_bound: int, numerators: Mapping[Exponent, int], den: int
    ) -> "TruncatedPolynomial":
        """Trusted constructor: exponents already fit the ring and the bound.

        Each nonzero ``numerators[e] / den`` becomes one ``Fraction``; nothing
        is validated again.
        """
        return cls._from_fractions(
            variable_count,
            degree_bound,
            {e: Fraction(c, den) for e, c in numerators.items() if c},
        )

    @classmethod
    def _from_fractions(
        cls, variable_count: int, degree_bound: int, coefficients: dict[Exponent, Fraction]
    ) -> "TruncatedPolynomial":
        """Trusted constructor: ``coefficients`` are nonzero Fractions at
        exponents that fit the ring and the bound; the dict is kept as it is."""
        poly = object.__new__(cls)
        poly.variable_count = variable_count
        poly.degree_bound = degree_bound
        poly.coefficients = coefficients
        return poly

    @classmethod
    def zero(cls, variable_count: int, degree_bound: int) -> "TruncatedPolynomial":
        return cls(variable_count, degree_bound, {})

    @classmethod
    def constant(
        cls, variable_count: int, degree_bound: int, value: Scalar
    ) -> "TruncatedPolynomial":
        return cls(variable_count, degree_bound, {(0,) * variable_count: value})

    @classmethod
    def variable(
        cls, variable_count: int, degree_bound: int, index: int
    ) -> "TruncatedPolynomial":
        if not 0 <= index < variable_count:
            raise DimensionMismatchError(
                f"variable index {index} out of range for {variable_count} variables"
            )
        exp = [0] * variable_count
        exp[index] = 1
        return cls(variable_count, degree_bound, {tuple(exp): 1})

    @classmethod
    def monomial(
        cls, variable_count: int, degree_bound: int, exponent: Exponent, value: Scalar = 1
    ) -> "TruncatedPolynomial":
        return cls(variable_count, degree_bound, {tuple(exponent): value})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coefficients

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.coefficients:
            return 0
        return max(sum(e) for e in self.coefficients)

    def constant_term(self) -> Fraction:
        return self.coefficients.get((0,) * self.variable_count, _ZERO)

    def terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in the canonical layout order.

        The layout sorts by degree, then by exponent descending; two stable
        sorts with builtin keys give that order without a key tuple per term
        and without allocating the window of the polynomial's degree.
        """
        coefficients = self.coefficients
        exps = sorted(coefficients, reverse=True)
        exps.sort(key=sum)
        return [(e, coefficients[e]) for e in exps]

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.coefficients.get(tuple(exponent), _ZERO)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "TruncatedPolynomial") -> None:
        if self.variable_count != other.variable_count:
            raise DimensionMismatchError(
                f"variable counts differ: {self.variable_count} vs {other.variable_count}"
            )

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check_compatible(other)
        bound = min(self.degree_bound, other.degree_bound)
        out = dict(self.coefficients)
        for exp, c in other.coefficients.items():
            out[exp] = out.get(exp, _ZERO) + c
        return TruncatedPolynomial(self.variable_count, bound, out)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-other)

    def __neg__(self) -> "TruncatedPolynomial":
        return TruncatedPolynomial(
            self.variable_count,
            self.degree_bound,
            {e: -c for e, c in self.coefficients.items()},
        )

    def scale(self, value: Scalar) -> "TruncatedPolynomial":
        c = as_fraction(value)
        return TruncatedPolynomial(
            self.variable_count,
            self.degree_bound,
            {e: c * v for e, v in self.coefficients.items()},
        )

    def __mul__(self, other):
        if isinstance(other, TruncatedPolynomial):
            return truncated_product(
                self, other, min(self.degree_bound, other.degree_bound)
            )
        return self.scale(other)

    __rmul__ = __mul__

    def truncate(self, bound: int) -> "TruncatedPolynomial":
        return TruncatedPolynomial(self.variable_count, bound, self.coefficients)

    def with_bound(self, bound: int) -> "TruncatedPolynomial":
        """Same terms under a (possibly larger) bound."""
        if bound < self.degree():
            raise ValueError("with_bound would drop terms; use truncate")
        return TruncatedPolynomial(self.variable_count, bound, self.coefficients)

    def derivative(self, index: int) -> "TruncatedPolynomial":
        """Partial derivative with respect to variable ``index``; each
        coefficient ``k * c`` is one Fraction built from the numerators."""
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.coefficients.items():
            k = exp[index]
            if k == 0:
                continue
            lowered = list(exp)
            lowered[index] -= 1
            num, den = k * c.numerator, c.denominator
            out[tuple(lowered)] = Fraction(num) if den == 1 else Fraction(num, den)
        return TruncatedPolynomial._from_fractions(self.variable_count, self.degree_bound, out)

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(values) != self.variable_count:
            raise DimensionMismatchError("wrong number of coordinates")
        vals = [as_fraction(v) for v in values]
        total = _ZERO
        for exp, c in self.coefficients.items():
            term = c
            for v, k in zip(vals, exp):
                if k:
                    term *= v**k
            total += term
        return total

    def shift(self, point: Sequence[Scalar], bound: int | None = None) -> "TruncatedPolynomial":
        """f(x + point), computed exactly (the degree does not grow).

        With a ``bound`` the terms above it are never computed: the result is
        ``f(x + point).truncate(bound)``.
        """
        images = [
            TruncatedPolynomial(
                self.variable_count,
                self.degree_bound,
                {
                    _unit(self.variable_count, i): 1,
                    (0,) * self.variable_count: as_fraction(point[i]),
                },
            )
            for i in range(self.variable_count)
        ]
        return truncated_substitute(self, images, self.degree_bound if bound is None else bound)

    # -- coordinate vectors --------------------------------------------------

    def to_sparse(self, bound: int | None = None) -> dict[int, Fraction]:
        """Nonzero coefficients keyed by their window index (truncating)."""
        b = self.degree_bound if bound is None else bound
        idx = window_index(self.variable_count, b)
        return {idx[exp]: c for exp, c in self.coefficients.items() if sum(exp) <= b}

    @classmethod
    def from_sparse(
        cls, variable_count: int, bound: int, row: Mapping[int, Scalar]
    ) -> "TruncatedPolynomial":
        """The polynomial of a row keyed by window index; inverse of :meth:`to_sparse`."""
        exps = window(variable_count, bound)
        return cls(variable_count, bound, {exps[c]: v for c, v in row.items()})

    # -- equality / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedPolynomial)
            and self.variable_count == other.variable_count
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.variable_count, frozenset(self.coefficients.items())))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"TruncatedPolynomial({format_polynomial(self)!r})"


def _unit(n: int, i: int) -> Exponent:
    exp = [0] * n
    exp[i] = 1
    return tuple(exp)


def _by_degree(terms: Iterable[tuple[Exponent, int]]) -> list[tuple[Exponent, int, int]]:
    """Terms as ``(exponent, degree, numerator)``, sorted by degree: the right
    operand of :func:`_product_numerators`."""
    return sorted(((e, sum(e), c) for e, c in terms), key=itemgetter(1))


def _product_numerators(
    left: Iterable[tuple[Exponent, int]], right: list[tuple[Exponent, int, int]], bound: int
) -> dict[Exponent, int]:
    """Integer product kernel: numerators of left * right up to the degree bound.

    ``right`` comes from :func:`_by_degree`, so a factor used many times (a
    substitution image) is sorted once.
    """
    out: dict[Exponent, int] = {}
    get = out.get
    for ea, ca in left:
        room = bound - sum(ea)
        for eb, db, cb in right:
            if db > room:
                break
            exp = tuple(map(add, ea, eb))
            out[exp] = get(exp, 0) + ca * cb
    return out


def truncated_product(
    f: TruncatedPolynomial, g: TruncatedPolynomial, bound: int
) -> TruncatedPolynomial:
    """f * g with every monomial of degree > bound discarded."""
    if f.variable_count != g.variable_count:
        raise DimensionMismatchError("cannot multiply polynomials in different rings")
    (left, right), den = _common_denominator([f.coefficients.items(), g.coefficients.items()])
    return TruncatedPolynomial._from_numerators(
        f.variable_count, bound, _product_numerators(left, _by_degree(right), bound), den * den
    )


def substitution(
    images: Sequence[TruncatedPolynomial], bound: int
) -> Callable[[TruncatedPolynomial], TruncatedPolynomial]:
    """The map f -> f(images[0], ..., images[n-1]) truncated at the degree bound.

    Every polynomial pushed through the map shares one power cache, so each
    product of the images is made once however many polynomials ask for it:
    build the map once per list of images.  Every product made lies in the
    window of the bound, so a bound whose window is above ``MAX_WINDOW``
    raises ``WindowTooLargeError`` here, before anything is allocated.
    """
    target_vars = images[0].variable_count if images else 0
    for img in images:
        if img.variable_count != target_vars:
            raise DimensionMismatchError("substitution images disagree on variables")
    _check_window(target_vars, bound)
    # Products stay integer: the images' numerators over one denominator q,
    # so a product of k images is a numerator dict over q**k.
    factors, q = _common_denominator(img.coefficients.items() for img in images)
    prepared = [_by_degree(terms) for terms in factors]
    powers = _Powers(
        {(0,) * target_vars: 1}.items(),
        prepared,
        lambda u, v: _product_numerators(u, v, bound).items(),
        q,
        [{e: c for e, d, c in terms if d <= bound}.items() for terms in prepared],
    )

    def substitute(f: TruncatedPolynomial) -> TruncatedPolynomial:
        if f.variable_count != len(images):
            raise DimensionMismatchError(
                f"need {f.variable_count} substitution images, got {len(images)}"
            )
        return TruncatedPolynomial._from_numerators(
            target_vars, bound, *powers.image(f.coefficients.items())
        )

    return substitute


def truncated_substitute(
    f: TruncatedPolynomial,
    images: Sequence[TruncatedPolynomial],
    bound: int,
) -> TruncatedPolynomial:
    """f(images[0], ..., images[n-1]) truncated at the given degree bound.

    One polynomial through :func:`substitution`; a caller with several
    polynomials and the same images builds that map once instead.
    """
    return substitution(images, bound)(f)


# -- text syntax --------------------------------------------------------------


@lru_cache(maxsize=64)
def variable_names(variable_count: int) -> tuple[str, ...]:
    """Display names: x, y, z for up to three variables, else x1..xn."""
    if variable_count <= 3:
        return ("x", "y", "z")[:variable_count]
    return tuple(f"x{i + 1}" for i in range(variable_count))


def _name_table(variable_count: int) -> dict[str, int]:
    names = {f"x{i + 1}": i for i in range(variable_count)}
    if variable_count <= 3:
        for i, alias in enumerate(["x", "y", "z"][:variable_count]):
            names[alias] = i
    return names


# Every position of a stripped text starts a token: ``bad`` catches the first
# character no other group reads, so one finditer pass walks the whole text.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[a-zA-Z]\w*)|(?P<pow>\^|\*\*)|(?P<mul>\*)|(?P<sign>[+-])"
    r"|(?P<bad>.))"
)


def parse_polynomial(
    text: str, variable_count: int, degree_bound: int | None = None
) -> TruncatedPolynomial:
    """Parse the documented term syntax; the bound defaults to the exact degree.

    A term's sign and coefficient tokens multiply as an integer numerator and
    denominator, and each term becomes one ``Fraction``.  A variable counts
    once when it is read; a ``^`` right after it makes the next token its
    exponent, which adds the rest of the power.  Zero and above-bound terms
    are dropped here, so the result is built with no second validation.
    """
    names = _name_table(variable_count)
    coeffs: dict[Exponent, Fraction] = {}

    sign = 1
    pending: tuple[int, int, list[int]] | None = None  # (numerator, denominator, exponents)
    variable = -1  # the variable of the previous token, which '^' may raise
    raised = -1  # the variable whose exponent is the next token

    def flush():
        nonlocal pending
        if pending is None:
            return
        num, den, exps = pending
        exp = tuple(exps)
        value = Fraction(num, den)
        coeffs[exp] = coeffs[exp] + value if exp in coeffs else value
        pending = None

    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        token = m.group(kind)
        if raised >= 0:
            if kind != "num" or "/" in token:
                raise ValueError("exponent must be a non-negative integer")
            pending[2][raised] += int(token) - 1
            raised = -1
            continue
        if kind == "pow" and variable >= 0:
            raised, variable = variable, -1
            continue
        variable = -1
        if kind == "sign":
            flush()
            sign = 1 if token == "+" else -1
        elif kind == "mul":
            if pending is None:
                raise ValueError("unexpected '*'")
        elif kind == "pow":
            raise ValueError("unexpected exponent operator")
        elif kind == "num":
            # int reads every digit \d matches, as Fraction's own parser does.
            top, _, bottom = token.partition("/")
            num, den = int(top), int(bottom or 1)
            if not den:
                raise ValueError(f"zero denominator in {token!r}")
            if pending is None:
                pending = (sign * num, den, [0] * variable_count)
            else:
                pending = (pending[0] * num, pending[1] * den, pending[2])
        elif kind == "name":
            variable = names.get(token, -1)
            if variable < 0:
                raise ValueError(f"unknown variable {token!r} for {variable_count} variables")
            if pending is None:
                pending = (sign, 1, [0] * variable_count)
            pending[2][variable] += 1
        else:
            pos = m.start()
            raise ValueError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
    if raised >= 0:
        raise ValueError("exponent must be a non-negative integer")
    flush()

    bound = degree_bound
    if bound is None:
        bound = max((sum(e) for e in coeffs), default=0)
    if variable_count < 0 or bound < 0:
        raise ValueError("variable count and degree bound must be non-negative")
    # Every exponent has variable_count entries and every value is a Fraction.
    return TruncatedPolynomial._from_fractions(
        variable_count, bound, {e: c for e, c in coeffs.items() if c and sum(e) <= bound}
    )


# A few hundred entries hold the bases and windows a session reports.  Prolonged
# components, whose monomials in n*dim variables rarely repeat, are formatted
# from their index keys by _format_index_terms and never come here.
@lru_cache(maxsize=256)
def _monomial_text(exp: Exponent) -> str:
    """The factors of x^exp, space-separated; "" for the constant monomial."""
    names = variable_names(len(exp))
    return " ".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, exp) if k)


def _rational_text(num: int, den: int) -> str:
    """Text of num/den (den > 0) in lowest terms, "p" or "p/q": ``str(num)`` over
    denominator 1 (every structure constant of a monomial quotient), and
    otherwise one ``gcd``."""
    if den == 1:
        return str(num)
    k = gcd(num, den)
    return str(num // k) if k == den else f"{num // k}/{den // k}"


def _format_terms(terms: Iterable[tuple[str, int, int]]) -> str:
    """Canonical text of nonzero ``(monomial text, numerator, denominator)`` terms
    in layout order; each coefficient is reduced as it is printed."""
    pieces: list[str] = []
    for factors, num, den in terms:
        mag = _rational_text(abs(num), den)
        if factors and mag == "1":
            body = factors
        else:
            body = f"{mag} {factors}" if factors else mag
        if pieces:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            pieces.append(body if num > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def _format_row(row: Mapping[int, Fraction], monomials: Sequence[Exponent]) -> str:
    """Text of sum_k row[k] x^monomials[k], with no polynomial built; ``monomials``
    is in layout order (a window or a basis), so sorted keys give layout order.
    The two shapes most rows of a report have skip the term formatter: the empty
    row is "0", and a single entry equal to 1 is its monomial's text."""
    if not row:
        return "0"
    if len(row) == 1:
        ((k, c),) = row.items()
        if c.numerator == 1 and c.denominator == 1:
            return _monomial_text(monomials[k]) or "1"
    return _format_terms(
        [(_monomial_text(monomials[k]), row[k].numerator, row[k].denominator) for k in sorted(row)]
    )


def _format_index_terms(
    numerators: Mapping[tuple[int, ...], int], den: int, names: Sequence[str]
) -> str:
    """Text of sum_m numerators[m] / den x^m over index keys ``(v1, -k1, ...)``,
    with no polynomial built; ``names[v]`` names variable v.  Within one degree
    tuple order is the layout order, so a sort and a stable sort by degree give
    the layout, as in :meth:`TruncatedPolynomial.terms`.  Each term is written
    in one pass, as :func:`_format_terms` writes it."""
    keys = sorted(m for m, c in numerators.items() if c)
    keys.sort(key=lambda m: -sum(m[1::2]))
    pieces: list[str] = []
    for m in keys:
        parts = []
        for j in range(0, len(m), 2):
            k = m[j + 1]
            parts.append(names[m[j]] if k == -1 else f"{names[m[j]]}^{-k}")
        factors = " ".join(parts)
        num = numerators[m]
        mag = _rational_text(abs(num), den)
        body = factors if mag == "1" and factors else f"{mag} {factors}" if factors else mag
        if pieces:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            pieces.append(body if num > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def format_polynomial(f: TruncatedPolynomial) -> str:
    """Canonical text form, terms in the layout order."""
    return _format_terms([(_monomial_text(e), c.numerator, c.denominator) for e, c in f.terms()])
