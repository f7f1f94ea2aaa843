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
from math import lcm
from operator import add, itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .errors import DimensionMismatchError
from .monomials import Exponent, _check_window, _power_products, window, window_index

Scalar = Fraction | int
_K = TypeVar("_K", bound=Hashable)

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


def _top_weights(
    terms: Iterable[tuple[Exponent, Scalar]], scale: int
) -> tuple[list[tuple[Exponent, int]], int]:
    """Integer weights that combine power products over ``scale**|e|`` at the top degree.

    For products ``P_e`` whose numerators lie over ``scale**sum(e)``,
    ``sum_e c_e * P_e`` equals ``sum_e w_e * numerators(P_e) / den``, where
    ``den`` is the coefficients' common denominator times ``scale`` to the
    highest total degree among the exponents.
    """
    (row,), den = _common_denominator([terms])
    top = max((sum(e) for e, _ in row), default=0)
    return [(e, c * scale ** (top - sum(e))) for e, c in row], den * scale**top


def _add_scaled(acc: dict[_K, int], c: int, terms: Iterable[tuple[_K, int]]) -> None:
    """acc += c * terms, in place, on integer numerators."""
    get = acc.get
    for k, v in terms:
        acc[k] = get(k, 0) + c * v


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings; floats are rejected."""
    if isinstance(value, float):
        raise TypeError("floating-point input is not allowed; pass 'p/q' strings")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
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
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


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
        poly = object.__new__(cls)
        poly.variable_count = variable_count
        poly.degree_bound = degree_bound
        poly.coefficients = {e: Fraction(c, den) for e, c in numerators.items() if c}
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
        """Partial derivative with respect to variable ``index``."""
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.coefficients.items():
            k = exp[index]
            if k == 0:
                continue
            lowered = list(exp)
            lowered[index] -= 1
            out[tuple(lowered)] = c * k
        return TruncatedPolynomial(self.variable_count, self.degree_bound, out)

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
    power_product = _power_products(
        {(0,) * target_vars: 1},
        [_by_degree(terms) for terms in factors],
        lambda u, v: _product_numerators(u.items(), v, bound),
    )

    def substitute(f: TruncatedPolynomial) -> TruncatedPolynomial:
        if f.variable_count != len(images):
            raise DimensionMismatchError(
                f"need {f.variable_count} substitution images, got {len(images)}"
            )
        weights, den = _top_weights(f.coefficients.items(), q)
        out: dict[Exponent, int] = {}
        for exp, w in weights:
            _add_scaled(out, w, power_product(exp).items())
        return TruncatedPolynomial._from_numerators(target_vars, bound, out, den)

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


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[a-zA-Z]\w*)|(?P<pow>\^|\*\*)|(?P<mul>\*)|(?P<sign>[+-]))"
)


def parse_polynomial(
    text: str, variable_count: int, degree_bound: int | None = None
) -> TruncatedPolynomial:
    """Parse the documented term syntax; the bound defaults to the exact degree."""
    names = _name_table(variable_count)
    coeffs: dict[Exponent, Fraction] = {}

    pos = 0
    sign = Fraction(1)
    pending: tuple[Fraction, list[int]] | None = None  # (coefficient, exponents)

    def flush():
        nonlocal pending
        if pending is None:
            return
        coeff, exps = pending
        exp = tuple(exps)
        coeffs[exp] = coeffs.get(exp, _ZERO) + coeff
        pending = None

    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse polynomial near {text[pos:pos + 12]!r}")
        pos = m.end()
        if m.group("sign"):
            flush()
            sign = Fraction(1) if m.group("sign") == "+" else Fraction(-1)
            continue
        if m.group("mul"):
            if pending is None:
                raise ValueError("unexpected '*'")
            continue
        if m.group("pow"):
            raise ValueError("unexpected exponent operator")
        if m.group("num"):
            value = as_fraction(m.group("num"))
            if pending is None:
                pending = (sign * value, [0] * variable_count)
                sign = Fraction(1)
            else:
                pending = (pending[0] * value, pending[1])
            continue
        name = m.group("name")
        if name not in names:
            raise ValueError(f"unknown variable {name!r} for {variable_count} variables")
        power = 1
        pm = _TOKEN.match(text, pos)
        if pm and pm.group("pow"):
            pos = pm.end()
            em = _TOKEN.match(text, pos)
            if not em or not em.group("num") or "/" in em.group("num"):
                raise ValueError("exponent must be a non-negative integer")
            power = int(em.group("num"))
            pos = em.end()
        if pending is None:
            pending = (sign, [0] * variable_count)
            sign = Fraction(1)
        pending[1][names[name]] += power
    flush()

    bound = degree_bound
    if bound is None:
        bound = max((sum(e) for e in coeffs), default=0)
    return TruncatedPolynomial(variable_count, bound, coeffs)


# A few hundred entries hold the bases and windows a session reports; the bound
# keeps the one-off exponents of large polynomials (prolongations) from piling up.
@lru_cache(maxsize=256)
def _monomial_text(exp: Exponent) -> str:
    """The factors of x^exp, space-separated; "" for the constant monomial."""
    names = variable_names(len(exp))
    return " ".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, exp) if k)


def _format_terms(terms: Iterable[tuple[Exponent, Fraction]]) -> str:
    """Canonical text of nonzero ``(exponent, coefficient)`` terms in layout order."""
    pieces: list[str] = []
    for exp, c in terms:
        factors = _monomial_text(exp)
        num, den = c.numerator, c.denominator
        if factors and den == 1 and (num == 1 or num == -1):
            body = factors
        else:
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            body = f"{mag} {factors}" if factors else mag
        if pieces:
            pieces.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            pieces.append(body if num > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def _format_row(row: Mapping[int, Fraction], monomials: Sequence[Exponent]) -> str:
    """Text of sum_k row[k] x^monomials[k], with no polynomial built; ``monomials``
    is in layout order (a window or a basis), so sorted keys give layout order."""
    return _format_terms([(monomials[k], row[k]) for k in sorted(row)])


def format_polynomial(f: TruncatedPolynomial) -> str:
    """Canonical text form, terms in the layout order."""
    return _format_terms(f.terms())
