"""Closed-form oracles and per-command checks, sharing no code with weiljets.

Polynomials here are plain dicts from exponent tuples to ``Fraction``.  The
coordinate layout of a free truncated algebra R_m^l is the documented one:
monomials of degree <= l, graded, and inside one degree the lowest-index
variable dominates (1, x, y, x^2, xy, y^2, ...).

A check takes one result entry of a rendered report and a ``run`` callable
(session text -> parsed report) for follow-up sessions, and returns ``None``
or a message saying what differs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb


# -- counting formulas ------------------------------------------------------------


def free_dim(m: int, l: int) -> int:
    return comb(m + l, m)


def free_der_dim(m: int, l: int) -> int:
    """dim Der(R_m^l): each x_i may go anywhere in the maximal ideal."""
    return m * (free_dim(m, l) - 1)


def layout(m: int, l: int) -> list[tuple[int, ...]]:
    exps = [e for e in product(range(l + 1), repeat=m) if sum(e) <= l]
    return sorted(exps, key=lambda e: (sum(e), [-k for k in e]))


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def standard_monomials(m: int, l: int, relations) -> list[tuple[int, ...]]:
    """Monomials of degree <= l outside the monomial ideal the exponents generate."""
    return [e for e in layout(m, l) if not any(_divides(r, e) for r in relations)]


def binomial_quotient_dim(m: int, l: int, k: int) -> int:
    """dim of R_m^l modulo one homogeneous form of degree k (a non-zero-divisor)."""
    def monomials(d: int) -> int:
        return comb(d + m - 1, m - 1) if d >= 0 else 0

    return sum(monomials(d) - monomials(d - k) for d in range(l + 1))


# -- truncated arithmetic in R_m^l ------------------------------------------------


def poly_mul(f: dict, g: dict, bound: int | None = None) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if bound is not None and sum(e) > bound:
                continue
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_add(f: dict, g: dict, scale=1) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def shifted(local: dict, point) -> dict:
    """Rewrite a polynomial in u_i = x_i - point_i as a polynomial in the x_i."""
    n = len(point)
    out: dict = {}
    for exp, coeff in local.items():
        term = {(0,) * n: Fraction(coeff)}
        for i, k in enumerate(exp):
            unit = tuple(1 if j == i else 0 for j in range(n))
            factor = {unit: Fraction(1)}
            if point[i]:
                factor[(0,) * n] = -Fraction(point[i])
            for _ in range(k):
                term = poly_mul(term, factor)
        out = poly_add(out, term)
    return out


def evaluate_in_free_algebra(f: dict, images, m: int, l: int) -> list[Fraction]:
    """Coordinates of f(images) in R_m^l; each image is a coordinate list."""
    basis = layout(m, l)
    elements = [{e: Fraction(c) for e, c in zip(basis, img) if Fraction(c)} for img in images]
    one = {(0,) * m: Fraction(1)}
    powers = [[one] for _ in elements]
    total: dict = {}
    for exp, coeff in f.items():
        term = one
        for i, k in enumerate(exp):
            while len(powers[i]) <= k:
                powers[i].append(poly_mul(powers[i][-1], elements[i], l))
            term = poly_mul(term, powers[i][k], l)
        total = poly_add(total, term, Fraction(coeff))
    return [total.get(e, Fraction(0)) for e in basis]


# -- checks -----------------------------------------------------------------------


def _rationals(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def expect_ok(fields: dict | None = None):
    """The command succeeds, and each named result field has the given value."""

    def check(entry, run):
        if not entry.get("ok"):
            return f"expected a result, got {entry.get('error')}"
        result = entry["result"]
        for key, value in (fields or {}).items():
            if result.get(key) != value:
                return f"{key} is {result.get(key)!r}, expected {value!r}"
        return _classical_dims(result)

    return check


def expect_error(kind: str):
    def check(entry, run):
        if entry.get("ok") or entry.get("error", {}).get("kind") != kind:
            return f"expected a {kind}, got {entry.get('error') or 'a result'}"
        return None

    return check


def expect_components(f: dict, images, m: int, l: int):
    """``evaluate`` gives the coordinates of f(images) in R_m^l."""

    def check(entry, run):
        if not entry.get("ok"):
            return f"expected components, got {entry.get('error')}"
        got = _rationals(entry["result"]["components"])
        expected = evaluate_in_free_algebra(f, images, m, l)
        return None if got == expected else f"components {got} != {expected}"

    return check


def expect_images(law, images, m: int, l: int, identity_session=None):
    """A group command gives the images of the law's polynomials at the
    images in R_m^l.  With ``identity_session`` (a function from the result
    images to a session text whose one command multiplies by them), the
    follow-up product must be the identity point."""

    def check(entry, run):
        if not entry.get("ok"):
            return f"expected images, got {entry.get('error')}"
        got = [_rationals(img) for img in entry["result"]["images"]]
        expected = [evaluate_in_free_algebra(f, images, m, l) for f in law]
        if got != expected:
            return f"images {got} != {expected}"
        if identity_session is not None:
            follow = run(identity_session(entry["result"]["images"]))["results"][0]
            if not follow.get("ok"):
                return f"p * p^-1 failed: {follow.get('error')}"
            if any(Fraction(c) for img in follow["result"]["images"] for c in img):
                return f"p * p^-1 is not the identity: {follow['result']['images']}"
        return None

    return check


def _classical_dims(result) -> str | None:
    """Any jet summary marked classical has dimension C(width + order, order)."""
    if isinstance(result, dict):
        if result.get("classical") is True:
            want = comb(result["width"] + result["order"], result["order"])
            if result["dim"] != want:
                return f"classical jet of dim {result['dim']}, expected {want}"
        for value in result.values():
            message = _classical_dims(value)
            if message:
                return message
    return None


def compare_reports(got: str, want: str) -> int:
    """Commands whose rendered entries differ between two JSON reports."""
    if got == want:
        return 0
    try:
        a = json.loads(got)["results"]
        b = json.loads(want)["results"]
    except (ValueError, KeyError, TypeError):
        return max(1, want.count('"index"'))
    differing = sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))
    return max(1, differing)
