"""Exponent bookkeeping for truncated polynomial rings.

A *window* ``(n, bound)`` is the list of all exponent multi-indices in ``n``
variables with total degree <= ``bound``.  Windows fix the coordinate layout
used by every linear-algebra computation in the package: index 0 is the
constant monomial, degree increases along the list, and within one degree
monomials are ordered graded-lexicographically with the lowest-index variable
dominating (so for two variables the layout is 1, x, y, x^2, xy, y^2, ...).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

from .errors import WindowTooLargeError

Exponent = tuple[int, ...]

# Largest window (number of monomials) that may be allocated.  An algebra's
# multiplication table grows as the square of its window: a free algebra binds
# in about 1 s and 41 MB at a window of 1,365 and in 4.5 s and 140 MB at 3,060,
# and one at 39,711 exhausts memory.  The corpus and the benchmark never exceed
# 126, so the cap rejects only inputs that would take minutes or all memory.
MAX_WINDOW = 3000


def window_size(variable_count: int, bound: int) -> int:
    """Number of monomials of degree <= bound in the given variable count."""
    return comb(variable_count + bound, variable_count)


def _check_window(variable_count: int, bound: int) -> None:
    size = window_size(variable_count, bound)
    if size > MAX_WINDOW:
        raise WindowTooLargeError(
            f"the window of degree <= {bound} in {variable_count} variables has "
            f"{size} monomials, more than the cap of {MAX_WINDOW}"
        )


def monomial_sort_key(exponent: Exponent) -> tuple:
    """Sort key realising the layout order (graded, then lex with x1 first)."""
    return (sum(exponent), tuple(-e for e in exponent))


@lru_cache(maxsize=None)
def window(variable_count: int, bound: int) -> tuple[Exponent, ...]:
    """All exponents of degree <= bound, in layout order."""
    if variable_count < 0 or bound < 0:
        raise ValueError("variable count and degree bound must be non-negative")
    _check_window(variable_count, bound)
    exps = [
        e
        for e in product(range(bound + 1), repeat=variable_count)
        if sum(e) <= bound
    ]
    exps.sort(key=monomial_sort_key)
    return tuple(exps)


@lru_cache(maxsize=None)
def window_index(variable_count: int, bound: int) -> dict[Exponent, int]:
    """Exponent -> position in the layout of window(variable_count, bound)."""
    return {e: i for i, e in enumerate(window(variable_count, bound))}


@lru_cache(maxsize=None)
def degrees(variable_count: int, bound: int) -> tuple[int, ...]:
    """Total degree of each layout position."""
    return tuple(sum(e) for e in window(variable_count, bound))


@lru_cache(maxsize=None)
def shift_tables(variable_count: int, bound: int) -> tuple[tuple[int | None, ...], ...]:
    """tables[i][j]: layout index of (monomial j) * x_i, None past the bound.

    Multiplication of a coefficient vector by a single variable is a sparse
    re-indexing through these tables; ideal saturation relies on that.
    """
    exps = window(variable_count, bound)
    index = window_index(variable_count, bound)
    tables = []
    for i in range(variable_count):
        table: list[int | None] = []
        for e in exps:
            if sum(e) + 1 > bound:
                table.append(None)
            else:
                shifted = list(e)
                shifted[i] += 1
                table.append(index[tuple(shifted)])
        tables.append(tuple(table))
    return tuple(tables)


def monomials_of_degree(variable_count: int, degree: int) -> tuple[Exponent, ...]:
    """All exponents of exact total degree, in layout order."""
    return tuple(
        e for e in window(variable_count, degree) if sum(e) == degree
    )
