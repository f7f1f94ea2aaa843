"""Canonical linear subspaces over the rationals, on one sparse echelon core.

Every elimination in the package goes through :class:`Echelon`, which keeps
the reduced row-echelon form of a growing span.  Its rows are sparse: a row
is a ``{column: scalar}`` dict holding only the nonzero entries, and the rows
are keyed by their pivot column.  Every stored entry is a canonical scalar
(:func:`weiljets.poly.as_fraction`): a Python ``int`` when it is integral, and
otherwise a ``Fraction`` whose denominator is > 1.  The one builder inserts
rows, reduces vectors against them, reads off the functionals that cut the
span out and saturates the span (closes it under linear maps such as
multiplication by the variables).  Its row update works on integer
numerators and writes one canonical scalar per entry, so an integral entry
allocates no ``Fraction``; a unit row is cleared from another row by
deleting the entry.

A :class:`Subspace` is the frozen result, and its pivot-keyed sparse rows are
the only thing it stores.  Reduced row-echelon form is unique, so two
subspaces are equal as sets exactly when their rows are equal; that is what
equality and hashing compare, and what makes ideal equality (and every
acceptance check built on it) decidable.  A linear map is the list of its
sparse columns, applied by :func:`apply_columns`.

Every homogeneous system goes through :class:`LinearSystem`, which keeps
its equations in an echelon on reversed columns (each row pivots on its
highest column): its solution space is then read off in canonical form,
with no second elimination.  Every exact solve for coordinates in a span of
columns goes through the one solver :func:`span_coordinates`, which builds
one echelon per set of columns and then only reduces; no matrix is
inverted.  All solvers here are exact: no pivot thresholds, no floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionMismatchError
from .poly import Scalar, _rational, as_fraction

SparseRow = dict[int, Scalar]  # column -> nonzero canonical scalar


def sparse(vector: Sequence, ambient: int) -> SparseRow:
    """The nonzero entries of a dense vector, as canonical scalars: the
    package's one dense input (:meth:`WeilAlgebra.element`)."""
    if len(vector) != ambient:
        raise DimensionMismatchError(f"need {ambient} coordinates, got {len(vector)}")
    row: SparseRow = {}
    for c, v in enumerate(vector):
        if type(v) is not int and (type(v) is not Fraction or v.denominator == 1):
            v = as_fraction(v)
        if v:
            row[c] = v
    return row


def dense(row: SparseRow, ambient: int) -> list[Scalar]:
    """The dense vector of a sparse row."""
    out = [0] * ambient
    for c, v in row.items():
        out[c] = v
    return out


def _add_multiple(
    target: SparseRow, m: Scalar, row: SparseRow, skip: int = -1, sign: int = 1
) -> None:
    """target += sign * m * row in place, off column ``skip``; cancelled entries drop.

    ``sign`` is 1 or -1, so a subtraction never builds the negated multiplier.
    Each written entry is worked out on integer numerators and denominators
    and becomes one canonical scalar (:func:`~weiljets.poly._rational`): an
    integral entry is stored as the int itself, with no ``Fraction`` built,
    and no ``Fraction`` operator runs.  ``m`` and the entries of ``row`` are
    nonzero, so no zero is ever stored.
    """
    mn = m.numerator if sign > 0 else -m.numerator
    md = m.denominator
    for c, v in row.items():
        if c == skip:
            continue
        n = mn * v.numerator
        d = md * v.denominator
        old = target.get(c)
        if old is not None:
            od = old.denominator
            if od == d:
                n += old.numerator
            else:
                n = old.numerator * d + n * od
                d *= od
            if not n:
                del target[c]
                continue
        target[c] = n if d == 1 else _rational(n, d)


def _reduce(rows: dict[int, SparseRow], row: SparseRow) -> SparseRow:
    """Remainder (a new dict) of a sparse row against reduced rows keyed by pivot.

    A reduced row is zero in every other pivot column, so subtracting it
    leaves the row's other pivot entries alone: one pass over the pivot
    columns the row starts with clears them all.  A unit row (its pivot
    entry alone) is cleared by deleting the entry, with no arithmetic.
    """
    out = dict(row)
    for p in [p for p in row if p in rows]:
        m = out.pop(p)
        stored = rows[p]
        if len(stored) > 1:
            _add_multiple(out, m, stored, p, -1)
    return out


class Echelon:
    """Reduced row-echelon form of a growing span, with sparse rows.

    ``rows`` maps each pivot column to its row; the pivot entry is 1 and every
    other row is zero in that column.  A row pivots on its lowest column
    (``_lead``).  A stored row is never mutated (an elimination replaces it),
    so rows may be shared with the subspaces built from it.
    """

    _lead = min

    def __init__(self, ambient_dimension: int, rows: dict[int, SparseRow] | None = None):
        self.ambient_dimension = ambient_dimension
        self.rows: dict[int, SparseRow] = {} if rows is None else rows

    def insert(self, row: SparseRow) -> bool:
        """Add a row to the span, keeping the form reduced; False if dependent.

        The remainder is scaled to a leading 1 on numerators, one canonical
        scalar per entry.  Every stored row with an entry in the new
        pivot column then has it cleared: a unit row needs only the entry
        deleted, any other row is updated by :func:`_add_multiple`.
        """
        row = _reduce(self.rows, row)
        if not row:
            return False
        pivot = self._lead(row)
        rows = self.rows
        if len(row) == 1:
            row = {pivot: 1}
            for q, other in rows.items():
                if pivot in other:
                    other = dict(other)
                    del other[pivot]
                    rows[q] = other
            rows[pivot] = row
            return True
        lead = row[pivot]
        ln, ld = lead.numerator, lead.denominator
        if ln != ld:
            row = {
                c: 1 if c == pivot else _rational(v.numerator * ld, v.denominator * ln)
                for c, v in row.items()
            }
        for q, other in rows.items():
            c = other.get(pivot)
            if c is not None:
                other = dict(other)
                del other[pivot]
                _add_multiple(other, c, row, pivot, -1)
                rows[q] = other
        rows[pivot] = row
        return True

    def reduce(self, row: SparseRow) -> SparseRow:
        """Remainder of a sparse row after elimination; empty iff in the span."""
        return _reduce(self.rows, row)

    def saturate(
        self,
        rows: Iterable[SparseRow],
        tables: Sequence[Sequence[SparseRow | None] | Mapping[int, SparseRow]],
    ) -> None:
        """Insert rows and close the span under every linear map in ``tables``.

        ``tables[k][j]`` is the image of the unit vector e_j under map k, a
        sparse row (None or empty for zero).  Only the entries j in the
        support of an inserted row are read, so a table may build its
        entries on first read.  The span is closed once every inserted row
        has had its images queued.
        """
        queue = list(rows)
        while queue:
            row = queue.pop()
            if not self.insert(row):
                continue
            for table in tables:
                image: SparseRow = {}
                for j, c in row.items():
                    column = table[j]
                    if column:
                        _add_multiple(image, c, column)
                if image:
                    queue.append(image)

    def kernel_rows(self) -> dict[int, SparseRow]:
        """One solution of row . x = 0 (all rows) per free column c, keyed by
        c in order.

        The solution for c is e_c - sum_p rows[p][c] e_p.  Together they span
        the kernel, the annihilator of the span; read as functionals, they cut
        the span out (see :func:`preimage`).
        """
        out = {c: {c: 1} for c in range(self.ambient_dimension) if c not in self.rows}
        for p, row in self.rows.items():
            for c, v in row.items():
                if c != p:
                    out[c][p] = -v
        return out

    def subspace(self) -> "Subspace":
        """The canonical subspace of the current span."""
        return Subspace(self.ambient_dimension, self.rows)


class _Reversed(Echelon):
    """An echelon whose rows pivot on their highest column: the echelon of
    the same rows with the column order reversed."""

    _lead = max


class LinearSystem:
    """Homogeneous equations row . x = 0 in ``unknowns`` unknowns, solved by
    one elimination.

    The equations are eliminated on reversed columns (:class:`_Reversed`),
    so each stored row pivots on its highest unknown.  The solution of a
    free unknown c is e_c minus the pivot rows' entries at c, and those rows
    pivot above c: each solution leads with 1 at c and is zero at every
    other free unknown.  That is the canonical form a :class:`Subspace`
    stores, read off with no second elimination.
    """

    def __init__(self, unknowns: int):
        self._echelon = _Reversed(unknowns)

    def insert(self, row: SparseRow) -> bool:
        """Add the equation row . x = 0; False if it follows from the others."""
        return self._echelon.insert(row)

    @property
    def rank(self) -> int:
        return len(self._echelon.rows)

    def solutions(self) -> "Subspace":
        """The solution space: one row per free unknown, which is its pivot."""
        return Subspace(self._echelon.ambient_dimension, self._echelon.kernel_rows())


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace in canonical (reduced row-echelon) form.

    ``rows`` maps each pivot column to its sparse row, in pivot order.  Rows
    are shared with echelons and other subspaces: never mutate them.
    """

    ambient_dimension: int
    rows: dict[int, SparseRow]

    def __post_init__(self) -> None:
        # A copy in pivot order: the echelon the rows came from goes on
        # replacing its entries.
        object.__setattr__(self, "rows", {p: self.rows[p] for p in sorted(self.rows)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dimension == other.ambient_dimension
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(
            (self.ambient_dimension, tuple((p, frozenset(r.items())) for p, r in self.rows.items()))
        )

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def echelon(self) -> Echelon:
        """A builder that starts from this span."""
        return Echelon(self.ambient_dimension, dict(self.rows))

    def contains_vector(self, row: SparseRow) -> bool:
        """Membership of a sparse row."""
        return not _reduce(self.rows, row)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(_reduce(self.rows, r) for r in other.rows.values())

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dimension != other.ambient_dimension:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dimension} vs "
                f"{other.ambient_dimension}"
            )

    def free_columns(self) -> tuple[int, ...]:
        """Columns without a pivot; they index a complement basis."""
        return tuple(c for c in range(self.ambient_dimension) if c not in self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dimension}, ambient={self.ambient_dimension})"


# -- linear maps as sparse columns ----------------------------------------------


def apply_columns(columns: Sequence[SparseRow], row: SparseRow) -> SparseRow:
    """M row, for the linear map M whose column j is the sparse row columns[j]."""
    out: SparseRow = {}
    for j, c in row.items():
        _add_multiple(out, c, columns[j])
    return out


def apply_rows(rows: Mapping[int, SparseRow], row: SparseRow) -> SparseRow:
    """M row, for the linear map M whose row i is the sparse row rows[i]
    (absent rows are zero)."""
    out: SparseRow = {}
    for i, r in rows.items():
        short, long = (r, row) if len(r) <= len(row) else (row, r)
        # The dot product on numerators, one canonical scalar per entry written.
        n, d = 0, 1
        for j, v in short.items():
            x = long.get(j)
            if x is not None:
                tn = v.numerator * x.numerator
                td = v.denominator * x.denominator
                if td == d:
                    n += tn
                else:
                    n = n * td + tn * d
                    d *= td
        if n:
            out[i] = _rational(n, d)
    return out


def transpose(columns: Iterable[SparseRow]) -> list[SparseRow]:
    """The nonzero sparse rows, in order, of the map whose column j is columns[j]."""
    rows: dict[int, SparseRow] = {}
    for j, column in enumerate(columns):
        for i, c in column.items():
            rows.setdefault(i, {})[j] = c
    return [rows[i] for i in sorted(rows)]


def preimage(rows: Sequence[SparseRow], target: Subspace, domain_dimension: int) -> Subspace:
    """{v : M v in target} for the map M with the given sparse rows."""
    constraints = LinearSystem(domain_dimension)
    for functional in target.echelon().kernel_rows().values():
        # functional . (M v) = (functional @ M) . v, and functional @ M
        # combines the rows of M.
        constraints.insert(apply_columns(rows, functional))
    return constraints.solutions()


def span_coordinates(
    columns: Sequence[SparseRow], size: int
) -> Callable[[SparseRow], SparseRow | None]:
    """``solve(value)``: the exact coordinates u of a sparse value in the span
    of sparse columns of length ``size`` (sum_k u_k columns[k] = value), or
    None when the value lies outside it.

    One echelon, built here once, holds each column with its unknown as a
    tag: column k gets the unit entry at ``size + len(columns) - 1 - k``.
    The tags come in reverse order, so each kernel relation pivots on its
    last unknown, which is free (its column lies in the span of the columns
    before it).  A value reduces to zero off the tags exactly when it lies in
    the span, and then to minus the coordinates that are zero at every free
    unknown: the unique such solution.  Each answer is checked against the
    columns before it is returned.
    """
    last = size + len(columns) - 1
    system = Echelon(last + 1)
    for k, column in enumerate(columns):
        system.insert({**column, last - k: 1})

    def solve(value: SparseRow) -> SparseRow | None:
        rest = system.reduce(value)
        coordinates = {last - c: -v for c, v in rest.items() if c >= size}
        if len(coordinates) != len(rest) or apply_columns(columns, coordinates) != value:
            return None
        return coordinates

    return solve
