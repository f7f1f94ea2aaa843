"""Finite-dimensional local rational algebras presented as truncated quotients.

An algebra here is R[x1..xn]/J where J contains every monomial of degree
order+1; it is stored through the window (n, order+1) as a canonical
subspace together with a monomial basis of the quotient; the exact
multiplication table is built when first read.  The maximal-ideal
filtration is read off the graded layout of the basis (see
:class:`WeilAlgebra`), so orders and widths are counts and every invariant
reported by this module is decidable.  Coordinates and structure constants
are canonical scalars, as in :mod:`weiljets.subspace`: ints when integral
(every structure constant of a monomial quotient), otherwise ``Fraction``s.
A morphism out of an algebra on m generators is given by the images of the
generators, that is as an A-point of R^m (:mod:`weiljets.apoints`), the
package's one morphism type.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from operator import add
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyQuotientError,
    NotAnIdealError,
)
from .monomials import (
    Exponent,
    degrees,
    monomials_of_degree,
    shift_tables,
    window,
    window_index,
    window_size,
)
from .poly import (
    TruncatedPolynomial,
    _common_denominator,
    _format_row,
    Scalar,
    _Powers,
    _rational,
    format_polynomial,
)
from .subspace import (
    Echelon,
    LinearSystem,
    SparseRow,
    Subspace,
    _add_multiple,
    apply_columns,
    apply_rows,
    dense,
    sparse,
)

def _fraction_row(pairs: Iterable[tuple[int, int]], den: int) -> SparseRow:
    """The sparse row of integer ``(index, numerator)`` pairs over ``den``, one
    canonical scalar per nonzero numerator: where integer products become rows."""
    return {g: _rational(x, den) for g, x in pairs if x}


def _memo(build):
    """Cache ``build(value, *args)`` in the value's ``_memo`` dict, keyed by
    the builder's name and the arguments.  Jets and algebras are immutable,
    so an entry never goes stale; a build that raises stores nothing."""
    name = build.__name__

    @wraps(build)
    def cached(value, *args):
        key = (name, *args)
        result = value._memo.get(key)
        if result is None:
            result = value._memo[key] = build(value, *args)
        return result

    return cached


@lru_cache(maxsize=None)
def _variable_shifts(n: int, bound: int) -> tuple[tuple[SparseRow | None, ...], ...]:
    """Multiplication by each variable on the window, as saturation tables."""
    return tuple(
        tuple(None if t is None else {t: 1} for t in table)
        for table in shift_tables(n, bound)
    )


class WeilAlgebra:
    """Local rational quotient with an explicit monomial basis.

    Instances are built by :func:`quotient_algebra` (or :func:`tensor_product`)
    and treated as immutable afterwards.  The generator rows (the given
    generators, restated on the window, and the monomials of top degree)
    generate the defining ideal I; :attr:`minimal_generators` keeps the
    polynomials of a minimal subset.

    The maximal-ideal filtration needs no elimination.  The layout is graded
    and every canonical row of I has its pivot at its lowest column, so the
    class of a pivot monomial of degree k (minus the rest of its row) lies
    on basis monomials of degree >= k.  So m^k, the span of the classes of
    the monomials of degree >= k, is exactly the span of the basis monomials
    of degree >= k: the order is the degree of the last basis monomial, the
    width the number of basis monomials of degree 1, and the filtration
    dimensions are counts.  The classes and the multiplication table are
    built when first read.
    """

    def __init__(
        self,
        n: int,
        bound: int,
        ideal: Subspace,
        generator_rows: Sequence[SparseRow],
    ):
        self.n = n
        self.window_bound = bound
        self.window_dimension = window_size(n, bound)
        if 0 in ideal.rows:
            raise EmptyQuotientError("the defining ideal contains a unit")
        self.defining_ideal = ideal
        self._generator_rows = tuple(generator_rows)
        self.basis_columns: tuple[int, ...] = ideal.free_columns()
        exps = window(n, bound)
        self.basis_monomials: tuple[Exponent, ...] = tuple(
            exps[c] for c in self.basis_columns
        )
        self.dimension = len(self.basis_columns)
        degs = degrees(n, bound)
        self._basis_degrees = [degs[c] for c in self.basis_columns]
        self.order = self._basis_degrees[-1]
        self.width = self._basis_degrees.count(1)
        self.filtration_dimensions = tuple(
            self.dimension - bisect_left(self._basis_degrees, k) for k in range(1, self.order + 2)
        )
        self._memo: dict[tuple, object] = {}

    @cached_property
    def _classes(self) -> list[SparseRow]:
        """Class of each window monomial in quotient coordinates, sparse: a
        pivot monomial is minus the rest of its ideal row."""
        column_of = {c: i for i, c in enumerate(self.basis_columns)}
        rows = self.defining_ideal.rows
        classes: list[SparseRow] = []
        for c in range(self.window_dimension):
            row = rows.get(c)
            if row is None:
                classes.append({column_of[c]: 1})
            else:
                classes.append({column_of[b]: -v for b, v in row.items() if b != c})
        return classes

    @cached_property
    def _table(self) -> tuple[list[dict[int, tuple[tuple[int, int], ...]]], int]:
        """Sparse multiplication table over the basis monomials, as integer
        numerators over one table denominator (1 for every monomial
        quotient): [a_a][a_b] = sum_g table[a][b][g] / den.

        Only nonzero products are stored, in ascending b.  Every monomial of
        degree above the order is zero, and the basis is in graded layout
        order, so only the prefix of b with deg a + deg b <= order is read.
        """
        idx = window_index(self.n, self.window_bound)
        numerators, den = _common_denominator([cls.items() for cls in self._classes])
        entries = [tuple(row) for row in numerators]
        basis = list(zip(self.basis_monomials, self._basis_degrees))
        table: list[dict[int, tuple[tuple[int, int], ...]]] = []
        for a, da in basis:
            row = {}
            for b, (exp, db) in enumerate(basis):
                if da + db > self.order:
                    break
                product = entries[idx[tuple(map(add, a, exp))]]
                if product:
                    row[b] = product
            table.append(row)
        return table, den

    @cached_property
    def _mult(self) -> list[dict[int, tuple[tuple[int, int], ...]]]:
        return self._table[0]

    @cached_property
    def _mult_den(self) -> int:
        return self._table[1]

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeilAlgebra)
            and self.n == other.n
            and self.window_bound == other.window_bound
            and self.defining_ideal == other.defining_ideal
        )

    def __hash__(self) -> int:
        return hash((self.n, self.window_bound, self.defining_ideal))

    def __repr__(self) -> str:
        return (
            f"WeilAlgebra(vars={self.n}, dim={self.dimension}, "
            f"order={self.order}, width={self.width})"
        )

    # -- elements --------------------------------------------------------------

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {0: 1})

    def generator(self, i: int) -> "AlgebraElement":
        """Class of the variable x_i."""
        exp = [0] * self.n
        exp[i] = 1
        return self.monomial_element(tuple(exp))

    def monomial_element(self, exponent: Exponent) -> "AlgebraElement":
        if sum(exponent) > self.window_bound:
            return AlgebraElement(self, {})
        idx = window_index(self.n, self.window_bound)[tuple(exponent)]
        return AlgebraElement(self, self._classes[idx])

    def element(self, coordinates: Sequence) -> "AlgebraElement":
        """The element with the given dense coordinates (:func:`sparse`)."""
        return AlgebraElement(self, sparse(coordinates, self.dimension))

    def _polynomial_class(self, f: TruncatedPolynomial) -> SparseRow:
        """Sparse quotient coordinates of the class of f."""
        row: SparseRow = {}
        idx = window_index(self.n, self.window_bound)
        for exp, v in f.coefficients.items():
            if sum(exp) <= self.window_bound:
                _add_multiple(row, v, self._classes[idx[exp]])
        return row

    # -- arithmetic on sparse rows ------------------------------------------------

    def _factor(self, vs: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[int]]:
        """A right factor of :meth:`_mult_numerators`: its sparse ``(index,
        numerator)`` pairs and the same numerators dense."""
        dense = [0] * self.dimension
        for b, x in vs:
            dense[b] = x
        return vs, dense

    def _mult_numerators(
        self, us: Iterable[tuple[int, int]], factor: tuple[list[tuple[int, int]], list[int]]
    ) -> list[int]:
        """The one integer algebra product: numerators of u * v, dense.

        ``us`` are sparse ``(index, numerator)`` pairs and ``factor`` is v
        from :meth:`_factor`; the result lies over their two denominators
        times ``_mult_den``.  Per row a of the table the kernel walks the
        shorter side: the row's stored products, read against v dense, or
        v's nonzeros, each looked up in the row.
        """
        vs, dense = factor
        nonzeros = len(vs)
        out = [0] * self.dimension
        mult = self._mult
        for a, ua in us:
            row = mult[a]
            if len(row) < nonzeros:
                for b, entries in row.items():
                    vb = dense[b]
                    if vb:
                        w = ua * vb
                        for g, c in entries:
                            out[g] += w * c
            else:
                for b, vb in vs:
                    entries = row.get(b)
                    if entries:
                        w = ua * vb
                        for g, c in entries:
                            out[g] += w * c
        return out

    def _power_numerators(self, factors: Sequence[SparseRow]) -> _Powers:
        """The morphism R[y] -> A sending y_i to the element of row factors[i].

        A product is the sparse ``(index, numerator)`` pairs of
        prod_i factors[i]^e[i].  The factors are split once over one
        denominator q and prepared once by :meth:`_factor`, and each product
        multiplies numerators only, so the scale is q times ``_mult_den``.
        """
        rows, q = _common_denominator(f.items() for f in factors)

        def mul(u, v):
            return tuple((g, x) for g, x in enumerate(self._mult_numerators(u, v)) if x)

        den = self._mult_den
        firsts = [tuple(sorted((g, x * den) for g, x in r)) for r in rows]
        return _Powers(((0, 1),), [self._factor(r) for r in rows], mul, q * den, firsts)

    def multiplication_map(self, w: SparseRow) -> list[SparseRow]:
        """Sparse images of the basis classes under v -> w*v (saturation table),
        accumulated as integer numerators from the table."""
        (ws,), den = _common_denominator([w.items()])
        columns: list[dict[int, int]] = [{} for _ in range(self.dimension)]
        for a, wa in ws:
            for b, entries in self._mult[a].items():
                column = columns[b]
                for g, c in entries:
                    column[g] = column.get(g, 0) + wa * c
        den *= self._mult_den
        return [_fraction_row(column.items(), den) for column in columns]

    @cached_property
    def variable_maps(self) -> tuple[list[SparseRow], ...]:
        """The :meth:`multiplication_map` of each variable class, built once."""
        return tuple(self.multiplication_map(self.generator(i).row) for i in range(self.n))

    def differential_rows(self, f: TruncatedPolynomial) -> dict[int, SparseRow]:
        """Sparse rows of v -> sum_i [d f / d x_i] * v_i, from A^n to A.

        Row g is keyed by the output class a_g: its entry i*d + b is the a_g
        coefficient of [d f / d x_i] * a_b.  By the Leibniz rule, the
        derivation with generator images (v_1, ..., v_n) sends [f] to the
        image of the flattened tuple.  The rows are read straight off the
        multiplication table, as integer numerators over one denominator of
        the n derivative classes, with one canonical scalar per entry; no
        multiplication map is built.  Only nonzero rows are kept, in
        ascending g.
        """
        d = self.dimension
        classes, den = _common_denominator(
            self._polynomial_class(f.derivative(i)).items() for i in range(self.n)
        )
        acc: list[dict[int, int]] = [{} for _ in range(d)]
        mult = self._mult
        for i, ws in enumerate(classes):
            offset = i * d
            for a, wa in ws:
                for b, entries in mult[a].items():
                    j = offset + b
                    for g, c in entries:
                        row = acc[g]
                        row[j] = row.get(j, 0) + wa * c
        den *= self._mult_den
        return {
            g: row
            for g, numerators in enumerate(acc)
            if numerators and (row := _fraction_row(numerators.items(), den))
        }

    def _independent_mod_m2(self, elements: Iterable[SparseRow]) -> list[int]:
        """The indices of the elements (sparse rows) independent modulo m^2 of
        those before them: m^2 is the span of the basis monomials of degree
        >= 2, so those whose coordinates at the classes 1..width raise the rank."""
        width = self.width
        span = Echelon(self.dimension)
        return [
            k for k, row in enumerate(elements)
            if span.insert({g: c for g, c in row.items() if 0 < g <= width})
        ]

    def generated_by(self, elements: Sequence[SparseRow]) -> bool:
        """Whether elements (sparse rows) generate the algebra: exactly when
        their nilpotent parts span m/m^2 (Nakayama), that is when ``width``
        of them are independent modulo m^2."""
        return len(self._independent_mod_m2(elements)) == self.width

    @cached_property
    def _minimal_generator_rows(self) -> tuple[SparseRow, ...]:
        """The generator rows independent modulo m*I.

        They generate I, minimally, by Nakayama's lemma (Atiyah-Macdonald,
        Prop. 2.8): the generators span I modulo m*I, and m is nilpotent on
        the window.  One echelon takes the variable shifts of I's rows (which
        span m*I in the window) and keeps each generator row that raises its
        rank.  A row with its pivot at the top degree is a unit row there,
        and its shifts leave the window, so it is skipped.
        """
        n, bound = self.n, self.window_bound
        degs = degrees(n, bound)
        rows = [row for p, row in self.defining_ideal.rows.items() if degs[p] < bound]
        span = Echelon(self.window_dimension)
        for table in shift_tables(n, bound):
            for row in rows:
                span.insert({table[c]: v for c, v in row.items() if table[c] is not None})
        return tuple(r for r in self._generator_rows if span.insert(r))

    @_memo
    def _minimal_generator(self, k: int) -> TruncatedPolynomial:
        """The polynomial of minimal generator row k, built once, when first read."""
        row = self._minimal_generator_rows[k]
        return TruncatedPolynomial.from_sparse(self.n, self.window_bound, row)

    @cached_property
    def minimal_generators(self) -> tuple[TruncatedPolynomial, ...]:
        """The polynomials of :attr:`_minimal_generator_rows`, built when first read."""
        return tuple(map(self._minimal_generator, range(len(self._minimal_generator_rows))))

    def row_polynomial(self, row: SparseRow) -> TruncatedPolynomial:
        """The representative polynomial of a sparse row of quotient coordinates."""
        terms = {self.basis_monomials[b]: c for b, c in row.items()}
        return TruncatedPolynomial(self.n, self.window_bound, terms)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of a Weil algebra as the sparse row of its quotient
    coordinates over the basis monomials.

    The row holds only nonzero coordinates and is never mutated, so equal
    elements have equal rows; :attr:`coordinates` is the dense report view.
    """

    algebra: WeilAlgebra
    row: SparseRow

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.algebra, self.row) == (other.algebra, other.row)

    def __hash__(self) -> int:
        return hash((self.algebra, frozenset(self.row.items())))

    @property
    def coordinates(self) -> tuple[Scalar, ...]:
        """The dense coordinates, built on each read."""
        return tuple(dense(self.row, self.algebra.dimension))

    def augmentation(self) -> Scalar:
        """Constant term: the image in A/m_A = R."""
        return self.row.get(0, 0)

    def nilpotent_part(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {g: v for g, v in self.row.items() if g})

    def __repr__(self) -> str:
        return f"AlgebraElement({_format_row(self.row, self.algebra.basis_monomials)})"


def quotient_algebra(
    n: int,
    bound: int,
    generators: Sequence[TruncatedPolynomial] = (),
) -> WeilAlgebra:
    """Quotient of the degree-<=bound window by the ideal the generators span.

    The generators must have zero constant term.  The result is re-windowed so
    that its stored bound is order+1; in particular the defining ideal always
    contains every monomial of top degree.
    """
    size = window_size(n, bound)
    rows = []
    for g in generators:
        if g.variable_count != n:
            raise DimensionMismatchError("generator has the wrong variable count")
        if g.constant_term():
            raise EmptyQuotientError(
                f"generator {format_polynomial(g)} has a nonzero constant term"
            )
        vec = g.to_sparse(bound)
        if vec:
            rows.append(vec)
    ideal = Echelon(size)
    ideal.saturate(rows, _variable_shifts(n, bound))
    return _rewindow(n, bound, ideal, rows)


def _rewindow(
    n: int,
    bound: int,
    ideal: Echelon | Subspace,
    generator_rows: list[SparseRow],
) -> WeilAlgebra:
    """Detect the order and restate the presentation in the order+1 window.

    ``ideal`` holds reduced row-echelon rows; they are restated without a
    second elimination.  Windows are prefixes of one layout, so a column
    keeps its index in every window.  Every column of degree above the order
    is a pivot whose row is a unit vector, so no other row has an entry
    there: the rows whose pivot lies in the order+1 window are already the
    canonical rows of the ideal in that window.  When the window grows (order
    equal to ``bound``) the monomials of the new top degree join as unit rows.
    """
    degs = degrees(n, bound)
    # Order = first k with every monomial of degree > k inside the ideal
    # (equivalently: the classes of degree >= k+1 monomials all vanish).  A
    # monomial e_c lies in the span exactly when c is a pivot whose row is e_c.
    order = 0
    for k in range(bound, 0, -1):
        if not all(
            len(ideal.rows.get(c, ())) == 1 for c, deg in enumerate(degs) if deg == k
        ):
            order = k
            break
    new_bound = order + 1
    new_idx = window_index(n, new_bound)
    top = [new_idx[exp] for exp in monomials_of_degree(n, new_bound)]
    top_rows = [{c: 1} for c in top]
    rows = {p: row for p, row in ideal.rows.items() if degs[p] <= new_bound}
    if new_bound > bound:
        rows.update(zip(top, top_rows))
    gen_rows = [
        converted
        for r in generator_rows
        if (converted := {c: v for c, v in r.items() if degs[c] <= new_bound})
    ]
    gen_rows += top_rows
    return WeilAlgebra(n, new_bound, Subspace(window_size(n, new_bound), rows), gen_rows)


@lru_cache(maxsize=None)
def free_truncated_algebra(m: int, order: int) -> WeilAlgebra:
    """The full truncated polynomial algebra in m variables at the given order,
    memoized (the values are immutable)."""
    return quotient_algebra(m, order, [])


@_memo
def tensor_product(a: WeilAlgebra, b: WeilAlgebra) -> WeilAlgebra:
    """Quotient on disjoint variables whose ideal joins both defining ideals.

    Memoized on the left factor, keyed by the right one.
    """
    n = a.n + b.n
    bound = a.order + b.order + 1
    idx = window_index(n, bound)
    rows: list[SparseRow] = []
    for factor, before, after in ((a, (), (0,) * b.n), (b, (0,) * a.n, ())):
        exps = window(factor.n, factor.window_bound)
        for row in factor.defining_ideal.rows.values():
            rows.append({idx[before + exps[c] + after]: v for c, v in row.items()})
    ideal = Echelon(window_size(n, bound))
    ideal.saturate(rows, _variable_shifts(n, bound))
    return _rewindow(n, bound, ideal, rows)


@dataclass(frozen=True, eq=False)
class DerivationSpace:
    """Der(A, A) as the span of the generator images (delta[x^1], ...,
    delta[x^n]) flattened into A^n.

    ``constraints`` is the Leibniz system, eliminated on reversed columns
    (:class:`~weiljets.subspace.LinearSystem`), so the dimension is n*d minus
    its rank.  The relation rows (its solutions, read off that one echelon),
    which the tangent presentation, the stability check and the session
    report read, are built when first read."""

    algebra: WeilAlgebra
    constraints: LinearSystem

    @property
    def dimension(self) -> int:
        return self.algebra.n * self.algebra.dimension - self.constraints.rank

    @cached_property
    def relations(self) -> Subspace:
        return self.constraints.solutions()

    @cached_property
    def sparse_images(self) -> tuple[tuple[SparseRow, ...], ...]:
        """Per basis derivation, the sparse coordinates of delta[x^1], ..., delta[x^n]."""
        n, d = self.algebra.n, self.algebra.dimension
        out = []
        for row in self.relations.rows.values():
            blocks: list[SparseRow] = [{} for _ in range(n)]
            for j, c in row.items():
                blocks[j // d][j % d] = c
            out.append(tuple(blocks))
        return tuple(out)


@_memo
def derivation_space(algebra: WeilAlgebra) -> DerivationSpace:
    """Solve the Leibniz system: derivations are fixed by generator images.

    A tuple v = (v_1, ..., v_n) in A^n defines a derivation exactly when
    sum_i [d g / d x_i] * v_i = 0 for every g in the defining ideal, that is
    when v lies in the kernel of :meth:`WeilAlgebra.differential_rows` of g.
    Since d(hg) = h dg + g dh and g vanishes in A, a generating set
    suffices: the constraints are the Leibniz rows of the minimal generators,
    inserted as they come.

    Over Q every derivation maps m into m: for a in m with a^N = 0 != a^(N-1),
    0 = delta(a^N) = N a^(N-1) delta(a), so delta(a) is not a unit.  So the
    solve starts from the n unit rows {i*d: 1} (basis class 0 is the constant
    monomial), which change no kernel, and skips every generator whose terms
    all have degree above the order: its derivatives lie in m^order, which
    kills m, so its Leibniz rows lie in the span of the unit rows.  The layout
    is graded, so a generator row's lowest column gives its lowest degree,
    and a polynomial is built only for the rows kept, once per algebra (it is
    the one :attr:`WeilAlgebra.minimal_generators` holds).  On a free
    truncated algebra no Leibniz row is built at all.
    """
    n, d = algebra.n, algebra.dimension
    degs = degrees(n, algebra.window_bound)
    constraints = LinearSystem(n * d)
    for i in range(n):
        constraints.insert({i * d: 1})
    for k, r in enumerate(algebra._minimal_generator_rows):
        if degs[min(r)] <= algebra.order:
            f = algebra._minimal_generator(k)
            for row in algebra.differential_rows(f).values():
                constraints.insert(row)
    return DerivationSpace(algebra, constraints)


@dataclass(frozen=True)
class IdealStabilityReport:
    """Outcome of the derivation-level check."""

    der_stable: bool
    note: str = (
        "derivation stability is the infinitesimal criterion; it matches the "
        "full automorphism-group condition only up to the connected component"
    )


def ideal_stability(algebra: WeilAlgebra, ideal: Subspace) -> IdealStabilityReport:
    """Check delta(I) <= I for all derivations.

    Since delta(a g) = delta(a) g + a delta(g), a derivation maps the ideal
    into itself once it maps a generating set there.  The generators are the
    rows of I independent modulo m*I (Nakayama), and delta_k(g) is the
    relation row k of Der(A, A) under the Leibniz rows of g
    (:meth:`WeilAlgebra.differential_rows`, applied by :func:`apply_rows`).
    """
    if ideal.ambient_dimension != algebra.dimension:
        raise DimensionMismatchError("ideal must live in the quotient coordinates")
    d = algebra.dimension
    rows = ideal.rows.values()
    # m*I is spanned by the x_i-images of I's rows.
    products = Echelon(d)
    for row in rows:
        for i, columns in enumerate(algebra.variable_maps):
            image = apply_columns(columns, row)
            if not ideal.contains_vector(image):
                raise NotAnIdealError(f"not closed under multiplication by generator {i}")
            products.insert(image)
    generators = [row for row in rows if products.insert(row)]
    maps = [algebra.differential_rows(algebra.row_polynomial(g)) for g in generators]
    stable = all(
        ideal.contains_vector(apply_rows(rows, rel))
        for rel in derivation_space(algebra).relations.rows.values()
        for rows in maps
    )
    return IdealStabilityReport(stable)
