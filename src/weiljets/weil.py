"""Finite-dimensional local rational algebras presented as truncated quotients.

An algebra here is R[x1..xn]/J where J contains every monomial of degree
order+1; it is stored through the window (n, order+1) as a canonical
subspace together with a monomial basis of the quotient and an exact
multiplication table.  Orders and widths come out of the maximal-ideal
filtration, so every invariant reported by this module is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from operator import add
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    EmptyQuotientError,
    NotAnIdealError,
    NotEpimorphismError,
    NotWellDefinedError,
)
from .monomials import (
    Exponent,
    _power_products,
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
    as_fraction,
    format_polynomial,
    truncated_substitute,
)
from .subspace import (
    Echelon,
    SparseRow,
    Subspace,
    _add_multiple,
    apply_columns,
    dense,
    invert_matrix,
    mat_vec,
    solve_columns,
    sparse,
    zero_subspace,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def _variable_shifts(n: int, bound: int) -> tuple[tuple[SparseRow | None, ...], ...]:
    """Multiplication by each variable on the window, as saturation tables."""
    return tuple(
        tuple(None if t is None else {t: _ONE} for t in table)
        for table in shift_tables(n, bound)
    )


class WeilAlgebra:
    """Local rational quotient with an explicit monomial basis.

    Instances are built by :func:`quotient_algebra` (or :func:`tensor_product`)
    and treated as immutable afterwards.
    """

    def __init__(
        self,
        n: int,
        bound: int,
        ideal: Subspace,
        generator_rows: list[tuple[Fraction, ...]],
        left_vars: int | None = None,
    ):
        self.n = n
        self.window_bound = bound
        size = window_size(n, bound)
        self.window_dimension = size
        degs = degrees(n, bound)
        if 0 in ideal.rows:
            raise EmptyQuotientError("the defining ideal contains a unit")
        self.defining_ideal = ideal
        self.ideal_generators = tuple(generator_rows)
        self.basis_columns: tuple[int, ...] = ideal.free_columns()
        exps = window(n, bound)
        self.basis_monomials: tuple[Exponent, ...] = tuple(
            exps[c] for c in self.basis_columns
        )
        self.dimension = len(self.basis_columns)
        # A tensor product splits each basis monomial into its two factors.
        self.basis_pairs: tuple[tuple[Exponent, Exponent], ...] | None = (
            None
            if left_vars is None
            else tuple((e[:left_vars], e[left_vars:]) for e in self.basis_monomials)
        )
        self._column_of = {c: i for i, c in enumerate(self.basis_columns)}

        # Class of each window monomial in quotient coordinates, sparse: a
        # pivot monomial is minus the rest of its ideal row.
        classes: list[SparseRow] = []
        for c in range(size):
            row = ideal.rows.get(c)
            if row is None:
                classes.append({self._column_of[c]: _ONE})
            else:
                classes.append({self._column_of[b]: -v for b, v in row.items() if b != c})
        self._classes = classes
        self._monomial_class = [tuple(dense(cls, self.dimension)) for cls in classes]

        # Maximal-ideal filtration: m^k = span of classes of monomials of
        # degree >= k; strictly decreasing until it vanishes.  One echelon
        # takes the degrees from the top down; levels[k - 1] is m^k.
        span = Echelon(self.dimension)
        levels = [span.subspace()]
        for k in range(bound, 0, -1):
            for c, deg in enumerate(degs):
                if deg == k:
                    span.insert(classes[c])
            levels.append(span.subspace())
        levels.reverse()
        filtration = levels[: next(k for k, sub in enumerate(levels) if sub.dimension == 0) + 1]
        self.order = len(filtration) - 1
        self.maximal_ideal = filtration[0]
        second = filtration[1] if len(filtration) > 1 else zero_subspace(self.dimension)
        self.width = filtration[0].dimension - second.dimension
        self._filtration = filtration
        self.filtration_dimensions = tuple(s.dimension for s in filtration)

        # Sparse multiplication table over the basis monomials, stored once as
        # integer numerators over one table denominator (1 for every
        # monomial quotient): [a_a][a_b] = sum_g _mult[a][b][g] / _mult_den.
        idx = window_index(n, bound)
        numerators, self._mult_den = _common_denominator([cls.items() for cls in classes])
        entries = [tuple(row) for row in numerators]
        table: list[list[tuple[tuple[int, int], ...]]] = []
        for a in self.basis_monomials:
            row = []
            for b in self.basis_monomials:
                prod = tuple(map(add, a, b))
                row.append(entries[idx[prod]] if sum(prod) <= bound else ())
            table.append(row)
        self._mult = table
        self._derivations: "DerivationSpace | None" = None
        self._tensors: dict[WeilAlgebra, WeilAlgebra] = {}

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

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (_ZERO,) * self.dimension)

    def one(self) -> "AlgebraElement":
        coords = [_ZERO] * self.dimension
        coords[0] = _ONE
        return AlgebraElement(self, tuple(coords))

    def generator(self, i: int) -> "AlgebraElement":
        """Class of the variable x_i."""
        exp = [0] * self.n
        exp[i] = 1
        return self.monomial_element(tuple(exp))

    def monomial_element(self, exponent: Exponent) -> "AlgebraElement":
        return AlgebraElement(self, self.monomial_class(exponent))

    def monomial_class(self, exponent: Exponent) -> tuple[Fraction, ...]:
        if sum(exponent) > self.window_bound:
            return (_ZERO,) * self.dimension
        idx = window_index(self.n, self.window_bound)[tuple(exponent)]
        return self._monomial_class[idx]

    def element(self, coordinates: Sequence) -> "AlgebraElement":
        coords = tuple(as_fraction(c) for c in coordinates)
        if len(coords) != self.dimension:
            raise DimensionMismatchError(
                f"need {self.dimension} coordinates, got {len(coords)}"
            )
        return AlgebraElement(self, coords)

    def project_polynomial(self, f: TruncatedPolynomial) -> "AlgebraElement":
        if f.variable_count != self.n:
            raise DimensionMismatchError("polynomial has the wrong variable count")
        return AlgebraElement(self, tuple(dense(self._polynomial_class(f), self.dimension)))

    def _polynomial_class(self, f: TruncatedPolynomial) -> SparseRow:
        """Sparse quotient coordinates of the class of f."""
        row: SparseRow = {}
        idx = window_index(self.n, self.window_bound)
        for exp, v in f.coefficients.items():
            if sum(exp) <= self.window_bound:
                _add_multiple(row, v, self._classes[idx[exp]])
        return row

    # -- arithmetic on raw coordinate tuples ------------------------------------

    def mult_coords(
        self, u: Sequence[Fraction], v: Sequence[Fraction]
    ) -> tuple[Fraction, ...]:
        (us, vs), den = _common_denominator(
            [[(a, ua) for a, ua in enumerate(u) if ua], [(b, vb) for b, vb in enumerate(v) if vb]]
        )
        out = [0] * self.dimension
        mult = self._mult
        for a, ua in us:
            row = mult[a]
            for b, vb in vs:
                w = ua * vb
                for g, c in row[b]:
                    out[g] += w * c
        scale = den * den * self._mult_den
        return tuple(Fraction(x, scale) if x else _ZERO for x in out)

    def power_coords(self, u: Sequence[Fraction], k: int) -> tuple[Fraction, ...]:
        result = self.one().coordinates
        base = tuple(u)
        for _ in range(k):
            result = self.mult_coords(result, base)
        return result

    def _mult_columns(
        self, w: Sequence[Fraction] | SparseRow
    ) -> tuple[list[dict[int, int]], int]:
        """Numerators of the images w * a_b (one dict per b) and their
        denominator; w is dense or sparse."""
        items = w.items() if isinstance(w, dict) else ((a, wa) for a, wa in enumerate(w) if wa)
        (ws,), den = _common_denominator([items])
        columns: list[dict[int, int]] = [{} for _ in range(self.dimension)]
        for a, wa in ws:
            for column, entries in zip(columns, self._mult[a]):
                for g, c in entries:
                    column[g] = column.get(g, 0) + wa * c
        return columns, den * self._mult_den

    def left_mult_rows(self, w: Sequence[Fraction]) -> list[list[Fraction]]:
        """Matrix of v -> w*v in quotient coordinates."""
        columns, den = self._mult_columns(w)
        return [
            [Fraction(column[g], den) if column.get(g) else _ZERO for column in columns]
            for g in range(self.dimension)
        ]

    def multiplication_map(self, w: Sequence[Fraction] | SparseRow) -> list[SparseRow]:
        """Sparse images of the basis classes under v -> w*v (saturation table)."""
        columns, den = self._mult_columns(w)
        return [{g: Fraction(c, den) for g, c in column.items() if c} for column in columns]

    def differential_map(self, f: TruncatedPolynomial) -> list[SparseRow]:
        """Sparse columns of v -> sum_i [d f / d x_i] * v_i, from A^n to A.

        Column i*d + b is the class of (d f / d x_i) * a_b.  By the Leibniz
        rule, the derivation with generator images (v_1, ..., v_n) sends [f]
        to the image of the flattened tuple.
        """
        columns: list[SparseRow] = []
        for i in range(self.n):
            w = self._polynomial_class(f.derivative(i))
            columns += self.multiplication_map(w) if w else [{} for _ in range(self.dimension)]
        return columns

    def maximal_power(self, k: int) -> Subspace:
        """m_A^k as a subspace of the quotient coordinate space."""
        if k <= 0:
            span = self.maximal_ideal.echelon()
            span.insert({0: _ONE})
            return span.subspace()
        if k - 1 < len(self._filtration):
            return self._filtration[k - 1]
        return zero_subspace(self.dimension)

    def generated_by(self, elements: Sequence[Sequence[Fraction]]) -> bool:
        """Whether elements (coordinate tuples) generate the algebra.

        They do exactly when their nilpotent parts span m/m^2 (Nakayama).
        """
        span = self.maximal_power(2).echelon()
        for coords in elements:
            span.insert({g: c for g, c in enumerate(coords) if c and g})
        return span.subspace() == self.maximal_ideal

    def structure_constants(self):
        """Sparse (alpha, beta, gamma, c) with a^alpha a^beta = c a^gamma + ..."""
        for a in range(self.dimension):
            for b in range(self.dimension):
                for g, c in self._mult[a][b]:
                    yield (a, b, g, Fraction(c, self._mult_den))

    @cached_property
    def minimal_generators(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of ``ideal_generators`` independent modulo m*I.

        They generate I, minimally, by Nakayama's lemma (Atiyah-Macdonald,
        Prop. 2.8): the generators span I modulo m*I, and m is nilpotent on
        the window.  One echelon takes the variable shifts of I's rows (which
        span m*I in the window) and keeps each generator that raises its rank.
        """
        span = Echelon(self.window_dimension)
        for table in shift_tables(self.n, self.window_bound):
            for row in self.defining_ideal.rows.values():
                span.insert({table[c]: v for c, v in row.items() if table[c] is not None})
        return tuple(
            g for g in self.ideal_generators if span.insert(sparse(g, self.window_dimension))
        )

    def basis_polynomial(self, index: int) -> TruncatedPolynomial:
        return TruncatedPolynomial.monomial(
            self.n, self.window_bound, self.basis_monomials[index]
        )

    def element_polynomial(self, coords: Sequence[Fraction]) -> TruncatedPolynomial:
        """A representative polynomial built from basis monomials."""
        return self.row_polynomial({i: c for i, c in enumerate(coords) if c})

    def row_polynomial(self, row: SparseRow) -> TruncatedPolynomial:
        """The representative polynomial of a sparse row of quotient coordinates."""
        terms = {self.basis_monomials[b]: c for b, c in row.items()}
        return TruncatedPolynomial(self.n, self.window_bound, terms)


@dataclass(frozen=True)
class AlgebraElement:
    """An element in quotient coordinates over the basis monomials."""

    algebra: WeilAlgebra
    coordinates: tuple[Fraction, ...]

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise DimensionMismatchError("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra,
            tuple(a + b for a, b in zip(self.coordinates, other.coordinates)),
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.algebra,
            tuple(a - b for a, b in zip(self.coordinates, other.coordinates)),
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(-a for a in self.coordinates))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.algebra,
                self.algebra.mult_coords(self.coordinates, other.coordinates),
            )
        c = as_fraction(other)
        return AlgebraElement(self.algebra, tuple(c * a for a in self.coordinates))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.power_coords(self.coordinates, k))

    def is_zero(self) -> bool:
        return not any(self.coordinates)

    def augmentation(self) -> Fraction:
        """Constant term: the image in A/m_A = R."""
        return self.coordinates[0]

    def nilpotent_part(self) -> "AlgebraElement":
        coords = list(self.coordinates)
        coords[0] = _ZERO
        return AlgebraElement(self.algebra, tuple(coords))

    def __repr__(self) -> str:
        return f"AlgebraElement({format_polynomial(self.algebra.element_polynomial(self.coordinates))})"


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
    ideal: Echelon,
    generator_rows: list[SparseRow],
    left_vars: int | None = None,
) -> WeilAlgebra:
    """Detect the order and restate the presentation in the order+1 window."""
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
    old_index = window(n, bound)
    new_size = window_size(n, new_bound)
    new_idx = window_index(n, new_bound)

    def convert(row: SparseRow) -> SparseRow:
        return {
            new_idx[old_index[c]]: v
            for c, v in row.items()
            if degs[c] <= new_bound
        }

    top_rows = [{new_idx[exp]: _ONE} for exp in monomials_of_degree(n, new_bound)]
    restated = Echelon(new_size)
    for row in top_rows + [convert(r) for r in ideal.rows.values()]:
        restated.insert(row)
    gen_rows = [converted for r in generator_rows if (converted := convert(r))]
    gen_rows += top_rows
    return WeilAlgebra(
        n,
        new_bound,
        restated.subspace(),
        [tuple(dense(r, new_size)) for r in gen_rows],
        left_vars,
    )


def order_and_width(algebra: WeilAlgebra) -> tuple[int, int]:
    """(first k with m^{k+1} = 0, dim m/m^2)."""
    return algebra.order, algebra.width


def free_truncated_algebra(m: int, order: int) -> WeilAlgebra:
    """The full truncated polynomial algebra in m variables at the given order."""
    return quotient_algebra(m, order, [])


def invariants_agree(a: WeilAlgebra, b: WeilAlgebra) -> bool:
    """Compare dimension, order, width, filtration and derivation dimension.

    Agreement certifies only that the computable invariants coincide; a full
    isomorphism search is deliberately not attempted.
    """
    return (
        a.dimension == b.dimension
        and a.order == b.order
        and a.width == b.width
        and a.filtration_dimensions == b.filtration_dimensions
        and derivation_space(a).dimension == derivation_space(b).dimension
    )


def is_free_truncated(algebra: WeilAlgebra) -> bool:
    return algebra.dimension == comb(algebra.n + algebra.order, algebra.order)


def tensor_product(a: WeilAlgebra, b: WeilAlgebra) -> WeilAlgebra:
    """Quotient on disjoint variables whose ideal joins both defining ideals.

    Memoized on the left factor (the values are immutable).
    """
    result = a._tensors.get(b)
    if result is not None:
        return result
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
    result = a._tensors[b] = _rewindow(n, bound, ideal, rows, a.n)
    return result


@dataclass(frozen=True)
class DerivationSpace:
    """Der(A, A) as the span of the generator images (delta[x^1], ...,
    delta[x^n]) flattened into A^n.

    The relation rows are all the dimension, the tangent presentation, the
    stability check and the session report read.  The Leibniz action on the
    whole basis (``columns``, and its dense view ``matrices``) is built on
    first read; only :attr:`IdealStabilityReport.projected_derivations` reads
    it."""

    algebra: WeilAlgebra
    relations: Subspace

    @property
    def dimension(self) -> int:
        return self.relations.dimension

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

    @cached_property
    def generator_images(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense view of :attr:`sparse_images`, for tests and display."""
        d = self.algebra.dimension
        return tuple(
            tuple(tuple(dense(block, d)) for block in blocks) for blocks in self.sparse_images
        )

    @cached_property
    def columns(self) -> tuple[tuple[SparseRow, ...], ...]:
        """Per derivation, the sparse images delta(a_b) of the basis classes.

        Leibniz expansion: delta(x^e) = sum_i e_i [x^(e - 1_i)] * delta(x_i).
        """
        algebra = self.algebra
        idx = window_index(algebra.n, algebra.window_bound)
        out = []
        for images in self.sparse_images:
            maps = [algebra.multiplication_map(img) for img in images]
            cols = []
            for exp in algebra.basis_monomials:
                total: SparseRow = {}
                for i, k in enumerate(exp):
                    if not k:
                        continue
                    lowered = list(exp)
                    lowered[i] -= 1
                    for a, c in algebra._classes[idx[tuple(lowered)]].items():
                        _add_multiple(total, k * c, maps[i][a])
                cols.append(total)
            out.append(tuple(cols))
        return tuple(out)

    @cached_property
    def matrices(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """Dense view of :attr:`columns`: rows index the output coordinates."""
        d = self.algebra.dimension
        return tuple(
            tuple(tuple(col.get(g, _ZERO) for col in cols) for g in range(d))
            for cols in self.columns
        )


def derivation_space(algebra: WeilAlgebra) -> DerivationSpace:
    """Solve the Leibniz system: derivations are fixed by generator images.

    A tuple v = (v_1, ..., v_n) in A^n defines a derivation exactly when
    sum_i [d g / d x_i] * v_i = 0 for every g in the defining ideal, that is
    when v lies in the kernel of :meth:`WeilAlgebra.differential_map` of g.
    Since d(hg) = h dg + g dh and g vanishes in A, a generating set
    suffices: the constraints come from the minimal generators only.
    """
    if algebra._derivations is not None:
        return algebra._derivations
    constraints = Echelon(algebra.n * algebra.dimension)
    for gen in algebra.minimal_generators:
        f = TruncatedPolynomial.from_vector(algebra.n, algebra.window_bound, gen)
        rows: list[SparseRow] = [{} for _ in range(algebra.dimension)]
        for j, column in enumerate(algebra.differential_map(f)):
            for g, c in column.items():
                rows[g][j] = c
        for row in rows:
            if row:
                constraints.insert(row)
    space = DerivationSpace(algebra, constraints.kernel())
    algebra._derivations = space
    return space


@dataclass(frozen=True)
class AlgebraMorphism:
    """Unital algebra morphism fixed by its generator images."""

    source: WeilAlgebra
    target: WeilAlgebra
    images: tuple[AlgebraElement, ...]
    matrix: tuple[tuple[Fraction, ...], ...]  # target-coords rows over source basis
    is_epimorphism: bool

    def apply(self, element: AlgebraElement) -> AlgebraElement:
        if element.algebra != self.source:
            raise DimensionMismatchError("element does not live in the source algebra")
        return AlgebraElement(
            self.target, tuple(mat_vec(self.matrix, element.coordinates))
        )

    def compose(self, inner: "AlgebraMorphism") -> "AlgebraMorphism":
        """self o inner (inner first)."""
        if inner.target != self.source:
            raise DimensionMismatchError("morphisms do not compose")
        return algebra_morphism(
            inner.source, self.target, [self.apply(img) for img in inner.images]
        )

    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        d = self.source.dimension
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(d)
            for j in range(d)
        )

    def linear_part(self) -> list[list[Fraction]]:
        """n x n matrix of degree-1 coefficients of the generator images."""
        n = self.source.n
        rows = []
        for i in range(n):
            img = self.images[i]
            poly = self.target.element_polynomial(img.coordinates)
            row = []
            for j in range(self.target.n):
                exp = [0] * self.target.n
                exp[j] = 1
                row.append(poly.coefficient(tuple(exp)))
            rows.append(row)
        return rows


def algebra_morphism(
    source: WeilAlgebra,
    target: WeilAlgebra,
    images: Sequence[AlgebraElement | Sequence],
) -> AlgebraMorphism:
    """Validated morphism sending the class of x_i to images[i].

    Raises :class:`NotWellDefinedError` with a witness generator when some
    defining relation of the source has a nonzero image.
    """
    if len(images) != source.n:
        raise DimensionMismatchError(
            f"need one image per generator: {source.n} expected, {len(images)} given"
        )
    elems: list[AlgebraElement] = []
    for img in images:
        if isinstance(img, AlgebraElement):
            if img.algebra != target:
                raise DimensionMismatchError("image lives in the wrong algebra")
            elems.append(img)
        else:
            elems.append(target.element(img))

    image_of = _power_products(
        target.one().coordinates, [e.coordinates for e in elems], target.mult_coords
    )

    # Well-definedness on a generating set of the ideal.
    for gen in source.ideal_generators:
        f = TruncatedPolynomial.from_vector(source.n, source.window_bound, gen)
        acc = [_ZERO] * target.dimension
        for exp, c in f.coefficients.items():
            img = image_of(exp)
            for g, v in enumerate(img):
                if v:
                    acc[g] += c * v
        if any(acc):
            raise NotWellDefinedError(format_polynomial(f))

    exps = window(source.n, source.window_bound)
    cols = [image_of(exps[c]) for c in source.basis_columns]
    matrix = tuple(
        tuple(cols[b][g] for b in range(source.dimension))
        for g in range(target.dimension)
    )

    epi = target.generated_by([e.coordinates for e in elems])
    return AlgebraMorphism(source, target, tuple(elems), matrix, epi)


def identity_morphism(algebra: WeilAlgebra) -> AlgebraMorphism:
    return algebra_morphism(
        algebra, algebra, [algebra.generator(i) for i in range(algebra.n)]
    )


def _express_in_generators(
    algebra: WeilAlgebra,
    values: Sequence[AlgebraElement],
    target: AlgebraElement,
    m: int,
) -> TruncatedPolynomial:
    """A zero-constant polynomial P with P(values) = target, in m variables."""
    bound = algebra.order if algebra.order > 0 else 1
    monos = window(m, bound)[1:]
    image_of = _power_products(
        algebra.one().coordinates, [v.coordinates for v in values], algebra.mult_coords
    )
    columns = [list(image_of(exp)) for exp in monos]
    solution = solve_columns(columns, list(target.coordinates))
    if solution is None:
        raise NotEpimorphismError(
            "images do not generate the target algebra"
        )
    coeffs = {exp: c for exp, c in zip(monos, solution) if c}
    return TruncatedPolynomial(m, bound, coeffs)


def factor_epimorphism(
    alpha: AlgebraMorphism, beta: AlgebraMorphism
) -> AlgebraMorphism:
    """An automorphism g of the free source with beta = alpha o g.

    Both arguments must be epimorphisms from the same full truncated algebra.
    The construction straightens each epimorphism to a standard form (selected
    generators map to a distinguished generating set, the rest to zero) and
    splices the two straightenings; the identity beta = alpha o g is checked
    exactly before returning.
    """
    source = alpha.source
    if beta.source != source:
        raise DimensionMismatchError("epimorphisms must share their source")
    if alpha.target != beta.target:
        raise DimensionMismatchError("epimorphisms must share their target")
    if not is_free_truncated(source):
        raise NotEpimorphismError(
            "factorization requires the full truncated algebra as source"
        )
    if not alpha.is_epimorphism:
        raise NotEpimorphismError("first morphism is not an epimorphism")
    if not beta.is_epimorphism:
        raise NotEpimorphismError("second morphism is not an epimorphism")
    if source.order == 0:
        # A one-dimensional target forces alpha = beta = augmentation.
        return identity_morphism(source)

    n = source.n
    target = alpha.target

    def straighten(phi: AlgebraMorphism) -> tuple[list[int], AlgebraMorphism]:
        """Pivot indices S and automorphism h with (phi o h)(x_j)=0 off S."""
        m2 = target.maximal_power(2)
        independent = Echelon(target.dimension)
        selected: list[int] = []
        for i, img in enumerate(phi.images):
            nilpotent = {g: c for g, c in enumerate(img.coordinates) if c and g}
            if independent.insert(m2.reduce(nilpotent)):
                selected.append(i)
        values = [phi.images[i] for i in selected]
        images = []
        for j in range(n):
            if j in selected:
                images.append(source.generator(j))
            else:
                correction = _express_in_generators(
                    target, values, phi.images[j], len(selected)
                )
                # Substitute the selected source variables for the formal ones.
                full = TruncatedPolynomial(
                    n,
                    source.window_bound,
                    {
                        _spread(exp, selected, n): c
                        for exp, c in correction.coefficients.items()
                    },
                )
                images.append(source.generator(j) - source.project_polynomial(full))
        h = algebra_morphism(source, source, images)
        return selected, h

    sel_a, h_a = straighten(alpha)
    sel_b, h_b = straighten(beta)
    std_a = alpha.compose(h_a)
    std_b = beta.compose(h_b)

    # Express the second distinguished generating set through the first.
    values_a = [std_a.images[i] for i in sel_a]
    w_images: list[AlgebraElement | None] = [None] * n
    for k, j in enumerate(sel_b):
        formal = _express_in_generators(
            target, values_a, std_b.images[j], len(sel_a)
        )
        full = TruncatedPolynomial(
            n,
            source.window_bound,
            {
                _spread(exp, sel_a, n): c
                for exp, c in formal.coefficients.items()
            },
        )
        w_images[j] = source.project_polynomial(full)
    rest_a = [j for j in range(n) if j not in sel_a]
    rest_b = [j for j in range(n) if j not in sel_b]
    for jb, ja in zip(rest_b, rest_a):
        w_images[jb] = source.generator(ja)
    w = algebra_morphism(source, source, [img for img in w_images])

    h_b_inv = invert_substitution(h_b)
    g = h_a.compose(w).compose(h_b_inv)

    # Exact verification of the factorization and of invertibility.
    composite = alpha.compose(g)
    for got, want in zip(composite.images, beta.images):
        if got.coordinates != want.coordinates:
            raise NotEpimorphismError("internal factorization check failed")
    if invert_matrix([tuple(r) for r in g.linear_part()]) is None:
        raise NotEpimorphismError("constructed substitution is not invertible")
    return g


def _spread(exp: Exponent, positions: Sequence[int], n: int) -> Exponent:
    """Re-embed an exponent on selected variables into n variables."""
    out = [0] * n
    for k, e in enumerate(exp):
        if e:
            out[positions[k]] = e
    return tuple(out)


def _identity_substitution(n: int, bound: int) -> list[TruncatedPolynomial]:
    return [TruncatedPolynomial.variable(n, bound, i) for i in range(n)]


def _inverse_substitution(
    sigma: Sequence[TruncatedPolynomial], bound: int
) -> list[TruncatedPolynomial] | None:
    """Truncated inverse of the substitution x -> sigma(x); None if not invertible.

    Fixed-point iteration tau <- Lin^{-1} (x - N o tau) where sigma = Lin + N
    splits off the linear part; each pass fixes one more degree.  The
    substitution is invertible exactly when its linear part is.
    """
    n = len(sigma)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    lin_inv = invert_matrix([tuple(f.coefficient(u) for u in units) for f in sigma])
    if lin_inv is None:
        return None
    nonlinear = [
        TruncatedPolynomial(
            n, bound, {e: c for e, c in f.coefficients.items() if sum(e) >= 2}
        )
        for f in sigma
    ]

    def lin_inv_apply(polys: Sequence[TruncatedPolynomial]) -> list[TruncatedPolynomial]:
        out = []
        for i in range(n):
            acc = TruncatedPolynomial.zero(n, bound)
            for j in range(n):
                if lin_inv[i][j]:
                    acc = acc + polys[j].scale(lin_inv[i][j])
            out.append(acc)
        return out

    identity = _identity_substitution(n, bound)
    tau = lin_inv_apply(identity)
    for _ in range(max(bound - 1, 0)):
        tau = lin_inv_apply(
            [x - truncated_substitute(f, tau, bound) for x, f in zip(identity, nonlinear)]
        )
    return tau


def invert_substitution(phi: AlgebraMorphism) -> AlgebraMorphism:
    """Inverse of an automorphism of a free truncated algebra."""
    source = phi.source
    if phi.target != source or not is_free_truncated(source):
        raise NotEpimorphismError("can only invert automorphisms of the free algebra")
    tau = _inverse_substitution(
        [source.element_polynomial(img.coordinates) for img in phi.images], source.order
    )
    if tau is None:
        raise NotEpimorphismError("linear part is singular")
    return algebra_morphism(
        source, source, [source.project_polynomial(t) for t in tau]
    )


@dataclass(frozen=True)
class IdealStabilityReport:
    """Outcome of the derivation-level (and optional group-level) checks.

    ``der_stable`` and ``witness`` come from the generators of the ideal;
    :attr:`projected_derivations` is built on first read."""

    algebra: WeilAlgebra
    ideal: Subspace
    der_stable: bool
    witness: tuple[int, tuple[Fraction, ...]] | None
    automorphism_stable: tuple[bool, ...]
    note: str = (
        "derivation stability is the infinitesimal criterion; it matches the "
        "full automorphism-group condition only up to the connected component"
    )

    @cached_property
    def projected_derivations(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...] | None:
        """Per derivation, the induced map on A/I (rows index the output); None
        unless stable.  Reads the Leibniz action :attr:`DerivationSpace.columns`."""
        if not self.der_stable:
            return None
        # Entry (out, in) of the induced map on A/I, read off the remainder
        # of each complement column against the ideal's echelon.
        complement = self.ideal.free_columns()
        span = self.ideal.echelon()
        proj = []
        for columns in derivation_space(self.algebra).columns:
            reduced = [span.reduce(columns[c_in]) for c_in in complement]
            proj.append(
                tuple(tuple(r.get(c_out, _ZERO) for r in reduced) for c_out in complement)
            )
        return tuple(proj)


def ideal_stability(
    algebra: WeilAlgebra,
    ideal: Subspace,
    automorphisms: Sequence[AlgebraMorphism] = (),
) -> IdealStabilityReport:
    """Check delta(I) <= I for all derivations, plus supplied automorphisms.

    Since delta(a g) = delta(a) g + a delta(g), a derivation maps the ideal
    into itself once it maps a generating set there.  The generators are the
    rows of I independent modulo m*I (Nakayama), and delta_k(g) is the
    relation row k of Der(A, A) under the differential map of g.  The
    witness, on failure, is the first (derivation, ideal row) pair in that
    order whose image leaves I.
    """
    if ideal.ambient_dimension != algebra.dimension:
        raise DimensionMismatchError("ideal must live in the quotient coordinates")
    d = algebra.dimension
    rows = ideal.rows.values()
    shifts = [
        algebra.multiplication_map(algebra.generator(i).coordinates) for i in range(algebra.n)
    ]
    # m*I is spanned by the x_i-images of I's rows.
    products = Echelon(d)
    for row in rows:
        for i, columns in enumerate(shifts):
            image = apply_columns(columns, row)
            if not ideal.contains_vector(image):
                raise NotAnIdealError(f"not closed under multiplication by generator {i}")
            products.insert(image)
    generators = [row for row in rows if products.insert(row)]
    relations = derivation_space(algebra).relations.rows.values()

    def first_escape(elements) -> tuple[int, SparseRow] | None:
        """First (k, delta_k(g)) outside I, derivations outer, elements inner."""
        maps = [algebra.differential_map(algebra.row_polynomial(g)) for g in elements]
        for k, rel in enumerate(relations):
            for columns in maps:
                img = apply_columns(columns, rel)
                if not ideal.contains_vector(img):
                    return k, img
        return None

    witness = None
    if first_escape(generators) is not None:
        k, img = first_escape(rows)
        witness = (k, tuple(dense(img, d)))
    auto_results = []
    for g in automorphisms:
        if g.source != algebra or g.target != algebra:
            raise DimensionMismatchError("automorphism must act on the algebra")
        columns = [sparse(col, d) for col in zip(*g.matrix)]
        image = Echelon(d)
        for row in rows:
            image.insert(apply_columns(columns, row))
        auto_results.append(image.subspace() == ideal)
    return IdealStabilityReport(algebra, ideal, witness is None, witness, tuple(auto_results))
