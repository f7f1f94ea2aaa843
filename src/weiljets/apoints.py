"""Algebra-valued points of R^n: evaluation, prolongation, group lifting.

An A-point assigns to each ambient coordinate an element of a Weil algebra;
evaluating a polynomial at the point applies that ring morphism: its terms
become products of the images, made with the algebra's multiplication table
and cached on the point.  Real components (the coordinates of a value over
the basis monomials) are what turn A-points into honest coordinates:
prolongation of ideals and the lifted group operations all happen through
them.

An A-point of R^m is the algebra morphism R[x1..xm] -> A, and at the origin
also the morphism R_m^l -> A for every l at or above the order of A: this is
the package's one morphism type.  A point is regular when that morphism is
onto, and two regular points at the origin differ by an automorphism of
R_m^l (:func:`factor_epimorphism`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DimensionMismatchError, InternalCheckError, NotEpimorphismError
from .jets import Jet, _kernel_jet
from .monomials import _check_window
from .poly import (
    Scalar,
    TruncatedPolynomial,
    _Powers,
    as_fraction,
    substitution,
    variable_names,
)
from .subspace import SparseRow, _add_multiple, apply_columns, span_coordinates
from .weil import (
    AlgebraElement,
    WeilAlgebra,
    _fraction_row,
    free_truncated_algebra,
    tensor_product,
)

@dataclass(frozen=True)
class APoint:
    """A morphism from the polynomial coordinate ring into a Weil algebra."""

    algebra: WeilAlgebra
    images: tuple[AlgebraElement, ...]

    def __post_init__(self):
        for img in self.images:
            if img.algebra != self.algebra:
                raise DimensionMismatchError("image lives in the wrong algebra")

    @property
    def ambient_dimension(self) -> int:
        return len(self.images)

    @property
    def base_point(self) -> tuple[Scalar, ...]:
        return tuple(img.augmentation() for img in self.images)

    @cached_property
    def _powers(self) -> _Powers:
        """The point as a ring morphism (:meth:`WeilAlgebra._power_numerators`),
        built on first read and shared by every polynomial evaluated here."""
        return self.algebra._power_numerators([img.row for img in self.images])

    def __repr__(self) -> str:
        return f"APoint(n={self.ambient_dimension}, algebra={self.algebra!r})"


def apoint(algebra: WeilAlgebra, images: Sequence) -> APoint:
    """Convenience constructor accepting coordinate tuples for the images."""
    elems = []
    for img in images:
        elems.append(
            img if isinstance(img, AlgebraElement) else algebra.element(img)
        )
    return APoint(algebra, tuple(elems))


def evaluate(f: TruncatedPolynomial, point: APoint) -> AlgebraElement:
    """f(p^A): each term of f becomes the product of the images' powers.

    The coordinates of the result over the basis monomials are the real
    components of f at the point.  The products come from the point's one
    power cache and stay integer until the one canonical scalar per coordinate.
    At a zero base point the images are nilpotent, so terms past the
    algebra's order vanish and are never walked.
    """
    if f.variable_count != point.ambient_dimension:
        raise DimensionMismatchError(
            f"polynomial in {f.variable_count} variables evaluated at a point "
            f"of R^{point.ambient_dimension}"
        )
    algebra = point.algebra
    terms = f.coefficients.items()
    if any(point.base_point):
        # Every term is walked, and a term whose window is above the cap
        # raises.  The window of the degree the value reaches is checked first.
        _check_window(f.variable_count, min(algebra.order, f.degree()))
    else:
        terms = [(exp, c) for exp, c in terms if sum(exp) <= algebra.order]
    total, den = point._powers.image(terms)
    return AlgebraElement(algebra, _fraction_row(total.items(), den))


def regularity_and_kernel(point: APoint) -> tuple[bool, Jet]:
    """Surjectivity of the evaluation plus its kernel jet at the base point."""
    algebra = point.algebra
    regular = algebra.generated_by([img.row for img in point.images])
    nilpotent = algebra._power_numerators([img.nilpotent_part().row for img in point.images])
    return regular, _kernel_jet(algebra, point.base_point, point.ambient_dimension, nilpotent)


def factor_epimorphism(alpha: APoint, beta: APoint, order: int) -> APoint:
    """An automorphism g of R_m^order with beta = alpha o g, as an A-point of
    R^m over :func:`free_truncated_algebra` (m, order).

    An epimorphism R_m^order -> A is exactly a regular A-point of R^m at the
    origin over an algebra A of order <= ``order``; anything else is refused.
    Let S_a be the coordinates whose alpha-images are independent modulo m^2,
    and S_b the same for beta.  The images of S_a generate A (Nakayama), so
    one solver over the alpha-images of the monomials on S_a lifts each
    beta(x_j) to a polynomial P_j on S_a and each alpha(x_i), i not in S_a,
    to Q_i.  g sends x_j to P_j for j in S_b; the coordinates off S_b and off
    S_a are paired in order, and x_j goes to P_j + x_i - Q_i for the pair
    (j, i).  x_i - Q_i lies in the kernel of alpha, so alpha o g = beta, and
    the linear part of g is block-triangular with invertible diagonal blocks.
    Both facts are checked exactly before returning.
    """
    algebra, m = alpha.algebra, alpha.ambient_dimension
    if beta.algebra != algebra:
        raise DimensionMismatchError("A-points must share their algebra")
    if beta.ambient_dimension != m:
        raise DimensionMismatchError("A-points must share their ambient dimension")
    if any(alpha.base_point) or any(beta.base_point):
        raise NotEpimorphismError("factorization needs A-points at the origin")
    if order < algebra.order:
        raise NotEpimorphismError(
            f"an algebra of order {algebra.order} is no quotient of R_{m}^{order}"
        )
    sel_a = algebra._independent_mod_m2(img.row for img in alpha.images)
    if len(sel_a) != algebra.width:
        raise NotEpimorphismError("first A-point is not regular")
    sel_b = algebra._independent_mod_m2(img.row for img in beta.images)
    if len(sel_b) != algebra.width:
        raise NotEpimorphismError("second A-point is not regular")

    # The source is free, so basis class b is its monomial, and alpha's power
    # cache gives that monomial's image.
    source = free_truncated_algebra(m, order)
    on_a = [
        b for b, exp in enumerate(source.basis_monomials)
        if any(exp) and all(i in sel_a for i, e in enumerate(exp) if e)
    ]
    powers = alpha._powers
    solve = span_coordinates(
        [powers.row(source.basis_monomials[b]) for b in on_a], algebra.dimension
    )

    def lift(value: AlgebraElement) -> SparseRow:
        # Every value in m lies in the span: alpha is regular, so the images
        # of the monomials of degree >= 1 on S_a span m (Nakayama).
        return {on_a[k]: c for k, c in solve(value.row).items()}

    rows = [lift(img) for img in beta.images]
    rest_a = [i for i in range(m) if i not in sel_a]
    rest_b = [j for j in range(m) if j not in sel_b]
    for j, i in zip(rest_b, rest_a):
        _add_multiple(rows[j], 1, source.generator(i).row)
        _add_multiple(rows[j], 1, lift(alpha.images[i]), sign=-1)

    # Exact verification of the factorization and of invertibility: an
    # endomorphism of the free source is invertible exactly when it is onto,
    # that is when its linear part is invertible (Nakayama), at order 0 too.
    if [evaluate(source.row_polynomial(row), alpha) for row in rows] != list(beta.images):
        raise InternalCheckError("internal factorization check failed")
    if not source.generated_by(rows):
        raise InternalCheckError("constructed substitution is not invertible")
    return APoint(source, tuple(AlgebraElement(source, row) for row in rows))


def cartesian_product(p: APoint, q: APoint) -> APoint:
    """The unique point on the product splitting back into p and q."""
    if p.algebra != q.algebra:
        raise DimensionMismatchError("cartesian product needs a shared algebra")
    return APoint(p.algebra, p.images + q.images)


# -- generic points and prolongation of ideals -----------------------------------


def component_names(algebra: WeilAlgebra, n: int) -> list[str]:
    """Names of the real-component coordinates x^i_alpha, layout order."""
    base = variable_names(n)
    return [f"{base[i]}{alpha}" for i in range(n) for alpha in range(algebra.dimension)]


def _times_variable(m: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The index key of the monomial m times the variable v.

    An index key is the flat tuple ``(v1, -k1, v2, -k2, ...)`` of a monomial's
    variables, ascending, each followed by its negated power; within one
    degree, plain tuple order is then the layout order.
    """
    for j in range(0, len(m), 2):
        w = m[j]
        if w == v:
            return m[: j + 1] + (m[j + 1] - 1,) + m[j + 2 :]
        if w > v:
            return m[:j] + (v, -1) + m[j:]
    return m + (v, -1)


def _prolonged_numerators(
    f: TruncatedPolynomial, algebra: WeilAlgebra
) -> tuple[list[dict[tuple[int, ...], int]], int]:
    """Real components of f at the generic A-point, as numerators over one denominator.

    One ``{index key: numerator}`` dict per basis monomial, in the n*dim
    component variables (see :func:`_times_variable`).  Component b of the
    generic image of x_i is the single variable ``i*dim + b``, so multiplying
    by an image moves each monomial by one variable through the table; a
    product of k images is flat ``((component, index key), numerator)``
    pairs over ``_mult_den**k`` and has degree k <= deg f.
    """
    d = algebra.dimension
    mult = algebra._mult

    def mul(u, i: int):
        """u times the generic image of x_i, on numerators, through the table."""
        out: dict[tuple[int, tuple[int, ...]], int] = {}
        get = out.get
        first = i * d
        for (a, m), c in u:
            for b, entries in mult[a].items():
                moved = _times_variable(m, first + b)
                for g, t in entries:
                    key = (g, moved)
                    out[key] = get(key, 0) + c * t
        return out.items()

    den = algebra._mult_den
    firsts = [[((b, (i * d + b, -1)), den) for b in range(d)] for i in range(f.variable_count)]
    powers = _Powers((((0, ()), 1),), range(f.variable_count), mul, den, firsts)
    numerators, den = powers.image(f.coefficients.items())
    out: list[dict[tuple[int, ...], int]] = [{} for _ in range(d)]
    for (g, m), c in numerators.items():
        out[g][m] = c
    return out, den


def prolong_polynomial(
    f: TruncatedPolynomial, algebra: WeilAlgebra
) -> list[TruncatedPolynomial]:
    """Real components of f at the generic A-point, as exact polynomials.

    The component variables x_(i*dim + alpha) are ordered as
    :func:`component_names`; each index key becomes a dense exponent once.
    """
    components, den = _prolonged_numerators(f, algebra)
    total = f.variable_count * algebra.dimension
    bound = max(f.degree(), 1)
    polys = []
    for numerators in components:
        dense = {}
        for m, c in numerators.items():
            e = [0] * total
            for v, k in zip(m[::2], m[1::2]):
                e[v] = -k
            dense[tuple(e)] = c
        polys.append(TruncatedPolynomial._from_numerators(total, bound, dense, den))
    return polys


# -- Weil's theorem check -----------------------------------------------------------


@dataclass(frozen=True)
class WeilCheckReport:
    """Outcome of the two-route real-component comparison."""

    equal: bool
    tensor_algebra: WeilAlgebra
    direct: tuple[tuple[Scalar, ...], ...]     # [alpha][beta]
    two_stage: tuple[tuple[Scalar, ...], ...]  # [alpha][beta]


def weil_iso_check(
    f: TruncatedPolynomial,
    a: WeilAlgebra,
    b: WeilAlgebra,
    point_matrices: Sequence[Sequence[Sequence]],
) -> WeilCheckReport:
    """Compare (f_alpha)_beta against the paired components over the tensor.

    ``point_matrices[i][alpha][beta]`` gives the coordinate of the i-th
    ambient image over the basis pair (alpha, beta).
    """
    n = f.variable_count
    if len(point_matrices) != n:
        raise DimensionMismatchError("need one coefficient matrix per coordinate")
    da, db = a.dimension, b.dimension
    mats = [
        [[as_fraction(v) for v in row] for row in m] for m in point_matrices
    ]
    for m in mats:
        if len(m) != da or any(len(row) != db for row in m):
            raise DimensionMismatchError("coefficient matrix has the wrong shape")

    tensor = tensor_product(a, b)
    d = tensor.dimension
    if d != da * db:
        raise DimensionMismatchError("tensor basis does not split into pairs")
    # Column alpha * db + beta of the pairing P is the class of a_alpha b_beta.
    pair_cols = [
        tensor.monomial_element(ea + eb).row
        for ea in a.basis_monomials
        for eb in b.basis_monomials
    ]

    # Route 1: evaluate directly over A (x) B and solve for the coordinates
    # over the pair columns.
    flat = [[c for row in m for c in row] for m in mats]
    images = tuple(
        AlgebraElement(tensor, apply_columns(pair_cols, {k: c for k, c in enumerate(v) if c}))
        for v in flat
    )
    direct_pairs = span_coordinates(pair_cols, d)(evaluate(f, APoint(tensor, images)).row)
    if direct_pairs is None:
        raise DimensionMismatchError("tensor pairing is degenerate")
    direct = tuple(
        tuple(direct_pairs.get(alpha * db + beta, 0) for beta in range(db))
        for alpha in range(da)
    )

    # Route 2: components over A, then components of those over B.
    comps = prolong_polynomial(f, a)
    stage_point = APoint(b, tuple(b.element(row) for m in mats for row in m))
    two_stage = tuple(
        tuple(evaluate(comps[alpha], stage_point).coordinates)
        for alpha in range(da)
    )

    return WeilCheckReport(direct == two_stage, tensor, direct, two_stage)


# -- Lie group prolongation -----------------------------------------------------------


@dataclass(frozen=True)
class GroupLaw:
    """Polynomial group law on R^n, validated on construction."""

    dimension: int
    law: tuple[TruncatedPolynomial, ...]       # n polynomials in 2n variables
    identity: tuple[Scalar, ...]
    inverse: tuple[TruncatedPolynomial, ...]   # n polynomials in n variables

    def __post_init__(self):
        n = self.dimension
        if len(self.law) != n or len(self.inverse) != n:
            raise DimensionMismatchError("group law needs n components")
        for f in self.law:
            if f.variable_count != 2 * n:
                raise DimensionMismatchError("law components take 2n variables")
        for f in self.inverse:
            if f.variable_count != n:
                raise DimensionMismatchError("inverse components take n variables")
        # Each check substitutes to the degree its composition can reach: the
        # law's degree with constants and variables, and that degree times
        # the inverse's with the inverse.
        law_degree = max((f.degree() for f in self.law), default=0)
        inverse_degree = max((f.degree() for f in self.inverse), default=0)
        bound = max(law_degree, 1)
        xs = [TruncatedPolynomial.variable(n, bound, i) for i in range(n)]
        e = [TruncatedPolynomial.constant(n, bound, c) for c in self.identity]
        # One substitution map per check, shared by the law's n components.
        left = substitution(e + xs, bound)
        if [left(f) for f in self.law] != xs:
            raise ValueError("identity is not left-neutral for the law")
        right = substitution(xs + e, bound)
        if [right(f) for f in self.law] != xs:
            raise ValueError("identity is not right-neutral for the law")
        # Truncation is a ring map, so the composition truncated at a bound is
        # the degree <= bound part of the whole one: check at doubling bounds
        # up to the full one, and a wrong inverse fails at the first bound that
        # reaches its first wrong degree.  The first bound is twice the law's
        # degree, so an inverse of degree <= 2 is checked once, at the full
        # bound: for small laws a check costs its map's set-up, not its degree.
        full = max(law_degree * max(inverse_degree, 1), 1)
        while True:
            bound = min(2 * bound, full)
            inverted = substitution(xs + [g.truncate(bound) for g in self.inverse], bound)
            if [inverted(f) for f in self.law] != e:
                raise ValueError("inverse map does not invert the law")
            if bound == full:
                break


def group_law(
    dimension: int,
    law: Sequence[TruncatedPolynomial],
    identity: Sequence,
    inverse: Sequence[TruncatedPolynomial],
) -> GroupLaw:
    return GroupLaw(
        dimension,
        tuple(law),
        tuple(as_fraction(c) for c in identity),
        tuple(inverse),
    )


def group_product(law: GroupLaw, p: APoint, q: APoint) -> APoint:
    """p q in the group of A-points of the law: the law evaluated at (p, q)."""
    if law.dimension != p.ambient_dimension or law.dimension != q.ambient_dimension:
        raise DimensionMismatchError("point has the wrong ambient dimension")
    joint = cartesian_product(p, q)
    return APoint(p.algebra, tuple(evaluate(f, joint) for f in law.law))


def group_inverse(law: GroupLaw, p: APoint) -> APoint:
    """The inverse of p in the group of A-points of the law."""
    if law.dimension != p.ambient_dimension:
        raise DimensionMismatchError("point has the wrong ambient dimension")
    return APoint(p.algebra, tuple(evaluate(f, p) for f in law.inverse))

