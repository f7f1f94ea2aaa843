"""Jets of the local model at a point: ideals with Weil-algebra quotients.

A jet in n variables is stored through the window (n, order+1) as the
canonical subspace of the coefficients of its ideal; the quotient algebra,
order and width ride along.  Base points are recorded but every internal
computation happens at the origin after an exact translation.

The derived jet is produced twice over: through the adapted normal form
(y^1..y^r) + m^{l+1} + (Q^h(x)) and, independently, by applying the finite
family of graph-tangent fields and saturating.  Their agreement is one of
the package's standing checks.  A derived jet of the same width keeps the
adapted coordinates it was built in (its :class:`Chart`), so the jet derived
from it again needs no second straightening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyQuotientError,
    HintTooSmallError,
    InternalCheckError,
)
from .monomials import (
    Exponent,
    degrees,
    shift_tables,
    window,
    window_index,
    window_size,
)
from .poly import (
    Scalar,
    TruncatedPolynomial,
    _Powers,
    _rational,
    as_fraction,
    format_polynomial,
    substitution,
    truncated_product,
)
from .subspace import (
    Echelon,
    SparseRow,
    Subspace,
    _add_multiple,
    apply_columns,
    preimage,
    span_coordinates,
    transpose,
)
from .weil import (
    WeilAlgebra,
    _memo,
    _rewindow,
    _variable_shifts,
    derivation_space,
    free_truncated_algebra,
    quotient_algebra,
)

@dataclass(frozen=True)
class Chart:
    """Adapted coordinates of a jet, in which its ideal is
    (pivot variables) + m^{l+1} + (q_list) with each q in the free variables.

    The jet is that ideal moved back through ``sigma_inverse``, the
    substitution (x, y + h(x)) whose h_j are the tails of the degree-1 pivot
    rows y_j + h_j of the jet the chart was straightened from (see
    :func:`normal_form`).  A :class:`NormalForm` is a chart; a derived jet
    carries the chart of the coordinates it was built in (see
    :func:`_derived_via_normal_form`).
    """

    pivot_variables: tuple[int, ...]
    free_variables: tuple[int, ...]
    sigma_inverse: tuple[TruncatedPolynomial, ...]
    q_list: tuple[TruncatedPolynomial, ...]


class Jet:
    """An ideal of the local model at a point, in canonical form.

    ``chart``, when given, is a :class:`Chart` of the ideal; it takes no part
    in equality or hashing.
    """

    def __init__(
        self,
        quotient: WeilAlgebra,
        base_point: tuple[Scalar, ...],
        classical: bool = False,
        chart: Chart | None = None,
    ):
        self.quotient = quotient
        self.n = quotient.n
        self.base_point = base_point
        self.order = quotient.order
        self.width = quotient.width
        self.window_bound = quotient.window_bound
        self.ideal = quotient.defining_ideal
        self.classical = classical
        self.chart = chart
        self._memo: dict[tuple, object] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.n == other.n
            and self.base_point == other.base_point
            and self.window_bound == other.window_bound
            and self.ideal == other.ideal
        )

    def __hash__(self) -> int:
        return hash((self.n, self.base_point, self.window_bound, self.ideal))

    def __repr__(self) -> str:
        return (
            f"Jet(vars={self.n}, order={self.order}, width={self.width}, "
            f"dim={self.quotient.dimension})"
        )

    # -- membership ------------------------------------------------------------

    def embedded_ideal(self, bound: int) -> Subspace:
        """The ideal as a subspace of a larger window (origin coordinates)."""
        if bound < self.window_bound:
            raise DimensionMismatchError("embedding window is too small")
        if bound == self.window_bound:
            return self.ideal
        # Windows are prefixes of one layout and the ideal's rows stop at its
        # own window, so they stay reduced; the new monomials join as unit rows.
        size = window_size(self.n, bound)
        rows = dict(self.ideal.rows)
        for c in range(self.ideal.ambient_dimension, size):
            rows[c] = {c: 1}
        return Subspace(size, rows)

    def contains_jet(self, other: "Jet") -> bool:
        """Ideal inclusion other <= self, compared in a common window."""
        if self.n != other.n or self.base_point != other.base_point:
            raise DimensionMismatchError("jets live at different points")
        bound = max(self.window_bound, other.window_bound)
        return self.embedded_ideal(bound).contains_subspace(
            other.embedded_ideal(bound)
        )


def _window_jet(n: int, bound: int, ideal: Subspace, base_point: tuple[Scalar, ...]) -> Jet:
    """The jet of a subspace that is already an ideal of the window: its rows
    generate it, and need no saturation."""
    return Jet(_rewindow(n, bound, ideal, list(ideal.rows.values())), base_point)


def jet_from_ideal(
    n: int,
    base_point: Sequence,
    generators: Sequence[TruncatedPolynomial],
    order_hint: int,
    strict_hint: bool = False,
) -> Jet:
    """The jet of the given order of the ideal the generators span.

    The result is (generators) + m^{order_hint+1} at the base point; the true
    order of that ideal is detected and the stored window shrunk accordingly.
    With ``strict_hint`` the call refuses results whose detected order equals
    the hint, since then the truncation itself may be what bounded the order.
    """
    base = tuple(as_fraction(b) for b in base_point)
    if len(base) != n:
        raise DimensionMismatchError("base point has the wrong length")
    shifted = []
    for g in generators:
        if g.variable_count != n:
            raise DimensionMismatchError("generator has the wrong variable count")
        # The quotient keeps degrees up to the hint only, so the shift stops there.
        moved = g.shift(base, max(order_hint, 0)) if any(base) else g
        if moved.constant_term():
            raise EmptyQuotientError(
                f"generator {format_polynomial(g)} does not vanish at the base point"
            )
        shifted.append(moved)
    if order_hint < 0:
        raise HintTooSmallError("the order hint must be non-negative")
    algebra = quotient_algebra(n, order_hint, shifted)
    if strict_hint and algebra.order == order_hint:
        raise HintTooSmallError(
            f"detected order {algebra.order} reached the hint; the truncation "
            "may be cutting the ideal, retry with a larger hint"
        )
    return Jet(algebra, base)


def classical_jet(
    n: int,
    base_point: Sequence,
    graph: dict[int, TruncatedPolynomial],
    order: int,
) -> Jet:
    """Jet of order ``order`` of the graph y^j = f^j(x).

    ``graph`` maps the dependent variable indices to polynomials in the
    remaining coordinates; the quotient invariants are checked against the
    full truncated model and a mismatch is an internal error.
    """
    base = tuple(as_fraction(b) for b in base_point)
    dependent = sorted(graph)
    free = [i for i in range(n) if i not in set(dependent)]
    gens = []
    for j in dependent:
        f = graph[j]
        if f.variable_count != n:
            raise DimensionMismatchError("graph polynomial has the wrong variable count")
        for exp in f.coefficients:
            if any(exp[k] for k in dependent):
                raise DimensionMismatchError(
                    "graph polynomials may only involve the independent variables"
                )
        bound = max(order, f.degree(), 1)
        gens.append(TruncatedPolynomial.variable(n, bound, j) - f.with_bound(bound))
    quotient = jet_from_ideal(n, base, gens, order).quotient
    model = free_truncated_algebra(len(free), order)
    ok = (
        quotient.dimension == model.dimension
        and quotient.order == model.order
        and quotient.width == model.width
    )
    if not ok:
        raise InternalCheckError(
            f"graph jet missed the model invariants: got dim {quotient.dimension},"
            f" order {quotient.order}, width {quotient.width}"
        )
    return Jet(quotient, base, classical=True)


# -- hat ideal and cotangent ---------------------------------------------------


@_memo
def hat_ideal(p: Jet) -> Jet:
    """{f in p : every first partial of f stays in p}, as a jet.

    Computed one window above the jet's own so the raised order is visible;
    the inclusions p^2 <= hat(p) <= p are verified before returning.  The
    products of pairs of minimal generators of p generate p^2, so those pairs
    are the ones checked.  Every monomial of the top degree l + 2 lies in
    hat(p), its partials having degree l + 1, so each must be a pivot of hat;
    the layout is graded, so their rows are then unit rows, and a product
    whose factors' lowest degrees add up to l + 2 or more lies in hat as it
    stands.  Only the other pairs are multiplied.  The result is cached on
    the jet.
    """
    n, ell = p.n, p.order
    bound = ell + 2
    exps = window(n, bound)
    shifts = shift_tables(n, bound)
    embedded = p.embedded_ideal(bound)
    memb = embedded.echelon().kernel_rows()

    conditions = Echelon(window_size(n, bound))
    for r in memb:
        conditions.insert(r)
    for i in range(n):
        # Condition rows of (membership o d/dx_i): the coefficient of x^e in
        # d f/dx_i is (e_i + 1) times that of x^e * x_i, one canonical scalar
        # built from the numerators.
        for r in memb:
            row: SparseRow = {}
            for c, v in r.items():
                t = shifts[i][c]
                if t is not None:
                    row[t] = _rational((exps[c][i] + 1) * v.numerator, v.denominator)
            conditions.insert(row)
    hat = conditions.kernel()

    if not embedded.contains_subspace(hat):
        raise InternalCheckError("hat ideal escaped the jet")
    if any(c not in hat.rows for c in range(window_size(n, ell + 1), len(exps))):
        raise InternalCheckError("hat ideal misses a monomial of the top degree")
    gen_polys = p.quotient.minimal_generators
    lowest = [min(map(sum, g.coefficients), default=bound) for g in gen_polys]
    for a in range(len(gen_polys)):
        for b in range(a, len(gen_polys)):
            if lowest[a] + lowest[b] >= bound:
                continue
            prod = truncated_product(gen_polys[a], gen_polys[b], bound)
            if not hat.contains_vector(prod.to_sparse(bound)):
                raise InternalCheckError("p^2 is not inside the hat ideal")

    return _window_jet(n, bound, hat, p.base_point)


@dataclass(frozen=True)
class CotangentModule:
    """p/hat(p), with a basis of representatives."""

    jet: Jet
    hat: Jet
    dimension: int
    basis: tuple[TruncatedPolynomial, ...]


def cotangent_module(p: Jet) -> CotangentModule:
    """Basis of p/hat(p): the rows of p that stay independent modulo hat(p)."""
    hat = hat_ideal(p)
    bound = max(p.window_bound, hat.window_bound)
    p_emb = p.embedded_ideal(bound)
    hat_emb = hat.embedded_ideal(bound)
    reps: list[TruncatedPolynomial] = []
    picked = hat_emb.echelon()
    for r in p_emb.rows.values():
        if picked.insert(r):
            reps.append(TruncatedPolynomial.from_sparse(p.n, bound, r))
    dim = p_emb.dimension - hat_emb.dimension
    return CotangentModule(p, hat, dim, tuple(reps))


# -- tangent module --------------------------------------------------------------


@dataclass(frozen=True)
class TangentModule:
    """T_p presented as A^n modulo the images of the algebra derivations."""

    jet: Jet
    ambient_dimension: int
    relations: Subspace
    dimension: int


def tangent_module(p: Jet) -> TangentModule:
    relations = derivation_space(p.quotient).relations
    ambient = p.n * p.quotient.dimension
    return TangentModule(p, ambient, relations, ambient - relations.dimension)


@_memo
def jet_fields(p: Jet) -> Subspace:
    """Fields (window-order polynomial coefficients) mapping the ideal into itself.

    The field D = sum_i a_i d/dx_i maps p into itself exactly when
    ([a_1], ..., [a_n]) is a derivation of A = R[x]/p: the class of D(g) is
    sum_i [a_i][dg/dx_i], and D(gf) = D(g)f + gD(f).  So the fields are the
    lift of Der(A, A) plus the fields whose coefficients all lie in p.  The
    coefficients have degree <= l, the order, and the ideal contains every
    monomial of degree l + 1, so nothing is lost.  Unknown i*w + c is the
    coefficient in a_i of the c-th monomial of the window (n, l).

    The fields with coefficients in p are the n block copies of p's rows with
    a pivot in the window (n, l).  Those are canonical rows of p, zero at
    every other pivot and in degree l + 1, and the blocks are disjoint, so
    the copies are in reduced form together: they seed the echelon, and only
    the lift of Der(A, A) is inserted.  Only the ``fields`` op builds this
    space: the Taylor map's check reads the lift (:func:`_assert_fields_project`).
    """
    n, ell = p.n, p.order
    algebra = p.quotient
    d = algebra.dimension
    w = window_size(n, ell)
    idx = window_index(n, ell)
    columns = [idx[e] for e in algebra.basis_monomials]
    # The window (n, l) is a prefix of p's, so p's rows with a pivot there
    # keep their columns in each block.
    inside = [(pivot, row) for pivot, row in p.ideal.rows.items() if pivot < w]
    fields = Echelon(
        n * w,
        {
            i * w + pivot: {i * w + c: v for c, v in row.items()}
            for i in range(n)
            for pivot, row in inside
        },
    )
    for row in derivation_space(algebra).relations.rows.values():
        fields.insert({(j // d) * w + columns[j % d]: c for j, c in row.items()})
    return fields.subspace()


# -- normal form -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm(Chart):
    """Adapted coordinates where the ideal is (y pivots) + m^{l+1} + (Q(x)):
    a :class:`Chart` of the jet, with sigma and the transformed ideal."""

    jet: Jet
    r: int
    sigma: tuple[TruncatedPolynomial, ...]
    transformed_ideal: Subspace


def _x_columns(
    n: int, bound: int, pivot_vars: Sequence[int], low: int, high: int
) -> list[int]:
    """Window columns of the monomials of degree low..high free of the pivot variables."""
    return [
        c
        for c, e in enumerate(window(n, bound))
        if low <= sum(e) <= high and all(e[j] == 0 for j in pivot_vars)
    ]


def _x_part(
    ideal: Subspace, n: int, bound: int, pivot_vars: Sequence[int], low: int, high: int
) -> Subspace:
    """The elements of the ideal written in the free variables, in degrees low..high.

    ``ideal`` is an ideal of the window (n, bound) that contains every
    monomial of the top degree ``bound`` and every pivot variable, so also
    every monomial with a pivot variable.  Those columns are pivots whose
    canonical rows are unit rows, so every other row is zero there: each
    canonical row lies on monomials in the free variables of degree at least
    its pivot's (the layout is graded).  An element of the ideal is the sum of
    its entries at the pivots times their rows, so the elements on the
    monomials in the free variables of degree low..high are exactly the span
    of the rows whose pivot is such a monomial.  Those rows are the canonical
    rows of the intersection as they stand: no elimination.
    """
    columns = set(_x_columns(n, bound, pivot_vars, low, high))
    return Subspace(
        ideal.ambient_dimension, {p: row for p, row in ideal.rows.items() if p in columns}
    )


def _substituted_ideal(
    ideal: Subspace,
    n: int,
    bound: int,
    substitute: Callable[[TruncatedPolynomial], TruncatedPolynomial],
) -> Subspace:
    """The span of the ideal pushed through the straightening substitution.

    sigma sends the variables into m with an invertible linear part, so in
    the window it maps the span of the monomials of the top degree ``bound``
    onto itself.  The ideal contains those monomials as unit rows, so they
    seed the echelon first, as they stand, and only the lower rows are pushed
    and inserted; each insertion clears its top-degree entries against the
    seeded rows, which keeps the form reduced.
    """
    degs = degrees(n, bound)
    span = Echelon(
        ideal.ambient_dimension,
        {p: row for p, row in ideal.rows.items() if degs[p] == bound},
    )
    for p, r in ideal.rows.items():
        if degs[p] < bound:
            span.insert(substitute(TruncatedPolynomial.from_sparse(n, bound, r)).to_sparse(bound))
    return span.subspace()


@_memo
def normal_form(p: Jet) -> NormalForm:
    """Straighten the jet to (y^1..y^r) + m^{l+1} + (Q^h(x)), in closed form.

    The layout is graded, so it is a monomial order and the pivots of p's
    canonical rows form a monomial ideal: the leading ideal of a local degree
    ordering.  The pivot variables y are the pivots of degree 1, so every
    monomial that holds one is a pivot too.  A canonical row is zero at every
    other pivot, so the row with pivot y_j is y_j + h_j, with h_j on
    monomials in the free variables x alone.  Then sigma = (x, y - h(x))
    sends that row to y_j, and tau = (x, y + h(x)) is its exact inverse.
    p's ideal is pushed through sigma once, only its rows below the top
    degree (:func:`_substituted_ideal`), and not at all when every h_j is
    zero.  The transformed ideal I is checked to contain every pivot
    variable, so its x-part is a filter of its canonical rows
    (:func:`_x_part`).  (y^1..y^r) + m^{l+1} is a monomial ideal, so its
    echelon starts as unit rows; each Q row that it does not yet contain is
    saturated into it, and the result must equal I exactly.
    """
    n, ell = p.n, p.order
    bound = p.window_bound
    sub_bound = max(ell, 1)
    exps = window(n, bound)

    # Rows whose pivot sits in the degree-1 block are y_j + h_j.  Every
    # monomial of the top degree is a pivot, so h_j fits sigma's bound.
    pivot_vars: list[int] = []
    tails: list[TruncatedPolynomial] = []
    for piv, row in p.ideal.rows.items():
        if sum(exps[piv]) == 1:
            pivot_vars.append(exps[piv].index(1))
            tails.append(
                TruncatedPolynomial(n, sub_bound, {exps[c]: v for c, v in row.items() if c != piv})
            )
    free_vars = [i for i in range(n) if i not in set(pivot_vars)]
    r = len(pivot_vars)
    if r != n - p.width:
        raise InternalCheckError("degree-1 rank disagrees with the width")
    # With every h_j on x alone, tau fixes x, so sigma_j(tau) = y_j + h_j(x)
    # - h_j(x) = y_j: this check is also the one that tau inverts sigma.
    if any(e[j] for h in tails for e in h.coefficients for j in pivot_vars):
        raise InternalCheckError("a pivot row's tail holds a pivot variable")

    identity = [TruncatedPolynomial.variable(n, sub_bound, i) for i in range(n)]
    sigma, tau = list(identity), list(identity)
    for j, h in zip(pivot_vars, tails):
        sigma[j] = identity[j] - h
        tau[j] = identity[j] + h
    current = p.ideal
    if any(h.coefficients for h in tails):
        current = _substituted_ideal(current, n, bound, substitution(sigma, bound))

    for j in pivot_vars:
        if not current.contains_vector(TruncatedPolynomial.variable(n, bound, j).to_sparse(bound)):
            raise InternalCheckError("pivot variable missing from the transformed ideal")

    # Q list: the x-only part in degrees 2..l, pruned of redundant rows.
    x_part = _x_part(current, n, bound, pivot_vars, 2, ell)

    # (y^1..y^r) + m^{l+1} is a monomial ideal: its echelon is the unit rows
    # of the monomials with a pivot variable or of degree l + 1.
    generated = Echelon(
        current.ambient_dimension,
        {
            c: {c: 1}
            for c, e in enumerate(exps)
            if sum(e) == bound or any(e[j] for j in pivot_vars)
        },
    )
    shifts = _variable_shifts(n, bound)
    q_list: list[TruncatedPolynomial] = []
    for probe in x_part.rows.values():
        if not generated.reduce(probe):
            continue
        q_list.append(TruncatedPolynomial.from_sparse(n, bound, probe))
        generated.saturate([probe], shifts)
    rebuilt = generated.subspace()
    if rebuilt != current:
        raise InternalCheckError("normal form identity failed to verify")

    return NormalForm(
        pivot_variables=tuple(pivot_vars),
        free_variables=tuple(free_vars),
        sigma_inverse=tuple(tau),
        q_list=tuple(q_list),
        jet=p,
        r=r,
        sigma=tuple(sigma),
        transformed_ideal=current,
    )


# -- derived jet: closed form and generation oracle ------------------------------


def derived_jet(p: Jet, verify: bool = False) -> Jet:
    """p + (derivatives of p along the Cartan directions), via the normal form.

    With ``verify`` the independent field-generation oracle is run and exact
    agreement with the cached derived jet is required.
    """
    result = _derived_via_normal_form(p)
    if verify and cartan_generation_oracle(p) != result:
        raise InternalCheckError("derived jet disagrees with the generation oracle")
    return result


@_memo
def _derived_via_normal_form(p: Jet) -> Jet:
    """p' = (y) + m^l + (Q, d_x Q) in a chart of p, moved back to p's coordinates.

    The chart is p's own when p carries one, and otherwise p's normal form.
    tau sends y_j to tau_j = y_j + h_j(x) and fixes Q' = (Q, d_x Q), which
    lives on x, so p' is the quotient by the tau_j and Q', with no
    substitution.  When p' keeps p's width, no element of Q' has a linear
    term, so p' carries the chart, with Q' truncated at its order, and the jet
    derived from p' needs no normal form.  A width drop (d_v of v^2 is a unit)
    gives no chart.
    """
    n, ell = p.n, p.order
    if ell == 0:
        return p
    chart = p.chart or normal_form(p)
    # sigma^*(m^l) = m^l, which the quotient at hint l - 1 holds by itself.
    gens = [chart.sigma_inverse[j] for j in chart.pivot_variables]
    q_prime: list[TruncatedPolynomial] = []
    for q in chart.q_list:
        q_prime.append(q)
        for a in chart.free_variables:
            dq = q.derivative(a)
            if not dq.is_zero():
                q_prime.append(dq)
    algebra = quotient_algebra(n, ell - 1, gens + q_prime)
    if algebra.width != p.width:
        return Jet(algebra, p.base_point)
    kept = (q.truncate(algebra.order) for q in q_prime)
    return Jet(
        algebra,
        p.base_point,
        chart=Chart(
            chart.pivot_variables,
            chart.free_variables,
            chart.sigma_inverse,
            tuple(q for q in kept if not q.is_zero()),
        ),
    )


def _pullback(
    p: Jet,
    gens_new_coords: Sequence[TruncatedPolynomial],
    hint: int,
    sigma_inverse: Sequence[TruncatedPolynomial],
) -> WeilAlgebra:
    """The quotient by generators written in adapted coordinates, moved back
    through sigma: the jet's algebra of (pulled generators) + m^{hint+1}.
    Its one caller is the oracle, :func:`cartan_generation_oracle`."""
    work_bound = hint + 1
    pull = substitution(sigma_inverse, work_bound)
    pulled = []
    for g in gens_new_coords:
        moved = pull(g.truncate(work_bound) if g.degree() > work_bound else g)
        if not moved.is_zero():
            pulled.append(moved)
    return quotient_algebra(p.n, hint, pulled)


def _graph_tangent_fields(nf: NormalForm) -> list[dict[int, TruncatedPolynomial]]:
    """The finite graph-tangent field family in adapted coordinates.

    Each field is a dict {variable index: polynomial coefficient}: the
    coordinate fields d/dx^a of the base graph, and d/dx^a + dF/dx^a d/dy^j
    for F a top-degree form in the free variables or an element of the x-part
    of the transformed ideal.  The x-part up to degree l+1 already holds each
    top-degree monomial in the free variables as a unit row, so its rows give
    every form once.
    """
    p = nf.jet
    n, bound = p.n, p.window_bound
    xs, ys = nf.free_variables, nf.pivot_variables
    h_basis = _x_part(nf.transformed_ideal, n, bound, ys, 2, bound)
    forms = [TruncatedPolynomial.from_sparse(n, bound, r) for r in h_basis.rows.values()]
    one = TruncatedPolynomial.constant(n, bound, 1)
    fields = [{a: one} for a in xs]
    for F in forms:
        for a in xs:
            dF = F.derivative(a)
            if not dF.is_zero():
                fields += [{a: one, j: dF} for j in ys]
    return fields


def cartan_generation_oracle(p: Jet) -> Jet:
    """Independent derived jet: apply the finite graph-tangent field family.

    In adapted coordinates the family consists of the coordinate fields of the
    base graph, corrections by gradients of top-degree forms, and corrections
    by gradients of elements of the x-part ideal; the ideal generated by the
    jet together with all their derivatives is the derived jet.
    """
    n, ell = p.n, p.order
    if ell == 0:
        return p
    nf = normal_form(p)
    bound = p.window_bound

    ideal_gens: list[TruncatedPolynomial] = [
        TruncatedPolynomial.variable(n, bound, j) for j in nf.pivot_variables
    ]
    # The monomials of degree l+1 in the free variables alone.
    exps = window(n, bound)
    for c in _x_columns(n, bound, nf.pivot_variables, bound, bound):
        ideal_gens.append(TruncatedPolynomial.monomial(n, bound, exps[c]))
    ideal_gens += list(nf.q_list)

    derived_rows: dict[TruncatedPolynomial, None] = {}
    for coeff in _graph_tangent_fields(nf):
        for g in ideal_gens:
            total = TruncatedPolynomial.zero(n, bound)
            for i, a in coeff.items():
                dg = g.derivative(i)
                if dg.is_zero():
                    continue
                total = total + truncated_product(a, dg, bound)
            if not total.is_zero():
                derived_rows[total] = None

    # Saturate with the jet's own cap only: the drop to order l-1 (in
    # particular m^l itself) has to come out of the field derivatives.
    algebra = _pullback(p, ideal_gens + list(derived_rows), ell, nf.sigma_inverse)
    return Jet(algebra, p.base_point)


# -- contact system ----------------------------------------------------------------


@dataclass(frozen=True)
class ContactData:
    """Contact and Cartan systems of a jet, both routes retained."""

    jet: Jet
    derived: Jet
    omega: Subspace
    omega_rank: int
    cartan: Subspace
    cartan_generated: Subspace
    tangent_dimension: int
    cartan_tangent_dimension: int
    kernel_inside_cartan: bool


def _class_columns(monomials: Sequence[Exponent], target: WeilAlgebra) -> list[SparseRow]:
    """Sparse columns sending each monomial to its class in the target algebra.

    On the basis monomials of A this is the map A -> A' of an inclusion of
    ideals p <= p'.
    """
    idx = window_index(target.n, target.window_bound)
    return [
        target._classes[idx[exp]] if sum(exp) <= target.window_bound else {}
        for exp in monomials
    ]


@_memo
def _projection_columns(p: Jet, derived: Jet) -> tuple[SparseRow, ...]:
    """pi: A^n -> A'^n for A = R[x]/p and A' = R[x]/derived, as sparse columns:
    :func:`_class_columns` of A's basis monomials on each of n blocks.

    Column k*dim A + j is the class of basis monomial j of A, in block k.  The
    contact data, the Taylor map and the field check all read it, so it is
    built once per pair and cached on p.
    """
    target = derived.quotient
    columns = _class_columns(p.quotient.basis_monomials, target)
    d = target.dimension
    return tuple({k * d + i: v for i, v in col.items()} for k in range(p.n) for col in columns)


class _BlockTable(dict):
    """The saturation table of a map, given by its sparse ``columns``, acting on
    u (``outer``) or on v of the index k = u * size + v, 0 <= v < size.  Each
    entry is built the first time the saturation reads it."""

    def __init__(self, columns: Sequence[SparseRow], size: int, outer: bool):
        self.columns, self.size, self.outer = columns, size, outer

    def __missing__(self, k: int) -> SparseRow:
        u, v = divmod(k, self.size)
        if self.outer:
            entry = {g * self.size + v: c for g, c in self.columns[u].items()}
        else:
            entry = {u * self.size + g: c for g, c in self.columns[v].items()}
        self[k] = entry
        return entry


def _differential_rows(
    p: Jet, quotient_columns: Sequence[SparseRow], f: TruncatedPolynomial
) -> dict[int, SparseRow]:
    """Sparse rows, keyed by output class o of A', of the map (ambient
    tangent tuple) -> class of Df in A': the Leibniz rows of f on A moved to
    A' on the output index, row'_o = sum_g quotient_columns[g][o] * row_g."""
    moved: dict[int, SparseRow] = {}
    for g, row in p.quotient.differential_rows(f).items():
        for o, c in quotient_columns[g].items():
            _add_multiple(moved.setdefault(o, {}), c, row)
    return {o: row for o, row in sorted(moved.items()) if row}


@_memo
def _cartan_system(p: Jet) -> tuple[Jet, list[dict[int, SparseRow]], Subspace]:
    """The derived jet p', the rows of each minimal generator's map moved to
    A' = R[x]/p' (:func:`_differential_rows`), and the Cartan system they cut
    out (see :func:`contact_and_cartan`).  The result is cached on the jet.
    A generator of lowest degree order(A') + 2 or more has its derivatives in
    m^(order(A') + 1) <= p', so its map is zero and is not built.
    """
    derived = derived_jet(p)
    algebra = p.quotient
    qcols = _class_columns(algebra.basis_monomials, derived.quotient)
    degs = degrees(p.n, p.window_bound)
    top = derived.quotient.order + 2
    kept = [k for k, r in enumerate(algebra._minimal_generator_rows) if degs[min(r)] < top]
    differentials = [_differential_rows(p, qcols, algebra._minimal_generator(k)) for k in kept]

    # The rows of the generator maps cut out the Cartan system: every map of
    # Omega is sum_k [h_k] Dg_k, and [1] is one of the [h].
    constraints = Echelon(p.n * algebra.dimension)
    for rows in differentials:
        for row in rows.values():
            constraints.insert(row)
    cartan = constraints.kernel()
    # A relation lies in the kernel exactly when every generator row kills it.
    if not cartan.contains_subspace(tangent_module(p).relations):
        raise InternalCheckError("contact map is not constant on classes")
    return derived, differentials, cartan


@_memo
def contact_and_cartan(p: Jet) -> ContactData:
    """Omega as a span of maps into A' = R[x]/p', Cartan as its exact annihilator.

    Omega is spanned by the maps v -> [Df(v)] over every f in p.  By the
    Leibniz rule D(hg) = [h] Dg + [g] Dh, and [g] = 0 in A' since p <= p',
    so Omega is the A'-module generated by the maps of the minimal
    generators of p: the Leibniz rows of each generator, moved to A' on the
    output index and flattened output-major, closed under multiplication by
    the variables on the output.  A tangent vector is killed by all of Omega
    exactly when the generator maps kill it ([1] is one of the [h]), so the
    same rows cut out the Cartan system (:func:`_cartan_system`), and its
    holding every derivation relation is the check that the contact map is
    constant on tangent classes.

    The Cartan system is additionally rebuilt from the finite generating
    family of graph-tangent fields (:func:`_cartan_by_generation`) so the
    two routes can be compared exactly.  The result is cached on the jet.
    """
    derived, differentials, cartan = _cartan_system(p)
    algebra = p.quotient
    n = p.n
    nd = n * algebra.dimension
    dprime = derived.quotient.dimension
    tangent = tangent_module(p)

    # Omega: the map of each minimal generator, flattened output-major into
    # one row, and closed under the action of A' on the output index.
    tables = [_BlockTable(images, nd, outer=True) for images in derived.quotient.variable_maps]
    span = Echelon(dprime * nd)
    span.saturate(
        (
            {o * nd + j: v for o, row in rows.items() for j, v in row.items()}
            for rows in differentials
        ),
        tables,
    )
    omega = span.subspace()

    cartan_generated = _cartan_by_generation(p, derived)

    # Kernel of the tangent projection must sit inside the Cartan system.
    pi_rows: list[SparseRow] = [{} for _ in range(n * dprime)]
    for c, col in enumerate(_projection_columns(p, derived)):
        for r, v in col.items():
            pi_rows[r][c] = v
    kernel = preimage(pi_rows, tangent_module(derived).relations, nd)
    kernel_ok = cartan.contains_subspace(kernel)

    return ContactData(
        jet=p,
        derived=derived,
        omega=omega,
        omega_rank=omega.dimension,
        cartan=cartan,
        cartan_generated=cartan_generated,
        tangent_dimension=tangent.dimension,
        cartan_tangent_dimension=cartan.dimension - tangent.relations.dimension,
        kernel_inside_cartan=kernel_ok,
    )


def _cartan_by_generation(p: Jet, derived: Jet) -> Subspace:
    """Cartan system as the span of values of the graph-tangent field family.

    A field X takes the value [X(sigma^i)]_q in block i at the transformed
    jet, moved back through tau.  X's coefficients and the partials of
    sigma = (x, y - h(x)) live on x, which tau fixes, so the value is
    [X(sigma^i)] in A = R[x]/p as it stands.
    """
    n, ell = p.n, p.order
    algebra = p.quotient
    d = algebra.dimension
    tangent = tangent_module(p)
    if ell == 0:
        return tangent.relations

    nf = normal_form(p)
    # Every column above the order is a unit-row pivot of the transformed
    # ideal, so its codimension is dim A_q.
    ideal = nf.transformed_ideal
    if ideal.ambient_dimension - ideal.dimension != d:
        raise InternalCheckError("transformed jet changed dimension")

    def block(i: int, f: TruncatedPolynomial) -> SparseRow:
        return {i * d + g: c for g, c in algebra._polynomial_class(f).items()}

    # Column a of sigma's Jacobian: 1 in block a, [-d h_j / d x_a] in block j.
    jacobian: dict[int, SparseRow] = {a: {} for a in nf.free_variables}
    for a, column in jacobian.items():
        for i in range(n):
            column.update(block(i, nf.sigma[i].derivative(a)))

    # Each field is d/dx^a plus components f_j along pivot variables
    # (:func:`_graph_tangent_fields`), and d sigma^i / d y_j = delta_ij, so
    # its value is Jacobian column a plus [f_j] in each block j.
    values = []
    for coeff in _graph_tangent_fields(nf):
        value: SparseRow = {}
        for k, f in coeff.items():
            _add_multiple(value, 1, jacobian[k] if k in jacobian else block(k, f))
        values.append(value)

    # The Cartan system is the submodule the values generate: a field tangent
    # to X stays tangent under any coefficient, so close under the action of
    # the algebra generators componentwise.
    # Multiplication by x_i acts on each of the n blocks of A^n.
    tables = [_BlockTable(images, d, outer=False) for images in algebra.variable_maps]
    cartan = tangent.relations.echelon()
    cartan.saturate(values, tables)
    return cartan.subspace()


# -- Taylor map ---------------------------------------------------------------------


@dataclass(frozen=True)
class TaylorData:
    """Projection of the Cartan system into the derived jet's tangent module."""

    jet: Jet
    derived: Jet
    pi_star_cartan: Subspace
    taylor_condition: bool
    cartan_projects: bool | None


def taylor_map(p: Jet) -> TaylorData:
    """pi_* C_p inside T_{p'} plus the injectivity hypothesis hat(p') <= p.

    The projection exists because every field tangent to p is tangent to p';
    that inclusion is asserted computationally before projecting.  Only the
    Cartan systems of p and p' are read, not the rest of their contact data.
    """
    derived, _, cartan = _cartan_system(p)

    _assert_fields_project(p, derived)

    pi_cols = _projection_columns(p, derived)
    span = tangent_module(derived).relations.echelon()
    for v in cartan.rows.values():
        span.insert(apply_columns(pi_cols, v))
    image = span.subspace()

    hat_prime = hat_ideal(derived)
    taylor_condition = p.contains_jet(hat_prime)

    cartan_projects: bool | None = None
    if derived.width == p.width:
        cartan_projects = _cartan_system(derived)[2].contains_subspace(image)

    return TaylorData(p, derived, image, taylor_condition, cartan_projects)


def _assert_fields_project(p: Jet, derived: Jet) -> None:
    """Every field tangent to p maps the derived ideal into itself.

    A field maps p' into itself exactly when its coefficients' classes in
    A' = R[x]/p' form a derivation of A' (see :func:`jet_fields`).  The fields
    with coefficients in p project to zero (p <= p'), so each derivation
    relation of A, projected to A'^n, has to lie in the relations of p'.
    """
    pi = _projection_columns(p, derived)
    relations = tangent_module(derived).relations
    for coeffs in tangent_module(p).relations.rows.values():
        if not relations.contains_vector(apply_columns(pi, coeffs)):
            raise InternalCheckError(
                "a field tangent to the jet is not tangent to its derived jet"
            )


# -- functorial maps -----------------------------------------------------------------


def _kernel_jet(
    algebra: WeilAlgebra, base_point: tuple[Scalar, ...], m: int, powers: _Powers
) -> Jet:
    """Jet of the morphism R[y1..ym] -> A of ``powers`` (from
    :meth:`WeilAlgebra._power_numerators`).

    Each image of y^e becomes a row of canonical scalars before the
    elimination.  The ideal is the kernel on the window of degree order+1; the
    monomials of that top degree map to zero, being products of order+1
    nilpotents, so the kernel is an ideal of the window.
    """
    order = algebra.order
    bound = order + 1
    exps = window(m, bound)
    span = Echelon(len(exps))
    for row in transpose(powers.row(e) if sum(e) <= order else {} for e in exps):
        span.insert(row)
    return _window_jet(m, bound, span.kernel(), base_point)


def _pushforward(
    p: Jet, phi: Sequence[TruncatedPolynomial]
) -> tuple[Jet, list[TruncatedPolynomial], list[SparseRow], _Powers]:
    """Image jet together with the translated map psi it is computed from.

    psi = phi(base + x) - phi(base) moves both base points to the origin.
    Returns the image jet, psi, the classes [psi_j] in A and the morphism
    y_j -> [psi_j] (:meth:`WeilAlgebra._power_numerators`).
    """
    n = p.n
    for f in phi:
        if f.variable_count != n:
            raise DimensionMismatchError("map component has the wrong variable count")
    base_target = tuple(f.evaluate(p.base_point) for f in phi)
    psi = []
    for f in phi:
        moved = f.shift(p.base_point) if any(p.base_point) else f
        psi.append(
            TruncatedPolynomial._from_fractions(
                n, moved.degree_bound, {e: c for e, c in moved.coefficients.items() if any(e)}
            )
        )
    algebra = p.quotient
    images = [algebra._polynomial_class(f) for f in psi]
    powers = algebra._power_numerators(images)
    return _kernel_jet(algebra, base_target, len(phi), powers), psi, images, powers


def pushforward(p: Jet, phi: Sequence[TruncatedPolynomial]) -> Jet:
    """Image jet under a polynomial map: the kernel of composition mod p."""
    return _pushforward(p, phi)[0]


def _induced_columns(
    algebra: WeilAlgebra, b: WeilAlgebra, powers: _Powers, partials: list[list[SparseRow]], n: int
) -> tuple[SparseRow, ...] | None:
    """Columns of (i, beta) -> ([d psi_j / d x_i] * a_beta)_j in B^m, or None
    when one of those products leaves the image of B in A.

    B -> A is injective: one solver over the image columns gives every value
    its coordinates in B.  Column i*d + beta is sparse over m * dim B rows.
    """
    d = algebra.dimension
    solve = span_coordinates([powers.row(exp) for exp in b.basis_monomials], d)
    db = b.dimension
    induced: list[SparseRow] = [{} for _ in range(n * d)]
    for j, row in enumerate(partials):
        for i, w in enumerate(row):
            if not w:
                continue
            for beta, value in enumerate(algebra.multiplication_map(w)):
                w_coords = solve(value)
                if w_coords is None:
                    return None
                induced[i * d + beta].update((j * db + k, u) for k, u in w_coords.items())
    return tuple(induced)


@dataclass(frozen=True)
class TangentMap:
    """Existence data and the induced map between tangent presentations.

    ``columns[i * d + beta]``, when the map exists and every partial times
    every basis class of A lies in the image of B (always for a regular map),
    is the sparse image in B^m of the ambient tangent coordinate (i, beta) of
    A^n; otherwise ``columns`` is None.
    """

    jet: Jet
    image_jet: Jet
    exists: bool
    is_regular_for_subalgebra: bool
    columns: tuple[SparseRow, ...] | None


def tangent_map(p: Jet, phi: Sequence[TruncatedPolynomial]) -> TangentMap:
    """Tangent map along a polynomial map, when derivatives stay in phi*B + p.

    The subalgebra generated by the coordinate images is closed by span
    saturation; existence asks every first partial of every image to lie in
    it, and regularity asks it to be the full quotient.  The induced columns
    multiply each partial by every basis class of A, so they are defined
    only when every such product lies in the subalgebra too: always for a
    regular map.  Where they are not, ``columns`` is None.
    """
    n = p.n
    algebra = p.quotient
    d = algebra.dimension
    image_jet, psi, images, powers = _pushforward(p, phi)

    generated = Echelon(d)
    generated.saturate(
        [algebra.one().row],
        [algebra.multiplication_map(img) for img in images],
    )
    subalgebra = generated.subspace()

    partials = [[algebra._polynomial_class(f.derivative(i)) for i in range(n)] for f in psi]
    exists = all(subalgebra.contains_vector(w) for row in partials for w in row)
    regular = subalgebra.dimension == d

    columns = None
    if exists:
        columns = _induced_columns(algebra, image_jet.quotient, powers, partials, n)
        if columns is None and regular:
            raise InternalCheckError("tangent value escaped the image subalgebra")
    if columns is not None:
        rel_image = tangent_module(image_jet).relations
        for v in tangent_module(p).relations.rows.values():
            if not rel_image.contains_vector(apply_columns(columns, v)):
                raise InternalCheckError("induced map is not constant on classes")

    return TangentMap(p, image_jet, exists, regular, columns)
