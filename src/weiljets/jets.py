"""Jets of the local model at a point: ideals with Weil-algebra quotients.

A jet in n variables is stored through the window (n, order+1) as the
canonical subspace of the coefficients of its ideal; the quotient algebra,
order and width ride along.  Base points are recorded but every internal
computation happens at the origin after an exact translation.

The derived jet is produced twice over: through the adapted normal form
(y^1..y^r) + m^{l+1} + (Q^h(x)) and, independently, by applying the finite
family of graph-tangent fields and saturating.  Their agreement is one of
the package's standing checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Sequence

from .errors import (
    ClassicalityError,
    DimensionMismatchError,
    EmptyQuotientError,
    HintTooSmallError,
    InternalCheckError,
    NotInIdealError,
)
from .monomials import (
    Exponent,
    _power_products,
    monomials_of_degree,
    shift_tables,
    window,
    window_index,
    window_size,
)
from .poly import (
    TruncatedPolynomial,
    as_fraction,
    format_polynomial,
    truncated_product,
    truncated_substitute,
)
from .subspace import (
    Echelon,
    SparseRow,
    Subspace,
    _add_multiple,
    apply_columns,
    nullspace,
    preimage,
    sparse,
    subspace_intersection,
)
from .weil import (
    AlgebraElement,
    WeilAlgebra,
    _identity_substitution,
    _inverse_substitution,
    _rewindow,
    _variable_shifts,
    derivation_space,
    quotient_algebra,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Jet:
    """An ideal of the local model at a point, in canonical form."""

    def __init__(self, quotient: WeilAlgebra, base_point: tuple[Fraction, ...]):
        self.quotient = quotient
        self.n = quotient.n
        self.base_point = base_point
        self.order = quotient.order
        self.width = quotient.width
        self.window_bound = quotient.window_bound
        self.ideal = quotient.defining_ideal
        self.classical = False  # set by classical_jet
        self._normal_form: "NormalForm | None" = None
        self._derived: "Jet | None" = None
        self._fields: Subspace | None = None
        self._tangent: "TangentModule | None" = None
        self._contact: "ContactData | None" = None
        self._hat: "Jet | None" = None

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

    def contains_polynomial(self, f: TruncatedPolynomial) -> bool:
        """Membership of a polynomial written in coordinates at the base point."""
        shifted = f.shift(self.base_point, self.window_bound) if any(self.base_point) else f
        return self.ideal.contains_vector(shifted.to_sparse(self.window_bound))

    def embedded_ideal(self, bound: int) -> Subspace:
        """The ideal as a subspace of a larger window (origin coordinates)."""
        if bound < self.window_bound:
            raise DimensionMismatchError("embedding window is too small")
        if bound == self.window_bound:
            return self.ideal
        idx = window_index(self.n, bound)
        exps = window(self.n, self.window_bound)
        span = Echelon(window_size(self.n, bound))
        for r in self.ideal.rows.values():
            span.insert({idx[exps[c]]: v for c, v in r.items()})
        for k in range(self.window_bound + 1, bound + 1):
            for exp in monomials_of_degree(self.n, k):
                span.insert({idx[exp]: _ONE})
        return span.subspace()

    def contains_jet(self, other: "Jet") -> bool:
        """Ideal inclusion other <= self, compared in a common window."""
        if self.n != other.n or self.base_point != other.base_point:
            raise DimensionMismatchError("jets live at different points")
        bound = max(self.window_bound, other.window_bound)
        return self.embedded_ideal(bound).contains_subspace(
            other.embedded_ideal(bound)
        )

    def ideal_polynomials(self) -> list[TruncatedPolynomial]:
        """Canonical basis of the ideal as polynomials (origin coordinates)."""
        return [
            TruncatedPolynomial.from_sparse(self.n, self.window_bound, r)
            for r in self.ideal.rows.values()
        ]


@lru_cache(maxsize=None)
def free_model(m: int, order: int) -> WeilAlgebra:
    """The full truncated algebra on m variables, cached for comparisons."""
    return quotient_algebra(m, order, [])


def _jet_from_origin(
    n: int,
    base_point: tuple[Fraction, ...],
    generators: Sequence[TruncatedPolynomial],
    order_hint: int,
    strict_hint: bool = False,
) -> Jet:
    if order_hint < 0:
        raise HintTooSmallError("the order hint must be non-negative")
    algebra = quotient_algebra(n, order_hint, list(generators))
    if strict_hint and algebra.order == order_hint:
        raise HintTooSmallError(
            f"detected order {algebra.order} reached the hint; the truncation "
            "may be cutting the ideal, retry with a larger hint"
        )
    return Jet(algebra, base_point)


def _window_jet(n: int, bound: int, ideal: Subspace, base_point: tuple[Fraction, ...]) -> Jet:
    """The jet of a subspace that is already an ideal of the window: its rows
    generate it, and need no saturation."""
    return Jet(_rewindow(n, bound, ideal.echelon(), list(ideal.rows.values())), base_point)


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
    return _jet_from_origin(n, base, shifted, order_hint, strict_hint)


def power_jet(n: int, k: int, base_point: Sequence = None) -> Jet:
    """The jet m^k at the base point (k >= 1)."""
    if k < 1:
        raise ValueError("power_jet needs k >= 1")
    base = tuple(as_fraction(b) for b in (base_point or [0] * n))
    return jet_from_ideal(n, base, [], k - 1)


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
    jet = jet_from_ideal(n, base, gens, order)
    model = free_model(len(free), order)
    ok = (
        jet.quotient.dimension == model.dimension
        and jet.order == model.order
        and jet.width == model.width
    )
    if not ok:
        raise ClassicalityError(
            f"graph jet missed the model invariants: got dim {jet.quotient.dimension},"
            f" order {jet.order}, width {jet.width}"
        )
    jet.classical = True
    return jet


# -- hat ideal and cotangent ---------------------------------------------------


def hat_ideal(p: Jet) -> Jet:
    """{f in p : every first partial of f stays in p}, as a jet.

    Computed one window above the jet's own so the raised order is visible;
    the inclusions p^2 <= hat(p) <= p are verified before returning.  The
    products of pairs of minimal generators of p generate p^2, so those pairs
    are the ones checked.  The result is cached on the jet.
    """
    if p._hat is not None:
        return p._hat
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
        # d f/dx_i is (e_i + 1) times that of x^e * x_i.
        for r in memb:
            row: SparseRow = {}
            for c, v in r.items():
                t = shifts[i][c]
                if t is not None:
                    row[t] = (exps[c][i] + 1) * v
            conditions.insert(row)
    hat = conditions.kernel()

    if not embedded.contains_subspace(hat):
        raise InternalCheckError("hat ideal escaped the jet")
    gen_polys = [
        TruncatedPolynomial.from_vector(p.n, p.window_bound, g)
        for g in p.quotient.minimal_generators
    ]
    for a in range(len(gen_polys)):
        for b in range(a, len(gen_polys)):
            prod = truncated_product(gen_polys[a], gen_polys[b], bound)
            if not hat.contains_vector(prod.to_sparse(bound)):
                raise InternalCheckError("p^2 is not inside the hat ideal")

    p._hat = _window_jet(n, bound, hat, p.base_point)
    return p._hat


@dataclass(frozen=True)
class CotangentModule:
    """p/hat(p) together with the evaluation of differentials."""

    jet: Jet
    hat: Jet
    dimension: int
    basis: tuple[TruncatedPolynomial, ...]
    _differential: Callable = field(repr=False, compare=False, default=None)

    def differential(self, f: TruncatedPolynomial, tangent_coords: Sequence[Fraction]) -> AlgebraElement:
        """d_p f evaluated on an ambient tangent representative."""
        return self._differential(f, tangent_coords)


def cotangent_module(p: Jet) -> CotangentModule:
    """Basis of p/hat(p) plus the differential evaluator d_p f."""
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
    algebra = p.quotient

    def differential(f: TruncatedPolynomial, coords: Sequence[Fraction]) -> AlgebraElement:
        if not p.contains_polynomial(f):
            raise NotInIdealError(
                f"{format_polynomial(f)} is not in the ideal at the base point"
            )
        shifted = f.shift(p.base_point) if any(p.base_point) else f
        d = algebra.dimension
        coords = [as_fraction(c) for c in coords]
        if len(coords) != p.n * d:
            raise DimensionMismatchError("tangent representative has the wrong length")
        total = [_ZERO] * d
        for i in range(p.n):
            w = algebra.project_polynomial(shifted.derivative(i)).coordinates
            block = coords[i * d : (i + 1) * d]
            contrib = algebra.mult_coords(block, w)
            for g, c in enumerate(contrib):
                total[g] += c
        return algebra.element(total)

    return CotangentModule(p, hat, dim, tuple(reps), differential)


# -- tangent module --------------------------------------------------------------


@dataclass(frozen=True)
class TangentModule:
    """T_p presented as A^n modulo the images of the algebra derivations."""

    jet: Jet
    ambient_dimension: int
    relations: Subspace
    dimension: int

    def value_of_field(self, coefficients: Sequence[TruncatedPolynomial]) -> tuple[Fraction, ...]:
        """Ambient tuple of a field given by n polynomial coefficients."""
        algebra = self.jet.quotient
        if len(coefficients) != self.jet.n:
            raise DimensionMismatchError("need one coefficient per coordinate")
        out: list[Fraction] = []
        for f in coefficients:
            out.extend(algebra.project_polynomial(f).coordinates)
        return tuple(out)

    def same_class(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
        diff = [a - b for a, b in zip(u, v)]
        return self.relations.contains_vector(diff)

    def is_zero_class(self, u: Sequence[Fraction]) -> bool:
        return self.relations.contains_vector(list(u))


def tangent_module(p: Jet) -> TangentModule:
    if p._tangent is not None:
        return p._tangent
    relations = derivation_space(p.quotient).relations
    ambient = p.n * p.quotient.dimension
    module = TangentModule(p, ambient, relations, ambient - relations.dimension)
    p._tangent = module
    return module


def _field_columns(
    g: TruncatedPolynomial, coeff_bound: int, target_bound: int
) -> dict[int, SparseRow]:
    """Column i*w + c of the linear map (field coefficients) -> D(g), sparse.

    A field has n coefficients of degree <= coeff_bound, laid out over the
    window (w unknowns each); column (i, c) is x^c * dg/dx_i truncated to the
    target window.  Zero columns are left out.
    """
    n = g.variable_count
    coeff_exps = window(n, coeff_bound)
    w = len(coeff_exps)
    tgt_idx = window_index(n, target_bound)
    cols: dict[int, SparseRow] = {}
    for i in range(n):
        dg = g.derivative(i).coefficients
        for c, cexp in enumerate(coeff_exps):
            vec: SparseRow = {}
            for exp, v in dg.items():
                tot = tuple(map(add, exp, cexp))
                if sum(tot) <= target_bound:
                    vec[tgt_idx[tot]] = v
            if vec:
                cols[i * w + c] = vec
    return cols


def jet_fields(p: Jet) -> Subspace:
    """Fields (window-order polynomial coefficients) mapping the ideal into itself.

    A field D is a derivation, so D(gf) = D(g)f + gD(f): it maps the ideal
    into itself once it maps each of a set of generators there, and the
    constraints come from the minimal generators only.  Truncation is
    harmless: the ideal contains every monomial of the window's top degree,
    so D of anything past the window lands in it.
    """
    if p._fields is not None:
        return p._fields
    n, ell = p.n, p.order
    target_bound = p.window_bound
    memb = p.ideal.echelon().kernel_rows()

    constraints = Echelon(n * window_size(n, ell))
    for gen in p.quotient.minimal_generators:
        g = TruncatedPolynomial.from_vector(n, target_bound, gen)
        cols = _field_columns(g, ell, target_bound)
        for r in memb:
            row: SparseRow = {}
            for col, vec in cols.items():
                s = _ZERO
                for t, b in vec.items():
                    a = r.get(t)
                    if a is not None:
                        s += a * b
                if s:
                    row[col] = s
            if row:
                constraints.insert(row)
    result = constraints.kernel()
    p._fields = result
    return result


# -- normal form -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Adapted coordinates where the ideal is (y pivots) + m^{l+1} + (Q(x))."""

    jet: Jet
    pivot_variables: tuple[int, ...]
    free_variables: tuple[int, ...]
    r: int
    sigma: tuple[TruncatedPolynomial, ...]
    sigma_inverse: tuple[TruncatedPolynomial, ...]
    q_list: tuple[TruncatedPolynomial, ...]
    transformed_ideal: Subspace


def _compose_substitutions(
    outer: Sequence[TruncatedPolynomial],
    inner: Sequence[TruncatedPolynomial],
    bound: int,
) -> list[TruncatedPolynomial]:
    """Formulas of outer o inner (apply inner first as functions of x)."""
    return [truncated_substitute(f, list(inner), bound) for f in outer]


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
    """The elements of the ideal written in the free variables, in degrees low..high."""
    columns = _x_columns(n, bound, pivot_vars, low, high)
    coordinate = Echelon(ideal.ambient_dimension, {c: {c: _ONE} for c in columns})
    return subspace_intersection(ideal, coordinate.subspace())


def _substituted_ideal(
    p_rows: Iterable[SparseRow],
    n: int,
    bound: int,
    subst: Sequence[TruncatedPolynomial],
) -> Subspace:
    span = Echelon(window_size(n, bound))
    for r in p_rows:
        f = TruncatedPolynomial.from_sparse(n, bound, r)
        span.insert(truncated_substitute(f, list(subst), bound).to_sparse(bound))
    return span.subspace()


def normal_form(p: Jet) -> NormalForm:
    """Straighten the jet to (y^1..y^r) + m^{l+1} + (Q^h(x)).

    Pivot variables come from the reduced echelon form of the degree-1 part;
    the substitution absorbs the higher-order tails of the pivot rows degree
    by degree.  The resulting identity is verified exactly.
    """
    if p._normal_form is not None:
        return p._normal_form
    n, ell = p.n, p.order
    bound = p.window_bound
    sub_bound = max(ell, 1)

    # Rows whose pivot sits in the degree-1 block carry the linear part.
    deg1_cols = {}
    exps = window(n, bound)
    for c, exp in enumerate(exps):
        if sum(exp) == 1:
            deg1_cols[c] = exp.index(1)
    pivot_vars: list[int] = []
    carried: list[TruncatedPolynomial] = []
    for piv, row in p.ideal.rows.items():
        if piv in deg1_cols:
            pivot_vars.append(deg1_cols[piv])
            carried.append(TruncatedPolynomial.from_sparse(n, bound, row))
    free_vars = [i for i in range(n) if i not in set(pivot_vars)]
    r = len(pivot_vars)
    if r != n - p.width:
        raise InternalCheckError("degree-1 rank disagrees with the width")

    sigma = _identity_substitution(n, sub_bound)
    current = p.ideal

    for d in range(1, ell + 1):
        stage = _identity_substitution(n, sub_bound)
        changed = False
        for j, g in zip(pivot_vars, carried):
            tail = {e: c for e, c in g.coefficients.items() if sum(e) == d}
            unit = [0] * n
            unit[j] = 1
            tail.pop(tuple(unit), None)
            if not tail:
                continue
            changed = True
            stage[j] = stage[j] - TruncatedPolynomial(n, sub_bound, tail)
        if not changed:
            continue
        sigma = _compose_substitutions(sigma, stage, sub_bound)
        current = _substituted_ideal(current.rows.values(), n, bound, stage)
        carried = [
            truncated_substitute(g, stage, bound) for g in carried
        ]

    # After absorption each carried element is the pure pivot variable mod m^{l+1}.
    for j, g in zip(pivot_vars, carried):
        unit = [0] * n
        unit[j] = 1
        residue = g - TruncatedPolynomial.variable(n, bound, j)
        if any(sum(e) <= ell for e in residue.coefficients):
            raise InternalCheckError("straightening left a low-degree tail")
        if not current.contains_vector(TruncatedPolynomial.variable(n, bound, j).to_sparse(bound)):
            raise InternalCheckError("pivot variable missing from the transformed ideal")

    # Q list: the x-only part in degrees 2..l, pruned of redundant rows.
    x_part = _x_part(current, n, bound, pivot_vars, 2, ell)

    base_gens = [
        TruncatedPolynomial.variable(n, bound, j) for j in pivot_vars
    ] + [
        TruncatedPolynomial.monomial(n, bound, e)
        for e in monomials_of_degree(n, ell + 1)
    ]
    shifts = _variable_shifts(n, bound)
    generated = Echelon(window_size(n, bound))
    generated.saturate([g.to_sparse(bound) for g in base_gens], shifts)
    q_list: list[TruncatedPolynomial] = []
    for probe in x_part.rows.values():
        if not generated.reduce(probe):
            continue
        q_list.append(TruncatedPolynomial.from_sparse(n, bound, probe))
        generated.saturate([probe], shifts)
    rebuilt = generated.subspace()
    if rebuilt != current:
        raise InternalCheckError("normal form identity failed to verify")

    tau = _inverse_substitution(sigma, sub_bound)
    if tau is None:
        raise InternalCheckError("substitution has a singular linear part")
    # sigma o tau must be the identity substitution.
    if _compose_substitutions(sigma, tau, sub_bound) != _identity_substitution(n, sub_bound):
        raise InternalCheckError("substitution inverse failed to verify")

    result = NormalForm(
        p,
        tuple(pivot_vars),
        tuple(free_vars),
        r,
        tuple(sigma),
        tuple(tau),
        tuple(q_list),
        current,
    )
    p._normal_form = result
    return result


# -- derived jet: closed form and generation oracle ------------------------------


def derived_jet(p: Jet, verify: bool = False) -> Jet:
    """p + (derivatives of p along the Cartan directions), via the normal form.

    With ``verify`` the independent field-generation oracle is run and exact
    agreement is required.
    """
    if p._derived is not None and not verify:
        return p._derived
    result = _derived_via_normal_form(p)
    if verify:
        oracle = cartan_generation_oracle(p)
        if oracle != result:
            raise InternalCheckError(
                "derived jet disagrees with the generation oracle"
            )
    p._derived = result
    return result


def _derived_via_normal_form(p: Jet) -> Jet:
    n, ell = p.n, p.order
    if ell == 0:
        return p
    nf = normal_form(p)
    bound = p.window_bound
    gens: list[TruncatedPolynomial] = [
        TruncatedPolynomial.variable(n, bound, j) for j in nf.pivot_variables
    ]
    gens += [
        TruncatedPolynomial.monomial(n, bound, e)
        for e in monomials_of_degree(n, ell)
    ]
    for q in nf.q_list:
        gens.append(q)
        for a in nf.free_variables:
            dq = q.derivative(a)
            if not dq.is_zero():
                gens.append(dq)
    return _pullback_jet(p, gens, ell - 1, nf)


def _pullback_jet(
    p: Jet, gens_new_coords: Sequence[TruncatedPolynomial], hint: int, nf: NormalForm
) -> Jet:
    """Move generators written in normal coordinates back through sigma."""
    n = p.n
    work_bound = hint + 1
    pulled = []
    for g in gens_new_coords:
        moved = truncated_substitute(
            g.truncate(work_bound) if g.degree() > work_bound else g,
            list(nf.sigma_inverse),
            work_bound,
        )
        if not moved.is_zero():
            pulled.append(moved)
    return _jet_from_origin(n, p.base_point, tuple(pulled), hint)


def _x_top(nf: NormalForm) -> list[TruncatedPolynomial]:
    """The monomials of degree l+1 in the free variables alone."""
    p = nf.jet
    n, bound = p.n, p.window_bound
    exps = window(n, bound)
    return [
        TruncatedPolynomial.monomial(n, bound, exps[c])
        for c in _x_columns(n, bound, nf.pivot_variables, bound, bound)
    ]


def _graph_tangent_fields(nf: NormalForm) -> list[dict[int, TruncatedPolynomial]]:
    """The finite graph-tangent field family in adapted coordinates.

    Each field is a dict {variable index: polynomial coefficient}: the
    coordinate fields d/dx^a of the base graph, and d/dx^a + dF/dx^a d/dy^j
    for F a top-degree form in the free variables or an element of the x-part
    of the transformed ideal.
    """
    p = nf.jet
    n, bound = p.n, p.window_bound
    xs, ys = nf.free_variables, nf.pivot_variables
    h_basis = _x_part(nf.transformed_ideal, n, bound, ys, 2, bound)
    forms = _x_top(nf) + [
        TruncatedPolynomial.from_sparse(n, bound, r) for r in h_basis.rows.values()
    ]
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
    ideal_gens += _x_top(nf)
    ideal_gens += list(nf.q_list)

    derived_rows: set[TruncatedPolynomial] = set()
    for coeff in _graph_tangent_fields(nf):
        for g in ideal_gens:
            total = TruncatedPolynomial.zero(n, bound)
            for i, a in coeff.items():
                dg = g.derivative(i)
                if dg.is_zero():
                    continue
                total = total + truncated_product(a, dg, bound)
            if not total.is_zero():
                derived_rows.add(total)

    # Saturate with the jet's own cap only: the drop to order l-1 (in
    # particular m^l itself) has to come out of the field derivatives.
    all_gens = ideal_gens + sorted(
        derived_rows, key=lambda f: tuple(f.to_vector(bound))
    )
    return _pullback_jet(p, all_gens, ell, nf)


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


def _quotient_map_columns(p: Jet, p2: Jet) -> list[SparseRow]:
    """Sparse columns of A -> A' on quotient coordinates (p <= p2 assumed)."""
    b = p2.quotient
    idx = window_index(b.n, b.window_bound)
    return [
        b._classes[idx[exp]] if sum(exp) <= b.window_bound else {}
        for exp in p.quotient.basis_monomials
    ]


def _projection_columns(p: Jet, p2: Jet) -> list[SparseRow]:
    """Sparse columns of pi: A^n -> A'^n, the map A -> A' on each of the n blocks.

    Column k*d + j is column j of A -> A', moved into block k.
    """
    qcols = _quotient_map_columns(p, p2)
    d2 = p2.quotient.dimension
    return [{k * d2 + i: v for i, v in col.items()} for k in range(p.n) for col in qcols]


def _differential_columns(
    p: Jet, quotient_columns: Sequence[SparseRow], f: TruncatedPolynomial
) -> list[SparseRow]:
    """Sparse columns of the map (ambient tangent tuple) -> class of Df in A':
    the differential map of f on A, pushed to A'."""
    return [apply_columns(quotient_columns, c) for c in p.quotient.differential_map(f)]


def contact_and_cartan(p: Jet) -> ContactData:
    """Omega as a span of maps into A/p', Cartan as its exact annihilator.

    The Cartan system is additionally rebuilt from the finite generating
    family of graph-tangent fields (transported back from the adapted
    coordinates) so the two routes can be compared exactly.  The result is
    cached on the jet.
    """
    if p._contact is not None:
        return p._contact
    derived = derived_jet(p)
    algebra = p.quotient
    d = algebra.dimension
    n = p.n
    nd = n * d
    dprime = derived.quotient.dimension
    qcols = _quotient_map_columns(p, derived)
    tangent = tangent_module(p)

    # Omega: one map per ideal row, flattened output-major into one row.
    span = Echelon(dprime * nd)
    differentials: list[list[SparseRow]] = []
    for row in p.ideal.rows.values():
        f = TruncatedPolynomial.from_sparse(n, p.window_bound, row)
        columns = _differential_columns(p, qcols, f)
        differentials.append(columns)
        span.insert({out * nd + j: v for j, col in enumerate(columns) for out, v in col.items()})
    omega = span.subspace()

    # Representatives differing by an algebra derivation must evaluate to zero.
    relations = list(tangent.relations.rows.values())
    for columns in differentials:
        for rel in relations:
            if apply_columns(columns, rel):
                raise InternalCheckError("contact map is not constant on classes")

    constraints = Echelon(nd)
    for vec in omega.rows.values():
        blocks: list[SparseRow] = [{} for _ in range(dprime)]
        for k, v in vec.items():
            blocks[k // nd][k % nd] = v
        for block in blocks:
            constraints.insert(block)
    cartan = constraints.kernel()
    if not cartan.contains_subspace(tangent.relations):
        raise InternalCheckError("annihilator lost the derivation relations")

    cartan_generated = _cartan_by_generation(p, derived)

    # Kernel of the tangent projection must sit inside the Cartan system.
    pi_rows: list[SparseRow] = [{} for _ in range(n * dprime)]
    for c, col in enumerate(_projection_columns(p, derived)):
        for r, v in col.items():
            pi_rows[r][c] = v
    kernel = preimage(pi_rows, tangent_module(derived).relations, nd)
    kernel_ok = cartan.contains_subspace(kernel)

    p._contact = ContactData(
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
    return p._contact


def _cartan_by_generation(p: Jet, derived: Jet) -> Subspace:
    """Cartan system as the span of values of the graph-tangent field family."""
    n, ell = p.n, p.order
    algebra = p.quotient
    d = algebra.dimension
    tangent = tangent_module(p)
    if ell == 0:
        return tangent.relations

    nf = normal_form(p)
    bound = p.window_bound

    # The transformed jet and the iso back to p's presentation.
    q_jet = _window_jet(n, bound, nf.transformed_ideal, p.base_point)
    if q_jet.quotient.dimension != d:
        raise InternalCheckError("transformed jet changed dimension")
    bq = q_jet.quotient

    # Psi: [g]_q -> [g o tau]_p on quotient coordinates, as sparse columns.
    psi_cols = []
    for exp in bq.basis_monomials:
        g = TruncatedPolynomial.monomial(n, bound, exp)
        moved = truncated_substitute(g, list(nf.sigma_inverse), bound)
        psi_cols.append(sparse(algebra.project_polynomial(moved).coordinates, d))

    # The transport A_q^n -> A_p^n, v -> (psi(sum_k [d sigma^i / d x_k]_q v_k))_i,
    # as one sparse column per coordinate k * d + g of A_q^n.
    transport = [{} for _ in range(n * d)]
    for i in range(n):
        for k in range(n):
            entry = bq.project_polynomial(nf.sigma[i].derivative(k)).coordinates
            if not any(entry):
                continue
            for g, column in enumerate(bq.multiplication_map(entry)):
                for h, c in apply_columns(psi_cols, column).items():
                    transport[k * d + g][i * d + h] = c

    # Family values at the transformed jet.
    values = []
    for coeff in _graph_tangent_fields(nf):
        field_q: SparseRow = {}
        for k, f in coeff.items():
            for g, c in enumerate(bq.project_polynomial(f).coordinates):
                if c:
                    field_q[k * d + g] = c
        values.append(apply_columns(transport, field_q))

    # The Cartan system is the submodule the values generate: a field tangent
    # to X stays tangent under any coefficient, so close under the action of
    # the algebra generators componentwise.
    tables = []
    for i in range(n):
        # Multiplication by x_i acts on each of the n blocks of A^n.
        images = algebra.multiplication_map(algebra.generator(i).coordinates)
        tables.append(
            [{k * d + g: c for g, c in image.items()} for k in range(n) for image in images]
        )
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


def taylor_map(p: Jet, contact: ContactData | None = None) -> TaylorData:
    """pi_* C_p inside T_{p'} plus the injectivity hypothesis hat(p') <= p.

    The projection exists because every field tangent to p is tangent to p';
    that inclusion is asserted computationally before projecting.
    """
    contact = contact or contact_and_cartan(p)
    derived = contact.derived

    _assert_fields_project(p, derived)

    pi_cols = _projection_columns(p, derived)
    span = tangent_module(derived).relations.echelon()
    for v in contact.cartan.rows.values():
        span.insert(apply_columns(pi_cols, v))
    image = span.subspace()

    hat_prime = hat_ideal(derived)
    taylor_condition = p.contains_jet(hat_prime)

    cartan_projects: bool | None = None
    if derived.width == p.width:
        prime_contact = contact_and_cartan(derived)
        cartan_projects = prime_contact.cartan.contains_subspace(image)

    return TaylorData(p, derived, image, taylor_condition, cartan_projects)


def _assert_fields_project(p: Jet, derived: Jet) -> None:
    """Every field tangent to p maps the derived ideal into itself.

    D(gf) = D(g)f + gD(f), so it is enough that each field maps each minimal
    generator of the derived ideal into it; the derived ideal contains every
    monomial of its window's top degree, so truncating D(g) there is harmless.
    """
    fields = jet_fields(p).rows.values()
    bound = derived.window_bound
    for gen in derived.quotient.minimal_generators:
        g = TruncatedPolynomial.from_vector(p.n, bound, gen)
        cols = _field_columns(g, p.order, bound)
        for coeffs in fields:
            image: SparseRow = {}
            for col, a in coeffs.items():
                vec = cols.get(col)
                if vec is not None:
                    _add_multiple(image, a, vec)
            if image and not derived.ideal.contains_vector(image):
                raise InternalCheckError(
                    "a field tangent to the jet is not tangent to its derived jet"
                )


# -- functorial maps -----------------------------------------------------------------


def _kernel_jet(
    algebra: WeilAlgebra,
    base_point: tuple[Fraction, ...],
    m: int,
    power_product: Callable[[Exponent], tuple[Fraction, ...]],
) -> Jet:
    """Jet of the morphism R[y1..ym] -> A sending y^e to power_product(e).

    The ideal is the kernel on the window of degree order+1; the monomials of
    that top degree map to zero, being products of order+1 nilpotents, so the
    kernel is an ideal of the window.
    """
    order = algebra.order
    bound = order + 1
    exps = window(m, bound)
    zero = (_ZERO,) * algebra.dimension
    columns = [power_product(e) if sum(e) <= order else zero for e in exps]
    rows = [[col[out] for col in columns] for out in range(algebra.dimension)]
    return _window_jet(m, bound, nullspace(rows, len(exps)), base_point)


def _pushforward(p: Jet, phi: Sequence[TruncatedPolynomial]) -> tuple[
    Jet,
    list[TruncatedPolynomial],
    list[tuple[Fraction, ...]],
    Callable[[Exponent], tuple[Fraction, ...]],
]:
    """Image jet together with the translated map psi it is computed from.

    psi = phi(base + x) - phi(base) moves both base points to the origin.
    Returns the image jet, psi, the classes [psi_j] in A and the memoized
    power products of those classes.
    """
    n = p.n
    for f in phi:
        if f.variable_count != n:
            raise DimensionMismatchError("map component has the wrong variable count")
    base_target = tuple(f.evaluate(p.base_point) for f in phi)
    psi = []
    for f in phi:
        moved = f.shift(p.base_point) if any(p.base_point) else f
        psi.append(moved - TruncatedPolynomial.constant(n, f.degree_bound, moved.constant_term()))
    algebra = p.quotient
    images = [
        algebra.project_polynomial(f.truncate(p.window_bound)).coordinates for f in psi
    ]
    power_product = _power_products(algebra.one().coordinates, images, algebra.mult_coords)
    image_jet = _kernel_jet(algebra, base_target, len(phi), power_product)
    return image_jet, psi, images, power_product


def pushforward(p: Jet, phi: Sequence[TruncatedPolynomial]) -> Jet:
    """Image jet under a polynomial map: the kernel of composition mod p."""
    return _pushforward(p, phi)[0]


@dataclass(frozen=True)
class TangentMap:
    """Existence data and the induced map between tangent presentations."""

    jet: Jet
    image_jet: Jet
    exists: bool
    is_regular_for_subalgebra: bool
    matrix: tuple[tuple[Fraction, ...], ...] | None


def tangent_map(p: Jet, phi: Sequence[TruncatedPolynomial]) -> TangentMap:
    """Tangent map along a polynomial map, when derivatives stay in phi*B + p.

    The subalgebra generated by the coordinate images is closed by span
    saturation; existence asks every first partial of every image to lie in
    it, and regularity asks it to be the full quotient.
    """
    n = p.n
    target_n = len(phi)
    algebra = p.quotient
    d = algebra.dimension
    image_jet, psi, images, power_product = _pushforward(p, phi)
    b = image_jet.quotient

    generated = Echelon(d)
    generated.saturate(
        [sparse(algebra.one().coordinates, d)],
        [algebra.multiplication_map(img) for img in images],
    )
    subalgebra = generated.subspace()

    partials = [
        [
            algebra.project_polynomial(f.derivative(i).truncate(p.window_bound)).coordinates
            for i in range(n)
        ]
        for f in psi
    ]
    exists = all(subalgebra.contains_vector(w) for row in partials for w in row)
    regular = subalgebra.dimension == d

    matrix = None
    if exists:
        # B -> A is injective: one echelon of the image columns, each tagged
        # with its unknown, solves for every value (an image reduces to minus
        # its coordinates in B, on the tags).
        iota_cols = [sparse(power_product(exp), d) for exp in b.basis_monomials]
        db = b.dimension
        system = Echelon(d + db)
        for k, col in enumerate(iota_cols):
            system.insert({**col, d + k: _ONE})
        # Column i*d + beta of the induced map, sparse over target_n * db rows.
        columns: list[SparseRow] = [{} for _ in range(n * d)]
        for j in range(target_n):
            for i, w in enumerate(partials[j]):
                if not any(w):
                    continue
                for beta, value in enumerate(algebra.multiplication_map(w)):
                    rest = system.reduce(value)
                    w_coords = {c - d: -v for c, v in rest.items() if c >= d}
                    if len(w_coords) != len(rest) or apply_columns(iota_cols, w_coords) != value:
                        raise InternalCheckError(
                            "tangent value escaped the image subalgebra"
                        )
                    columns[i * d + beta].update(
                        (j * db + k, u) for k, u in w_coords.items()
                    )
        matrix = tuple(
            tuple(col.get(r, _ZERO) for col in columns) for r in range(target_n * db)
        )

        rel_image = tangent_module(image_jet).relations
        for v in tangent_module(p).relations.rows.values():
            if not rel_image.contains_vector(apply_columns(columns, v)):
                raise InternalCheckError("induced map is not constant on classes")

    return TangentMap(p, image_jet, exists, regular, matrix)
