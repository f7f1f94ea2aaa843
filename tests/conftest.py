from fractions import Fraction

import pytest
from hypothesis import strategies as st

from weiljets import jets as jet_module
from weiljets.apoints import APoint, evaluate, factor_epimorphism, group_inverse, group_product
from weiljets.jets import jet_from_ideal
from weiljets.monomials import window, window_size
from weiljets.poly import TruncatedPolynomial, parse_polynomial
from weiljets.subspace import Echelon, Subspace, apply_columns, apply_rows, sparse
from weiljets.weil import AlgebraElement, derivation_space, quotient_algebra


def P(text, n, bound=None):
    return parse_polynomial(text, n, bound)


def Q(value):
    return Fraction(value)


def is_canonical_scalar(c) -> bool:
    """The package's one scalar rule: a plain ``int`` when the value is
    integral, otherwise a ``Fraction`` whose denominator is > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.fixture
def parse():
    return P


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def presentations(draw):
    """(m, l, generators) of R_m^l, or of a monomial or binomial quotient of
    it, for m, l <= 3."""
    m = draw(st.integers(1, 3))
    ell = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["free", "monomial", "binomial"]))
    exps = window(m, ell)[1:]
    if kind == "free" or not exps:
        return m, ell, []
    if kind == "binomial" and len(exps) > 1:
        left, right = draw(st.lists(st.sampled_from(exps), min_size=2, max_size=2, unique=True))
        c = draw(rationals.filter(bool))
        return m, ell, [
            TruncatedPolynomial.monomial(m, ell, left)
            - TruncatedPolynomial.monomial(m, ell, right, c)
        ]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3, unique=True))
    return m, ell, [TruncatedPolynomial.monomial(m, ell, e) for e in chosen]


def algebras():
    """The quotient algebras of :func:`presentations`."""
    return presentations().map(lambda p: quotient_algebra(*p))


@st.composite
def jets(draw):
    """The jets of the ideals of :func:`presentations`, moved to a drawn
    rational base point: each generator g(x) becomes g(x - point)."""
    m, ell, generators = draw(presentations())
    point = draw(st.lists(rationals, min_size=m, max_size=m))
    away = [-c for c in point]
    return jet_from_ideal(m, point, [g.shift(away) for g in generators], ell)


# (vars, generators, order): the jets of the benchmark's ladder.
LADDER = (
    (2, ["y - x^2"], 3),
    (2, ["y - x^3"], 4),
    (3, ["z - x^2 - y^2"], 3),
    (3, ["z - x y"], 4),
    (4, ["x4 - x1 x2", "x3 - x1^2"], 3),
    (3, ["y^2 - x^3", "z"], 3),
)


def ladder_jet(n, gens, order):
    return jet_from_ideal(n, [0] * n, [P(g, n) for g in gens], order)


def power_jet(n, k, base_point=None):
    """The jet m^k at the base point (k >= 1): no generators at order hint
    k - 1, as a session's ``jet`` binding without ``generators`` builds it."""
    return jet_from_ideal(n, base_point or [0] * n, [], k - 1)


# -- element arithmetic ------------------------------------------------------------
# The package multiplies rows inside its kernels and has no element operators;
# tests combine elements through the dense entry and multiply them through the
# multiplication map.


def zero(algebra):
    return AlgebraElement(algebra, {})


def add(u, v, c=1):
    """u + c v, on the dense coordinates."""
    return u.algebra.element([a + c * b for a, b in zip(u.coordinates, v.coordinates)])


def times(u, v):
    """u v: the multiplication map of u applied to v."""
    return AlgebraElement(u.algebra, apply_columns(u.algebra.multiplication_map(u.row), v.row))


def power(u, k: int):
    result = u.algebra.one()
    for _ in range(k):
        result = times(result, u)
    return result


def identity_point(law, algebra):
    """The neutral A-point of a group law over an algebra: the law's identity
    as constants."""
    rest = [0] * (algebra.dimension - 1)
    return APoint(algebra, tuple(algebra.element([c] + rest) for c in law.identity))


# -- reference polynomial arithmetic -----------------------------------------------
# Plain Fraction double loops over the terms of {exponent: coefficient} dicts:
# one Fraction per partial sum, no common denominators, no power-product walk.

ZERO = Fraction(0)


def ref_product(f: dict, g: dict, bound: int) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            exp = tuple(a + b for a, b in zip(ea, eb))
            if sum(exp) <= bound:
                out[exp] = out.get(exp, ZERO) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_substitute(f: dict, images: list[dict], n: int, bound: int) -> dict:
    total: dict = {}
    for exp, c in f.items():
        term = {(0,) * n: c}
        for image, k in zip(images, exp):
            for _ in range(k):
                term = ref_product(term, image, bound)
        for e, v in term.items():
            total[e] = total.get(e, ZERO) + v
    return {e: c for e, c in total.items() if c}


def ref_evaluate_free(f: TruncatedPolynomial, point) -> dict:
    """f at an A-point of a free algebra R_m^l as {basis index: coefficient}:
    each image read as a polynomial in the m algebra variables, substituted by
    ``ref_substitute`` at the bound l, where truncation is the product of the
    free algebra."""
    algebra = point.algebra
    monomials = algebra.basis_monomials
    images = [{monomials[k]: c for k, c in img.row.items()} for img in point.images]
    value = ref_substitute(f.coefficients, images, algebra.n, algebra.order)
    index = {e: k for k, e in enumerate(monomials)}
    return {index[e]: c for e, c in value.items()}


def ref_leibniz_columns(f: TruncatedPolynomial, monomials, target) -> list[dict]:
    """Column i*len(monomials) + b: the sparse class in ``target`` of
    (d f / d x_i) * x^monomials[b], the product expanded by ``ref_product``
    and projected with :func:`class_of` (no multiplication
    table, no multiplication map)."""
    n, bound = f.variable_count, target.window_bound
    return [
        class_of(
            target,
            TruncatedPolynomial(n, bound, ref_product(f.derivative(i).coefficients, {exp: 1}, bound))
        ).row
        for i in range(n)
        for exp in monomials
    ]


# -- group laws on real points and on A-points -------------------------------------
# The package lifts a law to A-points only; the real operations and the axiom
# check on A-points are what the tests compare that lift with.


def multiply_points(law, p, q) -> list:
    """The law at real points: (p * q)_i = law_i(p, q)."""
    vals = [Fraction(v) for v in list(p) + list(q)]
    return [f.evaluate(vals) for f in law.law]


def invert_point(law, p) -> list:
    """The law's inverse at a real point."""
    vals = [Fraction(v) for v in p]
    return [f.evaluate(vals) for f in law.inverse]


def verify_axioms(law, algebra, points) -> bool:
    """Exact identity, inverse and associativity laws of the group of A-points
    of a law over an algebra, on the given points."""
    e = identity_point(law, algebra)

    def product(p, q):
        return group_product(law, p, q)

    for p in points:
        if product(p, e).images != p.images or product(e, p).images != p.images:
            return False
        if product(p, group_inverse(law, p)).images != e.images:
            return False
    return all(
        product(product(p, q), s).images == product(p, product(q, s)).images
        for p in points
        for q in points
        for s in points
    )


# -- counted work ------------------------------------------------------------------


@pytest.fixture
def inserts_outside_saturation(monkeypatch):
    """A list that gets one entry (the echelon's ambient dimension, the row)
    per Echelon.insert made outside Echelon.saturate."""
    made = []
    depth = [0]
    insert, saturate = Echelon.insert, Echelon.saturate

    def counted_insert(self, row):
        if not depth[0]:
            made.append((self.ambient_dimension, dict(row)))
        return insert(self, row)

    def counted_saturate(self, rows, tables):
        depth[0] += 1
        try:
            return saturate(self, rows, tables)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Echelon, "insert", counted_insert)
    monkeypatch.setattr(Echelon, "saturate", counted_saturate)
    return made


# -- views of package values that only the tests read ------------------------------


def pivots(subspace) -> tuple:
    """The pivot columns of a subspace, in the order of its rows."""
    return tuple(subspace.rows)


def is_identity(point) -> bool:
    """Whether an A-point of R^m over an algebra on m generators is the
    identity morphism of that algebra: each basis monomial evaluates to its
    own class."""
    algebra = point.algebra
    n = algebra.n
    return point.ambient_dimension == n and all(
        evaluate(TruncatedPolynomial(n, algebra.window_bound, {exp: 1}), point).row == {b: Fraction(1)}
        for b, exp in enumerate(algebra.basis_monomials)
    )


def is_regular(point) -> bool:
    """Whether the evaluation at an A-point is onto its algebra."""
    return point.algebra.generated_by([img.row for img in point.images])


def compose(outer, inner):
    """outer o inner (inner first) for an A-point inner of R^m over an algebra
    on outer's ambient coordinates: x_i -> outer(inner(x_i)), each image of
    inner read as the polynomial of its row."""
    return APoint(
        outer.algebra,
        tuple(evaluate(inner.algebra.row_polynomial(img.row), outer) for img in inner.images),
    )


def ideal_generators(algebra) -> tuple:
    """The polynomials of the algebra's generator rows, which generate its
    defining ideal: the given generators and the monomials of top degree."""
    return tuple(
        TruncatedPolynomial.from_sparse(algebra.n, algebra.window_bound, row)
        for row in algebra._generator_rows
    )


def class_of(algebra, f: TruncatedPolynomial):
    """The class of a polynomial in the algebra, as an element."""
    return AlgebraElement(algebra, algebra._polynomial_class(f))


def reference_class(algebra, f: dict) -> dict:
    """The class of a window polynomial {exponent: coefficient} in the
    algebra: its remainder against the defining ideal's canonical rows lies on
    the free columns, which are the basis monomials."""
    exps = window(algebra.n, algebra.window_bound)
    index = {e: c for c, e in enumerate(exps)}
    rest = algebra.defining_ideal.echelon().reduce({index[e]: c for e, c in f.items()})
    return {algebra.basis_columns.index(c): v for c, v in rest.items()}


def transported_cartan(p) -> Subspace:
    """The Cartan system of the graph-tangent fields, valued at the
    transformed jet A_q and transported back to A = A_p.

    The transformed jet is its own Weil algebra; psi: A_q -> A is the class
    of each basis monomial substituted through tau (``ref_substitute``,
    ``reference_class``); the transport sends v in A_q^n to
    (psi(sum_k [d sigma^i / d x_k]_q v_k))_i through A_q's multiplication
    maps, one per pair (i, k).  The field values are then saturated as the
    package saturates them.  The package values the fields in closed form.
    """
    algebra = p.quotient
    relations = jet_module.tangent_module(p).relations
    if p.order == 0:
        return relations
    n, d, bound = p.n, algebra.dimension, p.window_bound
    nf = jet_module.normal_form(p)
    bq = jet_module._window_jet(n, bound, nf.transformed_ideal, p.base_point).quotient
    assert bq.dimension == d
    tau = [t.coefficients for t in nf.sigma_inverse]
    psi = [
        reference_class(algebra, ref_substitute({exp: Fraction(1)}, tau, n, bound))
        for exp in bq.basis_monomials
    ]
    transport: list[dict] = [{} for _ in range(n * d)]
    for i in range(n):
        for k in range(n):
            entry = bq._polynomial_class(nf.sigma[i].derivative(k))
            if entry:
                for g, column in enumerate(bq.multiplication_map(entry)):
                    for h, c in apply_columns(psi, column).items():
                        transport[k * d + g][i * d + h] = c
    values = []
    for coeff in jet_module._graph_tangent_fields(nf):
        field: dict = {}
        for k, f in coeff.items():
            field.update((k * d + g, c) for g, c in bq._polynomial_class(f).items())
        values.append(apply_columns(transport, field))
    tables = [jet_module._BlockTable(images, d, outer=False) for images in algebra.variable_maps]
    cartan = relations.echelon()
    cartan.saturate(values, tables)
    return cartan.subspace()


def pulled_back_derived(p):
    """The derived jet's algebra with the substitution route: the pivot
    variables and Q' = (Q, d_x Q) of p's chart (its normal form when it
    carries none), moved back through tau by ``jets._pullback`` at hint
    l - 1.  The package passes the images tau_j and Q' straight to the
    quotient."""
    if p.order == 0:
        return p.quotient
    chart = p.chart or jet_module.normal_form(p)
    n, bound = p.n, p.window_bound
    gens = [TruncatedPolynomial.variable(n, bound, j) for j in chart.pivot_variables]
    for q in chart.q_list:
        gens += [q] + [dq for a in chart.free_variables if not (dq := q.derivative(a)).is_zero()]
    return jet_module._pullback(p, gens, p.order - 1, chart.sigma_inverse)


def exact_inverse(rows) -> list[list[Fraction]]:
    """The inverse of an invertible square matrix of rationals by sympy's
    exact ``Matrix.inv()``, as ``Fraction`` rows."""
    from sympy import Matrix, Rational

    inverse = Matrix([[Rational(Fraction(c).numerator, Fraction(c).denominator) for c in r] for r in rows]).inv()
    return [[Fraction(int(v.p), int(v.q)) for v in inverse.row(i)] for i in range(inverse.rows)]


def linear_part(point) -> list[list]:
    """Row i: the coordinates of the image of x_i at the classes 1..n of the
    point's algebra, which are x_1..x_n when it is a free truncated algebra of
    order >= 1."""
    n = point.algebra.n
    return [[img.row.get(j, 0) for j in range(1, n + 1)] for img in point.images]


def all_passes_inverse(sigma, bound):
    """The inverse of the substitution x -> sigma(x) up to the degree bound,
    as coefficient dicts: every one of the bound - 1 passes
    tau <- Lin^{-1} (x - N o tau), with sigma = Lin + N, Lin invertible, and
    N o tau expanded by ``ref_substitute``."""
    n = len(sigma)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    lin_inv = exact_inverse([[f.coefficients.get(u, 0) for u in units] for f in sigma])
    nonlinear = [{e: c for e, c in f.coefficients.items() if sum(e) >= 2} for f in sigma]

    def lin_inv_apply(polys):
        out = []
        for i in range(n):
            acc: dict = {}
            for j, poly in enumerate(polys):
                for e, c in poly.items():
                    acc[e] = acc.get(e, 0) + lin_inv[i][j] * c
            out.append({e: c for e, c in acc.items() if c})
        return out

    tau = lin_inv_apply([{u: Fraction(1)} for u in units])
    for _ in range(max(bound - 1, 0)):
        rest = [ref_substitute(f, tau, n, bound) for f in nonlinear]
        tau = lin_inv_apply(
            [{u: Fraction(1), **{e: -c for e, c in r.items()}} for u, r in zip(units, rest)]
        )
    return tau


def inverse_morphism(phi):
    """The inverse of an automorphism phi of a free truncated algebra R_m^l,
    given as an A-point of R^m over it: the g with phi o g = id, by
    ``factor_epimorphism``; None when phi is not onto, that is when its
    linear part is singular."""
    source = phi.algebra
    if not is_regular(phi):
        return None
    identity = APoint(source, tuple(source.generator(i) for i in range(source.n)))
    return factor_epimorphism(phi, identity, source.order)


def maximal_power(algebra, k: int):
    """m^k (k >= 1) in quotient coordinates: the unit rows of the basis
    monomials of degree >= k, which span it because the basis is graded."""
    return Subspace(
        algebra.dimension,
        {b: {b: Fraction(1)} for b, e in enumerate(algebra.basis_monomials) if sum(e) >= k},
    )


def leibniz_columns(ders) -> tuple:
    """Per derivation, the sparse images delta(a_b) of the basis classes, by the
    Leibniz expansion delta(x^e) = sum_i e_i [x^(e - 1_i)] * delta(x_i)."""
    algebra = ders.algebra
    out = []
    for images in ders.sparse_images:
        maps = [algebra.multiplication_map(img) for img in images]
        cols = []
        for exp in algebra.basis_monomials:
            total = {}
            for i, k in enumerate(exp):
                if not k:
                    continue
                lowered = exp[:i] + (k - 1,) + exp[i + 1 :]
                for a, c in algebra.monomial_element(lowered).row.items():
                    for g, v in maps[i][a].items():
                        total[g] = total.get(g, 0) + k * c * v
            cols.append({g: v for g, v in total.items() if v})
        out.append(tuple(cols))
    return tuple(out)


def projected_derivations(algebra, ideal, report):
    """Per derivation, the induced map on A/I (rows index the output), read off
    the remainder of each complement column of the Leibniz action against the
    ideal's echelon; None unless the stability report found the ideal stable."""
    if not report.der_stable:
        return None
    complement = ideal.free_columns()
    span = ideal.echelon()
    proj = []
    for columns in leibniz_columns(derivation_space(algebra)):
        reduced = [span.reduce(columns[c_in]) for c_in in complement]
        proj.append(tuple(tuple(r.get(c_out, ZERO) for r in reduced) for c_out in complement))
    return tuple(proj)


# -- dense views of the package's sparse forms ------------------------------------
# Only the tests read matrices and vectors densely; each view is built here
# from the sparse rows and columns the package stores.


def dense_row(row: dict, ambient: int) -> tuple:
    return tuple(row.get(c, 0) for c in range(ambient))


def basis(subspace) -> tuple:
    """The dense reduced row-echelon basis of a subspace, in pivot order."""
    return tuple(dense_row(r, subspace.ambient_dimension) for r in subspace.rows.values())


def membership_rows(subspace) -> tuple:
    """Functionals whose common kernel is exactly the subspace: for each free
    column c, e_c - sum_p rows[p][c] e_p."""
    n = subspace.ambient_dimension
    out = []
    for c in subspace.free_columns():
        functional = {c: Fraction(1)}
        for p, row in subspace.rows.items():
            if row.get(c):
                functional[p] = -row[c]
        out.append(dense_row(functional, n))
    return tuple(out)


def mat_vec(rows, vector) -> list:
    """The dense product of a row matrix with a vector."""
    return [sum((a * b for a, b in zip(row, vector)), ZERO) for row in rows]


def columns_matrix(columns, height: int) -> tuple:
    """The dense row matrix of a linear map given by sparse columns."""
    return tuple(tuple(col.get(g, ZERO) for col in columns) for g in range(height))


def derivation_matrices(ders) -> tuple:
    """Per derivation, the dense matrix of its action on the basis classes."""
    return tuple(columns_matrix(cols, ders.algebra.dimension) for cols in leibniz_columns(ders))


def generator_images(ders) -> tuple:
    """Per derivation, the dense coordinates of delta[x^1], ..., delta[x^n]."""
    d = ders.algebra.dimension
    return tuple(tuple(dense_row(img, d) for img in images) for images in ders.sparse_images)


# -- dense-input constructors ---------------------------------------------------
# The package takes sparse rows only; these build its objects from dense
# vectors through the one input boundary, ``subspace.sparse``.


def canonical_basis(vectors, ambient: int):
    """The canonical subspace spanned by dense vectors."""
    span = Echelon(ambient)
    for v in vectors:
        span.insert(sparse(v, ambient))
    return span.subspace()


def nullspace(rows, ambient: int):
    """The solution space of row . x = 0 for every dense row."""
    span = Echelon(ambient)
    for row in rows:
        span.insert(sparse(row, ambient))
    return span.kernel()


def subspace_sum(u, v):
    """U + V: V's rows inserted into U's echelon."""
    u._check_ambient(v)
    span = u.echelon()
    for r in v.rows.values():
        span.insert(r)
    return span.subspace()


def zero_subspace(ambient: int):
    return Echelon(ambient).subspace()


def subspace_intersection(u, v):
    """U n V by Zassenhaus' method: echelonize the rows (u_i | u_i) and
    (v_j | 0) in twice the ambient dimension; the rows whose pivot lies in
    the right half are zero on the left, and their right halves are the
    canonical rows of U n V."""
    u._check_ambient(v)
    n = u.ambient_dimension
    span = Echelon(2 * n)
    for r in u.rows.values():
        span.insert({**r, **{n + c: x for c, x in r.items()}})
    for r in v.rows.values():
        span.insert(r)
    right = {p - n: {c - n: x for c, x in r.items()} for p, r in span.rows.items() if p >= n}
    return Echelon(n, right).subspace()


def contains_dense(subspace, vector) -> bool:
    """Membership of a dense vector, sparsified first."""
    return subspace.contains_vector(sparse(vector, subspace.ambient_dimension))


def jet_contains(jet, f: TruncatedPolynomial) -> bool:
    """Membership in a jet's ideal of a polynomial written in coordinates at
    the jet's base point."""
    shifted = f.shift(jet.base_point, jet.window_bound) if any(jet.base_point) else f
    return jet.ideal.contains_vector(shifted.to_sparse(jet.window_bound))


def differential(jet, f: TruncatedPolynomial, tangent) -> tuple:
    """d_p f for f in the jet's ideal, on a dense ambient tangent
    representative in A^n: f's Leibniz rows applied to it, as dense
    coordinates in A."""
    assert jet_contains(jet, f)
    algebra = jet.quotient
    shifted = f.shift(jet.base_point) if any(jet.base_point) else f
    value = apply_rows(algebra.differential_rows(shifted), sparse(tangent, jet.n * algebra.dimension))
    return dense_row(value, algebra.dimension)


def to_vector(f: TruncatedPolynomial, bound: int | None = None) -> tuple:
    """The dense coefficient vector of f over the window layout (truncating)."""
    b = f.degree_bound if bound is None else bound
    return dense_row(f.to_sparse(b), window_size(f.variable_count, b))


def from_vector(n: int, bound: int, vector) -> TruncatedPolynomial:
    """The polynomial of a dense coefficient vector over the window layout."""
    exps = window(n, bound)
    assert len(vector) == len(exps)
    return TruncatedPolynomial(n, bound, {e: v for e, v in zip(exps, vector) if v})


def ideal_polynomials(jet) -> list[TruncatedPolynomial]:
    """Canonical basis of a jet's ideal as polynomials (origin coordinates)."""
    return [TruncatedPolynomial.from_sparse(jet.n, jet.window_bound, r) for r in jet.ideal.rows.values()]


def structure_constants(algebra):
    """Sparse (alpha, beta, gamma, c) with a^alpha a^beta = c a^gamma + ...: the
    algebra's stored integer table, one ``Fraction`` per nonzero product."""
    for a, row in enumerate(algebra._mult):
        for b, entries in row.items():
            for g, c in entries:
                yield (a, b, g, Fraction(c, algebra._mult_den))
