"""Oracles for the minimal ideal generators and the jet checks built on them.

Every expected value here is computed in this file, with dense ``Fraction``
elimination over a window layout rebuilt from ``itertools``: the saturation
of the minimal generators, dim I - dim m*I, the field space of a jet taken
over the full vector basis of its ideal, and the order of polynomial terms.
The tests also make each reworked self-check fire on a perturbed input, and
pin the memo of every builder that caches on a jet or an algebra.
"""

import sys
from fractions import Fraction
from itertools import product
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weiljets import jets, weil
from weiljets.errors import InternalCheckError
from weiljets.jets import (
    _assert_fields_project,
    classical_jet,
    cotangent_module,
    derived_jet,
    hat_ideal,
    jet_fields,
    jet_from_ideal,
    taylor_map,
)
from weiljets.poly import TruncatedPolynomial
from weiljets.subspace import Subspace
from weiljets.weil import quotient_algebra

from conftest import (
    LADDER,
    P,
    algebras,
    basis,
    canonical_basis,
    ideal_generators,
    jets as drawn_jets,
    ladder_jet,
    rationals,
    to_vector,
)


def layout(n, bound):
    """Exponents of degree <= bound: by degree, then exponent descending."""
    exps = [e for e in product(range(bound + 1), repeat=n) if sum(e) <= bound]
    return sorted(exps, key=lambda e: (sum(e), [-k for k in e]))


def rref(vectors):
    """Reduced row-echelon rows (pivot entry 1) of the span of dense vectors.

    Rows are kept as {column: entry} dicts of their nonzeros, for speed.
    """
    rows = {}
    for v in vectors:
        v = {k: Fraction(x) for k, x in enumerate(v) if x}
        for pivot in [k for k in v if k in rows]:
            c = v.get(pivot)
            if c:
                for k, b in rows[pivot].items():
                    v[k] = v.get(k, 0) - c * b
        v = {k: x for k, x in v.items() if x}
        if not v:
            continue
        lead = min(v)
        v = {k: x / v[lead] for k, x in v.items()}
        for p, r in rows.items():
            c = r.get(lead)
            if c:
                for k, b in v.items():
                    r[k] = r.get(k, 0) - c * b
                rows[p] = {k: x for k, x in r.items() if x}
        rows[lead] = v
    return rows


def rank(vectors):
    return len(rref(vectors))


def same_span(a, b):
    return rank(a) == rank(b) == rank(list(a) + list(b))


def nullspace(rows, width):
    """Basis of {x : r . x = 0 for every row r}."""
    reduced = rref(rows)
    basis = []
    for free in range(width):
        if free in reduced:
            continue
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for p, r in reduced.items():
            x[p] = -r.get(free, 0)
        basis.append(x)
    return basis


def multiply(vector, exps, idx, shift, bound):
    """Dense vector * x^shift, truncated at the bound."""
    out = [Fraction(0)] * len(exps)
    for c, v in enumerate(vector):
        if v:
            e = tuple(map(add, exps[c], shift))
            if sum(e) <= bound:
                out[idx[e]] += v
    return out


def units(n):
    return [tuple(int(k == i) for k in range(n)) for i in range(n)]


def check_minimal_generators(algebra):
    n, bound = algebra.n, algebra.window_bound
    exps = layout(n, bound)
    idx = {e: i for i, e in enumerate(exps)}
    ideal = [list(r) for r in basis(algebra.defining_ideal)]
    gens = algebra.minimal_generators
    assert set(gens) <= set(ideal_generators(algebra))
    multiples = [multiply(to_vector(g), exps, idx, a, bound) for g in gens for a in exps]
    assert same_span(multiples, ideal)
    m_ideal = [multiply(r, exps, idx, u, bound) for r in ideal for u in units(n)]
    assert len(gens) == len(ideal) - rank(m_ideal)


@settings(max_examples=80, deadline=None)
@given(algebras())
@example(quotient_algebra(2, 3, [P("x^2 - 2/3 y^2", 2), P("x y", 2), P("x^3", 2)]))
def test_minimal_generators_oracle(algebra):
    check_minimal_generators(algebra)


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_minimal_generators_of_derived_quotients(n, gens, order):
    p = ladder_jet(n, gens, order)
    derived = derived_jet(p).quotient
    check_minimal_generators(derived)
    # The derived quotients carry redundant generators; the check drops some.
    assert len(derived.minimal_generators) <= len(ideal_generators(derived))


def test_minimal_generators_drop_redundant_rows():
    # (x, x^2, x y) + m^3 in two variables is (x, y^3): x generates x^2, x y
    # and every top monomial but y^3.
    algebra = quotient_algebra(2, 2, [P("x", 2), P("x^2", 2), P("x y", 2)])
    kept = [set(g.coefficients) for g in algebra.minimal_generators]
    assert kept == [{(1, 0)}, {(0, 3)}]


# The last case draws its jets from Hypothesis; the ladder cases draw nothing,
# so Hypothesis runs each of them once.
@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n, gens, order", [*LADDER, pytest.param(0, None, 0, id="drawn")])
def test_jet_fields_match_full_basis_route(n, gens, order, data):
    p = data.draw(drawn_jets()) if gens is None else ladder_jet(n, gens, order)
    n, ell, bound = p.n, p.order, p.window_bound
    coeff_exps = layout(n, ell)
    exps = layout(n, bound)
    idx = {e: i for i, e in enumerate(exps)}
    ideal = [list(r) for r in basis(p.ideal)]
    annihilator = [
        [(k, x) for k, x in enumerate(lam) if x] for lam in nullspace(ideal, len(exps))
    ]
    constraints = []
    for f in ideal:
        # Column (i, c) of field -> D(f): x^c * df/dx_i, truncated.
        columns = []
        for i in range(n):
            df = [Fraction(0)] * len(exps)
            for c, v in enumerate(f):
                e = exps[c]
                if v and e[i]:
                    lowered = tuple(k - (j == i) for j, k in enumerate(e))
                    df[idx[lowered]] += e[i] * v
            columns += [multiply(df, exps, idx, a, bound) for a in coeff_exps]
        for lam in annihilator:
            constraints.append([sum(x * col[k] for k, x in lam) for col in columns])
    expected = nullspace(constraints, n * len(coeff_exps))
    assert same_span(expected, basis(jet_fields(p)))


class TestChecksFire:
    def parabola(self):
        return ladder_jet(2, ["y - x^2"], 3)

    def test_fields_project_on_the_true_derived_jet(self):
        p = self.parabola()
        _assert_fields_project(p, derived_jet(p))

    def test_fields_project_fires_on_a_perturbed_derived_jet(self):
        # x d/dx + 2x^2 d/dy is a field of the jet (it kills y - x^2); it takes
        # y - 2x^2 to -2x^2, which is not in (y - 2x^2) + m^3.
        p = self.parabola()
        perturbed = jet_from_ideal(2, [0, 0], [P("y - 2 x^2", 2)], 2)
        with pytest.raises(InternalCheckError, match="not tangent to its derived jet"):
            _assert_fields_project(p, perturbed)

    def with_derivations(self, p, *fields):
        """p with the derivation relations of A = R[x]/p, which the check
        projects, replaced by the span of {unknown: value} dicts.  The unknown
        i*d + b is the coefficient of the basis class b in the i-th component."""
        width = 2 * p.quotient.dimension
        rows = []
        for field in fields:
            row = [Fraction(0)] * width
            for k, v in field.items():
                row[k] = Fraction(v)
            rows.append(row)
        planted = SimpleNamespace(relations=canonical_basis(rows, width))
        p.quotient._memo[("derivation_space",)] = planted
        return p

    def test_fields_project_fires_on_a_perturbed_field(self):
        # d/dx alone takes y - x^2 to -2x, outside the derived jet (y - x^2) + m^3.
        p = self.with_derivations(self.parabola(), {0: 1})
        with pytest.raises(InternalCheckError, match="not tangent to its derived jet"):
            _assert_fields_project(p, derived_jet(p))

    def test_fields_project_checks_every_minimal_generator(self):
        # The derived jet's minimal generators are y - x^2 and x^3.  The basis
        # class 0 is 1, so {0: 1, d + x: 2} is d/dx + 2x d/dy: it kills
        # y - x^2 and takes x^3 to 3x^2, which is outside the derived jet.
        p = self.parabola()
        derived = derived_jet(p)
        kept = [g.coefficients for g in derived.quotient.minimal_generators]
        assert kept == [{(0, 1): 1, (2, 0): -1}, {(3, 0): 1}]
        d = p.quotient.dimension
        x = p.quotient.basis_monomials.index((1, 0))
        p = self.with_derivations(p, {0: 1, d + x: 2})
        with pytest.raises(InternalCheckError, match="not tangent to its derived jet"):
            _assert_fields_project(p, derived)

    @pytest.mark.parametrize(
        "extra, keep",
        [
            # x is not in p: x * x = x^2 is not in p, let alone in hat(p).
            ((1, 0), True),
            # Only the square of a lone generator x can catch it.
            ((1, 0), False),
            # x^3 is not in p either; its square vanishes in the window, but
            # d/dy of x^3 * (y - x^2) is x^3 again, so that product is not in hat(p).
            ((3, 0), True),
        ],
    )
    def test_hat_square_check_fires_on_a_perturbed_generator(self, extra, keep):
        p = self.parabola()
        g = TruncatedPolynomial.monomial(2, p.window_bound, extra)
        kept = p.quotient.minimal_generators if keep else ()
        p.quotient.minimal_generators = kept + (g,)
        with pytest.raises(InternalCheckError, match="p\\^2 is not inside the hat ideal"):
            hat_ideal(p)

    @pytest.mark.parametrize("case", LADDER, ids=lambda case: " ; ".join(case[1]))
    def test_hat_check_fires_on_a_dropped_top_degree_row(self, monkeypatch, case):
        # Every monomial of degree l + 2 lies in hat(p), so the products the
        # check skips rest on those rows: losing one must still fail the step.
        class Dropping(jets.LinearSystem):
            def solutions(self):
                hat = super().solutions()
                rows = dict(hat.rows)
                del rows[max(rows)]
                return Subspace(hat.ambient_dimension, rows)

        p = ladder_jet(*case)
        monkeypatch.setattr(jets, "LinearSystem", Dropping)
        with pytest.raises(InternalCheckError, match="misses a monomial of the top degree"):
            hat_ideal(p)

    def test_classicality_check_fires_on_a_wrong_model(self, monkeypatch):
        # The graph of y = x^2 has the invariants of R_1^3; R_2^3 has a larger
        # dimension and width.
        model = jets.free_truncated_algebra
        monkeypatch.setattr(jets, "free_truncated_algebra", lambda m, order: model(m + 1, order))
        with pytest.raises(InternalCheckError, match="graph jet missed the model invariants"):
            classical_jet(2, [0, 0], {1: P("x^2", 2)}, 3)

    def test_hat_square_check_passes_unperturbed(self):
        p = self.parabola()
        hat = hat_ideal(p)
        assert p.contains_jet(hat)


def test_hat_ideal_is_memoized_on_the_jet():
    p = ladder_jet(3, ["z - x y"], 3)
    hat = hat_ideal(p)
    assert hat_ideal(p) is hat
    assert cotangent_module(p).hat is hat
    derived = derived_jet(p)
    taylor_map(p)
    assert derived._memo[("hat_ideal",)] is hat_ideal(derived)


def _entries(code, call):
    """call() and the number of times a frame of ``code`` was entered meanwhile."""
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        entered += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, entered


def _memo_jet():
    return ladder_jet(3, ["z - x y"], 3)


def _memo_algebra():
    return quotient_algebra(2, 3, [P("x^2 - y^3", 2)])


# Builder name -> (owner, fresh value, call that reaches the builder).
MEMOIZED = {
    "hat_ideal": (jets, _memo_jet, jets.hat_ideal),
    "jet_fields": (jets, _memo_jet, jets.jet_fields),
    "normal_form": (jets, _memo_jet, jets.normal_form),
    "_derived_via_normal_form": (jets, _memo_jet, derived_jet),
    "_cartan_system": (jets, _memo_jet, jets._cartan_system),
    "contact_and_cartan": (jets, _memo_jet, jets.contact_and_cartan),
    "derivation_space": (weil, _memo_algebra, weil.derivation_space),
    "tensor_product": (
        weil, _memo_algebra, lambda a: weil.tensor_product(a, weil.free_truncated_algebra(1, 2))
    ),
    "_minimal_generator": (weil.WeilAlgebra, _memo_algebra, lambda a: a._minimal_generator(0)),
}


@pytest.mark.parametrize("name", sorted(MEMOIZED))
def test_builders_are_memoized_per_value(name):
    owner, make, call = MEMOIZED[name]
    builder = vars(owner)[name]
    # The bench tracer finds what it wraps by these two names.
    assert builder.__name__ == name
    assert builder.__module__ == getattr(owner, "__module__", owner.__name__)
    body = builder.__wrapped__.__code__
    value, twin = make(), make()
    assert value == twin and value is not twin
    result, entered = _entries(body, lambda: call(value))
    assert entered == 1
    again, entered = _entries(body, lambda: call(value))
    assert again is result and entered == 0
    # Equal values keep separate memos.
    assert all(key[0] != name for key in twin._memo)
    other, entered = _entries(body, lambda: call(twin))
    assert entered == 1 and other is not result


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_hat_quotient_matches_the_generator_route(n, gens, order):
    # The hat is built from its own rows, which already span an ideal of the
    # window; saturating them as generators must give the same algebra.
    p = ladder_jet(n, gens, order)
    for jet in (p, derived_jet(p)):
        hat = hat_ideal(jet)
        bound = jet.order + 2
        rows = hat.embedded_ideal(bound).rows.values()
        polys = [TruncatedPolynomial.from_sparse(n, bound, r) for r in rows]
        saturated = quotient_algebra(n, jet.order + 1, polys)
        assert hat.quotient == saturated
        assert (hat.order, hat.quotient.dimension) == (saturated.order, saturated.dimension)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * n), rationals.filter(bool), max_size=12
        ).map(lambda terms: (n, terms))
    )
)
def test_terms_follow_the_layout(case):
    n, terms = case
    f = TruncatedPolynomial(n, 4 * n, terms)
    expected = sorted(terms.items(), key=lambda t: (sum(t[0]), [-k for k in t[0]]))
    assert f.terms() == expected
