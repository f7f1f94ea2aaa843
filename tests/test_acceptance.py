"""Acceptance suite: every check is bit-exact (tolerance zero).

Each criterion prints one PASS line when it holds; run with ``pytest -s``
(or execute this file directly) to see the lines.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

from hypothesis import example, given, settings

from weiljets.apoints import (
    apoint,
    group_inverse,
    group_law,
    group_product,
    prolong_polynomial,
)
from weiljets.jets import (
    cartan_generation_oracle,
    classical_jet,
    contact_and_cartan,
    derived_jet,
    hat_ideal,
    jet_fields,
    jet_from_ideal,
    pushforward,
    tangent_module,
    taylor_map,
)
from weiljets.monomials import window, window_size
from weiljets.poly import TruncatedPolynomial, parse_polynomial, truncated_product
from weiljets.session import execute, parse_session, render
from weiljets.weil import (
    derivation_space,
    free_truncated_algebra,
    quotient_algebra,
)

from conftest import (
    basis,
    canonical_basis,
    class_of,
    columns_matrix,
    contains_dense,
    derivation_matrices,
    exact_inverse,
    from_vector,
    invert_point,
    jets,
    mat_vec,
    membership_rows,
    multiply_points,
    nullspace,
    power_jet,
    verify_axioms,
)

ROOT = Path(__file__).resolve().parent.parent


def P(text, n, bound=None):
    return parse_polynomial(text, n, bound)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@lru_cache(maxsize=1)
def corpus():
    """Jets shared by criteria 4-6: classical up to n=4, l=3, plus the
    non-classical shapes."""
    jets = []
    # Classical jets (n, m, l) with assorted graphs.
    jets.append(classical_jet(2, [0, 0], {1: P("0", 2)}, 1))
    jets.append(classical_jet(2, [0, 0], {1: P("2 x", 2)}, 1))
    jets.append(classical_jet(2, [0, 0], {1: P("x^2", 2)}, 2))
    jets.append(classical_jet(2, [0, 0], {1: P("x + x^2", 2)}, 2))
    jets.append(classical_jet(2, [0, 0], {1: P("x^2 + x^3", 2)}, 3))
    jets.append(classical_jet(3, [0, 0, 0], {1: P("x^2", 3), 2: P("x^2 + x^3", 3)}, 2))
    jets.append(classical_jet(3, [0, 0, 0], {2: P("x^2 + x y", 3)}, 2))
    jets.append(classical_jet(3, [0, 0, 0], {2: P("x y", 3)}, 1))
    jets.append(classical_jet(4, [0, 0, 0, 0], {2: P("x1^2", 4), 3: P("x1 x2", 4)}, 2))
    jets.append(classical_jet(4, [0, 0, 0, 0], {3: P("x1 x2 x3", 4)}, 3))
    # Non-classical jets.
    jets.append(jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x^2", 3)], 2))
    jets.append(jet_from_ideal(2, [0, 0], [P("x^2", 2), P("y^2", 2)], 2))
    return jets


def test_criterion_01_model_algebra_invariants():
    for m in range(1, 4):
        for ell in range(0, 5):
            algebra = quotient_algebra(m, ell, [])
            assert algebra.dimension == comb(m + ell, ell)
            assert algebra.order == ell
            # The width of the order-0 model is 0 (the algebra is R itself).
            assert algebra.width == (m if ell >= 1 else 0)
    report(1, "R_m^l invariants (dim, order, width) for m <= 3, l <= 4")


def test_criterion_02_order_one_jets_derive_to_the_point():
    rng = random.Random(2024)
    count = 0
    while count < 20:
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        directions = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)
        ]
        span = canonical_basis(directions, n)
        if span.dimension == 0:
            continue
        annihilator = nullspace(basis(span), n)
        gens = []
        for row in basis(annihilator):
            gens.append(
                TruncatedPolynomial(
                    n, 1, {tuple(1 if j == i else 0 for j in range(n)): c
                           for i, c in enumerate(row) if c}
                )
            )
        p = jet_from_ideal(n, [0] * n, gens, 1)
        assert p.order == 1 and p.width == span.dimension
        point = jet_from_ideal(
            n, [0] * n, [P(f"x{i + 1}", n) for i in range(n)], 0
        )
        assert derived_jet(p, verify=True) == point
        count += 1
    report(2, "20 random order-1 jets in n <= 4 derive to the maximal ideal")


def test_criterion_03_higher_cotangent_example():
    for n in range(1, 4):
        for ell in range(1, 4):
            p = power_jet(n, ell + 1)
            assert hat_ideal(p) == power_jet(n, ell + 2)
            w = window_size(n, ell)
            rows = []
            for i in range(n):
                for c, exp in enumerate(window(n, ell)):
                    if sum(exp) >= 1:
                        row = [Fraction(0)] * (n * w)
                        row[i * w + c] = Fraction(1)
                        rows.append(row)
            assert jet_fields(p) == canonical_basis(rows, n * w)
            assert tangent_module(p).dimension == n
    report(3, "hat(m^{l+1}) = m^{l+2}, tangent fields = m.D, T dimension = n")


def test_criterion_04_cartan_annihilates_contact():
    for jet in corpus():
        contact = contact_and_cartan(jet)
        assert contact.cartan == contact.cartan_generated
    report(4, "Cartan system equals the exact annihilator of the contact system")


def test_criterion_05_derived_jet_routes_agree():
    for jet in corpus():
        assert derived_jet(jet) == cartan_generation_oracle(jet)
    report(5, "normal-form derived jet equals the field-generation oracle")


@settings(max_examples=25, deadline=None)
@given(jets())
@example(None)  # the corpus
def test_criterion_06_tangent_fields_remain_tangent_to_derived(drawn):
    for jet in corpus() if drawn is None else [drawn]:
        derived = derived_jet(jet)
        fields = jet_fields(jet)
        n, ell = jet.n, jet.order
        w = window_size(n, ell)
        bound = derived.window_bound
        prime_polys = [
            from_vector(n, bound, r)
            for r in basis(derived.ideal)
        ]
        for coeffs in basis(fields):
            comp = [
                from_vector(n, ell, coeffs[i * w : (i + 1) * w])
                for i in range(n)
            ]
            for f in prime_polys:
                total = TruncatedPolynomial.zero(n, bound)
                for i in range(n):
                    df = f.derivative(i)
                    if df.is_zero() or comp[i].is_zero():
                        continue
                    total = total + truncated_product(comp[i], df, bound)
                assert derived.ideal.contains_vector(total.to_sparse(bound))
    if drawn is None:
        report(6, "D(p) <= D(p') holds on every corpus jet")


def test_criterion_07_taylor_injectivity_instances():
    rng = random.Random(77)
    graphs = [P("x^2", 2), P("- x^2", 2)]
    seen = {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}
    while len(graphs) < 12:
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        key = (a, b)
        if key in seen or b == 0:
            continue
        seen.add(key)
        graphs.append(
            TruncatedPolynomial(2, 2, {(1, 0): a, (2, 0): b})
        )
    values = []
    for g in graphs:
        p = classical_jet(2, [0, 0], {1: g}, 2)
        ty = taylor_map(p)
        assert ty.taylor_condition, "hat(p') <= p must hold for classical jets"
        values.append(
            (basis(ty.derived.ideal), basis(ty.pi_star_cartan))
        )
    assert len(set(values)) == len(values), "Taylor values must be pairwise distinct"
    report(7, "Taylor map separates the 12 sampled classical 2-jets")


def test_criterion_08_weil_theorem_exactness():
    from weiljets.apoints import weil_iso_check

    rng = random.Random(88)
    algebras = [
        free_truncated_algebra(1, 1),
        free_truncated_algebra(2, 1),
        free_truncated_algebra(1, 2),
    ]
    monomials = [
        TruncatedPolynomial(2, 5, {(i, j): Fraction(1)})
        for i in range(6)
        for j in range(6)
        if i + j <= 5
    ]
    checked = 0
    for a in algebras:
        for b in algebras:
            for f in monomials:
                for _ in range(5):
                    mats = [
                        [
                            [
                                Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                for _ in range(b.dimension)
                            ]
                            for _ in range(a.dimension)
                        ]
                        for _ in range(2)
                    ]
                    assert weil_iso_check(f, a, b, mats).equal
                    checked += 1
    report(8, f"(M^A)^B = M^(A tensor B) components agree on {checked} checks")


def test_criterion_09_tangent_group():
    law = group_law(
        3,
        [P("x1 + x4", 6), P("x2 + x5", 6), P("x3 + x6 + x1 x5", 6)],
        [0, 0, 0],
        [P("-x1", 3), P("-x2", 3), P("-x3 + x1 x2", 3)],
    )
    algebra = free_truncated_algebra(1, 1)
    rng = random.Random(99)

    def rand_point():
        return apoint(
            algebra,
            [
                [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
                for _ in range(3)
            ],
        )

    def jac(which, at_x, at_y):
        vals = list(at_x) + list(at_y)
        shift = 0 if which == "x" else 3
        return [
            [law.law[i].derivative(shift + j).evaluate(vals) for j in range(3)]
            for i in range(3)
        ]

    e = [Fraction(0)] * 3
    for _ in range(10):
        p, q, s = rand_point(), rand_point(), rand_point()
        assert verify_axioms(law, algebra, [p, q, s])
        prod = group_product(law, p, q)
        pb, qb = p.base_point, q.base_point
        dp = [img.coordinates[1] for img in p.images]
        dq = [img.coordinates[1] for img in q.images]
        expected = [
            x + y
            for x, y in zip(
                mat_vec(jac("x", pb, qb), dp), mat_vec(jac("y", pb, qb), dq)
            )
        ]
        assert [img.coordinates[1] for img in prod.images] == expected
        assert [img.augmentation() for img in prod.images] == multiply_points(law, pb, qb)

        inv = group_inverse(law, p)
        pinv = invert_point(law, pb)
        assert [img.augmentation() for img in inv.images] == pinv
        # -L_{p^-1 *} (Ad p) delta with delta the left-translated tangent part.
        lp = jac("y", pb, e)
        delta = mat_vec(exact_inverse(lp), dp)
        ad_delta = mat_vec(jac("x", pb, pinv), mat_vec(lp, delta))
        expected_inv = [-v for v in mat_vec(jac("y", pinv, e), ad_delta)]
        assert [img.coordinates[1] for img in inv.images] == expected_inv
    report(9, "Heisenberg tangent group: axioms, product and adjoint inverse")


def _stabilizer_dimension(free_algebra, ideal):
    """dim of the Lie-algebra stabilizer of an ideal inside the derivations."""
    ders = derivation_space(free_algebra)
    rows = []
    memb = membership_rows(ideal)
    for v in basis(ideal):
        images = [mat_vec(m, v) for m in derivation_matrices(ders)]
        for r in memb:
            rows.append(
                [sum(a * b for a, b in zip(r, img)) for img in images]
            )
    return nullspace(rows, ders.dimension).dimension


def test_criterion_10_contact_rank_is_codimension():
    cases = {
        (2, 1, 1): P("2 x", 2),
        (2, 1, 2): P("x^2", 2),
        (3, 1, 2): P("x^2", 3),
        (3, 2, 2): P("x^2 + x y", 3),
    }
    for (n, m, ell), graph_poly in cases.items():
        dependent = list(range(m, n))
        graph = {dependent[0]: graph_poly}
        for extra in dependent[1:]:
            graph[extra] = P("0", n)
        p = classical_jet(n, [0] * n, graph, ell)
        contact = contact_and_cartan(p)
        derived = contact.derived
        ell_prime = derived.order
        # Orbit count: dim of the jet space of type A' is
        # n + dim Der(R_n^{l'}) - dim Stab(I), with I the kernel ideal of
        # the derived jet inside R_n^{l'}.
        free = free_truncated_algebra(n, ell_prime)
        small = window(n, ell_prime)
        small_idx = {e: i for i, e in enumerate(small)}
        big = window(n, derived.window_bound)
        rows = []
        for r in basis(derived.ideal):
            vec = [Fraction(0)] * len(small)
            for c, v in enumerate(r):
                if v and sum(big[c]) <= ell_prime:
                    vec[small_idx[big[c]]] += v
            rows.append(vec)
        ideal_in_free = canonical_basis(rows, len(small))
        jet_space_dim = (
            n + derivation_space(free).dimension
            - _stabilizer_dimension(free, ideal_in_free)
        )
        codim = jet_space_dim - m
        assert contact.omega_rank == codim, (n, m, ell)
    report(10, "rank of the contact system equals the derived-space codimension")


def test_criterion_11_prolongation_matches_contact_components():
    p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
    contact = contact_and_cartan(p)
    derived = contact.derived
    a_prime = derived.quotient
    d = a_prime.dimension
    n = 2

    # The tautological regular point over the derived jet: coordinates map
    # to their own classes, so its kernel is exactly the derived ideal.
    taut = apoint(
        a_prime, [a_prime.generator(0), a_prime.generator(1)]
    )
    coords = []
    for img in taut.images:
        coords.extend(img.coordinates)

    side_one = []
    for row in basis(p.ideal):
        f = from_vector(n, p.window_bound, row)
        comps = prolong_polynomial(f, a_prime)
        for comp in comps:
            side_one.append(
                [comp.derivative(k).evaluate(coords) for k in range(n * d)]
            )
    lhs = canonical_basis(side_one, n * d)

    side_two = []
    for row in basis(p.ideal):
        f = from_vector(n, p.window_bound, row)
        partials = [
            class_of(a_prime, f.derivative(i)).row
            for i in range(n)
        ]
        lefts = [columns_matrix(a_prime.multiplication_map(w), d) for w in partials]
        for alpha in range(d):
            srow = []
            for i in range(n):
                for beta in range(d):
                    srow.append(lefts[i][alpha][beta])
            side_two.append(srow)
    rhs = canonical_basis(side_two, n * d)
    assert lhs == rhs
    report(11, "prolonged-ideal differentials span the contact components")


def test_criterion_12_graph_jets_solve_the_contact_system():
    phi = [P("x", 1, 3), P("x^2", 1, 3)]
    for t in [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]:
        source = power_jet(1, 3, [t])
        p = pushforward(source, phi)
        assert p.base_point == (t, t * t)
        contact = contact_and_cartan(p)
        algebra = p.quotient
        # Tangent field of the graph in origin coordinates at the base point:
        # d/dx + (2x + 2t) d/dy.
        fx = class_of(algebra, P("1", 2, 2)).coordinates
        fy = class_of(
            algebra,
            TruncatedPolynomial(2, 2, {(0, 0): 2 * t, (1, 0): Fraction(2)})
        ).coordinates
        value = list(fx) + list(fy)
        assert contains_dense(contact.cartan, value)
    report(12, "graph-jet tangent vectors are annihilated by the contact system")


def test_criterion_13_session_corpus_is_deterministic():
    sessions = sorted((ROOT / "sessions").glob("*.json"))
    assert sessions, "session corpus must not be empty"
    for path in sessions:
        text = path.read_text()
        first = render(execute(parse_session(text)))
        second = render(execute(parse_session(text)))
        assert first == second, f"non-deterministic output for {path.name}"
        assert json.loads(first) == json.loads(second)
        first_text = render(execute(parse_session(text)), "text")
        second_text = render(execute(parse_session(text)), "text")
        assert first_text == second_text
    report(13, f"{len(sessions)} session files render byte-identically twice")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
