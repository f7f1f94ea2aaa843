import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weiljets import cli, jets
from weiljets.errors import InternalCheckError
from weiljets.jets import (
    cartan_generation_oracle,
    classical_jet,
    contact_and_cartan,
    derived_jet,
    hat_ideal,
    jet_from_ideal,
    pushforward,
    tangent_map,
    tangent_module,
    taylor_map,
)
from weiljets.poly import TruncatedPolynomial, _Powers
from weiljets.session import execute, parse_session
from weiljets.subspace import Echelon, LinearSystem, apply_columns
from weiljets.weil import WeilAlgebra

from conftest import (
    LADDER,
    P,
    basis,
    canonical_basis,
    class_of,
    jets as drawn_jets,
    ladder_jet,
    power_jet,
    ref_leibniz_columns,
    ref_substitute,
    reference_class,
    times,
    transformed_ideal,
    transported_cartan,
)


def sample_jets():
    return [
        jet_from_ideal(2, [0, 0], [P("y", 2)], 1),
        jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2),
        jet_from_ideal(2, [0, 0], [P("y - x^3", 2)], 3),
        jet_from_ideal(2, [0, 0], [P("x^2", 2), P("y^2", 2)], 2),
        jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x^2", 3)], 2),
        power_jet(1, 3),
        power_jet(2, 3),
        classical_jet(3, [0, 0, 0], {2: P("x^2 + x y", 3)}, 2),
    ]


class TestDerivedJet:
    def test_order_one_derives_to_maximal_ideal(self):
        p = jet_from_ideal(2, [0, 0], [P("y", 2)], 1)
        m = jet_from_ideal(2, [0, 0], [P("x", 2), P("y", 2)], 0)
        assert derived_jet(p) == m

    def test_power_jet_drops_one_degree(self):
        assert derived_jet(power_jet(1, 3)) == power_jet(1, 2)
        assert derived_jet(power_jet(2, 4)) == power_jet(2, 3)

    def test_non_classical_example(self):
        p = jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x^2", 3)], 2)
        expected = jet_from_ideal(3, [0, 0, 0], [P("z", 3), P("x", 3)], 1)
        got = derived_jet(p)
        assert got == expected
        assert (got.order, got.width) == (1, 1)

    def test_order_zero_is_fixed(self):
        m = jet_from_ideal(2, [0, 0], [P("x", 2), P("y", 2)], 0)
        assert derived_jet(m) == m

    def test_parabola(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        assert derived_jet(p) == jet_from_ideal(2, [0, 0], [P("y", 2)], 1)


class TestGenerationOracle:
    @pytest.mark.parametrize("index", range(8))
    def test_oracle_matches_normal_form_route(self, index):
        jet = sample_jets()[index]
        assert cartan_generation_oracle(jet) == derived_jet(jet)

    def test_classical_second_order(self):
        p = classical_jet(2, [0, 0], {1: P("0", 2)}, 2)  # (y) + m^3
        oracle = cartan_generation_oracle(p)
        assert oracle == jet_from_ideal(2, [0, 0], [P("y", 2)], 1)

    def test_single_variable(self):
        assert cartan_generation_oracle(power_jet(1, 2)) == power_jet(1, 1)

    def test_verify_checks_the_cached_derived_jet(self, monkeypatch):
        # The oracle runs once, against the derived jet already cached on p,
        # and that same object comes back.
        p = ladder_jet(*LADDER[0])
        derived = derived_jet(p)
        seen = []
        oracle = jets.cartan_generation_oracle

        def spy(q):
            seen.append(q)
            return oracle(q)

        monkeypatch.setattr(jets, "cartan_generation_oracle", spy)
        assert derived_jet(p, verify=True) is derived
        assert seen == [p]

    def test_verify_fires_on_a_disagreeing_oracle(self, monkeypatch):
        p = ladder_jet(*LADDER[0])
        derived = derived_jet(p)
        monkeypatch.setattr(jets, "cartan_generation_oracle", lambda q: power_jet(q.n, 1))
        with pytest.raises(InternalCheckError, match="disagrees with the generation oracle"):
            derived_jet(p, verify=True)
        assert derived_jet(p) is derived


class TestContactSystem:
    def test_order_one_jet(self):
        c = contact_and_cartan(jet_from_ideal(2, [0, 0], [P("y", 2)], 1))
        assert c.omega_rank == 1
        assert c.tangent_dimension == 3
        assert c.cartan_tangent_dimension == 2

    def test_power_jet_contact_vanishes(self):
        c = contact_and_cartan(power_jet(2, 3))
        assert c.omega_rank == 0
        assert c.cartan_tangent_dimension == c.tangent_dimension

    def test_full_width_jet(self):
        c = contact_and_cartan(jet_from_ideal(2, [0, 0], [P("x^2", 2), P("y^2", 2)], 2))
        assert c.omega_rank == 0
        assert c.cartan_tangent_dimension == c.tangent_dimension

    @pytest.mark.parametrize("index", range(8))
    def test_annihilator_equals_generated(self, index):
        c = contact_and_cartan(sample_jets()[index])
        assert c.cartan == c.cartan_generated

    @pytest.mark.parametrize("index", range(8))
    def test_kernel_of_projection_inside_cartan(self, index):
        assert contact_and_cartan(sample_jets()[index]).kernel_inside_cartan


class TestContactCache:
    def test_contact_data_is_cached_on_the_jet(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        assert contact_and_cartan(p) is contact_and_cartan(p)
        # An equal but distinct jet has its own cache.
        q = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        assert q == p and contact_and_cartan(q) is not contact_and_cartan(p)

    def test_taylor_reuses_the_contact_data(self, monkeypatch):
        p = jet_from_ideal(2, [0, 0], [P("y - x^3", 2)], 3)
        first = contact_and_cartan(p)
        built = []
        original = jets._cartan_by_generation
        monkeypatch.setattr(
            jets, "_cartan_by_generation", lambda q, d: built.append(q) or original(q, d)
        )
        taylor_map(p)
        assert contact_and_cartan(p) is first
        assert all(q is not p for q in built)

    def test_check_on_classes_still_fires(self, monkeypatch):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        original = jets._differential_rows
        nd = p.n * p.quotient.dimension

        def shifted(jet, quotient_columns, f):
            # Add 1 to every entry of the output-0 row.
            rows = original(jet, quotient_columns, f)
            first = rows.get(0, {})
            return {**rows, 0: {j: first.get(j, 0) + 1 for j in range(nd)}}

        monkeypatch.setattr(jets, "_differential_rows", shifted)
        with pytest.raises(InternalCheckError, match="not constant on classes"):
            contact_and_cartan(p)


# -- Omega from the minimal generators ----------------------------------------------


def all_rows_contact(p):
    """Omega and its annihilator from one map per row of the ideal's basis.

    Each map sends the tangent tuple's entry (i, b) to the class in
    A' = R[x]/p' of the row's d/dx_i times the basis monomial a_b, expanded
    with the reference product (``ref_leibniz_columns``), and is flattened
    output-major; the Cartan system is cut out by every output block of every
    row of Omega.
    """
    algebra, target = p.quotient, derived_jet(p).quotient
    nd = p.n * algebra.dimension
    span = Echelon(target.dimension * nd)
    for row in p.ideal.rows.values():
        f = TruncatedPolynomial.from_sparse(p.n, p.window_bound, row)
        columns = ref_leibniz_columns(f, algebra.basis_monomials, target)
        span.insert({out * nd + j: v for j, col in enumerate(columns) for out, v in col.items()})
    omega = span.subspace()
    constraints = LinearSystem(nd)
    for vec in omega.rows.values():
        for out in range(target.dimension):
            constraints.insert({k % nd: v for k, v in vec.items() if k // nd == out})
    return omega, constraints.solutions()


# The last case draws its jets from Hypothesis; the ladder cases draw nothing,
# so Hypothesis runs each of them once.
@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("n, gens, order", [*LADDER, pytest.param(0, None, 0, id="drawn")])
def test_generator_route_matches_the_all_rows_route(n, gens, order, data):
    p = data.draw(drawn_jets()) if gens is None else ladder_jet(n, gens, order)
    c = contact_and_cartan(p)
    assert (c.omega, c.cartan) == all_rows_contact(p)


def lowest_degree(f):
    return min(map(sum, f.coefficients))


@pytest.mark.parametrize("n, gens, order", LADDER)
def test_one_differential_map_per_minimal_generator(monkeypatch, n, gens, order):
    # One map per minimal generator of lowest degree <= order(A') + 1.  Every
    # other generator has its derivatives in p', so its map is empty.
    p = ladder_jet(n, gens, order)
    seen = []
    original = jets._differential_rows

    def spy(jet, quotient_columns, f):
        seen.append(f)
        return original(jet, quotient_columns, f)

    monkeypatch.setattr(jets, "_differential_rows", spy)
    contact_and_cartan(p)
    target = derived_jet(p).quotient
    generators = p.quotient.minimal_generators
    assert seen == [g for g in generators if lowest_degree(g) <= target.order + 1]
    assert len(seen) < p.ideal.dimension
    skipped = [g for g in generators if lowest_degree(g) > target.order + 1]
    qcols = jets._class_columns(p.quotient.basis_monomials, target)
    assert all(original(p, qcols, g) == {} for g in skipped)


@pytest.mark.parametrize("n, gens, order", LADDER)
class TestWorkPerFact:
    """Each fact of the Cartan/Taylor path is paid for once, counted by spies."""

    def test_taylor_builds_no_field_space(self, monkeypatch, n, gens, order):
        p = ladder_jet(n, gens, order)
        monkeypatch.setattr(jets, "jet_fields", lambda q: pytest.fail("jet_fields built"))
        taylor_map(p)
        assert ("jet_fields",) not in p._memo

    def test_cartan_system_applies_no_row_to_a_relation(self, monkeypatch, n, gens, order):
        p = ladder_jet(n, gens, order)
        monkeypatch.setattr(
            jets, "apply_rows", lambda *args: pytest.fail("apply_rows called"), raising=False
        )
        jets._cartan_system(p)

    def test_leibniz_rows_only_for_surviving_generators(self, monkeypatch, n, gens, order):
        p = ladder_jet(n, gens, order)
        # Derivations of A and the derived jet first, so only the Cartan
        # system's own Leibniz rows are counted.
        tangent_module(p)
        target = derived_jet(p).quotient
        built = []
        differential_rows = WeilAlgebra.differential_rows

        def spy(algebra, f):
            if algebra is p.quotient:
                built.append(f)
            return differential_rows(algebra, f)

        monkeypatch.setattr(WeilAlgebra, "differential_rows", spy)
        jets._cartan_system(p)
        generators = p.quotient.minimal_generators
        surviving = [g for g in generators if lowest_degree(g) <= target.order + 1]
        assert built == surviving and len(surviving) < len(generators)

    def test_one_projection_per_jet(self, monkeypatch, n, gens, order):
        # pi: A^n -> A'^n is read by the contact data, the field check and the
        # Taylor map; its columns are built once.
        p = ladder_jet(n, gens, order)
        callers = []
        class_columns = jets._class_columns

        def spy(monomials, target):
            callers.append(sys._getframe(1).f_code.co_name)
            return class_columns(monomials, target)

        monkeypatch.setattr(jets, "_class_columns", spy)
        contact_and_cartan(p)
        taylor_map(p)
        taylor_map(p)
        assert callers.count("_projection_columns") == 1


# The last case draws its jets from Hypothesis; the ladder cases draw nothing,
# so Hypothesis runs each of them once.
@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "n, gens, order",
    [*LADDER, (2, ["y - x - x^2 - 1/2 x^3"], 3), pytest.param(0, None, 0, id="drawn")],
)
def test_psi_columns_are_classes_of_the_window_substitution(n, gens, order, data):
    # Psi: A_q -> A_p is the class of each basis monomial of A_q substituted
    # through tau in the window.  Those monomials live on x, which tau fixes,
    # so each column is the monomial's own class in A_p: the package values
    # each graph-tangent field as [X(sigma^i)] in A_p, and must match the
    # route through A_q and psi (:func:`conftest.transported_cartan`).
    p = data.draw(drawn_jets()) if gens is None else ladder_jet(n, gens, order)
    if p.order:
        nf = jets.normal_form(p)
        n, bound = p.n, p.window_bound
        tau = [t.coefficients for t in nf.sigma_inverse]
        bq = jets._window_jet(n, bound, transformed_ideal(p), p.base_point).quotient
        for exp in bq.basis_monomials:
            pulled = ref_substitute({exp: Fraction(1)}, tau, n, bound)
            own = TruncatedPolynomial.monomial(n, bound, exp)
            assert reference_class(p.quotient, pulled) == p.quotient._polynomial_class(own)
    assert contact_and_cartan(p).cartan_generated == transported_cartan(p)


def test_generation_builds_no_algebra_and_no_power_cache(monkeypatch):
    # Every value is a class in A_p already: no transformed algebra A_q, and
    # no power cache for psi.
    built = []

    def counting(init):
        def spy(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return spy

    for cls in (WeilAlgebra, _Powers):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    for case in [*LADDER, (2, ["y - x - x^2 - 1/2 x^3"], 3)]:
        p = ladder_jet(*case)
        # Build first what the route reads from the caches of p and its algebra.
        derived, _, _ = jets._cartan_system(p)
        tangent_module(p)
        jets.normal_form(p)
        p.quotient.variable_maps
        built.clear()
        jets._cartan_by_generation(p, derived)
        assert built == [], case


class TestFieldsProject:
    @pytest.mark.parametrize("index", range(8))
    def test_tangent_fields_stay_tangent_to_derived(self, index):
        # taylor_map runs the D(p) <= D(p') assertion internally.
        taylor_map(sample_jets()[index])


class TestTaylorMap:
    def test_parabola_image(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        ty = taylor_map(p)
        assert ty.taylor_condition
        assert ty.derived == jet_from_ideal(2, [0, 0], [P("y", 2)], 1)
        # pi_* C_p is the tangent line of the parabola inside T_{p'}:
        # one genuine direction on top of the derivation relations.
        rel = tangent_module(ty.derived).relations
        assert ty.pi_star_cartan.dimension - rel.dimension == 1

    def test_opposite_parabolas_separate(self):
        plus = taylor_map(jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2))
        minus = taylor_map(jet_from_ideal(2, [0, 0], [P("y + x^2", 2)], 2))
        assert plus.derived == minus.derived
        assert plus.pi_star_cartan != minus.pi_star_cartan

    def test_order_zero(self):
        m = jet_from_ideal(2, [0, 0], [P("x", 2), P("y", 2)], 0)
        ty = taylor_map(m)
        assert ty.taylor_condition
        assert ty.derived == m
        assert ty.pi_star_cartan.dimension == 0

    def test_graph_tangent_space_is_projected_cartan(self):
        # Every graph of the jet's width through it projects onto the same
        # tangent space, namely pi_* C_p (as submodules: closed under the
        # algebra action).
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        ty = taylor_map(p)
        derived = ty.derived
        a_prime = derived.quotient
        d = a_prime.dimension
        rel = tangent_module(derived).relations
        for tail in [P("0", 2, 3), P("x^3", 2, 3)]:
            fx = P("1", 2, 2)
            fy = P("2 x", 2, 2) + tail.derivative(0).truncate(2)
            value = []
            for f in (fx, fy):
                value.extend(class_of(a_prime, f).coordinates)
            # Module closure of the single tangent value under the action
            # of the coordinate classes.
            rows = list(basis(rel)) + [value]
            for gen_index in range(2):
                cls = a_prime.generator(gen_index)
                shifted = []
                for i in range(2):
                    block = a_prime.element(value[i * d : (i + 1) * d])
                    shifted.extend(times(cls, block).coordinates)
                rows.append(shifted)
            assert canonical_basis(rows, 2 * d) == ty.pi_star_cartan

    def test_cartan_projection_width_gate(self):
        # Parabola: width(p') = width(p) = 1, so the check applies and holds.
        ty = taylor_map(jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2))
        assert ty.cartan_projects is True
        # Full-width jet derives to the maximal ideal of width 0: gate closed.
        sq = jet_from_ideal(2, [0, 0], [P("x^2", 2), P("y^2", 2)], 2)
        assert taylor_map(sq).cartan_projects is None


# -- Taylor from the Cartan systems alone -------------------------------------------


def taylor_jets():
    """sample_jets(), the ladder jets, the benchmark's graph-curve, graph-surface
    and cusp shapes at rational points, and the power jet m^3 in two variables."""
    curve = P("-1 + 2 x^2 - 1/2 x^3", 2).shift([Fraction(-1, 2), 0])
    surface_point = [Fraction(1, 2), -1, Fraction(3, 2)]
    surface_away = [-c for c in surface_point]
    cusp_point = [-1, Fraction(1, 2), 2]
    cusp_away = [-c for c in cusp_point]
    return [
        *sample_jets(),
        *(ladder_jet(*case) for case in LADDER),
        classical_jet(2, [Fraction(1, 2), -1], {1: curve}, 3),
        jet_from_ideal(3, surface_point, [P("z + 3/2 x y - x^2", 3).shift(surface_away)], 3),
        jet_from_ideal(
            3, cusp_point, [P("y^2 - 2 x^3", 3).shift(cusp_away), P("z", 3).shift(cusp_away)], 3
        ),
        power_jet(2, 3),
    ]


def taylor_through_contact(p):
    """The Taylor map's fields through the whole contact data: pi_* of
    contact_and_cartan(p).cartan, each basis monomial of A sent to its class in
    A' block by block, plus the relations of T_{p'}; hat(p') <= p; and, when
    the widths agree, that image inside contact_and_cartan(p').cartan."""
    contact = contact_and_cartan(p)
    derived = contact.derived
    source, target = p.quotient, derived.quotient
    classes = [
        class_of(target, TruncatedPolynomial.monomial(p.n, p.window_bound, exp)).row
        for exp in source.basis_monomials
    ]
    span = tangent_module(derived).relations.echelon()
    for v in contact.cartan.rows.values():
        moved = {}
        for j, c in v.items():
            k, b = divmod(j, source.dimension)
            for g, x in classes[b].items():
                key = k * target.dimension + g
                moved[key] = moved.get(key, 0) + c * x
        span.insert({key: c for key, c in moved.items() if c})
    image = span.subspace()
    projects = None
    if derived.width == p.width:
        projects = contact_and_cartan(derived).cartan.contains_subspace(image)
    return image, p.contains_jet(hat_ideal(derived)), projects


@pytest.mark.parametrize("index", range(len(taylor_jets())))
def test_taylor_matches_the_route_through_contact(index):
    # Separate copies, so that neither route reads the other's caches.
    ty = taylor_map(taylor_jets()[index])
    expected = taylor_through_contact(taylor_jets()[index])
    assert (ty.pi_star_cartan, ty.taylor_condition, ty.cartan_projects) == expected


def test_contact_after_taylor_reports_as_contact_alone():
    bind = {"jet": "p", "vars": 2, "generators": ["y - x^3"], "order_hint": 4}

    def run(ops):
        text = json.dumps({"bind": [bind], "run": [{"op": op, "of": "p"} for op in ops]})
        return [c["result"] for c in execute(parse_session(text)).results]

    assert run(["taylor", "contact"])[1] == run(["contact"])[0]


class TestSelfChecksPerOp:
    """Which parts of the contact theory each jet op builds, counted by spies."""

    @staticmethod
    def spies(monkeypatch):
        calls = {"cartan_built": [], "cartan_hit": [], "generation": [], "fields_project": []}
        cartan_system = jets._cartan_system
        generation = jets._cartan_by_generation
        fields_project = jets._assert_fields_project

        def spy_cartan(q):
            calls["cartan_hit" if ("_cartan_system",) in q._memo else "cartan_built"].append(q)
            return cartan_system(q)

        def spy_generation(q, derived):
            calls["generation"].append(q)
            return generation(q, derived)

        def spy_fields(q, derived):
            calls["fields_project"].append(q)
            return fields_project(q, derived)

        monkeypatch.setattr(jets, "_cartan_system", spy_cartan)
        monkeypatch.setattr(jets, "_cartan_by_generation", spy_generation)
        monkeypatch.setattr(jets, "_assert_fields_project", spy_fields)
        return calls

    def test_taylor_builds_two_cartan_systems_and_no_generation_route(self, monkeypatch):
        p = ladder_jet(*LADDER[0])
        calls = self.spies(monkeypatch)
        ty = taylor_map(p)
        assert ty.cartan_projects is not None
        assert calls == {
            "cartan_built": [p, ty.derived], "cartan_hit": [], "generation": [],
            "fields_project": [p],
        }
        assert all(("contact_and_cartan",) not in q._memo for q in (p, ty.derived))

    def test_contact_runs_the_generation_route_once_and_then_hits(self, monkeypatch):
        p = ladder_jet(*LADDER[0])
        calls = self.spies(monkeypatch)
        first = contact_and_cartan(p)
        assert (calls["cartan_built"], calls["generation"]) == ([p], [p])
        assert contact_and_cartan(p) is first
        taylor_map(p)
        derived = first.derived
        assert calls == {
            "cartan_built": [p, derived], "cartan_hit": [p], "generation": [p],
            "fields_project": [p],
        }

    def test_second_taylor_hits_the_cached_cartan_systems(self, monkeypatch):
        p = ladder_jet(*LADDER[0])
        calls = self.spies(monkeypatch)
        derived = taylor_map(p).derived
        taylor_map(p)
        contact_and_cartan(p)
        assert calls == {
            "cartan_built": [p, derived], "cartan_hit": [p, derived, p], "generation": [p],
            "fields_project": [p, p],
        }


class TestPushforward:
    def test_curve_image(self):
        phi = [P("x", 1, 3), P("x^2", 1, 3)]
        image = pushforward(power_jet(1, 3), phi)
        assert image == jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)

    def test_identity(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        assert pushforward(p, [P("x", 2), P("y", 2)]) == p

    def test_projection(self):
        p = jet_from_ideal(2, [0, 0], [P("y", 2)], 1)
        assert pushforward(p, [P("x", 2)]) == power_jet(1, 2)

    def test_base_point_maps_through(self):
        p = power_jet(1, 3, ["2"])
        phi = [P("x", 1, 3), P("x^2", 1, 3)]
        image = pushforward(p, phi)
        assert image.base_point == (Fraction(2), Fraction(4))

    def test_functoriality_on_random_maps(self):
        rng = random.Random(11)
        p = power_jet(1, 3)
        for _ in range(5):
            a, b, c = (Fraction(rng.randint(-2, 2)) for _ in range(3))
            phi = [P("x", 1, 3), TruncatedPolynomial(1, 3, {(2,): a, (1,): b})]
            psi = [
                P("x + y", 2, 3),
                TruncatedPolynomial(2, 3, {(0, 1): c, (1, 1): 1}),
                P("x", 2, 3),
            ]
            # psi o phi by exact substitution.
            from weiljets.poly import truncated_substitute

            composed = [truncated_substitute(f, phi, 3) for f in psi]
            left = pushforward(pushforward(p, phi), psi)
            right = pushforward(p, composed)
            assert left == right


class TestRandomizedInvariants:
    def test_contact_pipeline_on_random_jets(self):
        from weiljets.monomials import window

        rng = random.Random(31337)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3)
            hint = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, n)):
                coeffs = {}
                for exp in window(n, hint):
                    if sum(exp) >= 1 and rng.random() < 0.4:
                        coeffs[exp] = Fraction(rng.randint(-2, 2))
                if coeffs:
                    gens.append(TruncatedPolynomial(n, hint, coeffs))
            p = jet_from_ideal(n, [0] * n, gens, hint)
            derived = derived_jet(p)
            assert derived == cartan_generation_oracle(p)
            assert derived.contains_jet(p)
            c = contact_and_cartan(p)
            assert c.cartan == c.cartan_generated
            assert c.kernel_inside_cartan
            assert p.contains_jet(hat_ideal(p))
            checked += 1


class TestTangentMap:
    def test_embedding_is_regular(self):
        tm = tangent_map(power_jet(1, 3), [P("x", 1, 3), P("x^2", 1, 3)])
        assert tm.exists and tm.is_regular_for_subalgebra
        assert tm.columns is not None

    def test_squaring_map_fails(self):
        tm = tangent_map(power_jet(1, 3), [P("x^2", 1, 3)])
        assert not tm.exists
        assert tm.columns is None

    def test_identity_map_is_identity_on_classes(self):
        p = jet_from_ideal(2, [0, 0], [P("y - x^2", 2)], 2)
        tm = tangent_map(p, [P("x", 2), P("y", 2)])
        assert tm.exists and tm.is_regular_for_subalgebra
        t = tangent_module(p)
        d = p.quotient.dimension
        for i in range(2 * d):
            # The image of e_i minus e_i, zero-free, lies in the relations.
            diff = apply_columns(tm.columns, {i: Fraction(1)})
            diff[i] = diff.get(i, 0) - 1
            assert t.relations.contains_vector({c: v for c, v in diff.items() if v})

    def test_embedding_matrix_respects_classes(self):
        p = power_jet(1, 3)
        tm = tangent_map(p, [P("x", 1, 3), P("x^2", 1, 3)])
        source = tangent_module(p)
        target = tangent_module(tm.image_jet)
        for rel in source.relations.rows.values():
            assert target.relations.contains_vector(apply_columns(tm.columns, rel))

    def test_a_map_onto_a_proper_subalgebra_has_no_columns(self):
        # m^2 in two variables under x: the partials (1, 0) lie in the image
        # subalgebra span{1, x}, but 1 * y leaves it, so the induced columns
        # are undefined; the map still exists and is not regular.
        p = jet_from_ideal(2, [0, 0], [], 1)
        tm = tangent_map(p, [P("x", 2)])
        assert tm.exists and not tm.is_regular_for_subalgebra
        assert tm.columns is None
        assert tm.image_jet == power_jet(1, 2)

    def test_a_map_onto_a_proper_subalgebra_exits_0(self, tmp_path, capsys):
        session = {
            "bind": [{"jet": "p", "vars": 2, "order_hint": 1}],
            "run": [{"op": "tangent_map", "of": "p", "map": ["x1"]}],
        }
        path = tmp_path / "session.json"
        path.write_text(json.dumps(session))
        assert cli.main(["run", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["results"][0]["result"]
        assert result["exists"] is True
        assert result["regular_for_subalgebra"] is False
        assert result["image"]["vars"] == 1 and result["image"]["dim"] == 2
        assert result["image"]["generators"] == ["x^2"]
