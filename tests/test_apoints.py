import random
import re
from fractions import Fraction
from math import comb

import pytest

from weiljets import apoints
from weiljets.apoints import (
    apoint,
    cartesian_product,
    component_names,
    evaluate,
    group_inverse,
    group_law,
    group_product,
    prolong_polynomial,
    regularity_and_kernel,
    weil_iso_check,
)
from weiljets.errors import DimensionMismatchError, WindowTooLargeError
from weiljets.jets import jet_from_ideal
from weiljets.poly import TruncatedPolynomial, format_polynomial, truncated_product
from weiljets.session import execute, parse_session
from weiljets.weil import (
    WeilAlgebra,
    free_truncated_algebra,
    quotient_algebra,
    tensor_product,
)

from conftest import (
    P,
    compose,
    exact_inverse,
    identity_point,
    invert_point,
    mat_vec,
    multiply_points,
    power_jet,
    ref_evaluate_free,
    times,
    verify_axioms,
)

R11 = free_truncated_algebra(1, 1)
R12 = free_truncated_algebra(1, 2)
R21 = free_truncated_algebra(2, 1)


def heisenberg():
    law = [
        P("x1 + x4", 6),
        P("x2 + x5", 6),
        P("x3 + x6 + x1 x5", 6),
    ]
    inverse = [P("-x1", 3), P("-x2", 3), P("-x3 + x1 x2", 3)]
    return group_law(3, law, [0, 0, 0], inverse)


def random_r11_point(rng, dim=3):
    return apoint(
        R11,
        [
            [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
            for _ in range(dim)
        ],
    )


class TestEvaluate:
    def test_dual_number_square(self):
        p = apoint(R11, [["3", 1]])
        assert evaluate(P("x^2", 1), p).coordinates == (Fraction(9), Fraction(6))

    def test_two_infinitesimals(self):
        t = tensor_product(R11, R11)
        p = apoint(t, [[0, 1, 1, 0]])
        assert evaluate(P("x^2", 1), p).coordinates == (0, 0, 0, Fraction(2))

    def test_product_point(self):
        t = tensor_product(R11, R11)
        p = apoint(t, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert evaluate(P("x y", 2), p).coordinates == (0, 0, 0, Fraction(1))

    def test_evaluation_is_multiplicative(self):
        from weiljets.poly import truncated_product

        rng = random.Random(3)
        f = P("x^2 + 3 y", 2)
        g = P("x y - 2", 2)
        exact = truncated_product(f, g, f.degree() + g.degree())
        for _ in range(5):
            p = random_r11_point(rng, dim=2)
            lhs = evaluate(exact, p)
            rhs = times(evaluate(f, p), evaluate(g, p))
            assert lhs.coordinates == rhs.coordinates

    def test_wrong_arity(self):
        p = apoint(R11, [["3", 1]])
        with pytest.raises(DimensionMismatchError):
            evaluate(P("x + y", 2), p)


class TestRegularityAndKernel:
    def test_tangent_vector_is_regular(self):
        regular, kernel = regularity_and_kernel(apoint(R11, [["3", 1]]))
        assert regular
        assert kernel == power_jet(1, 2, ["3"])

    def test_degenerate_point(self):
        regular, kernel = regularity_and_kernel(apoint(R11, [[0, 0]]))
        assert not regular
        assert kernel == jet_from_ideal(1, [0], [P("x", 1)], 0)

    def test_width_two_kernel(self):
        t = tensor_product(R11, R11)
        regular, kernel = regularity_and_kernel(
            apoint(t, [[0, 1, 0, 0], [0, 0, 1, 0]])
        )
        assert regular
        assert kernel == jet_from_ideal(2, [0, 0], [P("x^2", 2), P("y^2", 2)], 2)
        q = kernel.quotient
        assert (q.dimension, q.order, q.width) == (
            t.dimension,
            t.order,
            t.width,
        )

    def test_kernel_is_automorphism_invariant(self):
        point = apoint(R12, [["2", 1, "1/2"]])
        _, kernel = regularity_and_kernel(point)
        auto = apoint(R12, [R12.element([0, 2, 3])])
        moved = compose(auto, point)
        _, kernel2 = regularity_and_kernel(moved)
        assert kernel == kernel2


class TestCartesianProduct:
    def test_real_points_pair(self):
        reals = quotient_algebra(1, 0, [])
        p = apoint(reals, [["2"]])
        q = apoint(reals, [["5"]])
        assert cartesian_product(p, q).base_point == (Fraction(2), Fraction(5))

    def test_concatenation(self):
        p = apoint(R11, [["3", 1]])
        q = apoint(R11, [["7", 0]])
        prod = cartesian_product(p, q)
        assert prod.images == p.images + q.images

    def test_morphism_property_on_generators(self):
        p = apoint(R11, [["3", 1]])
        q = apoint(R11, [["7", "1/2"]])
        prod = cartesian_product(p, q)
        lhs = evaluate(P("x y", 2), prod)
        rhs = times(evaluate(P("x", 1), p), evaluate(P("x", 1), q))
        assert lhs.coordinates == rhs.coordinates


class TestProlongIdeal:
    def test_first_prolongation_of_parabola(self):
        comps = prolong_polynomial(P("y - x^2", 2), R11)
        assert component_names(R11, 2) == ["x0", "x1", "y0", "y1"]
        texts = [format_polynomial(c) for c in comps]
        # Coordinates are x0, x1, y0, y1 in that order (x3 = y0, x4 = y1).
        assert texts == ["x3 - x1^2", "x4 - 2 x1 x2"]

    def test_linear_ideal(self):
        comps = prolong_polynomial(P("x", 1), R11)
        assert [format_polynomial(c) for c in comps] == ["x", "y"]

    def test_second_order_prolongation(self):
        comps = prolong_polynomial(P("y - x^2", 2), R12)
        texts = [format_polynomial(c) for c in comps]
        assert texts == [
            "x4 - x1^2",
            "x5 - 2 x1 x2",
            "x6 - 2 x1 x3 - x2^2",
        ]

    def test_vanishing_iff_generators_vanish(self):
        rng = random.Random(5)
        gens = [P("y - x^2", 2)]
        comps = prolong_polynomial(gens[0], R11)
        for _ in range(6):
            pt = random_r11_point(rng, dim=2)
            coords = [c for img in pt.images for c in img.coordinates]
            values = [f.evaluate(coords) for f in comps]
            gen_value = evaluate(gens[0], pt)
            assert (all(v == 0 for v in values)) == (not gen_value.row)
        # A point actually on the prolonged locus: x -> t + s eps,
        # y -> t^2 + 2 t s eps.
        t, s = Fraction(3), Fraction(1, 2)
        on = apoint(R11, [[t, s], [t * t, 2 * t * s]])
        coords = [c for img in on.images for c in img.coordinates]
        assert all(f.evaluate(coords) == 0 for f in comps)
        assert not evaluate(gens[0], on).row


class TestWeilTheorem:
    def test_second_order_tangent_formula(self):
        t, a, b, c = Fraction(5), Fraction(2), Fraction(3), Fraction(7)
        report = weil_iso_check(P("x^2", 1), R11, R11, [[[t, a], [b, c]]])
        assert report.equal
        assert report.direct == (
            (t * t, 2 * t * a),
            (2 * t * b, 2 * t * c + 2 * a * b),
        )

    def test_linear_polynomial(self):
        report = weil_iso_check(
            P("3 x", 1), R11, R12, [[[1, 2, 3], [4, 5, 6]]]
        )
        assert report.equal

    def test_cube(self):
        report = weil_iso_check(
            P("x^3", 1), R11, R11, [[["1/2", 1], [2, "1/3"]]]
        )
        assert report.equal

    def test_randomized_pairs(self):
        rng = random.Random(9)
        algebras = [R11, R21, R12]
        f = P("x^2 y", 2)
        for a in algebras:
            for b in algebras:
                mats = [
                    [
                        [Fraction(rng.randint(-2, 2)) for _ in range(b.dimension)]
                        for _ in range(a.dimension)
                    ]
                    for _ in range(2)
                ]
                assert weil_iso_check(f, a, b, mats).equal


class TestGroups:
    def test_axioms_on_random_points(self):
        law = heisenberg()
        rng = random.Random(7)
        pts = [random_r11_point(rng) for _ in range(3)]
        assert verify_axioms(law, R11, pts)

    def test_group_ops_refuse_mismatched_points(self):
        law = heisenberg()
        p = apoint(R11, [[1, 2], [0, 1], [2, 0]])
        with pytest.raises(DimensionMismatchError, match="shared algebra"):
            group_product(law, p, apoint(R12, [[1, 2, 0], [0, 1, 1], [2, 0, 0]]))
        short = apoint(R11, [[1, 2], [0, 1]])
        for op in (lambda: group_product(law, p, short), lambda: group_product(law, short, p),
                   lambda: group_inverse(law, short)):
            with pytest.raises(DimensionMismatchError, match="ambient dimension"):
                op()

    def test_identity_point_is_neutral(self):
        law = heisenberg()
        p = apoint(R12, [[1, 2, 0], [0, 1, 1], [2, 0, "1/2"]])
        e = identity_point(law, R12)
        assert group_product(law, p, e).images == p.images
        assert group_product(law, e, p).images == p.images

    def test_tangent_translation_law(self):
        law = heisenberg()
        rng = random.Random(13)
        for _ in range(4):
            p, q = random_r11_point(rng), random_r11_point(rng)
            prod = group_product(law, p, q)
            pb, qb = p.base_point, q.base_point
            vals = list(pb) + list(qb)
            jx = [[law.law[i].derivative(j).evaluate(vals) for j in range(3)] for i in range(3)]
            jy = [[law.law[i].derivative(3 + j).evaluate(vals) for j in range(3)] for i in range(3)]
            dp = [img.coordinates[1] for img in p.images]
            dq = [img.coordinates[1] for img in q.images]
            expected = [
                sum(jx[i][j] * dp[j] for j in range(3))
                + sum(jy[i][j] * dq[j] for j in range(3))
                for i in range(3)
            ]
            assert [img.coordinates[1] for img in prod.images] == expected
            assert [img.augmentation() for img in prod.images] == multiply_points(law, pb, qb)

    def test_law_checks_reach_the_degree_of_each_composition(self):
        # A wrong inverse shows only at degree deg(law) * deg(inverse) = 3,
        # and a wrong identity only at the law's own degree.
        with pytest.raises(ValueError, match="inverse map does not invert"):
            group_law(1, [P("x + y", 2)], [0], [P("-x + x^3", 1)])
        with pytest.raises(ValueError, match="identity is not right-neutral"):
            group_law(1, [P("x + y + x^3", 2)], [0], [P("-x", 1)])

    def test_high_degree_law_with_linear_inverse_binds(self):
        # (x1 + y1, x2 + y2 + (x1 + y1)^11 - x1^11 - y1^11) has the inverse
        # (-x1, -x2): the checks work to degree 11, not 11^2, whose window
        # in two variables is above the cap.
        k = 11
        cocycle = {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1}
        cocycle.update({(a, 0, k - a, 0): comb(k, a) for a in range(1, k)})
        law = group_law(
            2,
            [P("x1 + x3", 4), TruncatedPolynomial(4, k, cocycle)],
            [0, 0],
            [P("-x", 2), P("-y", 2)],
        )
        assert multiply_points(law, [1, 0], [1, 0]) == [2, 2**k - 2]

    @staticmethod
    def spy_bounds(monkeypatch) -> list:
        bounds = []
        original = apoints.substitution

        def spy(images, bound):
            bounds.append(bound)
            return original(images, bound)

        monkeypatch.setattr(apoints, "substitution", spy)
        return bounds

    def test_wrong_inverse_fails_at_the_first_bound_reaching_it(self, monkeypatch):
        # A dimension-1 law of degree 54 with every mixed term and a wrong
        # inverse of degree 54: the whole composition reaches degree 54^2, but
        # the inverse is wrong at degree 3, so the check stops at degree 108.
        k = 54
        law = {(1, 0): 1, (0, 1): 1}
        law.update({(i, j): 1 for i in range(1, k) for j in range(1, k - i + 1)})
        inverse = {(1,): -1, **{(a,): 1 for a in range(2, k + 1)}}
        bounds = self.spy_bounds(monkeypatch)
        with pytest.raises(ValueError, match="inverse map does not invert the law"):
            group_law(1, [TruncatedPolynomial(2, k, law)], [0], [TruncatedPolynomial(1, k, inverse)])
        assert bounds and max(bounds) <= 2 * k

    def test_right_inverse_is_checked_up_to_the_full_degree(self, monkeypatch):
        # Unipotent 4 x 4 matrices I + N: the law (I + N)(I + M) has degree 2
        # and the inverse I - N + N^2 - N^3 degree 3, so the identity checks
        # run at 2 and the inverse at 4 and the full 2 * 3.
        entries = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        index = {e: k for k, e in enumerate(entries)}
        n = len(entries)

        def unit(*ks, c=1, count=n):
            exp = [0] * count
            for k in ks:
                exp[k] += 1
            return {tuple(exp): c}

        law, inverse = [], []
        for i, j in entries:
            terms = {**unit(index[i, j], count=2 * n), **unit(n + index[i, j], count=2 * n)}
            for k in range(i + 1, j):
                terms.update(unit(index[i, k], n + index[k, j], count=2 * n))
            law.append(TruncatedPolynomial(2 * n, 2, terms))
            # (-N + N^2 - N^3)_ij over the paths i < ... < j.
            terms = unit(index[i, j], c=-1)
            for k in range(i + 1, j):
                terms.update(unit(index[i, k], index[k, j]))
                for m in range(k + 1, j):
                    terms.update(unit(index[i, k], index[k, m], index[m, j], c=-1))
            inverse.append(TruncatedPolynomial(n, 3, terms))
        bounds = self.spy_bounds(monkeypatch)
        group = group_law(n, law, [0] * n, inverse)
        assert bounds == [2, 2, 4, 6]
        # A point times its inverse is the identity.
        point = [1, 2, 3, 4, 5, 6]
        assert multiply_points(group, point, invert_point(group, point)) == [0] * n

    def test_inverse_adjoint_formula(self):
        law = heisenberg()
        rng = random.Random(17)
        for _ in range(4):
            p = random_r11_point(rng)
            pb = list(p.base_point)
            pinv = invert_point(law, pb)
            dp = [img.coordinates[1] for img in p.images]
            inv_point = group_inverse(law, p)
            assert [img.augmentation() for img in inv_point.images] == pinv

            def jac_x(at_x, at_y):
                vals = list(at_x) + list(at_y)
                return [
                    [law.law[i].derivative(j).evaluate(vals) for j in range(3)]
                    for i in range(3)
                ]

            def jac_y(at_x, at_y):
                vals = list(at_x) + list(at_y)
                return [
                    [law.law[i].derivative(3 + j).evaluate(vals) for j in range(3)]
                    for i in range(3)
                ]

            e = [Fraction(0)] * 3
            # Direct form: -L_{p^-1 *} R_{p^-1 *} D_p.
            direct = [
                -v
                for v in mat_vec(jac_y(pinv, e), mat_vec(jac_x(pb, pinv), dp))
            ]
            assert [img.coordinates[1] for img in inv_point.images] == direct
            # Adjoint form: delta = (L_p*)^{-1} D_p, result = -L_{p^-1*} Ad(p) delta.
            lp = jac_y(pb, e)
            lp_inv = exact_inverse(lp)
            delta = mat_vec(lp_inv, dp)
            ad_p = [
                mat_vec(jac_x(pb, pinv), col)
                for col in [[lp[i][j] for i in range(3)] for j in range(3)]
            ]
            # ad_p currently holds columns; apply to delta directly instead.
            ad_delta = mat_vec(jac_x(pb, pinv), mat_vec(lp, delta))
            adjoint = [-v for v in mat_vec(jac_y(pinv, e), ad_delta)]
            assert [img.coordinates[1] for img in inv_point.images] == adjoint


def tangent_correspondence_check(f, point, field_coefficients) -> bool:
    """(Df)(p^A) against the induced derivative of the real components.

    The field D = sum_i a_i d/dx_i induces on the component coordinates
    x^i_alpha the tangent vector with entries (a_i(p^A))_alpha; applied to the
    component polynomials of f at p^A, it must give the components of
    (Df)(p^A) exactly.  Route one is ``evaluate``; route two is
    ``prolong_polynomial``, ``derivative`` and plain evaluation."""
    n, d = point.ambient_dimension, point.algebra.dimension
    bound = max(
        [f.degree(), 1] + [a.degree() + max(f.degree() - 1, 0) for a in field_coefficients]
    )
    df = TruncatedPolynomial.zero(n, bound)
    for i, a in enumerate(field_coefficients):
        df = df + truncated_product(a.with_bound(bound), f.derivative(i).with_bound(bound), bound)
    route_one = evaluate(df, point).coordinates

    comps = prolong_polynomial(f, point.algebra)
    coords = [c for img in point.images for c in img.coordinates]
    induced = [evaluate(a, point).coordinates for a in field_coefficients]
    route_two = tuple(
        sum(
            induced[i][beta] * comps[alpha].derivative(i * d + beta).evaluate(coords)
            for i in range(n)
            for beta in range(d)
        )
        for alpha in range(d)
    )
    return route_one == route_two


class TestTangentCorrespondence:
    def test_square_along_coordinate_field(self):
        ok = tangent_correspondence_check(
            P("x^2", 1), apoint(R11, [["3", 1]]), [P("1", 1)]
        )
        assert ok

    def test_constant_function(self):
        ok = tangent_correspondence_check(
            P("5", 1), apoint(R11, [["3", 1]]), [P("x^2", 1)]
        )
        assert ok

    def test_random_points_and_fields(self):
        rng = random.Random(23)
        for _ in range(4):
            pt = random_r11_point(rng, dim=2)
            ok = tangent_correspondence_check(
                P("x y", 2), pt, [P("0", 2), P("x", 2)]
            )
            assert ok

    def test_higher_order_algebra(self):
        pt = apoint(R12, [["2", 1, "1/3"], [0, "1/2", 1]])
        assert tangent_correspondence_check(
            P("x^2 y - y^2", 2), pt, [P("y", 2), P("x + y", 2)]
        )


class TestPointPowerCache:
    """One power cache per A-point, built on first use and shared by every
    polynomial evaluated there; evaluation shifts no polynomial."""

    @staticmethod
    def spy_builds(monkeypatch) -> list:
        built = []
        original = WeilAlgebra._power_numerators

        def spy(algebra, factors):
            built.append(algebra)
            return original(algebra, factors)

        def no_shift(*args, **kwargs):
            raise AssertionError("evaluation shifted a polynomial")

        monkeypatch.setattr(WeilAlgebra, "_power_numerators", spy)
        monkeypatch.setattr(TruncatedPolynomial, "shift", no_shift)
        return built

    @staticmethod
    def run(bind: str, run: str) -> None:
        report = execute(parse_session(f'{{"bind": [{bind}], "run": [{run}]}}'))
        assert all(entry["ok"] for entry in report.results)

    A = '{"algebra": "A", "vars": 1, "relations": ["x^2"]}'

    def test_two_evaluations_at_a_bound_point_build_it_once(self, monkeypatch):
        built = self.spy_builds(monkeypatch)
        self.run(
            self.A + ', {"apoint": "P", "algebra": "A", "images": [["3", "1"], ["0", "2"]]}',
            '{"op": "evaluate", "of": "P", "poly": "x^2 y"},'
            ' {"op": "evaluate", "of": "P", "poly": "x - y^3"}',
        )
        assert len(built) == 1

    def test_group_product_builds_it_once_for_its_joint_point(self, monkeypatch):
        built = self.spy_builds(monkeypatch)
        self.run(
            self.A + ', {"group": "G", "dim": 3, "law": ["x1 + x4", "x2 + x5", "x3 + x6 + x1 x5"],'
            ' "identity": ["0", "0", "0"], "inverse": ["-x1", "-x2", "-x3 + x1 x2"]}',
            '{"op": "group_product", "group": "G", "algebra": "A",'
            ' "p": [["1", "2"], ["0", "1"], ["2", "0"]], "q": [["-1", "0"], ["1", "1"], ["0", "3"]]}',
        )
        assert len(built) == 1

    def test_weil_check_builds_it_once_for_its_stage_point(self, monkeypatch):
        built = self.spy_builds(monkeypatch)
        self.run(
            self.A + ', {"algebra": "B", "vars": 1, "relations": ["x^3"], "bound": 3}',
            '{"op": "weil_check", "a": "A", "b": "B", "vars": 2, "poly": "x^2 y",'
            ' "point": [[["1", "2", "0"], ["1/2", "1", "3"]], [["2", "0", "1"], ["1", "1", "0"]]]}',
        )
        # Route 1 builds one cache over the tensor algebra, route 2 one over B.
        assert len(built) == 2 and built[0] is not built[1]
        assert built[1].dimension == 3

    @pytest.mark.parametrize("base", [0, 2], ids=["zero base", "nonzero base"])
    def test_repeat_evaluations_agree_with_a_fresh_point_and_the_reference(self, base, monkeypatch):
        self.spy_builds(monkeypatch)
        algebra = free_truncated_algebra(2, 3)
        images = [[base, 1, "1/2", 0, 3, 0, 0, 0, 0, -1], [-base, 0, 2, "2/3", 0, 0, 1, 0, 0, 0]]
        point = apoint(algebra, images)
        # Terms of degree past the order: zero at a zero base, not otherwise.
        f = P("x^3 y - 2 x y + 1/3 + x^5", 2)
        g = P("y^4 - 3/2 x^2 + 5 x^2 y^2", 2)
        for h in (f, g, f):
            value = evaluate(h, point)
            assert value == evaluate(h, apoint(algebra, images))
            assert value.row == ref_evaluate_free(h, point)

    def test_zero_base_point_never_walks_past_the_order(self):
        order_one = free_truncated_algebra(1, 1)
        f = P("x1^40", 6)
        assert evaluate(f, apoint(order_one, [[0, 1]] * 6)).row == {}
        with pytest.raises(WindowTooLargeError, match=re.escape("degree <= 40 in 6 variables")):
            evaluate(f, apoint(order_one, [[1, 1]] * 6))

    def test_nonzero_base_names_the_degree_the_value_reaches(self):
        # The walk would first meet x1^9; the value reaches degree 10.
        algebra = free_truncated_algebra(1, 10)
        point = apoint(algebra, [[1, 1] + [0] * 9] * 10)
        with pytest.raises(WindowTooLargeError, match=re.escape("degree <= 10 in 10 variables")):
            evaluate(P("x1^9 + x1^10", 10), point)
