"""Seeded session workloads.

Each workload is one pass: a list of cases, each one session JSON text (the
only input the program receives) plus what its report must show.  A seed
picks coefficients and base points; the shape of every case (variable counts,
monomials, orders, commands) is fixed, so the cost of a pass barely moves
with the seed.

- ``corpus_mix``: the ``sessions/`` corpus, checked against the goldens, plus
  one seeded small variant of each corpus session (other rational base points
  and coefficients, orders up to 3).  Small windows, where per-call overheads
  weigh.
- ``algebra_ladder``: the free algebras R_m^l of the ladder plus seeded
  monomial and binomial quotients and repeated tensor pairs; ``weil`` work.
- ``jet_ladder``: the six ladder jets plus seeded graph and non-classical jets
  at rational base points; ``subspace`` work (eliminations).
- ``point_ladder``: A-points over R_m^l of dimension 7 to 21; ``poly`` work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from pathlib import Path

import oracles as O

FREE_LADDER = ((2, 3), (3, 3), (2, 5), (3, 4), (4, 3), (4, 4))
STABILITY_MAX_DIM = 21
# (vars, generators, order, width): the ladder jets; width is vars minus the
# number of graph equations, or None where the jet is not a graph.
JET_LADDER = (
    (2, ["y - x^2"], 3, 1),
    (2, ["y - x^3"], 4, 1),
    (3, ["z - x^2 - y^2"], 3, 2),
    (3, ["z - x y"], 4, 2),
    (4, ["x4 - x1 x2", "x3 - x1^2"], 3, 2),
    (3, ["y^2 - x^3", "z"], 3, None),
)
POINT_LADDER = ((1, 6), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (1, 20))
JET_CORE = ("info", "normal_form", "derive", "contact", "taylor")
JET_MODULES = ("hat", "cotangent", "tangent", "fields")


@dataclass(frozen=True)
class Case:
    """One session of a workload pass."""

    label: str
    text: str
    checks: tuple = ()  # one check per command, for generated sessions
    golden_json: str | None = None
    golden_text: str | None = None

    @cached_property
    def commands(self) -> int:
        return len(json.loads(self.text)["run"])


def generate(workload: str, seed: int, root: Path) -> list[Case]:
    """The cases of one pass; the same seed gives the same cases."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), root)


# -- text helpers -------------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    # Small numerators and denominators keep the cost of a case nearly seed-free.
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((1, 2)))


def _poly_text(poly: dict) -> str:
    """Session syntax for a dict polynomial, in the variables x1..xn."""
    pieces = []
    for exp, c in sorted(poly.items(), key=lambda t: (sum(t[0]), [-k for k in t[0]])):
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(exp) if k]
        mag = abs(c)
        body = " ".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def _unit(n: int, *indices: int) -> tuple[int, ...]:
    """Exponent of the product of the listed variables."""
    return tuple(indices.count(j) for j in range(n))


# The Heisenberg group law (x, y) -> (x1 + y1, x2 + y2, x3 + y3 + x1 y2) and
# its inverse, as dict polynomials for the oracle and as text for the session.
_LAW = [
    {_unit(6, 0): 1, _unit(6, 3): 1},
    {_unit(6, 1): 1, _unit(6, 4): 1},
    {_unit(6, 2): 1, _unit(6, 5): 1, _unit(6, 0, 4): 1},
]
_INVERSE = [{_unit(3, 0): -1}, {_unit(3, 1): -1}, {_unit(3, 2): -1, _unit(3, 0, 1): 1}]


def _dense(rng: random.Random, n: int, degree: int) -> dict:
    """Every monomial of degree <= degree, with a seeded nonzero coefficient."""
    return {e: _rational(rng) for e in O.layout(n, degree)}


HEISENBERG = {
    "group": "G",
    "dim": 3,
    "law": [_poly_text(f) for f in _LAW],
    "identity": ["0", "0", "0"],
    "inverse": [_poly_text(f) for f in _INVERSE],
}


def _session(bind: list, run: list) -> str:
    return json.dumps({"bind": bind, "run": run}, sort_keys=True)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _point(rng: random.Random, n: int) -> list[Fraction]:
    return [_rational(rng) for _ in range(n)]


# -- algebras -----------------------------------------------------------------------


def _free_algebra_checks(m: int, l: int) -> tuple:
    dim = O.free_dim(m, l)
    ideal = dim - len(O.standard_monomials(m, l, [_unit(m, 0)]))
    return (
        O.expect_ok({"dim": dim, "order": l, "width": m, "der_dim": O.free_der_dim(m, l)}),
        O.expect_ok({"dim": dim, "basis_monomials": [list(e) for e in O.layout(m, l)]}),
        O.expect_ok({"dim": O.free_der_dim(m, l)}),
        O.expect_ok({"ideal_dim": ideal}),
    )


def _algebra_commands(rng: random.Random, stability: bool = True) -> list:
    """info, describe, derivations and the stability of the ideal (x1)."""
    run = [{"op": op, "of": "A"} for op in ("info", "describe", "derivations")]
    if stability:
        run.append({"op": "stability", "of": "A", "ideal": [f"{_rational(rng)} x1"]})
    return run


def _monomial_quotient(rng, label: str, m: int, l: int, relations: list[tuple]) -> Case:
    """R_m^l modulo the given monomials, with seeded coefficients."""
    standard = O.standard_monomials(m, l, relations)
    bind = [{"algebra": "A", "vars": m, "bound": l,
             "relations": [_poly_text({r: _rational(rng)}) for r in relations]}]
    checks = (
        O.expect_ok({"dim": len(standard), "order": max(map(sum, standard)), "width": m}),
        O.expect_ok({"dim": len(standard), "basis_monomials": [list(e) for e in standard]}),
        O.expect_ok(),
        O.expect_ok({"ideal_dim": sum(1 for e in standard if e[0])}),
    )
    return Case(label, _session(bind, _algebra_commands(rng)), checks)


def _binomial_quotient(rng, label: str, m: int, l: int, left: tuple, right: tuple) -> Case:
    """R_m^l modulo one homogeneous binomial with seeded coefficients."""
    relation = {left: _rational(rng), right: _rational(rng)}
    dim = O.binomial_quotient_dim(m, l, sum(left))
    bind = [{"algebra": "A", "vars": m, "bound": l, "relations": [_poly_text(relation)]}]
    checks = (
        O.expect_ok({"dim": dim, "order": l, "width": m}),
        O.expect_ok({"dim": dim}),
        O.expect_ok(),
        O.expect_ok(),
    )
    return Case(label, _session(bind, _algebra_commands(rng)), checks)


def _algebra_ladder(rng: random.Random, root: Path) -> list[Case]:
    cases = []
    for m, l in FREE_LADDER:
        # On the top rungs, stability is dense Der-matrix products (subspace
        # work) that would outweigh the derivation solve this workload is for.
        stability = O.free_dim(m, l) <= STABILITY_MAX_DIM
        run = _algebra_commands(rng, stability)
        bind = [{"algebra": "A", "vars": m, "relations": [], "bound": l}]
        checks = _free_algebra_checks(m, l)[: len(run)]
        cases.append(Case(f"R_{m}^{l}", _session(bind, run), checks))
    # Repeated tensor pairs over small factors: (dim, order) of each factor.
    factors = {"D": (1, 1), "E": (1, 2), "S": (2, 2)}
    bind = [
        {"algebra": "D", "vars": 1, "relations": [_poly_text({(2,): _rational(rng)})]},
        {"algebra": "E", "vars": 1, "relations": [_poly_text({(3,): _rational(rng)})], "bound": 3},
        {"algebra": "S", "vars": 2, "relations": [], "bound": 2},
    ]
    pairs = [("D", "D"), ("D", "E"), ("E", "D"), ("D", "D"), ("S", "D"), ("D", "E"), ("S", "D"), ("D", "D")]
    rng.shuffle(pairs)
    checks = []
    for a, b in pairs:
        (ma, la), (mb, lb) = factors[a], factors[b]
        checks.append(O.expect_ok({
            "dim": O.free_dim(ma, la) * O.free_dim(mb, lb), "order": la + lb,
            "width": ma + mb, "dims_multiply": True, "order_adds": True,
        }))
    run = [{"op": "tensor", "of": a, "with": b} for a, b in pairs]
    cases.append(Case("tensor_pairs", _session(bind, run), tuple(checks)))
    cases += [
        _monomial_quotient(rng, "mono_m3_l4", 3, 4, [(2, 0, 0), (0, 1, 2)]),
        _monomial_quotient(rng, "mono_m2_l5", 2, 5, [(3, 0), (1, 3)]),
        _monomial_quotient(rng, "mono_m4_l3", 4, 3, [(1, 1, 0, 0), (0, 0, 2, 0)]),
        _binomial_quotient(rng, "binom_m2_l4", 2, 4, (2, 0), (0, 2)),
        _binomial_quotient(rng, "binom_m3_l4", 3, 4, (1, 1, 0), (0, 0, 2)),
        _binomial_quotient(rng, "binom_m3_l3", 3, 3, (3, 0, 0), (0, 1, 2)),
    ]
    return cases


# -- jets ---------------------------------------------------------------------------


def _jet_checks(info: dict, commands) -> tuple:
    """``info`` shows the given fields; ``contact`` shows both Cartan identities."""
    contact = {"annihilator_equals_generated": True, "kernel_inside_cartan": True}
    table = {"info": info, "contact": contact}
    return tuple(O.expect_ok(table.get(op)) for op in commands)


def _jet_cases(label: str, bind: dict, info: dict, extra: list | None = None) -> list[Case]:
    """A core session and a module session over one jet binding."""
    module = [{"op": op, "of": "p"} for op in JET_MODULES] + (extra or [])
    core = [{"op": op, "of": "p"} for op in JET_CORE]
    return [
        Case(f"{label} core", _session([bind], core), _jet_checks(info, JET_CORE)),
        Case(f"{label} modules", _session([bind], module), tuple(O.expect_ok() for _ in module)),
    ]


def _graph_info(width: int, order: int) -> dict:
    return {"dim": comb(width + order, order), "order": order, "width": width,
            "classical_invariants": True}


def _jet_ladder(rng: random.Random, root: Path) -> list[Case]:
    cases = []
    for n, gens, l, width in JET_LADDER:
        bind = {"jet": "p", "vars": n, "generators": gens, "order_hint": l}
        info = _graph_info(width, l) if width is not None else {}
        cases += _jet_cases(f"{' ; '.join(gens)} l={l}", bind, info)
    # A graph curve y = f(x) in the plane, as a graph binding, with maps.
    a, b = _point(rng, 2)
    local = {(2,): _rational(rng), (3,): _rational(rng)}
    graph = O.poly_add(O.shifted({(e[0], 0): c for e, c in local.items()}, [a, 0]), {(0, 0): b})
    bind = {"jet": "p", "vars": 2, "point": _strs([a, b]), "order_hint": 3,
            "graph": {"1": _poly_text(graph)}}
    maps = [
        {"op": "pushforward", "of": "p", "map": [_poly_text({(1, 0): 1, (0, 1): _rational(rng)}), "x1 x2"]},
        {"op": "tangent_map", "of": "p", "map": ["x1", _poly_text({(0, 1): 1, (2, 0): _rational(rng)})]},
    ]
    cases += _jet_cases("graph curve l=3", bind, dict(_graph_info(1, 3), classical=True), maps)
    # A graph surface z = f(x, y) in space, written as a shifted generator.
    point = _point(rng, 3)
    local = {(0, 0, 1): Fraction(1), (1, 1, 0): -_rational(rng), (2, 0, 0): -_rational(rng)}
    bind = {"jet": "p", "vars": 3, "point": _strs(point), "order_hint": 3,
            "generators": [_poly_text(O.shifted(local, point))]}
    cases += _jet_cases("graph surface l=3", bind, _graph_info(2, 3))
    # A non-classical jet {v^2 - k u^3, w} at a rational point.
    point = _point(rng, 3)
    cusp = {(0, 2, 0): Fraction(1), (3, 0, 0): -_rational(rng)}
    bind = {"jet": "p", "vars": 3, "point": _strs(point), "order_hint": 3,
            "generators": [_poly_text(O.shifted(cusp, point)),
                           _poly_text(O.shifted({(0, 0, 1): Fraction(1)}, point))]}
    cases += _jet_cases("cusp l=3", bind, {"classical": False})
    return cases


# -- A-points -----------------------------------------------------------------------


def _images(rng, count: int, dim: int) -> list[list[Fraction]]:
    return [[_rational(rng) for _ in range(dim)] for _ in range(count)]


def _group_checks(bind: list, m: int, l: int, p, q) -> tuple:
    def identity_session(inv):
        run = [{"op": "group_product", "group": "G", "algebra": "A",
                "p": [_strs(img) for img in p], "q": inv}]
        return _session(bind, run)

    return (O.expect_images(_LAW, p + q, m, l),
            O.expect_images(_INVERSE, p, m, l, identity_session))


def _point_ladder(rng: random.Random, root: Path) -> list[Case]:
    cases = []
    small = [{"algebra": "D", "vars": 1, "relations": ["x^2"]},
             {"algebra": "E", "vars": 1, "relations": ["x^3"], "bound": 3}]
    for m, l in POINT_LADDER:
        d = O.free_dim(m, l)
        images = _images(rng, 2, d)
        f, g = _dense(rng, 2, 6), _dense(rng, 2, 6)
        p, q = _images(rng, 3, d), _images(rng, 3, d)
        ideal = [{(0, 1): Fraction(1), (2, 0): _rational(rng)}, {(1, 1): Fraction(1), (0, 3): _rational(rng)}]
        weil_poly = _dense(rng, 2, 3)
        matrices = [[_strs(row) for row in _images(rng, 2, 3)] for _ in range(2)]
        bind = [{"algebra": "A", "vars": m, "relations": [], "bound": l},
                {"apoint": "P", "algebra": "A", "images": [_strs(img) for img in images]},
                HEISENBERG] + small
        run = [
            {"op": "evaluate", "of": "P", "poly": _poly_text(f)},
            {"op": "evaluate", "of": "P", "poly": _poly_text(g)},
            {"op": "prolong", "algebra": "A", "vars": 2, "ideal": [_poly_text(h) for h in ideal]},
            {"op": "group_product", "group": "G", "algebra": "A",
             "p": [_strs(img) for img in p], "q": [_strs(img) for img in q]},
            {"op": "group_inverse", "group": "G", "algebra": "A", "p": [_strs(img) for img in p]},
            {"op": "weil_check", "a": "D", "b": "E", "vars": 2, "poly": _poly_text(weil_poly),
             "point": matrices},
        ]
        checks = (
            O.expect_components(f, images, m, l),
            O.expect_components(g, images, m, l),
            _prolong_check(2, d, 2),
            *_group_checks(bind[:1] + [HEISENBERG], m, l, p, q),
            O.expect_ok({"equal": True}),
        )
        cases.append(Case(f"R_{m}^{l} dim {d}", _session(bind, run), checks))
    return cases


def _prolong_check(n: int, dim: int, generators: int):
    """One component per basis element for each generator, n*dim coordinates."""

    def check(entry, run):
        message = O.expect_ok()(entry, run)
        if message:
            return message
        result = entry["result"]
        if len(result["coordinates"]) != n * dim:
            return f"{len(result['coordinates'])} coordinates, expected {n * dim}"
        if [len(c) for c in result["components"]] != [dim] * generators:
            return "wrong number of components"
        return None

    return check


# -- corpus -------------------------------------------------------------------------


def _corpus_mix(rng: random.Random, root: Path) -> list[Case]:
    cases = []
    golden = root / "tests" / "golden"
    for path in sorted((root / "sessions").glob("*.json")):
        cases.append(Case(
            f"corpus {path.stem}", path.read_text(),
            golden_json=(golden / f"{path.stem}.out.json").read_text(),
            golden_text=(golden / f"{path.stem}.out.txt").read_text(),
        ))
    if len(cases) != 10:
        raise FileNotFoundError(f"expected the 10 corpus sessions under {root / 'sessions'}")
    return cases + [variant(rng) for variant in _VARIANTS]


def _variant_algebra_dual(rng) -> Case:
    k = 4
    bind = [{"algebra": "A", "vars": 1, "relations": [_poly_text({(k,): _rational(rng)})]}]
    run = [{"op": op, "of": "A"} for op in ("info", "describe", "derivations")]
    checks = (
        O.expect_ok({"dim": k, "order": k - 1, "width": 1, "der_dim": O.free_der_dim(1, k - 1)}),
        O.expect_ok({"dim": k, "basis_monomials": [[i] for i in range(k)]}),
        O.expect_ok({"dim": O.free_der_dim(1, k - 1)}),
    )
    return Case("variant algebra_dual", _session(bind, run), checks)


def _variant_algebra_squares(rng) -> Case:
    bind = [
        {"algebra": "A", "vars": 2, "bound": 3,
         "relations": [_poly_text({(2, 0): _rational(rng)}), _poly_text({(0, 2): _rational(rng)})]},
        {"algebra": "D", "vars": 1, "relations": [_poly_text({(2,): _rational(rng)})]},
    ]
    standard = O.standard_monomials(2, 3, [(2, 0), (0, 2)])
    run = [
        {"op": "info", "of": "A"},
        {"op": "tensor", "of": "D", "with": "D"},
        {"op": "stability", "of": "A", "ideal": [_poly_text({(1, 0): _rational(rng)})]},
        {"op": "stability", "of": "A", "ideal": [_poly_text({(1, 1): _rational(rng)})]},
    ]
    checks = (
        O.expect_ok({"dim": len(standard), "order": 2, "width": 2}),
        O.expect_ok({"dim": 4, "order": 2, "dims_multiply": True, "order_adds": True}),
        O.expect_ok({"ideal_dim": sum(1 for e in standard if e[0])}),
        O.expect_ok({"ideal_dim": sum(1 for e in standard if e[0] and e[1])}),
    )
    return Case("variant algebra_squares", _session(bind, run), checks)


def _variant_apoint_eval(rng) -> Case:
    l = 3
    images = _images(rng, 1, l + 1)
    f = {(k,): _rational(rng) for k in range(5)}
    bind = [{"algebra": "A", "vars": 1, "relations": [f"x^{l + 1}"]},
            {"apoint": "P", "algebra": "A", "images": [_strs(img) for img in images]}]
    run = [{"op": "evaluate", "of": "P", "poly": _poly_text(f)}, {"op": "kernel", "of": "P"}]
    checks = (O.expect_components(f, images, 1, l), O.expect_ok())
    return Case("variant apoint_eval", _session(bind, run), checks)


def _variant_command_error(rng) -> Case:
    (a,) = _point(rng, 1)
    bind = [{"jet": "p", "vars": 1, "point": [str(a)], "order_hint": 1,
             "generators": [_poly_text(O.shifted({(1,): Fraction(1)}, [a]))]}]
    run = [{"op": "info", "of": "p"},
           {"op": "weil_check", "a": "p", "b": "p", "vars": 1, "poly": "x", "point": []}]
    checks = (O.expect_ok({"dim": 1, "order": 0, "width": 0}), O.expect_error("UnknownNameError"))
    return Case("variant command_error", _session(bind, run), checks)


def _variant_group_heisenberg(rng) -> Case:
    bind = [{"algebra": "A", "vars": 1, "relations": ["x^2"]}, HEISENBERG]
    p, q = _images(rng, 3, 2), _images(rng, 3, 2)
    run = [
        {"op": "group_product", "group": "G", "algebra": "A",
         "p": [_strs(img) for img in p], "q": [_strs(img) for img in q]},
        {"op": "group_inverse", "group": "G", "algebra": "A", "p": [_strs(img) for img in p]},
    ]
    return Case("variant group_heisenberg", _session(bind, run), _group_checks(bind, 1, 1, p, q))


def _variant_jet_nonclassical(rng) -> Case:
    point = _point(rng, 3)
    gens = [O.shifted({(0, 0, 1): _rational(rng)}, point), O.shifted({(2, 0, 0): _rational(rng)}, point)]
    bind = [{"jet": "p", "vars": 3, "point": _strs(point), "order_hint": 2,
             "generators": [_poly_text(g) for g in gens]}]
    standard = O.standard_monomials(3, 2, [(0, 0, 1), (2, 0, 0)])
    run = [{"op": op, "of": "p"} for op in ("info", "normal_form", "derive", "contact")]
    info = {"dim": len(standard), "order": 2, "width": 2, "classical": False}
    checks = _jet_checks(info, ("info", "normal_form", "derive", "contact"))
    return Case("variant jet_nonclassical", _session(bind, run), checks)


def _variant_jet_parabola(rng) -> Case:
    point = _point(rng, 2)
    local = {(0, 1): Fraction(1), (2, 0): -_rational(rng)}
    bind = [{"jet": "p", "vars": 2, "point": _strs(point), "order_hint": 2,
             "generators": [_poly_text(O.shifted(local, point))]}]
    ops = JET_CORE + JET_MODULES
    run = [{"op": op, "of": "p"} for op in ops]
    return Case("variant jet_parabola", _session(bind, run), _jet_checks(_graph_info(1, 2), ops))


def _variant_prolong_parabola(rng) -> Case:
    bind = [{"algebra": "D1", "vars": 1, "relations": ["x^2"]},
            {"algebra": "D2", "vars": 1, "relations": ["x^3"], "bound": 3}]
    ideal = [_poly_text({(0, 1): Fraction(1), (2, 0): _rational(rng)})]
    run = [{"op": "prolong", "algebra": name, "vars": 2, "ideal": ideal} for name in ("D1", "D2")]
    return Case("variant prolong_parabola", _session(bind, run),
                (_prolong_check(2, 2, 1), _prolong_check(2, 3, 1)))


def _variant_pushforward_curve(rng) -> Case:
    (a,) = _point(rng, 1)
    bind = [{"jet": "m", "vars": 1, "point": [str(a)], "generators": [], "order_hint": 3}]
    curve = ["x1", _poly_text({(2,): _rational(rng)})]
    run = [{"op": "pushforward", "of": "m", "map": curve},
           {"op": "tangent_map", "of": "m", "map": curve},
           {"op": "tangent_map", "of": "m", "map": [_poly_text({(2,): _rational(rng)})]}]
    # An immersed curve keeps the dimension and order of its jet.
    checks = (O.expect_ok({"dim": 4, "order": 3, "width": 1}), O.expect_ok(), O.expect_ok())
    return Case("variant pushforward_curve", _session(bind, run), checks)


def _variant_weil_check(rng) -> Case:
    bind = [{"algebra": "A", "vars": 1, "relations": ["x^2"]},
            {"algebra": "B", "vars": 1, "relations": ["x^3"], "bound": 3}]
    run = [
        {"op": "weil_check", "a": "A", "b": "A", "vars": 1, "poly": _poly_text(_dense(rng, 1, 2)),
         "point": [[_strs(row) for row in _images(rng, 2, 2)]]},
        {"op": "weil_check", "a": "A", "b": "B", "vars": 2, "poly": _poly_text(_dense(rng, 2, 3)),
         "point": [[_strs(row) for row in _images(rng, 2, 3)] for _ in range(2)]},
    ]
    return Case("variant weil_check", _session(bind, run), (O.expect_ok({"equal": True}),) * 2)


_VARIANTS = (
    _variant_algebra_dual,
    _variant_algebra_squares,
    _variant_apoint_eval,
    _variant_command_error,
    _variant_group_heisenberg,
    _variant_jet_nonclassical,
    _variant_jet_parabola,
    _variant_prolong_parabola,
    _variant_pushforward_curve,
    _variant_weil_check,
)


_GENERATORS = {
    "corpus_mix": _corpus_mix,
    "algebra_ladder": _algebra_ladder,
    "jet_ladder": _jet_ladder,
    "point_ladder": _point_ladder,
}
WORKLOADS = tuple(_GENERATORS)
