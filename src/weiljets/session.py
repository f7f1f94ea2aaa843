"""Session files: named bindings plus a command list, executed deterministically.

A session is JSON with two keys: ``bind`` (algebras, jets, A-points, group
laws, in dependency order) and ``run`` (commands over the bound names).  The
rendered report is byte-stable: rationals are emitted as ``p/q`` strings,
keys are sorted, and nothing time- or platform-dependent is included.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Callable

from .apoints import (
    APoint,
    GroupLaw,
    apoint,
    component_names,
    evaluate,
    group_law,
    prolong_ideal,
    prolong_group,
    regularity_and_kernel,
    weil_iso_check,
)
from .errors import SessionParseError, UnknownNameError, WeilJetsError
from .jets import (
    Jet,
    classical_jet,
    contact_and_cartan,
    cotangent_module,
    derived_jet,
    hat_ideal,
    jet_fields,
    jet_from_ideal,
    normal_form,
    pushforward,
    tangent_map,
    tangent_module,
    taylor_map,
)
from .poly import (
    TruncatedPolynomial,
    as_fraction,
    format_polynomial,
    parse_polynomial,
)
from .subspace import Echelon, sparse
from .weil import (
    WeilAlgebra,
    derivation_space,
    ideal_stability,
    quotient_algebra,
    tensor_product,
)

_FORMATS = ("json", "text")


@dataclass
class Session:
    """Validated bindings and commands, ready to execute."""

    algebras: dict[str, WeilAlgebra] = field(default_factory=dict)
    jets: dict[str, Jet] = field(default_factory=dict)
    points: dict[str, APoint] = field(default_factory=dict)
    groups: dict[str, GroupLaw] = field(default_factory=dict)
    commands: list[dict] = field(default_factory=list)
    format: str = "json"

    def names(self) -> set[str]:
        out: set[str] = set()
        for d in (self.algebras, self.jets, self.points, self.groups):
            out |= set(d)
        return out


@dataclass
class Report:
    """Per-command results; timing is kept internal and never rendered."""

    results: list[dict]
    exit_status: int
    elapsed: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SessionParseError(message)


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int subclass, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rat(value) -> Fraction:
    if isinstance(value, float):
        raise SessionParseError(f"floating point value {value!r}; use 'p/q' strings")
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise SessionParseError(str(exc))


def parse_session(text: str) -> Session:
    """Parse and validate the documented JSON session schema."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SessionParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    _require(isinstance(raw, dict), "session must be a JSON object")
    session = Session()
    fmt = raw.get("format", "json")
    _require(fmt in _FORMATS, f"'format' must be one of {_FORMATS}")
    session.format = fmt
    binds = raw.get("bind", [])
    _require(isinstance(binds, list), "'bind' must be a list")
    for entry in binds:
        _require(isinstance(entry, dict), "each binding must be an object")
        _bind(session, entry)
    commands = raw.get("run", [])
    _require(isinstance(commands, list), "'run' must be a list")
    known = session.names()
    for cmd in commands:
        _require(isinstance(cmd, dict), "each command must be an object")
        _require(isinstance(cmd.get("op"), str), "each command needs a string 'op'")
        for key in ("of", "with", "a", "b", "algebra", "group"):
            if key in cmd:
                _require(isinstance(cmd[key], str), f"{key!r} must name a binding")
                if cmd[key] not in known:
                    raise UnknownNameError(f"unknown name {cmd[key]!r}")
        session.commands.append(cmd)
    return session


def _fresh_name(session: Session, entry: dict, kind: str) -> str:
    name = entry.get(kind)
    _require(isinstance(name, str) and name, f"'{kind}' binding needs a name")
    _require(name not in session.names(), f"duplicate name {name!r}")
    return name


def _bind(session: Session, entry: dict) -> None:
    # "apoint" bindings carry an "algebra" key as a reference, so the kind
    # test checks the specific kinds before the bare-algebra fallback.
    if "apoint" in entry:
        kind = "apoint"
    elif "jet" in entry:
        kind = "jet"
    elif "group" in entry:
        kind = "group"
    elif "algebra" in entry:
        kind = "algebra"
    else:
        raise SessionParseError(
            "binding must declare one of algebra/jet/apoint/group"
        )
    if kind == "algebra":
        name = _fresh_name(session, entry, "algebra")
        n = entry.get("vars")
        _require(_is_int(n) and n >= 1, "'vars' must be a positive integer")
        relations = entry.get("relations", [])
        _require(isinstance(relations, list), "'relations' must be a list of strings")
        gens = [_parse_poly(s, n) for s in relations]
        bound = entry.get("bound")
        if bound is None:
            bound = max([g.degree() for g in gens] + [2])
        _require(_is_int(bound) and bound >= 0, "'bound' must be a non-negative integer")
        session.algebras[name] = quotient_algebra(n, bound, gens)
    elif kind == "jet":
        name = _fresh_name(session, entry, "jet")
        n = entry.get("vars")
        _require(_is_int(n) and n >= 1, "'vars' must be a positive integer")
        point = [_rat(v) for v in entry.get("point", [0] * n)]
        _require(len(point) == n, "'point' must have one coordinate per variable")
        gens = [_parse_poly(s, n) for s in entry.get("generators", [])]
        hint = entry.get("order_hint")
        _require(_is_int(hint) and hint >= 0, "'order_hint' must be a non-negative integer")
        graph = entry.get("graph")
        if graph is not None:
            _require("generators" not in entry, "a jet takes 'graph' or 'generators', not both")
            _require(isinstance(graph, dict), "'graph' must map variable indices to polynomials")
            mapping = {_graph_index(k, n): _parse_poly(v, n) for k, v in graph.items()}
            _require(len(mapping) == len(graph), "'graph' names a variable index twice")
            session.jets[name] = classical_jet(n, point, mapping, hint)
        else:
            session.jets[name] = jet_from_ideal(
                n, point, gens, hint, strict_hint=bool(entry.get("strict", False))
            )
    elif kind == "apoint":
        name = _fresh_name(session, entry, "apoint")
        algebra_name = entry.get("algebra")
        _require(algebra_name in session.algebras, f"unknown algebra {algebra_name!r}")
        algebra = session.algebras[algebra_name]
        images = entry.get("images")
        _require(isinstance(images, list) and images, "'images' must be a non-empty list")
        coords = [[_rat(v) for v in img] for img in images]
        session.points[name] = apoint(algebra, coords)
    else:
        name = _fresh_name(session, entry, "group")
        n = entry.get("dim")
        _require(_is_int(n) and n >= 1, "'dim' must be a positive integer")
        law = [_parse_poly(s, 2 * n) for s in entry.get("law", [])]
        identity = [_rat(v) for v in entry.get("identity", [0] * n)]
        inverse = [_parse_poly(s, n) for s in entry.get("inverse", [])]
        try:
            session.groups[name] = group_law(n, law, identity, inverse)
        except (ValueError, WeilJetsError) as exc:
            raise SessionParseError(f"invalid group law {name!r}: {exc}")


def _graph_index(key: str, n: int) -> int:
    """A graph key: the decimal index of a dependent variable, 0 <= index < n."""
    _require(
        key.isdecimal() and int(key) < n,
        f"graph key {key!r} is not a variable index from 0 to {n - 1}",
    )
    return int(key)


def _parse_poly(text, n: int) -> TruncatedPolynomial:
    _require(isinstance(text, str), "polynomials must be strings")
    try:
        return parse_polynomial(text, n)
    except ValueError as exc:
        raise SessionParseError(str(exc))


# -- serialization helpers -----------------------------------------------------------


def _jet_summary(jet: Jet) -> dict:
    classical_dim = comb(jet.width + jet.order, jet.order)
    return {
        "vars": jet.n,
        "point": [str(c) for c in jet.base_point],
        "order": jet.order,
        "width": jet.width,
        "dim": jet.quotient.dimension,
        "classical": jet.classical,
        "classical_dim": classical_dim,
        "classical_invariants": jet.quotient.dimension == classical_dim,
        "generators": [format_polynomial(f) for f in jet.ideal_polynomials()],
    }


def _algebra_summary(algebra: WeilAlgebra) -> dict:
    return {
        "dim": algebra.dimension,
        "order": algebra.order,
        "width": algebra.width,
        "der_dim": derivation_space(algebra).dimension,
    }


def _algebra_description(algebra: WeilAlgebra) -> dict:
    return {
        "vars": algebra.n,
        "dim": algebra.dimension,
        "order": algebra.order,
        "width": algebra.width,
        "filtration": list(algebra.filtration_dimensions),
        "basis_monomials": [list(e) for e in algebra.basis_monomials],
        "structure_constants": [
            [a, b, g, str(c)] for (a, b, g, c) in algebra.structure_constants()
        ],
        "relations": [
            format_polynomial(TruncatedPolynomial.from_sparse(algebra.n, algebra.window_bound, r))
            for r in algebra.defining_ideal.rows.values()
        ],
    }


# -- command dispatch -----------------------------------------------------------------


def _lookup(session: Session, cmd: dict, key: str, table: dict, what: str):
    name = cmd.get(key)
    if not isinstance(name, str) or name not in table:
        raise UnknownNameError(f"command needs {what} under {key!r}, got {name!r}")
    return table[name]


def _op_info(session: Session, cmd: dict) -> dict:
    name = cmd.get("of")
    if not isinstance(name, str):
        raise UnknownNameError(f"command needs a name under 'of', got {name!r}")
    if name in session.algebras:
        return _algebra_summary(session.algebras[name])
    if name in session.jets:
        return _jet_summary(session.jets[name])
    if name in session.points:
        point = session.points[name]
        return {
            "ambient": point.ambient_dimension,
            "algebra_dim": point.algebra.dimension,
            "base_point": [str(c) for c in point.base_point],
        }
    if name in session.groups:
        g = session.groups[name]
        return {"dim": g.dimension, "identity": [str(c) for c in g.identity]}
    raise UnknownNameError(f"unknown name {name!r}")


def _op_describe(session: Session, cmd: dict) -> dict:
    algebra = _lookup(session, cmd, "of", session.algebras, "an algebra")
    return _algebra_description(algebra)


def _op_derivations(session: Session, cmd: dict) -> dict:
    algebra = _lookup(session, cmd, "of", session.algebras, "an algebra")
    ders = derivation_space(algebra)
    return {
        "dim": ders.dimension,
        "generator_images": [
            [
                format_polynomial(algebra.element_polynomial(img))
                for img in images
            ]
            for images in ders.generator_images
        ],
    }


def _op_tensor(session: Session, cmd: dict) -> dict:
    a = _lookup(session, cmd, "of", session.algebras, "an algebra")
    b = _lookup(session, cmd, "with", session.algebras, "an algebra")
    t = tensor_product(a, b)
    out = _algebra_summary(t)
    out["dims_multiply"] = t.dimension == a.dimension * b.dimension
    out["order_adds"] = t.order == a.order + b.order
    return out


def _op_stability(session: Session, cmd: dict) -> dict:
    algebra = _lookup(session, cmd, "of", session.algebras, "an algebra")
    polys = [_parse_poly(s, algebra.n) for s in cmd.get("ideal", [])]
    d = algebra.dimension
    # Close the span into an ideal of the algebra before checking.
    ideal = Echelon(d)
    ideal.saturate(
        [sparse(algebra.project_polynomial(f).coordinates, d) for f in polys],
        [algebra.multiplication_map(algebra.generator(i).coordinates) for i in range(algebra.n)],
    )
    basis = ideal.subspace()
    report = ideal_stability(algebra, basis)
    return {
        "ideal_dim": basis.dimension,
        "der_stable": report.der_stable,
        "note": report.note,
    }


def _op_hat(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    return _jet_summary(hat_ideal(jet))


def _op_cotangent(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    ct = cotangent_module(jet)
    return {
        "dim": ct.dimension,
        "basis": [format_polynomial(f) for f in ct.basis],
    }


def _op_tangent(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    tm = tangent_module(jet)
    return {
        "ambient_dim": tm.ambient_dimension,
        "relations_dim": tm.relations.dimension,
        "dim": tm.dimension,
    }


def _op_fields(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    return {"dim": jet_fields(jet).dimension}


def _op_normal_form(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    nf = normal_form(jet)
    return {
        "r": nf.r,
        "pivot_variables": list(nf.pivot_variables),
        "substitution": [format_polynomial(f) for f in nf.sigma],
        "q_list": [format_polynomial(f) for f in nf.q_list],
    }


def _op_derive(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    verify = bool(cmd.get("verify", False))
    derived = derived_jet(jet, verify=verify)
    out = _jet_summary(derived)
    out["taylor_condition"] = jet.contains_jet(hat_ideal(derived))
    if verify:
        out["oracle_agrees"] = True
    return out


def _op_contact(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    c = contact_and_cartan(jet)
    return {
        "omega_rank": c.omega_rank,
        "tangent_dim": c.tangent_dimension,
        "cartan_dim": c.cartan_tangent_dimension,
        "annihilator_equals_generated": c.cartan == c.cartan_generated,
        "kernel_inside_cartan": c.kernel_inside_cartan,
    }


def _op_taylor(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    ty = taylor_map(jet)
    out = {
        "taylor_condition": ty.taylor_condition,
        "image_ambient_dim": ty.pi_star_cartan.ambient_dimension,
        "image_dim": ty.pi_star_cartan.dimension,
        "derived": _jet_summary(ty.derived),
    }
    out["cartan_projects"] = ty.cartan_projects
    return out


def _op_pushforward(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    comps = cmd.get("map", [])
    _require(isinstance(comps, list) and comps, "'map' must be a non-empty list")
    phi = [_parse_poly(s, jet.n) for s in comps]
    return _jet_summary(pushforward(jet, phi))


def _op_tangent_map(session: Session, cmd: dict) -> dict:
    jet = _lookup(session, cmd, "of", session.jets, "a jet")
    comps = cmd.get("map", [])
    _require(isinstance(comps, list) and comps, "'map' must be a non-empty list")
    phi = [_parse_poly(s, jet.n) for s in comps]
    tm = tangent_map(jet, phi)
    return {
        "exists": tm.exists,
        "regular_for_subalgebra": tm.is_regular_for_subalgebra,
        "image": _jet_summary(tm.image_jet),
    }


def _op_evaluate(session: Session, cmd: dict) -> dict:
    point = _lookup(session, cmd, "of", session.points, "an A-point")
    poly = _parse_poly(cmd.get("poly", ""), point.ambient_dimension)
    value = evaluate(poly, point)
    return {
        "components": [str(c) for c in value.coordinates],
        "value": format_polynomial(
            point.algebra.element_polynomial(value.coordinates)
        ),
    }


def _op_kernel(session: Session, cmd: dict) -> dict:
    point = _lookup(session, cmd, "of", session.points, "an A-point")
    regular, jet = regularity_and_kernel(point)
    return {"regular": regular, "kernel": _jet_summary(jet)}


def _op_prolong(session: Session, cmd: dict) -> dict:
    algebra = _lookup(session, cmd, "algebra", session.algebras, "an algebra")
    n = cmd.get("vars")
    _require(_is_int(n) and n >= 1, "'vars' must be a positive integer")
    gens = [_parse_poly(s, n) for s in cmd.get("ideal", [])]
    prolonged = prolong_ideal(gens, algebra)
    return {
        "coordinates": component_names(algebra, n),
        "components": [[format_polynomial(c) for c in comps] for comps in prolonged],
    }


def _op_weil_check(session: Session, cmd: dict) -> dict:
    a = _lookup(session, cmd, "a", session.algebras, "an algebra")
    b = _lookup(session, cmd, "b", session.algebras, "an algebra")
    n = cmd.get("vars")
    _require(_is_int(n) and n >= 1, "'vars' must be a positive integer")
    poly = _parse_poly(cmd.get("poly", ""), n)
    matrices = cmd.get("point")
    _require(isinstance(matrices, list), "'point' must be a list of matrices")
    report = weil_iso_check(poly, a, b, matrices)
    return {
        "equal": report.equal,
        "components": [[str(v) for v in row] for row in report.direct],
    }


def _group_point(session: Session, cmd: dict, key: str, algebra: WeilAlgebra) -> APoint:
    data = cmd.get(key)
    _require(isinstance(data, list), f"'{key}' must be a list of coordinate lists")
    return apoint(algebra, [[_rat(v) for v in img] for img in data])


def _op_group_product(session: Session, cmd: dict) -> dict:
    law = _lookup(session, cmd, "group", session.groups, "a group law")
    algebra = _lookup(session, cmd, "algebra", session.algebras, "an algebra")
    lifted = prolong_group(law, algebra)
    p = _group_point(session, cmd, "p", algebra)
    q = _group_point(session, cmd, "q", algebra)
    result = lifted.product(p, q)
    return {
        "images": [[str(c) for c in img.coordinates] for img in result.images]
    }


def _op_group_inverse(session: Session, cmd: dict) -> dict:
    law = _lookup(session, cmd, "group", session.groups, "a group law")
    algebra = _lookup(session, cmd, "algebra", session.algebras, "an algebra")
    lifted = prolong_group(law, algebra)
    p = _group_point(session, cmd, "p", algebra)
    result = lifted.inverse(p)
    return {
        "images": [[str(c) for c in img.coordinates] for img in result.images]
    }


_OPERATIONS: dict[str, Callable[[Session, dict], dict]] = {
    "info": _op_info,
    "describe": _op_describe,
    "derivations": _op_derivations,
    "tensor": _op_tensor,
    "stability": _op_stability,
    "hat": _op_hat,
    "cotangent": _op_cotangent,
    "tangent": _op_tangent,
    "fields": _op_fields,
    "normal_form": _op_normal_form,
    "derive": _op_derive,
    "contact": _op_contact,
    "taylor": _op_taylor,
    "pushforward": _op_pushforward,
    "tangent_map": _op_tangent_map,
    "evaluate": _op_evaluate,
    "kernel": _op_kernel,
    "prolong": _op_prolong,
    "weil_check": _op_weil_check,
    "group_product": _op_group_product,
    "group_inverse": _op_group_inverse,
}


def execute(
    session: Session, fail_fast: bool = False, verify_oracles: bool = False
) -> Report:
    """Run the commands in order, capturing kernel errors per command."""
    started = time.monotonic()
    results: list[dict] = []
    status = 0
    for index, cmd in enumerate(session.commands):
        op = cmd.get("op")
        entry: dict[str, Any] = {"index": index, "op": op}
        handler = _OPERATIONS.get(op)
        if verify_oracles and op == "derive":
            cmd = dict(cmd, verify=True)
        try:
            if handler is None:
                raise SessionParseError(f"unknown operation {op!r}")
            entry["ok"] = True
            entry["result"] = handler(session, cmd)
        except WeilJetsError as exc:
            entry["ok"] = False
            entry["error"] = {"kind": type(exc).__name__, "message": str(exc)}
            status = 1
            if fail_fast:
                results.append(entry)
                break
        results.append(entry)
    return Report(results, status, time.monotonic() - started)


def render(report: Report, format: str = "json") -> str:
    """Serialize a report; identical reports give identical bytes."""
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}")
    payload = {"exit": report.exit_status, "results": report.results}
    if format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [f"exit {report.exit_status}"]
    for entry in report.results:
        if entry.get("ok"):
            lines.append(f"[{entry['index']}] {entry['op']}: ok")
            lines.extend(_render_result(entry["result"]))
        else:
            err = entry["error"]
            lines.append(
                f"[{entry['index']}] {entry['op']}: ERROR {err['kind']}: {err['message']}"
            )
    return "\n".join(lines) + "\n"


def _render_result(result: dict, indent: str = "  ") -> list[str]:
    lines = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render_result(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines
