"""Session files: named bindings plus a command list, executed deterministically.

A session is JSON with two keys: ``bind`` (algebras, jets, A-points, group
laws, in dependency order) and ``run`` (commands over the bound names).  The
rendered report is byte-stable: rationals are emitted as ``p/q`` strings,
keys are sorted, and nothing time- or platform-dependent is included.

Each binding kind and each op has one key table (``_BINDINGS``, ``_OPERATIONS``),
and ``_validate`` is the one place that checks an input against its table.
Bindings are validated when the session is parsed.  A command's names are
checked then too, and the rest of it when it runs, so a bad command fails alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from typing import Any, Callable, NamedTuple

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
from .monomials import window
from .poly import (
    TruncatedPolynomial,
    _format_row,
    as_fraction,
    format_polynomial,
    parse_polynomial,
)
from .subspace import Echelon
from .weil import (
    WeilAlgebra,
    derivation_space,
    ideal_stability,
    quotient_algebra,
    tensor_product,
)

_FORMATS = ("json", "text")
_CONSTANTS = {None: "null", True: "true", False: "false"}


@dataclass
class Session:
    """Validated bindings and commands, ready to execute."""

    algebras: dict[str, WeilAlgebra] = field(default_factory=dict)
    jets: dict[str, Jet] = field(default_factory=dict)
    points: dict[str, APoint] = field(default_factory=dict)
    groups: dict[str, GroupLaw] = field(default_factory=dict)
    commands: list[dict] = field(default_factory=list)
    format: str = "json"

    def table(self, kind: str) -> dict:
        """The bindings of one kind, by name."""
        return {"algebra": self.algebras, "jet": self.jets,
                "apoint": self.points, "group": self.groups}[kind]

    def names(self) -> set[str]:
        return set().union(*map(self.table, _BINDINGS))


@dataclass
class Report:
    """Per-command results; timing is kept internal and never rendered."""

    results: list[dict]
    exit_status: int
    elapsed: float


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SessionParseError(message)


# -- the session schema ---------------------------------------------------------------
#
# A key table maps each key to a _Key.  A converter takes (key, JSON value, the
# values converted so far) and returns what the builder or handler receives, so
# a table lists a key after the keys its converter reads.  A _Ref in place of a
# converter names an earlier binding.  An absent optional key is left out, and
# the builder's or handler's own default applies.

_Converter = Callable[[str, Any, dict], Any]


class _Key(NamedTuple):
    convert: Any  # a _Converter or a _Ref
    required: bool = True


class _Ref(NamedTuple):
    """A key that names an earlier binding of one kind (of any kind for None)."""

    kind: str | None


def _optional(convert) -> _Key:
    return _Key(convert, required=False)


def _integer(minimum: int) -> _Converter:
    adjective = "positive" if minimum else "non-negative"

    def convert(key, value, values):
        # type() rather than isinstance: JSON's true is not an integer.
        _require(type(value) is int and value >= minimum, f"{key!r} must be a {adjective} integer")
        return value

    return convert


def _boolean(key, value, values) -> bool:
    _require(isinstance(value, bool), f"{key!r} must be true or false")
    return value


def _rat(key, value, values) -> Fraction:
    if isinstance(value, (bool, float)):
        raise SessionParseError(f"{json.dumps(value)} is not an exact rational; use 'p/q' strings")
    try:
        return as_fraction(value)
    except (TypeError, ValueError) as exc:
        raise SessionParseError(f"{key!r}: {exc}")


def _list(item: _Converter, nonempty: bool = False) -> _Converter:
    def convert(key, value, values):
        _require(
            isinstance(value, list) and (value or not nonempty),
            f"{key!r} must be a {'non-empty ' if nonempty else ''}list",
        )
        return [item(key, v, values) for v in value]

    return convert


def _poly(variable_count: Callable[[dict], int]) -> _Converter:
    def convert(key, text, values):
        _require(isinstance(text, str), f"{key!r}: polynomials must be strings")
        try:
            return parse_polynomial(text, variable_count(values))
        except ValueError as exc:
            raise SessionParseError(f"{key!r}: {exc}")

    return convert


def _sized(convert: _Converter, size_key: str, what: str) -> _Converter:
    """``convert`` for a list that needs one item per unit of ``values[size_key]``."""

    def check(key, value, values):
        items = convert(key, value, values)
        _require(len(items) == values[size_key], f"{key!r} must have one {what}")
        return items

    return check


_point = _sized(_list(_rat), "vars", "coordinate per variable")


def _graph(key, value, values) -> dict[int, TruncatedPolynomial]:
    """Decimal variable indices 0 <= index < vars, each mapped to a polynomial."""
    _require("generators" not in values, "a jet takes 'graph' or 'generators', not both")
    _require(isinstance(value, dict), "'graph' must map variable indices to polynomials")
    n = values["vars"]
    mapping = {}
    for index, text in value.items():
        _require(
            index.isdecimal() and int(index) < n,
            f"graph key {index!r} is not a variable index from 0 to {n - 1}",
        )
        _require(int(index) not in mapping, "'graph' names a variable index twice")
        mapping[int(index)] = _poly(lambda v: n)(key, text, values)
    return mapping


def _point_over_algebra(key, value, values) -> APoint:
    """The coordinate lists of an A-point over the command's 'algebra'."""
    return apoint(values["algebra"], _list(_list(_rat))(key, value, values))


def _validate(keys: dict[str, _Key], entry: dict, session: Session, where: str) -> dict:
    """Check ``entry`` against its key table and return the converted values.

    ``where`` is "binding", "command", or "session" for the parse-time check of
    a command's names.  A bad name raises ``UnknownNameError``, anything else
    ``SessionParseError``.
    """
    for key in entry:
        _require(key in keys, f"unknown {where} key {key!r}")
    values: dict[str, Any] = {}
    for key, spec in keys.items():
        if key not in entry:
            _require(not spec.required, f"{where} needs the key {key!r}")
        elif isinstance(spec.convert, _Ref):
            values[key] = _resolve(session, spec.convert.kind, key, entry[key], where)
        else:
            values[key] = spec.convert(key, entry[key], values)
    return values


_ARTICLES = {
    "algebra": "an algebra", "jet": "a jet", "apoint": "an A-point", "group": "a group law"
}


def _resolve(session: Session, kind: str | None, key: str, name, where: str):
    for table in map(session.table, [kind] if kind else _BINDINGS):
        if isinstance(name, str) and name in table:
            return table[name]
    what = _ARTICLES[kind] if kind else "a binding"
    if where == "command":
        raise UnknownNameError(f"command needs {what} under {key!r}, got {name!r}")
    raise UnknownNameError(f"{key!r} must name {what}, got {name!r}")


# -- bindings -------------------------------------------------------------------------


def _bind_algebra(vars: int, relations=(), bound: int | None = None) -> WeilAlgebra:
    if bound is None:
        bound = max([g.degree() for g in relations] + [2])
    return quotient_algebra(vars, bound, relations)


def _bind_jet(
    vars: int, order_hint: int, point=None, generators=(), graph=None, strict=False
) -> Jet:
    point = point or [0] * vars
    if graph is not None:
        return classical_jet(vars, point, graph, order_hint)
    return jet_from_ideal(vars, point, generators, order_hint, strict_hint=strict)


def _bind_apoint(algebra: WeilAlgebra, images: list) -> APoint:
    # Looks ``apoint`` up in this module at call time, where bench/tracer.py
    # rebinds it to open its span.
    return apoint(algebra, images)


def _bind_group(dim: int, law: list, inverse: list, identity=None) -> GroupLaw:
    try:
        return group_law(dim, law, [0] * dim if identity is None else identity, inverse)
    except (ValueError, WeilJetsError) as exc:
        raise SessionParseError(f"invalid group law: {exc}")


_VARS = _Key(_integer(1))
_VARS_POLYS = _list(_poly(lambda v: v["vars"]))  # polynomials in the entry's 'vars' variables
_PER_DIM = "component per dimension"
_ALGEBRA, _JET, _APOINT, _GROUP = (_Key(_Ref(k)) for k in ("algebra", "jet", "apoint", "group"))

# Kind -> (builder, key table).  An "apoint" binding carries an "algebra" key
# as a reference, so a binding's kind is the first of these keys it has.
_BINDINGS: dict[str, tuple[Callable[..., Any], dict[str, _Key]]] = {
    "apoint": (_bind_apoint, {
        "algebra": _ALGEBRA,
        "images": _Key(_list(_list(_rat), nonempty=True)),
    }),
    "jet": (_bind_jet, {
        "vars": _VARS,
        "order_hint": _Key(_integer(0)),
        "point": _optional(_point),
        "generators": _optional(_VARS_POLYS),
        "graph": _optional(_graph),
        "strict": _optional(_boolean),
    }),
    "group": (_bind_group, {
        "dim": _Key(_integer(1)),
        "law": _Key(_sized(_list(_poly(lambda v: 2 * v["dim"])), "dim", _PER_DIM)),
        "identity": _optional(_sized(_list(_rat), "dim", "coordinate per dimension")),
        "inverse": _Key(_sized(_list(_poly(lambda v: v["dim"])), "dim", _PER_DIM)),
    }),
    "algebra": (_bind_algebra, {
        "vars": _VARS,
        "relations": _optional(_VARS_POLYS),
        "bound": _optional(_integer(0)),
    }),
}


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
    for cmd in commands:
        _require(isinstance(cmd, dict), "each command must be an object")
        _require(isinstance(cmd.get("op"), str), "each command needs a string 'op'")
        names = {key: value for key, value in cmd.items() if key in _NAME_KEYS}
        _validate(_NAME_KEYS, names, session, "session")
        session.commands.append(cmd)
    return session


def _bind(session: Session, entry: dict) -> None:
    kind = next((kind for kind in _BINDINGS if kind in entry), None)
    _require(kind is not None, "binding must declare one of algebra/jet/apoint/group")
    name = entry[kind]
    _require(isinstance(name, str) and name, f"'{kind}' binding needs a name")
    _require(name not in session.names(), f"duplicate name {name!r}")
    builder, keys = _BINDINGS[kind]
    rest = {key: value for key, value in entry.items() if key != kind}
    session.table(kind)[name] = builder(**_validate(keys, rest, session, "binding"))


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


def _images(point: APoint) -> dict:
    return {"images": [[str(c) for c in img.coordinates] for img in point.images]}


# -- commands: each handler takes its op's validated values as keyword arguments ---------


def _op_info(of) -> dict:
    if isinstance(of, WeilAlgebra):
        return _algebra_summary(of)
    if isinstance(of, Jet):
        return _jet_summary(of)
    if isinstance(of, APoint):
        return {
            "ambient": of.ambient_dimension,
            "algebra_dim": of.algebra.dimension,
            "base_point": [str(c) for c in of.base_point],
        }
    return {"dim": of.dimension, "identity": [str(c) for c in of.identity]}


def _op_describe(of: WeilAlgebra) -> dict:
    return {
        "vars": of.n,
        "dim": of.dimension,
        "order": of.order,
        "width": of.width,
        "filtration": list(of.filtration_dimensions),
        "basis_monomials": [list(e) for e in of.basis_monomials],
        "structure_constants": [
            [a, b, g, str(c)] for (a, b, g, c) in of.structure_constants()
        ],
        "relations": [
            _format_row(r, window(of.n, of.window_bound)) for r in of.defining_ideal.rows.values()
        ],
    }


def _op_derivations(of: WeilAlgebra) -> dict:
    ders = derivation_space(of)
    return {
        "dim": ders.dimension,
        "generator_images": [
            [_format_row(img, of.basis_monomials) for img in images]
            for images in ders.sparse_images
        ],
    }


def _op_tensor(of: WeilAlgebra, **keys) -> dict:
    other = keys["with"]  # a Python keyword, so not a parameter name
    t = tensor_product(of, other)
    out = _algebra_summary(t)
    out["dims_multiply"] = t.dimension == of.dimension * other.dimension
    out["order_adds"] = t.order == of.order + other.order
    return out


def _op_stability(of: WeilAlgebra, ideal=()) -> dict:
    d = of.dimension
    # Close the span into an ideal of the algebra before checking.
    span = Echelon(d)
    span.saturate(
        [of._polynomial_class(f) for f in ideal],
        of.variable_maps,
    )
    basis = span.subspace()
    report = ideal_stability(of, basis)
    return {
        "ideal_dim": basis.dimension,
        "der_stable": report.der_stable,
        "note": report.note,
    }


def _op_cotangent(of: Jet) -> dict:
    ct = cotangent_module(of)
    return {
        "dim": ct.dimension,
        "basis": [format_polynomial(f) for f in ct.basis],
    }


def _op_tangent(of: Jet) -> dict:
    tm = tangent_module(of)
    return {
        "ambient_dim": tm.ambient_dimension,
        "relations_dim": tm.relations.dimension,
        "dim": tm.dimension,
    }


def _op_normal_form(of: Jet) -> dict:
    nf = normal_form(of)
    return {
        "r": nf.r,
        "pivot_variables": list(nf.pivot_variables),
        "substitution": [format_polynomial(f) for f in nf.sigma],
        "q_list": [format_polynomial(f) for f in nf.q_list],
    }


def _op_derive(of: Jet, verify: bool = False) -> dict:
    derived = derived_jet(of, verify=verify)
    out = _jet_summary(derived)
    out["taylor_condition"] = of.contains_jet(hat_ideal(derived))
    if verify:
        out["oracle_agrees"] = True
    return out


def _op_contact(of: Jet) -> dict:
    c = contact_and_cartan(of)
    return {
        "omega_rank": c.omega_rank,
        "tangent_dim": c.tangent_dimension,
        "cartan_dim": c.cartan_tangent_dimension,
        "annihilator_equals_generated": c.cartan == c.cartan_generated,
        "kernel_inside_cartan": c.kernel_inside_cartan,
    }


def _op_taylor(of: Jet) -> dict:
    ty = taylor_map(of)
    return {
        "taylor_condition": ty.taylor_condition,
        "image_ambient_dim": ty.pi_star_cartan.ambient_dimension,
        "image_dim": ty.pi_star_cartan.dimension,
        "derived": _jet_summary(ty.derived),
        "cartan_projects": ty.cartan_projects,
    }


def _op_tangent_map(of: Jet, map: list) -> dict:
    tm = tangent_map(of, map)
    return {
        "exists": tm.exists,
        "regular_for_subalgebra": tm.is_regular_for_subalgebra,
        "image": _jet_summary(tm.image_jet),
    }


def _op_evaluate(of: APoint, poly: TruncatedPolynomial) -> dict:
    value = evaluate(poly, of)
    return {
        "components": [str(c) for c in value.coordinates],
        "value": _format_row(value.row, of.algebra.basis_monomials),
    }


def _op_kernel(of: APoint) -> dict:
    regular, jet = regularity_and_kernel(of)
    return {"regular": regular, "kernel": _jet_summary(jet)}


def _op_prolong(algebra: WeilAlgebra, vars: int, ideal=()) -> dict:
    prolonged = prolong_ideal(ideal, algebra)
    return {
        "coordinates": component_names(algebra, vars),
        "components": [[format_polynomial(c) for c in comps] for comps in prolonged],
    }


def _op_weil_check(a: WeilAlgebra, b: WeilAlgebra, vars: int, poly, point: list) -> dict:
    report = weil_iso_check(poly, a, b, point)
    return {
        "equal": report.equal,
        "components": [[str(v) for v in row] for row in report.direct],
    }


class _Command(NamedTuple):
    """An op: its handler and its key table, called as ``execute`` runs the op."""

    handler: Callable[..., dict]
    keys: dict[str, _Key]

    def __call__(self, session: Session, cmd: dict, verify_oracles: bool = False) -> dict:
        args = {key: value for key, value in cmd.items() if key != "op"}
        values = _validate(self.keys, args, session, "command")
        if verify_oracles and "verify" in self.keys:
            values["verify"] = True
        return self.handler(**values)


_JET_MAP = _Key(_list(_poly(lambda v: v["of"].n), nonempty=True))
_POINT_OVER_ALGEBRA = _Key(_point_over_algebra)

# Op -> handler and key table.
_OPERATIONS: dict[str, _Command] = {
    "info": _Command(_op_info, {"of": _Key(_Ref(None))}),
    "describe": _Command(_op_describe, {"of": _ALGEBRA}),
    "derivations": _Command(_op_derivations, {"of": _ALGEBRA}),
    "tensor": _Command(_op_tensor, {"of": _ALGEBRA, "with": _ALGEBRA}),
    "stability": _Command(
        _op_stability, {"of": _ALGEBRA, "ideal": _optional(_list(_poly(lambda v: v["of"].n)))}
    ),
    "hat": _Command(lambda of: _jet_summary(hat_ideal(of)), {"of": _JET}),
    "cotangent": _Command(_op_cotangent, {"of": _JET}),
    "tangent": _Command(_op_tangent, {"of": _JET}),
    "fields": _Command(lambda of: {"dim": jet_fields(of).dimension}, {"of": _JET}),
    "normal_form": _Command(_op_normal_form, {"of": _JET}),
    "derive": _Command(_op_derive, {"of": _JET, "verify": _optional(_boolean)}),
    "contact": _Command(_op_contact, {"of": _JET}),
    "taylor": _Command(_op_taylor, {"of": _JET}),
    "pushforward": _Command(
        lambda of, map: _jet_summary(pushforward(of, map)), {"of": _JET, "map": _JET_MAP}
    ),
    "tangent_map": _Command(_op_tangent_map, {"of": _JET, "map": _JET_MAP}),
    "evaluate": _Command(
        _op_evaluate, {"of": _APOINT, "poly": _Key(_poly(lambda v: v["of"].ambient_dimension))}
    ),
    "kernel": _Command(_op_kernel, {"of": _APOINT}),
    "prolong": _Command(
        _op_prolong, {"algebra": _ALGEBRA, "vars": _VARS, "ideal": _optional(_VARS_POLYS)}
    ),
    "weil_check": _Command(_op_weil_check, {
        "a": _ALGEBRA,
        "b": _ALGEBRA,
        "vars": _VARS,
        "poly": _Key(_poly(lambda v: v["vars"])),
        "point": _Key(_list(_list(_list(_rat)))),
    }),
    "group_product": _Command(
        lambda group, algebra, p, q: _images(prolong_group(group, algebra).product(p, q)),
        {"group": _GROUP, "algebra": _ALGEBRA, "p": _POINT_OVER_ALGEBRA, "q": _POINT_OVER_ALGEBRA},
    ),
    "group_inverse": _Command(
        lambda group, algebra, p: _images(prolong_group(group, algebra).inverse(p)),
        {"group": _GROUP, "algebra": _ALGEBRA, "p": _POINT_OVER_ALGEBRA},
    ),
}

# Every key that names a binding in some op.  The parser checks these for a
# bound name of any kind, so an unbound name fails the whole session.
_NAME_KEYS = {
    key: _optional(_Ref(None))
    for command in _OPERATIONS.values()
    for key, spec in command.keys.items()
    if isinstance(spec.convert, _Ref)
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
        command = _OPERATIONS.get(op)
        try:
            if command is None:
                raise SessionParseError(f"unknown operation {op!r}")
            entry["ok"] = True
            entry["result"] = command(session, cmd, verify_oracles)
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
        return _json(payload, "\n") + "\n"
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


def _json(value, newline: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` with one join per container
    (with an indent the standard library runs its pure-Python encoder); ``newline``
    is "\\n" plus the indent of value's line.  Only str-keyed dicts, lists, tuples,
    str, int, bool and None are taken; any other type raises TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
