"""Outside-in layer tracer for the weiljets package.

The tracer changes no file of the package.  ``install`` replaces each public
function of a layer module, the public methods (plus ``__init__`` and the
arithmetic operators) of the layer's public classes, and the values of
``session._OPERATIONS`` with wrappers.  A name bound by ``from .x import f``
lives in the importing module's namespace too, so every ``weiljets.*`` module
is searched for the original objects and rebound.  ``uninstall`` puts every
original back.

Spans are opened where a call crosses from one layer into another (and for
every session entry point and session operation), so a span's children are
spans of other layers and a layer's self time is its span time minus the
time its children cover.  Calls inside one layer are counted but open no
span.  ``fractions.Fraction`` methods are wrapped as well and each call is
charged to the layer of the innermost open span, which gives an exact count
of exact-arithmetic operations per layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("monomials", "poly", "subspace", "weil", "jets", "apoints", "session")
OUTSIDE = len(LAYERS)  # charged when no span is open
HOOKING = OUTSIDE + 1  # charged while the tracer's own hooks run
_CLASS_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")
_SESSION_ENTRIES = ("parse_session", "execute", "render")


def _public_callables(module):
    """(qualified name, owner, attribute, original) for each traced member."""
    found = []
    for name, value in sorted(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            for attr, member in sorted(vars(value).items()):
                if attr.startswith("_") and attr not in _CLASS_DUNDERS:
                    continue
                if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(member):
                    found.append((f"{name}.{attr}", value, attr, member))
        elif callable(value):
            found.append((name, module, name, value))
    return found


class Tracer:
    """Counts, self times and spans of one traced stretch of work."""

    def __init__(self):
        width = len(LAYERS) + 2
        self.calls = [0] * width
        self.fraction_ops = [0] * width
        self.self_s = [0.0] * width
        self.names: list[str] = []
        self.name_calls: list[int] = []
        self.name_total_s: list[float] = []
        self.session_id = -1
        # Open spans: layer, id, and time covered by their children.
        self._stack = [OUTSIDE]
        self._open_ids = [-1]
        self._child_s = [0.0]
        # Closed spans, one entry per column.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_session = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Layer counters beyond calls and time.
        self.rows_offered = 0
        self.rows_accepted = 0
        self.max_ambient = 0
        self.algebras_built = 0
        self.max_dim = 0
        self.tensor_calls = 0
        self.tensor_pairs: set = set()
        self.contact_calls = 0
        self.contact_jets: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def install(self, count_fractions: bool = True) -> None:
        """Wrap the layers; ``count_fractions`` also wraps ``Fraction``, which
        makes exact operation counts but slows arithmetic-heavy layers most."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"weiljets.{layer}")
            for qualname, owner, attr, member in _public_callables(module):
                name = f"{layer}.{qualname}"
                always = layer == "session" and qualname in _SESSION_ENTRIES
                if isinstance(member, (staticmethod, classmethod)):
                    wrapped = type(member)(self._wrap(member.__func__, layer_index, name, always))
                else:
                    wrapped = self._wrap(member, layer_index, name, always)
                if owner is module:
                    replaced[id(member)] = wrapped
                else:
                    self._set(owner, attr, wrapped)
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "weiljets"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._set(module, attr, replaced[id(value)])
        session = importlib.import_module("weiljets.session")
        operations = session._OPERATIONS
        session_layer = LAYERS.index("session")
        for op, handler in list(operations.items()):
            self._set_item(
                operations, op, self._wrap(handler, session_layer, f"session.op.{op}", True)
            )
        for attr, member in list(vars(Fraction).items()) if count_fractions else ():
            if attr == "_operator_fallbacks":
                continue
            if isinstance(member, (staticmethod, classmethod)):
                self._set(Fraction, attr, type(member)(self._count_fraction(member.__func__)))
            elif inspect.isfunction(member):
                self._set(Fraction, attr, self._count_fraction(member))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, table: dict, key: str, value) -> None:
        self._restore.append((table, key, table[key]))
        table[key] = value

    def _count_fraction(self, fn):
        ops = self.fraction_ops
        stack = self._stack

        def counted(*args, **kwargs):
            ops[stack[-1]] += 1
            return fn(*args, **kwargs)

        counted.__name__ = fn.__name__
        return counted

    def _wrap(self, fn, layer: int, name: str, always: bool):
        name_index = len(self.names)
        self.names.append(name)
        self.name_calls.append(0)
        self.name_total_s.append(0.0)
        calls = self.calls
        name_calls = self.name_calls
        stack = self._stack
        span = self._span
        run_hook = self._run_hook
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            calls[layer] += 1
            name_calls[name_index] += 1
            if stack[-1] != layer or always:
                return span(fn, layer, name_index, hook, args, kwargs)
            if hook is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            run_hook(hook, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _span(self, fn, layer, name_index, hook, args, kwargs):
        stack = self._stack
        span_id = len(self.span_name)
        self.span_name.append(name_index)
        self.span_parent.append(self._open_ids[-1])
        self.span_session.append(self.session_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        stack.append(layer)
        self._open_ids.append(span_id)
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._open_ids.pop()
            covered = self._child_s.pop()
            duration = end - start
            self.self_s[layer] += duration - covered
            self._child_s[-1] += duration
            self.name_total_s[name_index] += duration
            self.span_start[span_id] = start
            self.span_end[span_id] = end
        if hook is not None:
            self._run_hook(hook, args, result)
        return result

    def _run_hook(self, hook, args, result) -> None:
        # Hashing the keys calls Fraction methods; charge them to no layer.
        self._stack.append(HOOKING)
        try:
            hook(self, args, result)
        finally:
            self._stack.pop()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[index]
            out[f"{layer}.self_s"] = self.self_s[index]
            out[f"{layer}.fraction_ops"] = self.fraction_ops[index]
        out["subspace.rows_offered"] = self.rows_offered
        out["subspace.rank_frac"] = _ratio(self.rows_accepted, self.rows_offered)
        out["subspace.max_ambient"] = self.max_ambient
        out["weil.algebras_built"] = self.algebras_built
        out["weil.max_dim"] = self.max_dim
        out["weil.tensor_calls"] = self.tensor_calls
        out["weil.tensor_distinct_frac"] = _ratio(len(self.tensor_pairs), self.tensor_calls)
        out["jets.contact_calls"] = self.contact_calls
        out["jets.contact_distinct_frac"] = _ratio(len(self.contact_jets), self.contact_calls)
        out["poly.product_calls"] = self.name_calls[self.names.index("poly.truncated_product")]
        out["poly.substitute_calls"] = self.name_calls[self.names.index("poly.truncated_substitute")]
        for key, entry in (("parse", "parse_session"), ("execute", "execute"), ("render", "render")):
            out[f"session.{key}_s"] = self.name_total_s[self.names.index(f"session.{entry}")]
        return out

    def per_function(self) -> dict[str, dict]:
        return {
            name: {"calls": calls, "span_s": total}
            for name, calls, total in zip(self.names, self.name_calls, self.name_total_s)
            if calls
        }

    def write_spans(self, path) -> int:
        """Write the closed spans as gzip TSV: id, name, parent, session, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tname\tparent\tsession\tstart\tend\n")
            names = self.names
            for span_id, (name, parent, session, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_session, self.span_start, self.span_end)
            ):
                handle.write(f"{span_id}\t{names[name]}\t{parent}\t{session}\t{start:.9f}\t{end:.9f}\n")
        return len(self.span_name)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# -- layer counters read at chosen boundaries ----------------------------------------


def _on_rref_insert(tracer: Tracer, args, result) -> None:
    tracer.rows_offered += 1
    tracer.rows_accepted += bool(result)
    tracer.max_ambient = max(tracer.max_ambient, len(args[2]))


def _on_algebra_built(tracer: Tracer, args, result) -> None:
    tracer.algebras_built += 1
    tracer.max_dim = max(tracer.max_dim, args[0].dimension)


def _on_tensor(tracer: Tracer, args, result) -> None:
    tracer.tensor_calls += 1
    tracer.tensor_pairs.add((args[0], args[1]))


def _on_contact(tracer: Tracer, args, result) -> None:
    tracer.contact_calls += 1
    tracer.contact_jets.add(args[0])


_HOOKS = {
    "subspace.rref_insert": _on_rref_insert,
    "weil.WeilAlgebra.__init__": _on_algebra_built,
    "weil.tensor_product": _on_tensor,
    "jets.contact_and_cartan": _on_contact,
}
