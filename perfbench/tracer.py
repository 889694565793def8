"""Span tracing of the library's layers, installed from the benchmark's side.

``Tracer.install`` wraps the public functions of each layer module (and the
public methods, constructors and arithmetic operators of its public classes)
and ``Tracer.remove`` puts the originals back; nothing under ``src/`` is
edited.  Every wrapped call adds to per-name aggregates: calls, self time (span time minus the time
its child spans cover) and outermost inclusive time (time of calls with no
enclosing call of the same name, so recursion is not counted twice).  A
call at a layer boundary (its caller is in another layer, or is the
benchmark) also records a span in memory: name, start, end, the nearest
recorded enclosing span, and the operation it belongs to (``Tracer.op``, set
by the caller).  Spans are kept up to ``SPAN_CAP`` and written out by
``write``; the aggregates always cover every call.

Spans of ``parsing.parse_*`` and ``parsing.format_*`` also add to a group
total (``group_s``) while no other span of the same group encloses them, so
a parser calling another parser is counted once.

A few spans also observe their arguments or result (``_OBSERVERS``): sizes
of results and the rank or odd dimension used to split a route's time.  The
time an observer takes is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

from inputs import stored_degree

LAYERS = ("poly", "grassmann", "spaces", "superfn", "continuation", "calculus",
          "morphisms", "atlas", "parsing", "cli")

# dunder methods that do layer work; other dunders (repr, hash) are left alone
_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__neg__", "__pow__", "__truediv__",
            "__rtruediv__", "__eq__"}


_GROUPS = ("parsing.parse", "parsing.format")

SPAN_CAP = 200_000  # spans kept in memory; later ones are only counted as dropped


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.outer_s: list[float] = []
        self._depth: list[int] = []
        self.group_s: dict[str, float] = {group: 0.0 for group in _GROUPS}
        self._group_depth: dict[str, int] = {group: 0 for group in _GROUPS}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_id = array("q")
        self.span_op = array("q")
        self.op = -1
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.outer_s.append(0.0)
        self._depth.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        observe = _OBSERVERS.get(name)
        group = next((g for g in _GROUPS if name.startswith(g + "_")), None)
        layer = name.split(".", 1)[0]
        stack, clock = self._stack, time.perf_counter
        calls, self_s, outer_s, depth = self.calls, self.self_s, self.outer_s, self._depth
        group_s, group_depth = self.group_s, self._group_depth
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [child seconds, id of the nearest recorded span, layer]
            caller = stack[-1] if stack else None
            boundary = caller is None or caller[2] != layer
            if boundary:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = caller[1]
            frame = [0.0, sid, layer]
            stack.append(frame)
            depth[nid] += 1
            if group is not None:
                group_depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                depth[nid] -= 1
                calls[nid] += 1
                self_s[nid] += elapsed - frame[0]
                outermost = depth[nid] == 0
                if outermost:
                    outer_s[nid] += elapsed
                if group is not None:
                    group_depth[group] -= 1
                    if group_depth[group] == 0:
                        group_s[group] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if boundary:
                    tracer._record(nid, sid, caller[1] if caller else -1, start, end)
            if observe is not None:
                t0 = clock()
                observe(tracer.counters, args, result, elapsed, outermost)
                if stack:
                    stack[-1][0] += clock() - t0
            return result

        return traced

    def _record(self, nid, sid, parent, start, end):
        if len(self.span_id) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.span_name.append(nid)
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_op.append(self.op)

    def install(self):
        """Wrap every layer's public callables and rebind every reference to
        them in the ``superskel`` modules."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"superskel.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "superskel"
                                      or module_name.startswith("superskel.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, cls, prefix: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            if inspect.isfunction(obj):
                wrapped = self._wrap(obj, f"{prefix}.{attr}")
            elif isinstance(obj, (classmethod, staticmethod)):
                wrapped = type(obj)(self._wrap(obj.__func__, f"{prefix}.{attr}"))
            else:
                continue
            self._installed.append((cls, attr, obj))
            setattr(cls, attr, wrapped)

    def reset_stack(self):
        """Forget open spans after an operation was cut off mid-call."""
        self._stack.clear()
        self._depth[:] = [0] * len(self._depth)
        for group in self._group_depth:
            self._group_depth[group] = 0

    def remove(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self seconds)} summed over the layer's spans."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            entry = totals[name.split(".", 1)[0]]
            entry[0] += calls
            entry[1] += self_s
        return totals

    def total(self, names, field: str):
        """Sum of ``calls``, ``self_s`` or ``outer_s`` over the given span names."""
        values = getattr(self, field)
        wanted = set(names)
        return sum(v for name, v in zip(self.names, values) if name in wanted)

    def write(self, path):
        """Write every recorded span and aggregate as one JSON document."""
        doc = {
            "names": self.names,
            "aggregates": {name: {"calls": c, "self_s": s, "outer_s": o}
                           for name, c, s, o in zip(self.names, self.calls,
                                                    self.self_s, self.outer_s) if c},
            "counters": dict(self.counters),
            "groups": self.group_s,
            "spans_dropped": self.spans_dropped,
            "span_fields": ["id", "name", "parent", "op", "start", "end"],
            "spans": [[i, n, p, op, round(s, 7), round(e, 7)] for i, n, p, op, s, e in zip(
                self.span_id, self.span_name, self.span_parent, self.span_op,
                self.span_start, self.span_end)],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# observers: (counters, args, result, elapsed, outermost) -> None


def _max(counters, key, value):
    if value > counters.get(key, 0):
        counters[key] = value


def _poly_result(counters, args, result, elapsed, outermost):
    _max(counters, "poly.terms_max", len(result.terms))


def _rational_result(counters, args, result, elapsed, outermost):
    if result.__class__.__name__ != "RationalFunction":
        return
    _max(counters, "poly.num_degree_max", stored_degree(result.num))
    _max(counters, "poly.den_degree_max", stored_degree(result.den))
    _max(counters, "poly.terms_max", len(result.num.terms))
    _max(counters, "poly.terms_max", len(result.den.terms))


def _grassmann_result(counters, args, result, elapsed, outermost):
    if result.__class__.__name__ == "GrassmannElement":
        _max(counters, "grassmann.terms_max", len(result.terms))


def _domain_built(counters, args, result, elapsed, outermost):
    _max(counters, "spaces.excluded_max", len(args[0].excluded))


def _by_rank(route):
    def observe(counters, args, result, elapsed, outermost):
        if outermost:
            counters[f"continuation.{route}_s.rank{args[1].rank}"] += elapsed
    return observe


def _by_odd(route):
    def observe(counters, args, result, elapsed, outermost):
        if outermost:
            counters[f"morphisms.{route}_s.odd{args[1].source_space.odd_dim}"] += elapsed
    return observe


def _parsed_bytes(counters, args, result, elapsed, outermost):
    if outermost and args and isinstance(args[0], str):
        counters["parsing.bytes"] += len(args[0].encode())


_OBSERVERS = {
    "poly.Polynomial.__mul__": _poly_result,
    "poly.Polynomial.__rmul__": _poly_result,
    "poly.Polynomial.__add__": _poly_result,
    "poly.Polynomial.__radd__": _poly_result,
    **{f"poly.RationalFunction.{op}": _rational_result
       for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__",
                  "__rtruediv__", "__sub__", "__rsub__", "__pow__", "derivative",
                  "invert")},
    "grassmann.GrassmannElement.__mul__": _grassmann_result,
    "spaces.DeWittDomain.__init__": _domain_built,
    "continuation.eval_subst": _by_rank("eval_subst"),
    "continuation.eval_taylor": _by_rank("eval_taylor"),
    "morphisms.compose_subst": _by_odd("compose_subst"),
    "morphisms.compose_formula": _by_odd("compose_formula"),
    "parsing.parse_skeleton_file": _parsed_bytes,
    "parsing.parse_point_file": _parsed_bytes,
    "parsing.parse_manifold_file": _parsed_bytes,
}
