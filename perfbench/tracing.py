"""Span tracing for the benchmark's traced runs.

The tracer wraps the public functions and methods of each layer module of
``iwaheights`` from outside the package: module attributes are replaced
by timing wrappers, every ``from ... import`` binding of a wrapped function
in another package module is re-pointed at the wrapper, and class methods
are replaced on the class itself (so names bound by ``from ... import`` of
the class see them too).  Nothing under ``src/`` is edited.

Each wrapped call is a span: name, start, end, parent span and the
operation it belongs to.  A layer's self time is the span's duration minus
the time covered by its child spans, each child counted from entry to exit
of its wrapper so that the wrappers' own bookkeeping is charged to no
layer; it is accumulated per layer and per function while the run goes.  Spans are kept in memory (up to SPAN_CAP per
process) and written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import weakref
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Layer name -> module under iwaheights.  ``induction`` and ``scenarios``
# are left unwrapped: no CLI path reaches induction, and scenarios is
# closed-form arithmetic that takes microseconds.  ``cli`` self time is
# argument parsing, instance loading and the subcommand bodies.
LAYERS = (
    "cli",
    "kernels",
    "linalg",
    "iwalg",
    "poles",
    "lambdamod",
    "heights",
    "lfun",
    "instancefile",
    "reports",
)

# Dunder methods that do layer work; the rest (repr, hash, ...) stay bare.
WRAPPED_DUNDERS = frozenset(
    {"__init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__eq__"}
)

SPAN_CAP = 250_000


def _poly_mul_pairs(la: int, lb: int, cap: int) -> int:
    """Coefficient products in a truncated product: pairs (i, j) with
    i < la, j < lb and i + j <= cap."""
    n = min(la + lb - 1, cap + 1)
    if n <= 0:
        return 0
    m = min(la, n)
    full = max(0, min(m, n - lb))  # rows that keep all lb products
    return full * lb + (m - full) * n - (full + m - 1) * (m - full) // 2


class Tracer:
    """Span recorder, per-layer self-time accumulator and named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack: list[list] = []  # open spans: [child_time, span index]
        self.op = -1
        self.layer_self: dict[str, float] = defaultdict(float)
        self.func_self: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._seen: dict = {}

    # -- spans ------------------------------------------------------------
    def span(self, name: str, layer: str, func, hook=None):
        """A callable that runs ``func`` inside a span named ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        stack = self.stack
        layer_self = self.layer_self
        func_self = self.func_self
        calls = self.calls
        starts, ends = self.span_start, self.span_end
        parents, ops, span_names = self.span_parent, self.span_op, self.span_name

        def traced(*args, **kwargs):
            t_in = perf_counter()
            idx = len(starts)
            if idx < SPAN_CAP:
                span_names.append(name_id)
                parents.append(stack[-1][1] if stack else -1)
                ops.append(self.op)
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            try:
                t0 = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    own = t1 - t0 - frame[0]
                    layer_self[layer] += own
                    func_self[name] += own
                    calls[name] += 1
                    if idx >= 0:
                        starts[idx] = t0
                        ends[idx] = t1
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                stack.pop()
                # the parent's child time covers this wrapper's bookkeeping
                # too, so the tracer's cost is charged to no layer
                if stack:
                    stack[-1][0] += perf_counter() - t_in

        return traced

    def run_op(self, op_index: int, label: str, func):
        """Run one benchmark operation as the root span of its own id."""
        self.op = op_index
        try:
            return self.span(f"op:{label}", "bench", func)()
        finally:
            self.op = -1

    def first_seen(self, table: str, obj, key) -> bool:
        """True the first time (obj, key) is seen while obj is alive."""
        k = (table, id(obj), key)
        ref = self._seen.get(k)
        if ref is not None and ref() is obj:
            return False
        self._seen[k] = weakref.ref(obj)
        return True

    # -- output -------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "layer_self": dict(self.layer_self),
            "func_self": dict(self.func_self),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, stem: Path, meta: dict) -> None:
        """Write the spans: ``stem.json`` (meta, names, layout) and
        ``stem.bin`` (the five arrays back to back, in the header's order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = [
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("op", self.span_op),
            ("start", self.span_start),
            ("end", self.span_end),
        ]
        header = {
            "meta": meta,
            "names": self.names,
            "count": len(self.span_start),
            "dropped": self.dropped,
            "arrays": [[n, a.typecode, a.itemsize] for n, a in arrays],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header))
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, a in arrays:
                a.tofile(fh)


# -- counters attached to particular functions -------------------------------


def _poly_mul_hook(tr, args, kwargs, result):
    a, b, _mod, cap = args
    tr.counts["kernels.poly_mul_trunc.mults"] += _poly_mul_pairs(len(a), len(b), cap)


def _cyclic_mul_hook(tr, args, kwargs, result):
    tr.counts["kernels.cyclic_mul.mults"] += len(args[0]) * len(args[1])


def _howell_hook(tr, args, kwargs, result):
    rows = args[0]
    tr.counts["linalg.howell.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _pole_init_hook(tr, args, kwargs, result):
    self, level = args[0], args[2]
    if self.level < level:
        tr.counts["poles.pole_elem.level_drops"] += 1


def _j_torsion_hook(tr, args, kwargs, result):
    module, r = args[0], args[1]
    if tr.first_seen("j_torsion", module, r):
        tr.counts["lambdamod.j_torsion.distinct"] += 1


def _elements_hook(tr, args, kwargs, result):
    owner = args[0]
    cap = getattr(owner, "enum_cap", None) or owner.module.enum_cap
    tr.counts["lambdamod.elements.enumerated"] += len(result)
    ratio = len(result) / cap
    if ratio > tr.maxima["lambdamod.elements.cap_ratio"]:
        tr.maxima["lambdamod.elements.cap_ratio"] = ratio


def _order_hook(tr, args, kwargs, result):
    if tr.first_seen("order_of_vanishing", args[0], None):
        tr.counts["lfun.order_of_vanishing.distinct"] += 1


HOOKS = {
    "kernels.poly_mul_trunc": _poly_mul_hook,
    "kernels.cyclic_mul": _cyclic_mul_hook,
    "linalg.howell": _howell_hook,
    "poles.PoleElem.__init__": _pole_init_hook,
    "lambdamod.FiniteLevelModule.j_torsion": _j_torsion_hook,
    "lambdamod.FiniteLevelModule.elements": _elements_hook,
    "lambdamod.Submodule.elements": _elements_hook,
    "lfun.order_of_vanishing": _order_hook,
}


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, (classmethod, staticmethod)):
            span = tracer.span(name, layer, value.__func__, HOOKS.get(name))
            setattr(cls, attr, type(value)(span))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.span(name, layer, value, HOOKS.get(name)))


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of the layer modules."""
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"iwaheights.{layer}")
        if layer == "kernels":
            public = [n for n in mod.__all__ if callable(getattr(mod, n))]
        else:
            public = [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            value = getattr(mod, attr)
            if layer != "kernels" and getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, type):
                _wrap_class(tracer, layer, value)
            elif callable(value):
                name = f"{layer}.{attr}"
                span = tracer.span(name, layer, value, HOOKS.get(name))
                setattr(mod, attr, span)
                wrapped[id(value)] = (value, span)
    # re-point names bound with ``from iwaheights.x import f`` elsewhere
    for modname, mod in list(sys.modules.items()):
        if modname != "iwaheights" and not modname.startswith("iwaheights."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def layer_metrics(summary: dict, passes: int) -> dict:
    """Per-layer metrics per pass from a trace summary."""
    own = summary["layer_self"]
    calls = summary["calls"]
    counts = summary["counts"]

    def per(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    constructions = calls.get("poles.PoleElem.__init__", 0)
    j_calls = calls.get("lambdamod.FiniteLevelModule.j_torsion", 0)
    ord_calls = calls.get("lfun.order_of_vanishing", 0)
    out = {f"{layer}.self_s": (per(own.get(layer, 0.0)), "s/pass") for layer in LAYERS}
    out.update(
        {
            "kernels.cyclic_mul.calls": (per(calls.get("kernels.cyclic_mul", 0)), "count/pass"),
            "kernels.cyclic_mul.mults": (per(counts.get("kernels.cyclic_mul.mults", 0)), "count/pass"),
            "kernels.poly_mul_trunc.calls": (per(calls.get("kernels.poly_mul_trunc", 0)), "count/pass"),
            "kernels.poly_mul_trunc.mults": (per(counts.get("kernels.poly_mul_trunc.mults", 0)), "count/pass"),
            "iwalg.group_ring_mul.calls": (per(calls.get("iwalg.GroupRingElem.__mul__", 0)), "count/pass"),
            "iwalg.series_mul.calls": (per(calls.get("iwalg.IwasawaPoly.__mul__", 0)), "count/pass"),
            "iwalg.weierstrass_divide.calls": (per(calls.get("iwalg.weierstrass_divide", 0)), "count/pass"),
            "linalg.howell.calls": (per(calls.get("linalg.howell", 0)), "count/pass"),
            "linalg.howell.entries": (per(counts.get("linalg.howell.entries", 0)), "count/pass"),
            "linalg.solve_combination.calls": (per(calls.get("linalg.solve_combination", 0)), "count/pass"),
            "poles.pole_elem.constructions": (per(constructions), "count/pass"),
            "poles.level_drop_ratio": (ratio(counts.get("poles.pole_elem.level_drops", 0), constructions), "ratio"),
            "poles.phi.calls": (per(calls.get("poles.phi", 0)), "count/pass"),
            "lambdamod.j_torsion.calls": (per(j_calls), "count/pass"),
            "lambdamod.j_torsion.distinct_ratio": (ratio(counts.get("lambdamod.j_torsion.distinct", 0), j_calls), "ratio"),
            "lambdamod.action_matrix.calls": (per(calls.get("lambdamod.FiniteLevelModule.action_matrix", 0)), "count/pass"),
            "lambdamod.elements.enumerated": (per(counts.get("lambdamod.elements.enumerated", 0)), "count/pass"),
            "lambdamod.elements.cap_ratio": (summary["maxima"].get("lambdamod.elements.cap_ratio", 0.0), "ratio"),
            "heights.derived_value.calls": (per(calls.get("heights.DerivedHeightPairing.value", 0)), "count/pass"),
            "heights.pairing_value.calls": (
                per(calls.get("heights.BlockPairing.value", 0) + calls.get("heights.TablePairing.value", 0)),
                "count/pass",
            ),
            "lfun.order_of_vanishing.calls": (per(ord_calls), "count/pass"),
            "lfun.order_of_vanishing.distinct_ratio": (ratio(counts.get("lfun.order_of_vanishing.distinct", 0), ord_calls), "ratio"),
            "lfun.der.calls": (per(calls.get("lfun.der", 0)), "count/pass"),
            "lfun.validate.self_s": (per(summary["func_self"].get("lfun.LfunInstance.validate", 0.0)), "s/pass"),
        }
    )
    return out
