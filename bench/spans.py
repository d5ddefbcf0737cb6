"""Timing wrappers around the public functions of each fptrace module.

``install`` rebinds every public function of the layer modules to a wrapper
in every fptrace module namespace that holds it by name (``certify_compare``
is bound in both ``rigor`` and ``bounds``), so calls between layers are timed
from outside the program.  A span is one wrapped call: its name, start, end
and parent.  Spans are folded into per-function totals as they close, since
a single frame-proof walk makes hundreds of thousands of them; self time is
a span's duration minus the time its child spans cover.

Functions of ``rigor`` whose name starts with ``certify`` are certified
comparisons.  Their callable arguments (the refiners) are wrapped as well,
so escalation rounds and the precision a comparison reached are counted.
A function name that no longer exists simply yields no span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("rigor", "fpcode", "tascheme", "bounds", "paramscan", "cli")
# Modules whose namespaces get rebound; fixtures is timed only in set-up,
# so its own functions stay unwrapped.
NAMESPACES = LAYERS + ("fixtures",)


class Tracer:
    def __init__(self):
        self.funcs = {}  # "layer.name" -> [calls, inclusive_s, self_s]
        self.bits = {}  # "layer.name@bits" -> [calls, inclusive_s]
        self.compares = {"calls": 0, "refine_rounds": 0, "max_bits": 0,
                         "ge_1024b": 0, "unresolved": 0}
        self._stack = []
        self._compare = None

    # -- aggregation ---------------------------------------------------------

    def state(self) -> dict:
        return {"funcs": self.funcs, "bits": self.bits, "compares": self.compares}

    def merge(self, state: dict) -> None:
        for key in ("funcs", "bits"):
            mine = getattr(self, key)
            for name, values in state[key].items():
                acc = mine.setdefault(name, [0] * len(values))
                for i, v in enumerate(values):
                    acc[i] += v
        for name, v in state["compares"].items():
            if name == "max_bits":
                self.compares[name] = max(self.compares[name], v)
            else:
                self.compares[name] += v

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v[2] for k, v in self.funcs.items() if k.startswith(prefix))

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, qualname, fn):
        funcs, stack = self.funcs, self._stack
        funcs.setdefault(qualname, [0, 0.0, 0.0])
        signature = inspect.signature(fn)
        names = list(signature.parameters)
        bits_at = names.index("precision_bits") if "precision_bits" in names else None
        bits_default = (signature.parameters["precision_bits"].default
                        if bits_at is not None else None)
        layer, name = qualname.split(".", 1)
        is_compare = layer == "rigor" and name.startswith("certify")
        tracer = self

        def wrapper(*args, **kwargs):
            outer = None
            if is_compare:
                args, kwargs, outer = tracer._enter_compare(signature, args, kwargs)
            stack.append([0.0])
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                child = stack.pop()[0]
                if stack:
                    stack[-1][0] += dur
                rec = funcs[qualname]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if bits_at is not None:
                    bits = args[bits_at] if len(args) > bits_at else kwargs.get(
                        "precision_bits", bits_default)
                    acc = tracer.bits.setdefault(f"{qualname}@{bits}", [0, 0.0])
                    acc[0] += 1
                    acc[1] += dur
                if outer is not None:
                    tracer._leave_compare(outer, result)

        return wrapper

    def _enter_compare(self, signature, args, kwargs):
        record = self._compare
        outer = None
        if record is None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            start = bound.arguments.get("start_bits", bound.arguments.get("precision_bits"))
            record = self._compare = {"start": start or 0, "seen": set()}
            outer = record
        seen = record["seen"]

        def refiner(fn):
            def refined(bits, *a, **k):
                seen.add(bits)
                return fn(bits, *a, **k)
            return refined

        def wrap_arg(value):
            if callable(value):
                return refiner(value)
            if isinstance(value, tuple) and value and all(callable(v) for v in value):
                return tuple(refiner(v) for v in value)
            return value

        args = tuple(wrap_arg(a) for a in args)
        kwargs = {k: wrap_arg(v) for k, v in kwargs.items()}
        return args, kwargs, outer

    def _leave_compare(self, record, result):
        self._compare = None
        start = record["start"]
        final = max([start] + list(record["seen"]))
        stats = self.compares
        stats["calls"] += 1
        stats["refine_rounds"] += sum(1 for b in record["seen"] if b > start)
        stats["max_bits"] = max(stats["max_bits"], final)
        stats["ge_1024b"] += final >= 1024
        stats["unresolved"] += bool(getattr(result, "is_unresolved", False))


def install(tracer: Tracer) -> None:
    """Rebind the public functions of every layer module to timing wrappers."""
    modules = {name: importlib.import_module(f"fptrace.{name}") for name in NAMESPACES}
    package = sys.modules["fptrace"]
    wrapped = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                wrapped[id(obj)] = (obj, tracer._wrap(f"{layer}.{name}", obj))
    for namespace in list(modules.values()) + [package]:
        for name, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, name, hit[1])
