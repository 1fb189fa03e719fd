"""Spans around calls into the package's public functions.

The tracer wraps each named function, constructor or method and binds
the wrapper under every name the package knows it by: a function
imported with ``from .seifert import euler_number`` is a separate
binding in cone3d, cli and the package namespace, and each one is
rebound.  Constructors are traced by wrapping ``__init__``, so the
class itself, and isinstance checks against it, stay untouched.

Spans of one request are kept in memory with their parent and folded
into per-span self time when the request ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# module -> spans, named as in the package; "Class" traces construction.
SPANS = {
    "arith": ("PiRational", "fiber_coeffs"),
    "seifert": (
        "SeifertSignature", "normalize_with_order", "euler_number",
        "orbifold_euler_char", "manifold_geometry", "homology_order",
        "identify_family", "named_family", "lens_params",
    ),
    "base2d": ("BasePoint", "classify_triangle"),
    "kernel": ("classify_region",),
    "cone3d": ("ConeStructure", "ConeStructure.base_point", "classify_cone"),
    "surgery": (
        "surgery_of_line", "surgery_signature", "classify_surgery_cone", "atlas",
    ),
    "plot": ("build_plot", "render_svg", "export_csv"),
    "cli": ("run",),
}

# JSON output is its own layer; both entry points the package and the
# benchmark use are traced on the json module itself.
SERIALISE = "serialise.json"
SERIALISE_FUNCS = ("dump", "dumps")

SPAN_NAMES = tuple(
    "%s.%s" % (module, span) for module, spans in SPANS.items() for span in spans
)
MODULES = tuple(SPANS) + ("serialise",)


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span recorder; install() swaps the wrappers in, uninstall() undoes it."""

    def __init__(self):
        self.spans = []  # (name, parent index, start, end) of the open request
        self.stack = [-1]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._undo = []

    def wrap(self, name, func):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def end_request(self):
        """Fold the spans of the request just finished into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, _, start, end), covered in zip(spans, child):
            self.self_s[name] += end - start - covered
            self.calls[name] += 1
        del spans[:]

    def discard(self):
        """Drop spans recorded outside a request, such as by an oracle."""
        del self.spans[:]

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        del self.spans[:]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every span; raise LookupError naming any span not found."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "seifertgeo" or name.startswith("seifertgeo."))
        }
        missing = []
        for module, spans in SPANS.items():
            mod = modules.get("seifertgeo." + module)
            for span in spans:
                name = "%s.%s" % (module, span)
                head, _, method = span.partition(".")
                target = getattr(mod, head, None) if mod is not None else None
                if isinstance(target, type):
                    attr = method or "__init__"
                    if attr not in target.__dict__:
                        missing.append(name)
                        continue
                    self._set(target, attr, self.wrap(name, target.__dict__[attr]))
                elif callable(target) and not method:
                    wrapper = self.wrap(name, target)
                    for alias_mod in modules.values():
                        for alias, value in list(vars(alias_mod).items()):
                            if value is target:
                                self._set(alias_mod, alias, wrapper)
                else:
                    missing.append(name)
        if missing:
            self.uninstall()
            raise LookupError("spans not found: %s" % ", ".join(missing))
        for func in SERIALISE_FUNCS:
            self._set(json, func, self.wrap(SERIALISE, getattr(json, func)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class FractionCounter:
    """Exact count of Fraction constructions while installed."""

    def __init__(self):
        self.count = 0
        self._original = None

    def install(self):
        self._original = Fraction.__dict__["__new__"]
        new = self._original.__func__

        def counted(cls, *args, **kwargs):
            self.count += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted)

    def uninstall(self):
        if self._original is not None:
            Fraction.__new__ = self._original
            self._original = None
