"""Span tracer that wraps troprat's public functions from outside the package.

The tracer replaces each traced function with a wrapper in every troprat module
that binds it: `from .core import canonicalize` in `subdiv`, `curve`, `rep` and
`cli` creates separate bindings, and calls through an unpatched binding would
escape the trace.  `TropPoly.__call__` and `__mul__` are patched on the class.
`close()` puts every original back.

Each span records (name, start, end, parent span, request id).  A layer's self
time is its span's duration minus the time covered by its child spans; time
spent in code that is not traced (Fraction arithmetic, dict work) is charged
to the innermost traced caller.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter_ns

import troprat
from troprat import core


def _len0(args, result):
    return len(args[0])


# span name -> (module, attribute, {counter: fn(args, result) -> int})
TRACED = {
    "parse.parse_poly": ("parse", "parse_poly", {"terms_out": lambda a, r: len(r)}),
    "core.canonicalize": ("core", "canonicalize", {}),
    "core.func_eq": ("core", "func_eq", {}),
    "geom.upper_faces_2d": (
        "geom",
        "upper_faces_2d",
        {"points_in": _len0, "facets_out": lambda a, r: len(r[0])},
    ),
    "geom.hull2": ("geom", "hull2", {}),
    "geom.lattice_points": ("geom", "lattice_points", {"points_out": lambda a, r: len(r)}),
    "geom.summand_decompositions": (
        "geom",
        "summand_decompositions",
        {"pairs_out": lambda a, r: len(r)},
    ),
    "subdiv.dual_subdivision": (
        "subdiv",
        "dual_subdivision",
        {"cells_out": lambda a, r: len(r.cells)},
    ),
    "subdiv.mcomp": ("subdiv", "mcomp", {}),
    "curve.plane_curve": (
        "curve",
        "plane_curve",
        {"vertices_out": lambda a, r: len(r.vertices)},
    ),
    "curve.balancing_check": ("curve", "balancing_check", {}),
    "curve.curve_to_divisor": ("curve", "curve_to_divisor", {}),
    "curve.hypersurface_member": ("curve", "hypersurface_member", {}),
    "curve.duality_samples": ("curve", "duality_samples", {}),
    "curve.graph_duality_check": (
        "curve",
        "graph_duality_check",
        {
            "locus_hits": lambda a, r: r.below_hits + r.above_hits,
            # duality_samples targets a locus on sample indices 2 and 3 mod 5
            "locus_samples": lambda a, r: sum(1 for i in range(r.total) if i % 5 in (2, 3)),
        },
    ),
    "rep.vol_pair": ("rep", "vol_pair", {}),
    "rep.minrep_uni": ("rep", "minrep_uni", {}),
    "rep.try_divide": ("rep", "try_divide", {"quotients": lambda a, r: r is not None}),
    "rep.enumerate_factorizations": (
        "rep",
        "enumerate_factorizations",
        {"factorizations_out": lambda a, r: len(r)},
    ),
    "rep.fcomp": ("rep", "fcomp", {}),
    "svg.render_svg": (
        "svg",
        "render_svg",
        {"bytes_out": lambda a, r: len(r.encode())},
    ),
}

# span name -> (TropPoly method, counters)
TRACED_METHODS = {
    "core.eval": ("__call__", {"terms": lambda a, r: len(a[0])}),
    "core.mul": ("__mul__", {}),
}


class Tracer:
    """Collects spans and counters while installed and `active`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent, request)
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.request = -1
        self.active = False
        self._stack: list[list] = []  # [span index, child ns]
        self._restore: list[tuple] = []
        self._cache0 = None

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "troprat" or n.startswith("troprat.")
        ]
        for span, (mod_name, attr, counters) in TRACED.items():
            original = getattr(getattr(troprat, mod_name), attr)
            wrapper = self._wrap(span, original, counters)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for span, (attr, counters) in TRACED_METHODS.items():
            original = getattr(core.TropPoly, attr)
            self._restore.append((core.TropPoly, attr, original))
            setattr(core.TropPoly, attr, self._wrap(span, original, counters))
        self._cache0 = core._canonical_cached.cache_info()

    def close(self):
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        info = core._canonical_cached.cache_info()
        self.counters["core.canonical_cache.hits"] = info.hits - self._cache0.hits
        self.counters["core.canonical_cache.misses"] = info.misses - self._cache0.misses

    def _wrap(self, span, fn, counters):
        index = len(self.names)
        self.names.append(span)
        self.calls[span] = 0
        self.self_ns[span] = 0
        for key in counters:
            self.counters[f"{span}.{key}"] = 0
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0]
            self.spans.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans[frame[0]] = (index, start, end, parent, self.request)
                self.calls[span] += 1
                self.self_ns[span] += duration - frame[1]
            for key, count in counters.items():
                self.counters[f"{span}.{key}"] += count(args, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write every span and counter as one JSON document."""
        doc = {
            "span_fields": ["name (index into names)", "start_ns", "end_ns",
                            "parent (index into spans, -1 at the top)", "request"],
            "names": self.names,
            "spans": self.spans,
            "calls": self.calls,
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
