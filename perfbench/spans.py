"""Per-layer spans for the traced run.

The benchmark wraps sftkit's public functions from the outside; nothing in
``src/`` changes.  A wrapper replaces the function on its class, or, for a
module-level function, in every sftkit module that bound it by name.

Each span name ``<module>.<function>`` collects ``calls``, ``total_s``
(time inside its outermost activations) and ``self_s`` (its time minus the
time of the child spans it opened).  A call that re-enters a span already
open, such as ``coboundary`` calling ``-`` inside ``cylinders.arith``, is
counted but opens no new span.  Some spans carry one more count:

* ``distinct``: distinct arguments, the most a cache could save;
* ``need_depth``: calls that raised ``NeedDepth`` (a depth retry);
* ``negative``: negative-cycle verdicts.

Spans are recorded only while ``Tracer.on`` is set, i.e. inside the timed
operations, not during the correctness checks between them.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attributes of that module, extra count)
LAYERS = [
    ("points.EvPerPoint.make", "points", ["EvPerPoint.make"], "distinct"),
    ("points.BiPoint.make", "points", ["BiPoint.make"], "distinct"),
    ("points.BiPoint.tail", "points", ["BiPoint.tail"], "distinct"),
    ("points.BiPoint.shift", "points", ["BiPoint.shift"], None),
    ("presentation.Presentation.is_admissible", "presentation",
     ["Presentation.is_admissible"], None),
    ("presentation.Presentation.cycles", "presentation",
     ["Presentation.cycles"], None),
    ("presentation.Presentation.language", "presentation",
     ["Presentation.language"], None),
    ("cylinders.CylinderFunction.__call__", "cylinders",
     ["CylinderFunction.__call__"], None),
    ("cylinders.orbit_sum", "cylinders", ["orbit_sum"], None),
    ("cylinders.arith", "cylinders",
     ["CylinderFunction." + m for m in ("__add__", "__sub__", "__eq__",
                                        "refine", "pullback", "coboundary")],
     None),
    ("suspension.bold_varphi", "suspension", ["bold_varphi"], "distinct"),
    ("suspension.m_eval", "suspension", ["m_eval"], None),
    ("suspension.r_eval", "suspension", ["r_eval"], None),
    ("suspension.i_index", "suspension", ["i_index"], None),
    ("suspension.j_index", "suspension", ["j_index"], None),
    ("suspension.verify_flow_claims", "suspension", ["verify_flow_claims"],
     None),
    ("suspension.FlowMapData.__init__", "suspension", ["FlowMapData.__init__"],
     None),
    ("maps.PointMap.apply", "maps", ["PointMap.apply"], None),
    ("maps.image_form", "maps", ["image_form"], None),
    ("maps.minimal_cocycle_on_cylinder", "maps",
     ["minimal_cocycle_on_cylinder"], "need_depth"),
    ("maps.verify_cocycle_on_cylinder", "maps",
     ["verify_cocycle_on_cylinder"], "need_depth"),
    ("orbit.OrbitEquivalence.__init__", "orbit",
     ["OrbitEquivalence.__init__"], None),
    ("orbit.derive_cocycle_pair", "orbit", ["derive_cocycle_pair"], None),
    ("orbit.verify_coe", "orbit", ["verify_coe"], None),
    ("orbit.check_least_period_preserving", "orbit",
     ["check_least_period_preserving"], None),
    ("orbit.coe_to_flow_pipeline", "orbit", ["coe_to_flow_pipeline"], None),
    ("cohomology.transition_graph", "cohomology", ["transition_graph"], None),
    ("cohomology.find_potential", "cohomology", ["find_potential"],
     "negative"),
    ("cohomology.class_is_positive", "cohomology", ["class_is_positive"],
     None),
    ("cohomology.solve_coboundary", "cohomology", ["solve_coboundary"], None),
    ("cohomology.decompose_positive", "cohomology", ["decompose_positive"],
     None),
    ("io.read_orbit_equivalence", "io", ["read_orbit_equivalence"], None),
    ("cli.main", "cli", ["main"], None),
]

STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name, _, _, extra in LAYERS:
        out += [(f"{name}.{stat}", unit) for stat, unit in STATS]
        if extra:
            out.append((f"{name}.{extra}", "count"))
    return out + [("trace_overhead_ratio", "ratio")]


class Span:
    __slots__ = ("calls", "self_s", "total_s", "open", "extra", "seen")

    def __init__(self):
        self.calls = 0
        self.self_s = self.total_s = 0.0
        self.open = False
        self.extra = 0
        self.seen = set()


class Tracer:
    def __init__(self, sk):
        self.sk = sk
        self.on = False
        self.spans = {name: Span() for name, _, _, _ in LAYERS}
        self._stack = []   # child time of each open span
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, extra):
        span, stack = self.spans[name], self._stack
        key = self._distinct_key(name) if extra == "distinct" else None
        need_depth = self.sk.errors.NeedDepth
        negative = self.sk.cohomology.NegativeCycleWitness

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span.calls += 1
            if key is not None:
                span.seen.add(key(*args, **kwargs))
            if span.open:
                return fn(*args, **kwargs)
            span.open = True
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except need_depth:
                if extra == "need_depth":
                    span.extra += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                span.open = False
                span.total_s += dt
                span.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if extra == "negative" and isinstance(result, negative):
                span.extra += 1
            return result

        return wrapper

    def _distinct_key(self, name):
        word = self.sk.presentation.word
        return {
            "points.EvPerPoint.make":
                lambda P, prefix, cycle: (P, word(prefix), word(cycle)),
            "points.BiPoint.make":
                lambda P, lc, mid, rc, phase=0:
                    (P, word(lc), word(mid), word(rc), phase),
            "points.BiPoint.tail": lambda bx, i: (bx, i),
            "suspension.bold_varphi": lambda D, bx: (D, bx),
        }[name]

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "sftkit" or n.startswith("sftkit.")]
        for name, module, attrs, extra in LAYERS:
            mod = sys.modules[f"sftkit.{module}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    w = self._wrap(name, fn, extra)
                    setattr(cls, meth, staticmethod(w) if static else w)
                    self._undo.append((cls, meth, raw))
                    continue
                fn = getattr(mod, attr)
                w = self._wrap(name, fn, extra)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, w)
                            self._undo.append((m, k, fn))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- report ----------------------------------------------------------

    def metrics(self):
        out = {}
        for name, _, _, extra in LAYERS:
            s = self.spans[name]
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.total_s"] = s.total_s
            if extra == "distinct":
                out[f"{name}.distinct"] = len(s.seen)
            elif extra:
                out[f"{name}.{extra}"] = s.extra
        return out
