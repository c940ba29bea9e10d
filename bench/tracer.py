"""Outside-in tracer: wraps public functions of the skewcover modules from
the benchmark's side, without touching the package source.

Every wrapped call becomes a span (name, parent, start, end).  Spans stay
in memory; ``Tracer.summary()`` turns them into per-name call counts,
total time and self time (span time minus the time of its direct child
spans), plus the counters the metrics need.

Modules bind their collaborators by name (``from .field import rref``),
so replacing ``skewcover.field.rref`` alone would miss the calls made
through those names.  ``install`` therefore rebinds every module-level
name, in every loaded ``skewcover`` module, that refers to a wrapped
function.  Methods are wrapped on their class, which all references
share.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> [(module, qualified name)].  A class name wraps its
# constructor; several targets may share one span name, so that a class
# whose work is spread over its methods reports one self time.
TARGETS = {
    "field.rref": [("field", "rref")],
    "field.solve_linear": [("field", "solve_linear")],
    "field.nullspace_basis": [("field", "nullspace_basis")],
    "field.factor_poly": [("field", "factor_poly")],
    "quiver.BoundAlgebra": [("quiver", "BoundAlgebra.__init__")],
    "quiver.multiply": [("quiver", "BoundAlgebra.multiply")],
    "action.validate_action": [("action", "validate_action")],
    "action.matrix": [("action", "QuiverAction.matrix")],
    "action.apply": [("action", "QuiverAction.apply")],
    "skew.build_presentation": [("skew", "build_presentation")],
    "skew.SkewContext": [("skew", "SkewContext.__init__")],
    "skew.basic_dim": [("skew", "SkewContext.basic_dim")],
    "skew.multiply": [("skew", "SkewAlgebra.multiply")],
    "skew.dual_group_action": [("skew", "SkewPresentation.dual_group_action")],
    "rep.hom_basis": [("rep", "hom_basis")],
    "rep.end_algebra": [("rep", "end_algebra")],
    "rep.decompose": [("rep", "decompose")],
    "rep.isomorphism": [("rep", "isomorphism")],
    "rep.combine": [("rep", "combine")],
    "rep.Representation": [("rep", "Representation.__init__")],
    "rep.RadicalCalculator": [("rep", f"RadicalCalculator.{m}") for m in
                              ("__init__", "hom", "rad", "rad_dim",
                               "all_zero_at", "membership_level")],
    "rep.irr_space": [("rep", "irr_space")],
    "ar.knit_ar_quiver": [("ar", "knit_ar_quiver")],
    "ar.almost_split_sequence": [("ar", "almost_split_sequence")],
    "ar.tau_minus": [("ar", "ARToolkit.tau_minus")],
    "ar.category_rank": [("ar", "category_rank")],
    "pushdown.pushdown_module": [("pushdown", "pushdown_module")],
    "pushdown.pushdown_morphism": [("pushdown", "pushdown_morphism")],
    "pushdown.verify_semi_covering": [("pushdown", "verify_semi_covering")],
    "pushdown.decompose_pushdown": [("pushdown", "decompose_pushdown")],
    "transport.pushdown_sequence": [("transport", "pushdown_sequence")],
    "isosearch.find_algebra_isomorphism": [("isosearch",
                                            "find_algebra_isomorphism")],
    "inputfmt.parse_input": [("inputfmt", "parse_input")],
    "inputfmt.build_input": [("inputfmt", "build_input")],
    "inputfmt.serialize_presentation": [("inputfmt",
                                         "serialize_presentation")],
    "cli": [("cli", "main")],
}


class Tracer:
    """Span recorder.  Spans are tuples (name, parent index, start, end)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.maxima.clear()

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result, None)
            return result

        return wrapper

    def install(self):
        """Wrap every target and rebind the names that refer to it."""
        import skewcover  # noqa: F401 - loads every submodule
        package = {k: m for k, m in sys.modules.items()
                   if k == "skewcover" or k.startswith("skewcover.")}
        for name, targets in TARGETS.items():
            for module, qualname in targets:
                mod = package[f"skewcover.{module}"]
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
                if not owner_name:
                    for other in package.values():
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapped)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in TARGETS}
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child[i]
        return out

    def dump(self, path):
        """Write the recorded spans as JSON lines, times relative to the
        first span's start."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start_s": round(t0 - origin, 7),
                                     "end_s": round(t1 - origin, 7)}) + "\n")


# Counters observed at the same boundaries as the spans.  Each observer
# gets (tracer, call arguments, result or None, exception or None).

def _rref(tr: Tracer, args, result, exc):
    cells = int(args[1].shape[0]) * int(args[1].shape[1])
    tr.counters["field.rref.cells"] += cells
    tr.maxima["field.rref.max_cells"] = max(tr.maxima["field.rref.max_cells"],
                                            cells)


def _bound_algebra(tr: Tracer, args, result, exc):
    if exc is None:
        tr.counters["quiver.table_bytes"] += args[0].dim ** 3 * 8


def _isomorphism(tr: Tracer, args, result, exc):
    if result is not None:
        tr.counters["rep.isomorphism.found"] += 1


def _knit(tr: Tracer, args, result, exc):
    if result is not None:
        tr.counters["ar.knit.modules"] += len(result.modules)
    elif type(exc).__name__ == "CapExceededError":
        tr.counters["ar.cap_refusals"] += 1


_OBSERVERS = {
    "field.rref": _rref,
    "quiver.BoundAlgebra": _bound_algebra,
    "rep.isomorphism": _isomorphism,
    "ar.knit_ar_quiver": _knit,
}
