"""Span tracer for the gparith layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of each layer
module (plus the arithmetic and comparison operators of the exact core) and
rebinds every module attribute that still names an original, because
gparith modules import functions by name (`harness` binds `build_Q`,
`diosearch` binds `lemma31_classify`, `cli` binds `import_csv`, ...).  A
layer whose functions were wrapped only in their home module would read
zero.  `uninstall()` restores the originals.

Each wrapped call pushes a frame; a layer's self time is its frames'
durations minus the time of their child frames.  A span (name, start, end,
parent span) is kept for every call that crosses a layer boundary; calls
inside one layer only add to counts and self time.  Requests run on one
thread (the default config has `threads = 1`), so one stack suffices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("exactnum", "_fastlane", "genpoly", "focheck", "diosearch",
          "weakmult", "bohr", "harness", "cli")

# Operators of the exact core: Fraction arithmetic done on behalf of an
# AlgebraicReal belongs to that layer's self time.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__float__",
}

# Private methods that are traced too: a sequence handle is called through
# `__call__`, and its cache misses go through `_fresh`.
_PRIVATE = {"genpoly:SequenceHandle.__call__", "genpoly:SequenceHandle._fresh"}

# Calls attributed to another layer than their home module: emitting the
# JSONL report is the CLI's output stage.
_LAYER_OF = {"harness:emit_jsonl": "cli"}

# Exact decisions.  A decision reached through another one (`nint` calls
# `floor`) or through an operator (`a < b` and `abs(a)` call `sign`) is
# counted once, at its outermost decision call.
DECISIONS = tuple(f"exactnum:AlgebraicReal.{m}" for m in
                  ("sign", "floor", "nint", "frac_signed", "circle_norm"))

# Inclusive-time groups: outermost calls only, so nesting and recursion
# inside a group are not counted twice.
_GROUP_OF = {
    "bohr:BohrWorld.mu_true_upto": "bohr.table",
    "bohr:BohrWorld.lambda_vec": "bohr.table",
    "weakmult:check_Q1": "weakmult.check",
    "weakmult:check_Q2": "weakmult.check",
    **{d: "exactnum.decision" for d in DECISIONS},
}

# Functions whose outermost calls `layer_metrics` reads from `group_s` and
# `group_calls`; they always get a frame (see _FRAMED).
_TIMED = set(_GROUP_OF) | {
    "genpoly:SequenceHandle._fresh", "focheck:eval_formula", "weakmult:build_Q",
    "weakmult:close_pm", "weakmult:export_csv", "weakmult:import_csv",
    "weakmult:ExplicitQSet.contains", "harness:emit_jsonl",
}

# Lane entry points; elements are counted at the outermost lane call.
_VECTOR = {
    "_fastlane:FastConst.frac_scaled", "_fastlane:FastConst.nint_frac_vec",
    "_fastlane:FastConst.nint_vec_exact", "_fastlane:FastConst.frac_vec_filter",
    "_fastlane:QuadSeqFast.nint_alpha", "_fastlane:QuadSeqFast.g_vec",
    "_fastlane:QuadSeqFast.frac_alpha_filter",
    "_fastlane:BohrFast.norm_alpha_sq_filter", "_fastlane:BohrFast.g_vec",
}
_RANGES = {"_fastlane:QuadSeqFast.g_range", "_fastlane:BohrFast.g_range"}
# Exact evaluations that are lane fallbacks when a lane method calls them.
_FALLBACKS = {"_fastlane:FastConst.exact_nint", "_fastlane:FastConst.exact_frac",
              "_fastlane:BohrFast.g_scalar"}
_FALLBACK_PARENTS = {"_fastlane:FastConst.nint_frac_vec",
                     "_fastlane:BohrFast.g_vec"}
# Counts that add up the size of a call's result.
_RESULT_SIZE = {"diosearch:sample_admissible_triples": "calibration_triples",
                "weakmult:build_Q": "quadruples", "weakmult:close_pm": "closure_size"}

# A call made from inside its own layer gets no frame (its time stays with
# the enclosing frame of that layer, so self times are unchanged), except
# for these, whose own time or identity as a parent is needed.
_FRAMED = _TIMED | _FALLBACK_PARENTS | {"diosearch:calibrate_C"}


class Tracer:
    def __init__(self) -> None:
        # frame: [layer, name, group, start, child_s, span_index]
        self.stack: list[list] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.group_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open_groups: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop every span and count (between traced passes)."""
        for store in (self.stack, self.spans, self.calls, self.group_calls,
                      self.group_s, self.self_s, self.counts, self._open_groups):
            store.clear()

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str, name: str, group: str) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is None or parent[0] != layer:
            span = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent[5] if parent else -1))
        else:
            span = parent[5]
        frame = [layer, name, group, 0.0, 0.0, span]
        self._open_groups[group] += 1
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[3]
        layer, name, group = frame[0], frame[1], frame[2]
        self.self_s[layer] += dur - frame[4]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += dur
        if parent is None or parent[0] != layer:
            i = frame[5]
            self.spans[i] = (name, frame[3], end, self.spans[i][3])
        self._open_groups[group] -= 1
        if self._open_groups[group] == 0:
            self.group_calls[group] += 1
            self.group_s[group] += dur
        return dur

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself (one per request)."""
        self.calls[name] += 1
        frame = self._enter(layer, name, name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        layer = _LAYER_OF.get(name, name.split(":", 1)[0])
        group = _GROUP_OF.get(name, name)
        hook = self._hook_for(name)
        framed = name in _FRAMED
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            parent = tracer.stack[-1] if tracer.stack else None
            if not framed and parent is not None and parent[0] == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(parent, args, result)
                return result
            frame = tracer._enter(layer, name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(parent, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _hook_for(self, name: str):
        """Counter update run after a call, as hook(parent_frame, args, result)."""
        c = self.counts
        if name in _VECTOR or name in _RANGES:
            def elements(parent, args, result):
                if parent is None or parent[0] != "_fastlane":
                    c["lane_elements"] += (args[2] - args[1] + 1 if name in _RANGES
                                           else len(args[1]))
            return elements
        if name in _FALLBACKS:
            def fallback(parent, args, result):
                if parent is not None and parent[1] in _FALLBACK_PARENTS:
                    c["lane_fallbacks"] += 1
            return fallback
        if name in _RESULT_SIZE:
            key = _RESULT_SIZE[name]

            def size(parent, args, result):
                c[key] += len(result)
            return size
        if name == "genpoly:lemma31_classify":
            def classify(parent, args, result):
                if parent is not None and parent[1] == "diosearch:calibrate_C":
                    c["calibration_classifies"] += 1
            return classify
        if name == "weakmult:export_csv":
            def csv_bytes(parent, args, result):
                if isinstance(args[1], str):
                    c["csv_bytes"] += os.path.getsize(args[1])
            return csv_bytes
        if name == "exactnum:AlgebraicReal.enclosure":
            def precision(parent, args, result):
                c["max_prec_bits"] = max(c["max_prec_bits"], int(args[1]))
            return precision
        return None

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"gparith.{layer}")
                   for layer in LAYERS}
        replacement: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    replacement[id(obj)] = (obj, self._wrap(obj, f"{layer}:{attr}"))
        # rebind every name bound to an original, in every gparith module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gparith" or mod_name.startswith("gparith.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if not attr.startswith("_") or attr in _OPERATORS or name in _PRIVATE:
                self._originals.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(obj, name))
        if layer == "_fastlane" and cls.__name__ == "FastConst":
            self._wrap_fastconst_init(cls)

    def _wrap_fastconst_init(self, cls: type) -> None:
        """FastConst keeps its exact fallbacks as per-instance lambdas."""
        original = cls.__init__
        tracer = self

        def __init__(inst, value):
            original(inst, value)
            inst.exact_nint = tracer._wrap(inst.exact_nint,
                                           "_fastlane:FastConst.exact_nint")
            inst.exact_frac = tracer._wrap(inst.exact_frac,
                                           "_fastlane:FastConst.exact_frac")

        self._originals.append((cls, "__init__", original))
        cls.__init__ = __init__

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    def wrapped_names(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._originals]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, counts, group_s = tracer.calls, tracer.counts, tracer.group_s
    self_s = tracer.self_s
    decisions = tracer.group_calls["exactnum.decision"]
    decision_s = group_s["exactnum.decision"]
    enclosures = calls["exactnum:AlgebraicReal.enclosure"]
    elements = counts["lane_elements"]
    seq_calls = calls["genpoly:SequenceHandle.__call__"]
    misses = calls["genpoly:SequenceHandle._fresh"]
    evals = calls["focheck:eval_formula"]
    contains = calls["weakmult:ExplicitQSet.contains"]
    return {
        "exactnum.decisions": (decisions, "count"),
        "exactnum.enclosures": (enclosures, "count"),
        "exactnum.enclosures_per_decision": (_ratio(enclosures, decisions), "ratio"),
        "exactnum.max_prec_bits": (counts["max_prec_bits"], "count"),
        "exactnum.self_s": (self_s["exactnum"], "s"),
        "exactnum.us_per_decision": (1e6 * _ratio(decision_s, decisions), "us"),
        "fastlane.elements": (elements, "count"),
        "fastlane.self_s": (self_s["_fastlane"], "s"),
        "fastlane.ns_per_element": (1e9 * _ratio(self_s["_fastlane"], elements), "ns"),
        "fastlane.exact_fallbacks": (counts["lane_fallbacks"], "count"),
        "fastlane.fallback_ratio": (_ratio(counts["lane_fallbacks"], elements), "ratio"),
        "genpoly.seq_calls": (seq_calls, "count"),
        "genpoly.seq_misses": (misses, "count"),
        "genpoly.seq_hit_ratio": (1.0 - _ratio(misses, seq_calls) if seq_calls else 0.0,
                                  "ratio"),
        "genpoly.us_per_miss": (1e6 * _ratio(group_s["genpoly:SequenceHandle._fresh"],
                                             misses), "us"),
        "genpoly.classify_calls": (calls["genpoly:lemma31_classify"], "count"),
        "genpoly.self_s": (self_s["genpoly"], "s"),
        "focheck.formula_evals": (evals, "count"),
        "focheck.formula_evals_per_s": (_ratio(evals, group_s["focheck:eval_formula"]),
                                        "1/s"),
        "focheck.delta_calls": (calls["focheck:delta_bounded"], "count"),
        "focheck.window_calls": (calls["focheck:AlphaContext.window"], "count"),
        "focheck.self_s": (self_s["focheck"], "s"),
        "diosearch.classify_per_triple": (_ratio(counts["calibration_classifies"],
                                                 counts["calibration_triples"]), "ratio"),
        "diosearch.self_s": (self_s["diosearch"], "s"),
        "weakmult.quadruples": (counts["quadruples"], "count"),
        "weakmult.closure_size": (counts["closure_size"], "count"),
        "weakmult.build_s": (group_s["weakmult:build_Q"], "s"),
        "weakmult.close_s": (group_s["weakmult:close_pm"], "s"),
        "weakmult.csv_bytes": (counts["csv_bytes"], "count"),
        "weakmult.csv_write_s": (group_s["weakmult:export_csv"], "s"),
        "weakmult.csv_read_s": (group_s["weakmult:import_csv"], "s"),
        "weakmult.contains_calls": (contains, "count"),
        "weakmult.ns_per_contains": (1e9 * _ratio(group_s["weakmult:ExplicitQSet.contains"],
                                                  contains), "ns"),
        "weakmult.check_s": (group_s["weakmult.check"], "s"),
        "weakmult.self_s": (self_s["weakmult"], "s"),
        "bohr.self_s": (self_s["bohr"], "s"),
        "bohr.table_s": (group_s["bohr.table"], "s"),
        "bohr.kappa_calls": (calls["bohr:BohrWorld.kappa"], "count"),
        "bohr.nu_calls": (calls["bohr:BohrWorld.nu"], "count"),
        "harness.self_s": (self_s["harness"], "s"),
        "harness.records": (calls["harness:HarnessResult.add"], "count"),
        "cli.emit_s": (group_s["harness:emit_jsonl"], "s"),
        "cli.report_bytes": (sum(o.report_bytes for o in outcomes), "count"),
    }
