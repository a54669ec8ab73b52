"""The names that the benchmark's tracer (perfbench/tracer.py) wraps by name.

The tracer counts sequence calls and misses at `SequenceHandle.__call__`
and `SequenceHandle._fresh`, lane elements at `QuadSeqFast.g_vec` and
`BohrFast.g_vec`, and the psi output check reads
`AlphaContext(alpha, 1).in_window`.  A rename would only show as zero
counts in a traced benchmark run, so the names are checked here.
"""

import ast
import importlib
import inspect
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from gparith import _fastlane, genpoly
from gparith.focheck import AlphaContext

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Every "layer:name" whose calls, times or results `layer_metrics` reads.
TRACED = (
    "focheck:eval_formula", "focheck:delta_bounded", "focheck:AlphaContext.window",
    "weakmult:build_Q", "weakmult:close_pm", "weakmult:export_csv",
    "weakmult:import_csv", "weakmult:ExplicitQSet.contains", "weakmult:check_Q1",
    "weakmult:check_Q2",
    "bohr:BohrWorld.kappa", "bohr:BohrWorld.nu", "bohr:BohrWorld.mu_true_upto",
    "bohr:BohrWorld.lambda_vec",
    "harness:HarnessResult.add", "harness:emit_jsonl",
    "diosearch:calibrate_C", "diosearch:sample_admissible_triples",
    "genpoly:lemma31_classify", "genpoly:SequenceHandle.__call__",
    "genpoly:SequenceHandle._fresh",
    *(f"exactnum:AlgebraicReal.{m}" for m in
      ("enclosure", "sign", "floor", "nint", "frac_signed", "circle_norm")),
    *(f"_fastlane:FastConst.{m}" for m in
      ("frac_scaled", "nint_frac_vec", "frac_vec_filter")),
    "_fastlane:QuadSeqFast.g_vec", "_fastlane:QuadSeqFast.g_range",
    *(f"_fastlane:BohrFast.{m}" for m in ("g_vec", "g_range", "g_scalar")),
)
# Exact fallbacks that `FastConst.__init__` sets on each instance.
INSTANCE_ATTRS = ("_fastlane:FastConst.exact_nint", "_fastlane:FastConst.exact_frac")
# Lane methods the tracer still lists but which no longer exist (it skips
# them); they can leave its lane set with the next change to the benchmark.
STALE = ("_fastlane:FastConst.nint_vec_exact", "_fastlane:QuadSeqFast.nint_alpha",
         "_fastlane:QuadSeqFast.frac_alpha_filter",
         "_fastlane:BohrFast.norm_alpha_sq_filter")


def test_scalar_misses_pass_through_the_memo_base(alpha, sqrt2, monkeypatch):
    ctx = AlphaContext(alpha, 1)
    assert isinstance(ctx.g, genpoly.SequenceHandle)
    assert ctx.in_window(5, 30) in (True, False)
    misses = []
    fresh = genpoly.SequenceHandle._fresh

    def counted(self, n):
        misses.append(n)
        return fresh(self, n)

    monkeypatch.setattr(genpoly.SequenceHandle, "_fresh", counted)
    assert [ctx.g(6), ctx.g(6), ctx.g(5)] == [48, 48, 30]
    assert misses == [6, 5]
    bohr = _fastlane.BohrFast(sqrt2, Fraction(1, 5))
    assert [bohr(1), bohr(1), bohr(0)] == [0, 0, 1]
    assert misses == [6, 5, 1, 0]
    # the tracer wraps the methods where the base class defines them
    for cls in (_fastlane.QuadSeqFast, _fastlane.BohrFast):
        assert "__call__" not in vars(cls) and "_fresh" not in vars(cls)


def test_lane_entry_points_exist(alpha, sqrt2):
    ns = np.arange(1, 4, dtype=np.int64)
    assert list(_fastlane.QuadSeqFast(alpha, 1).g_vec(ns)) == [1, 6, 12]
    assert list(_fastlane.BohrFast(sqrt2, Fraction(1, 5)).g_vec(ns)) == [0, 0, 0]


def _defined(name: str) -> bool:
    """Does the tracer find `name`: a function defined in its module, or in
    the class body itself (inherited methods are not wrapped)?"""
    layer, qual = name.split(":")
    mod = importlib.import_module(f"gparith.{layer}")
    owner, _, attr = qual.rpartition(".")
    fn = vars(getattr(mod, owner, object)).get(attr) if owner else vars(mod).get(attr)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_traced_names_exist():
    assert [name for name in TRACED if not _defined(name)] == []
    fast = vars(_fastlane.FastConst(Fraction(1, 3)))
    assert all(callable(fast.get(name.rpartition(".")[2])) for name in INSTANCE_ATTRS)


def test_every_tracer_name_is_checked():
    names = {node.value for node in ast.walk(ast.parse(TRACER.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and re.fullmatch(r"_?[a-z]+:[\w.]*\w", node.value)}
    assert names and names <= set(TRACED) | set(INSTANCE_ATTRS) | set(STALE)
    assert not any(map(_defined, STALE))
