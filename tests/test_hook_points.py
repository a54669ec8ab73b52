"""The names that the benchmark's tracer (perfbench/tracer.py) wraps by name.

The tracer counts sequence calls and misses at `SequenceHandle.__call__`
and `SequenceHandle._fresh`, lane elements at `QuadSeqFast.g_vec` and
`BohrFast.g_vec`, and the psi output check reads
`AlphaContext(alpha, 1).in_window`.  A rename would only show as zero
counts in a traced benchmark run, so the names are checked here.
"""

from fractions import Fraction

import numpy as np

from gparith import _fastlane, genpoly
from gparith.focheck import AlphaContext


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
