"""The certified numpy lanes against the exact backend, and the int64 guard
that stops a lane product from wrapping silently."""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gparith._fastlane import BohrFast, FastConst, QuadSeqFast, check_int64_product
from gparith.diosearch import SearchBudget, find_weyl_witness
from gparith.exactnum import field_create
from gparith.focheck import _extreme_indices

INT64_MAX = (1 << 63) - 1

FIELDS = {
    "cbrt2": ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    "sqrt2": ([-2, 0, 1], (1, 2)),
    "golden": ([-1, -1, 1], (1, 2)),
}
_THETA = {name: field_create(*spec).theta for name, spec in FIELDS.items()}


@lru_cache(maxsize=None)
def _quad_limit(name: str, beta: int) -> int:
    """Largest n whose exact g(n) = beta*n*nint(alpha*n) fits in int64."""
    fast = QuadSeqFast(_THETA[name], beta)
    lo, hi = 1, 1 << 33
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if abs(fast.g_scalar(mid)) <= INT64_MAX:
            lo = mid
        else:
            hi = mid - 1
    return lo


class TestInt64Guard:
    def test_quadratic_lane_raises_instead_of_wrapping(self, alpha):
        fast = QuadSeqFast(alpha, 1)
        assert fast.g_scalar(3 * 10**9) == 11339289450000000000 > INT64_MAX
        with pytest.raises(ValueError):
            fast.g_vec(np.array([3 * 10**9], dtype=np.int64))

    def test_indicator_lane_raises_instead_of_wrapping(self, sqrt2):
        fast = BohrFast(sqrt2, Fraction(1, 5))
        with pytest.raises(ValueError):
            fast.g_range(4 * 10**9, 4 * 10**9 + 199)

    def test_indicator_lane_exact_up_to_the_limit(self, sqrt2):
        fast = BohrFast(sqrt2, Fraction(1, 5))
        top = isqrt(INT64_MAX)
        got = fast.g_range(top - 9, top)
        assert [int(v) for v in got] == [fast.g_scalar(n) for n in range(top - 9, top + 1)]
        with pytest.raises(ValueError):
            fast.g_vec(np.array([top + 1], dtype=np.int64))

    def test_weyl_square_lane_raises_instead_of_wrapping(self, alpha):
        start = 4 * 10**9
        with pytest.raises(ValueError):
            find_weyl_witness([("alpha*n*n", (Fraction(-1, 100), Fraction(1, 100)))],
                              SearchBudget(max_candidate=start + 1000),
                              {"alpha": alpha}, start=start)

    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=3))
    def test_guard_is_exactly_the_int64_bound(self, factors):
        product = 1
        for f in factors:
            product *= f
        if product <= INT64_MAX:
            check_int64_product(*factors)
        else:
            with pytest.raises(ValueError):
                check_int64_product(*factors)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("beta", [1, 2, -3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quadratic_lane_matches_exact_up_to_the_guard(name, beta, data):
    fast = QuadSeqFast(_THETA[name], beta)
    limit = _quad_limit(name, beta)
    n = data.draw(st.one_of(st.integers(-limit, limit),
                            st.integers(limit - 50, limit + 50)))
    exact = fast.g_scalar(n)
    if abs(exact) <= INT64_MAX:
        assert int(fast.g_vec(np.array([n], dtype=np.int64))[0]) == exact
    else:
        with pytest.raises(ValueError):
            fast.g_vec(np.array([n], dtype=np.int64))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(n=st.integers(-isqrt(INT64_MAX), isqrt(INT64_MAX)),
       rho=st.sampled_from([Fraction(1, 5), Fraction(1, 7), Fraction(99, 400)]))
@example(n=3 * 10**9, rho=Fraction(1, 5))
def test_indicator_lane_matches_exact_up_to_the_guard(name, n, rho):
    fast = BohrFast(_THETA[name], rho)
    ns = np.array([n, n // 2, n // 1000], dtype=np.int64)
    assert [int(v) for v in fast.g_vec(ns)] == [fast.g_scalar(int(k)) for k in ns]


_MARGIN_KS = np.array(list(range(1, 2001))
                      + [s * ((1 << j) + j) for j in range(11, 46, 2) for s in (1, -1)],
                      dtype=np.int64)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("scale", [1, 2])
def test_filter_margin_bounds_the_float_frac(name, scale):
    # for small k the rounding of the int64 lane value to float64 is far
    # larger than the lane error (|k|+2)*2^-64, so the margin must cover it
    const = _THETA[name] * scale
    frac, margin = FastConst(const).frac_vec_filter(_MARGIN_KS)
    for k, f, mg in zip(_MARGIN_KS, frac, margin):
        dist = (const * int(k) - Fraction(float(f))).circle_norm()
        assert (dist - Fraction(float(mg))).sign() <= 0, int(k)


def test_window_extremes_see_every_candidate():
    fr = np.zeros(40)
    fr[20] = -1e-3
    margins = np.ones(40)
    assert 20 in _extreme_indices(fr, margins, want_min=True)
    assert set(_extreme_indices(fr, margins, want_min=False)) == set(range(40))
