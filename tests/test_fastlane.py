"""The certified numpy lanes against the exact backend, the int64 guard
that stops a lane product from wrapping silently, and the rule that only
`_fastlane` turns lane floats into candidates."""

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ast
from pathlib import Path

from gparith._fastlane import (
    BohrFast,
    FastConst,
    QuadSeqFast,
    check_int64_product,
    enclosure,
)
from gparith.diosearch import weyl_witnesses
from gparith.errors import PreconditionViolated
from gparith.exactnum import AlgebraicReal, NumberField, circle_norm, floor_exact, sign
from gparith.focheck import ell
from gparith.harness import _max_norm
from test_exactnum import _ref_inverse

INT64_MAX = (1 << 63) - 1

FIELDS = {
    "cbrt2": ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    "sqrt2": ([-2, 0, 1], (1, 2)),
    "golden": ([-1, -1, 1], (1, 2)),
}
_THETA = {name: NumberField(*spec).theta for name, spec in FIELDS.items()}


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
            next(weyl_witnesses([("alpha*n*n", (Fraction(-1, 100), Fraction(1, 100)))],
                                start, start + 1001, {"alpha": alpha}))

    def test_lane_margin_holds_at_int64_min(self, alpha):
        # np.abs keeps -2^63 negative in int64; the margin must not
        k = np.array([-(1 << 63)], dtype=np.int64)
        lane = FastConst(alpha)
        assert lane.frac_vec_filter(k)[1][0] > 0.5
        exact = lane.exact_frac(-(1 << 63))
        assert (exact + Fraction(12, 100)).sign() < 0
        assert not lane.within(k, Fraction(-1, 100), Fraction(1, 100))[0]
        assert lane.extremes(k) == (exact, exact)
        with pytest.raises(ValueError):
            lane.nint_frac_vec(k)

    def test_quadratic_lane_refuses_a_beta_outside_int64(self, alpha):
        fast = QuadSeqFast(alpha, 2**70)
        assert fast.g_scalar(0) == 0
        with pytest.raises(ValueError):
            fast.g_vec(np.array([0], dtype=np.int64))

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


@pytest.mark.parametrize("beta", ["1/3", "cbrt4"])
def test_quadratic_lane_is_exact_past_the_float_range(alpha, beta):
    # from n = 10^8, beta*n*nint(alpha*n) is past 2^51; the lane answers up
    # to the largest n whose g and product n*nint(alpha*n) fit in int64
    beta = Fraction(1, 3) if beta == "1/3" else \
        NumberField([-4, 0, 0, 1], (Fraction(3, 2), Fraction(8, 5))).theta
    fast = QuadSeqFast(alpha, beta)

    def fits(n):
        return max(abs(n * fast.const.exact_nint(n)), abs(fast.g_scalar(n))) <= INT64_MAX

    top, hi = 10**8, 1 << 32
    while top < hi:
        mid = (top + hi + 1) // 2
        top, hi = (mid, hi) if fits(mid) else (top, mid - 1)
    ns = [10**8 + i for i in range(100)] + [-(10**8) - 1, 10**9, -(10**9), top, -top]
    assert [int(v) for v in fast.g_vec(np.array(ns, dtype=np.int64))] == \
        [fast.g_scalar(n) for n in ns]
    with pytest.raises(ValueError):
        fast.g_vec(np.array([10**8, top + 1], dtype=np.int64))


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
    # frac(k/3) ties at 1/3 on k = 1, 4, 7, ... and at -1/3 on k = 2, 5, ...;
    # within the lane error every tied index may be the extreme, and an
    # entry on a threshold is outside the open interval
    lane = FastConst(Fraction(1, 3))
    ks = np.arange(1, 41, dtype=np.int64)
    assert lane.extremes(ks) == (Fraction(-1, 3), Fraction(1, 3))
    assert list(lane.within(ks, Fraction(-1, 3), Fraction(1, 3))) == \
        [k % 3 == 0 for k in range(1, 41)]


def test_extremes_keep_the_exact_minimiser():
    # the float minimiser carries a larger margin than the exact one (k = 2)
    eps = Fraction(1, 2**70)
    lane = FastConst(Fraction(1, 3) + eps)
    ks = np.arange(1, 300002, dtype=np.int64)
    assert lane.extremes(ks) == (Fraction(-1, 3) + 2 * eps, Fraction(1, 3) + 300001 * eps)


def test_max_norm_is_the_exact_maximum():
    # the float norms of k = 1 and k = 4 tie; the exact maximum is at k = 4
    c = Fraction(1, 3) + Fraction(1, 2**62)
    assert _max_norm(FastConst(c), np.arange(1, 5, dtype=np.int64)) == \
        Fraction(1, 3) + Fraction(4, 2**62)


_FUZZ_SPECS = [
    ([-2, 0, 1], (1, 2)),
    ([-3, 0, 1], (1, 2)),
    ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    ([-2, 0, 0, 0, 1], (1, Fraction(3, 2))),
    ([-1, -1, 1], (1, 2)),
]
_FUZZ_FIELDS = [NumberField(*spec).theta for spec in _FUZZ_SPECS]


def _elements(K, bound):
    coeff = st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 50))
    return st.lists(coeff, min_size=K.degree, max_size=K.degree).map(K.element)


@settings(max_examples=200, deadline=None)
@given(theta=st.sampled_from(_FUZZ_FIELDS), data=st.data())
def test_within_and_extremes_are_certified(theta, data):
    K = theta.field
    const = data.draw(st.one_of(
        _elements(K, 10**4),
        st.fractions(max_denominator=1 << 40).filter(lambda q: abs(q) < 10**4)))
    lane = FastConst(const)
    # the int64 ends carry a lane error near 1/2, so every entry is open
    ks = data.draw(st.lists(st.one_of(st.integers(-(1 << 45), 1 << 45),
                                      st.sampled_from([-(1 << 63), INT64_MAX])),
                            min_size=1, max_size=12))
    exact = [lane.exact_frac(k) for k in ks]
    # |t| < 1: random Fractions and field elements, or exact lane values
    thresholds = st.one_of(st.fractions(-1, 1, max_denominator=1 << 60).filter(
                               lambda q: abs(q) < 1),
                           _elements(K, 10**3).map(lambda x: x.frac_signed()),
                           st.sampled_from(exact))
    lo, hi = sorted((data.draw(thresholds) for _ in range(2)), key=float)
    mask = lane.within(np.array(ks, dtype=np.int64), lo, hi)
    assert list(mask) == [sign(v - lo) > 0 and sign(hi - v) > 0 for v in exact]
    assert lane.extremes(np.array(ks, dtype=np.int64)) == (min(exact), max(exact))


def _far(const):
    """Strategy of int64 k with |const*k| from 2^50 to just under 2^63
    (clipped to int64 where |const| < 1)."""
    return st.builds(lambda t, s: s * min(int(t / float(const)), INT64_MAX),
                     st.integers(1 << 50, (1 << 63) - 1), st.sampled_from([1, -1]))


@settings(max_examples=200, deadline=None)
@given(const=st.sampled_from(_FUZZ_FIELDS + [Fraction(1, 3), Fraction(1, 2)]),
       data=st.data())
def test_nint_is_exact_past_the_float_range(const, data):
    # small entries beside far ones; k/2 ties at every odd k
    lane = FastConst(const)
    ks = data.draw(st.lists(st.one_of(st.integers(-(1 << 20), 1 << 20), _far(const)),
                            min_size=1, max_size=12))
    exact = [lane.exact_nint(k) for k in ks]
    if all(-INT64_MAX - 1 <= v <= INT64_MAX for v in exact):
        assert lane.nint_frac_vec(np.array(ks, dtype=np.int64)).tolist() == exact
    else:
        with pytest.raises(ValueError):
            lane.nint_frac_vec(np.array(ks, dtype=np.int64))


def test_nint_float_recovery_is_exact_below_2_51():
    # const*k is just below 2^51 and k is past 2^53, so float64 rounds k,
    # const and their product: the float recovery is off by one here
    const = Fraction(50107519672981, 262420876852096)
    k = 10945835946526297
    assert FastConst(const).nint_frac_vec(np.array([k], dtype=np.int64)).tolist() == \
        [2090034514810777] == [floor_exact(const * k + Fraction(1, 2))]


def _exact_bin(lane, k, grid):
    return floor_exact((lane.exact_frac(k) + Fraction(1, 2)) * grid)


@settings(max_examples=200, deadline=None)
@given(theta=st.sampled_from(_FUZZ_FIELDS), data=st.data())
def test_bins_are_exact(theta, data):
    const = data.draw(st.one_of(
        _elements(theta.field, 10**4),
        st.fractions(max_denominator=1 << 40).filter(lambda q: abs(q) < 10**4)))
    lane = FastConst(const)
    ks = data.draw(st.lists(st.one_of(st.integers(-(1 << 45), 1 << 45),
                                      st.sampled_from([-(1 << 63), INT64_MAX])),
                            min_size=1, max_size=12))
    grid = data.draw(st.integers(1, 50))
    got = lane.bins(np.array(ks, dtype=np.int64), grid)
    assert got.dtype == np.int64
    assert list(got) == [_exact_bin(lane, k, grid) for k in ks]


@pytest.mark.parametrize("const,grids", [(Fraction(1, 20), (2, 4, 5, 10, 20, 40)),
                                         (Fraction(1, 10), (2, 5, 10, 20))])
def test_bins_on_the_edges_are_exact(const, grids):
    # frac_signed(k/20) and frac_signed(k/10) fall on bin edges, and the lane
    # error grows with |k| up to 2^-18; -3083135/10 sits at the wrap
    den = const.denominator
    ks = [den * m + r for m in (0, 1, -7, 10**6, -(2**38), 2**40) for r in range(den)]
    ks.append(-3083135)
    lane = FastConst(const)
    for grid in grids:
        got = lane.bins(np.array(ks, dtype=np.int64), grid)
        assert list(got) == [_exact_bin(lane, k, grid) for k in ks]


def test_entries_at_the_wrap_are_decided_exactly():
    # k/10 = -308313.5: the lane reads +1/2, and frac_signed is -1/2
    lane = FastConst(Fraction(1, 10))
    ks = np.array([0, -3083135], dtype=np.int64)
    assert list(lane.within(ks, 0, Fraction(2, 3))) == [False, False]
    assert list(lane.within(ks, Fraction(-2, 3), 0)) == [False, True]
    assert lane.extremes(ks) == (Fraction(-1, 2), 0)
    assert list(lane.bins(ks, 10)) == [5, 0]


def _exact_half_inverse_norm(lane, k, cap):
    """min(cap, floor(1/(2*norm(const*k)))), through the reference inverse."""
    return min(cap, floor_exact(_ref_inverse(2 * circle_norm(lane.value * k))))


@pytest.mark.parametrize("name", ["cbrt2", "sqrt2"])
def test_half_inverse_norm_is_ell_over_k(name):
    # every m <= 2*10^5 with norm(alpha*m) < 1/6, where ell(m)/m >= 3
    alpha = _THETA[name]
    lane = FastConst(alpha)
    ms = np.arange(1, 200_001, dtype=np.int64)
    ms = ms[lane.within(ms, Fraction(-1, 6), Fraction(1, 6))]
    want = np.array([ell(m, alpha) // m for m in ms.tolist()])
    for cap in (3, 1000, INT64_MAX):
        got = lane.half_inverse_norm(ms, cap)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.minimum(want, cap)), cap


@settings(max_examples=200, deadline=None)
@given(theta=st.sampled_from(_FUZZ_FIELDS), data=st.data())
def test_half_inverse_norm_is_exact(theta, data):
    const = data.draw(st.one_of(
        _elements(theta.field, 10**4),
        st.fractions(max_denominator=1 << 40).filter(lambda q: abs(q) < 10**4)))
    lane = FastConst(const)
    ks = data.draw(st.lists(st.one_of(st.integers(-(1 << 45), 1 << 45),
                                      st.sampled_from([-(1 << 63), INT64_MAX])),
                            min_size=1, max_size=12))
    cap = data.draw(st.integers(1, 1000))
    k = np.array(ks, dtype=np.int64)
    if any(sign(lane.exact_frac(x)) == 0 for x in ks):
        with pytest.raises(PreconditionViolated):
            lane.half_inverse_norm(k, cap)
    else:
        got = lane.half_inverse_norm(k, cap)
        assert got.dtype == np.int64
        assert list(got) == [_exact_half_inverse_norm(lane, x, cap) for x in ks]


@pytest.mark.parametrize("const", [Fraction(1, 10), Fraction(1, 6)])
def test_half_inverse_norm_at_exact_integers(const):
    # 1/(2*norm(k/10)) is exactly 5 at k = +-1 mod 10 (and 1 at 5 mod 10, on
    # the wrap), 1/(2*norm(k/6)) exactly 3 at k = +-1 mod 6: the two lane
    # bounds straddle those integers, and the lane error grows with |k|
    den = const.denominator
    lane = FastConst(const)
    ks = [den * m + r for m in (0, 1, -7, 10**6, -(2**38), 2**40) for r in range(1, den)]
    for cap in (1, 2, 3, 4, 5, 6, 1000):
        got = lane.half_inverse_norm(np.array(ks, dtype=np.int64), cap)
        assert list(got) == [_exact_half_inverse_norm(lane, k, cap) for k in ks], cap
    assert lane.half_inverse_norm(np.array([1, -1], dtype=np.int64), 1000).tolist() == \
        [den // 2] * 2


@pytest.mark.parametrize("const,k", [(Fraction(1, 10), 10), (Fraction(1, 6), -(6 << 40)),
                                     (Fraction(7, 3), 3), (_THETA["sqrt2"], 0),
                                     (_THETA["sqrt2"].field.element([Fraction(3, 2), 0]), 2)])
def test_half_inverse_norm_of_an_integer_raises(const, k):
    with pytest.raises(PreconditionViolated):
        FastConst(const).half_inverse_norm(np.array([1, k], dtype=np.int64), 5)


_FLOAT_LANES = {"frac_vec_filter", "frac_scaled"}
_FLOAT_READERS: set[tuple[str, str]] = set()
# readers of a FastConst's float `f64`: the push-forward samples of
# `verify 3.4` are Monte Carlo floats by design
_F64_READERS = {("diosearch", "equidist_check")}


def _readers(node, attrs, fn="<module>"):
    """Names of the functions under `node` that read an attribute in `attrs`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        fn = node.name
    found = {fn} if isinstance(node, ast.Attribute) and node.attr in attrs else set()
    for child in ast.iter_child_nodes(node):
        found |= _readers(child, attrs, fn)
    return found


def _src_readers(attrs, skip="_fastlane"):
    """(module, function) of every reader of `attrs` in src outside `skip`."""
    src = Path(__file__).resolve().parents[1] / "src" / "gparith"
    return {(path.stem, fn)
            for path in sorted(src.glob("*.py")) if path.stem != skip
            for fn in _readers(ast.parse(path.read_text(encoding="utf-8")), attrs)}


def test_only_fastlane_reads_lane_floats():
    assert _src_readers(_FLOAT_LANES) == _FLOAT_READERS


def test_only_fastlane_reads_a_constant_float():
    # so no caller re-decides the range in which a lane answer is exact
    assert _src_readers({"f64"}) == _F64_READERS


def test_only_the_sequence_table_reads_a_range_of_g():
    # so `SequenceHandle.table` is the one dense prefix of a sequence
    assert _src_readers({"g_range"}, skip=None) == {("genpoly", "table")}


def test_one_reader_of_second_differences_over_the_table():
    # bohr's four readers of g and `lemma32_witnesses`, the one reader of
    # second differences: a second one would read the table too
    assert _src_readers({"table"}, skip=None) == {
        ("bohr", "g"), ("bohr", "mu"), ("bohr", "mu_true_upto"), ("bohr", "_kappa_table"),
        ("diosearch", "lemma32_witnesses")}


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(_FUZZ_SPECS), data=st.data())
def test_scalar_nint_matches_the_field(spec, data):
    # a fresh field per example, so no earlier refinement of theta makes
    # the lane's enclosure finer than the one it asks for
    K = NumberField(*spec)
    const = data.draw(st.one_of(
        _elements(K, 10**4),
        st.fractions(max_denominator=1 << 40).filter(lambda q: abs(q) < 10**4)))
    lane = FastConst(const)
    small = st.one_of(st.just(0), st.integers(-(1 << 59), (1 << 60) - 1),
                      st.sampled_from([-(1 << 63), INT64_MAX]))
    huge = st.builds(lambda t, s: s * t, st.integers(1 << 190, 1 << 200),
                     st.sampled_from([1, -1]))
    ks = data.draw(st.lists(st.one_of(small, huge), min_size=1, max_size=12))
    irrational = isinstance(const, AlgebraicReal) and not const.is_rational()
    for k in ks:
        # count the field decisions made inside the lane
        with mock.patch.object(AlgebraicReal, "nint", autospec=True,
                               side_effect=AlgebraicReal.nint) as field:
            got = lane.exact_nint(k)
        assert got == ((const * k).nint() if isinstance(const, AlgebraicReal)
                       else floor_exact(const * k + Fraction(1, 2)))
        # the enclosure (width at most 2^-128) decides every |k| < 2^60 and
        # no |k| >= 2^190 of an irrational constant
        assert field.call_count == (irrational and abs(k) >= 1 << 190)


def test_scalar_window_test_is_strict_at_exact_ends():
    # rational constants have exact enclosures, so a threshold equal to
    # frac_signed(const*k) must be decided by the strict integer test
    for const in (Fraction(1, 3), Fraction(-7, 10), Fraction(5, 8)):
        lane = FastConst(const)
        for k in [0, 1, 2, 3, 5, -1, -4, -(1 << 63), INT64_MAX, 1 << 90, -(1 << 90) - 1]:
            f = lane.exact_frac(k)
            for lo, hi in ((f, Fraction(1, 2)), (Fraction(-1, 2), f), (f, f),
                           (f - Fraction(1, 10**9), f + Fraction(1, 10**9))):
                ends = (enclosure(lo), enclosure(hi))
                assert lane.within_scalar(k, lo, hi, ends) == (lo < f < hi)


def test_scalar_window_test_inside_a_wide_enclosure():
    # at |k| near 2^100 the enclosure of frac_signed(alpha*k) is about 2^-30
    # wide; thresholds 2^-60 from the exact value lie inside it, and either
    # side must still be decided exactly, for k of both signs
    tiny = Fraction(1, 1 << 60)
    for name in ("cbrt2", "sqrt2", "golden"):
        lane = FastConst(_THETA[name])
        for k in [s * ((1 << 100) + j) for j in range(8) for s in (1, -1)]:
            f = lane.exact_frac(k)
            f_lo, f_hi = f.enclosure(200)
            below, above = f_lo - tiny, f_hi + tiny
            for lo, hi in ((below, above), (above, Fraction(1, 2)),
                           (Fraction(-1, 2), below), (below, Fraction(1, 2))):
                ends = (enclosure(lo), enclosure(hi))
                assert lane.within_scalar(k, lo, hi, ends) == \
                    (sign(f - lo) > 0 and sign(hi - f) > 0)


@pytest.mark.parametrize("beta, sign", [(1, 1), (1, -1), (Fraction(1, 3), 1)])
def test_a_block_past_int64_is_refused_before_the_lane(alpha, beta, sign):
    # from n = 2^52, n*nint(alpha*n) is past 2^104: the block is refused on
    # the bound |nint(alpha*n)| >= |alpha|*|n| - 1/2, with no exact decision
    fast = QuadSeqFast(alpha, beta)
    ns = sign * np.arange(1 << 52, (1 << 52) + 2000, dtype=np.int64)

    def exact(*args):
        raise AssertionError("exact work")

    fast.const.exact_nint = fast.const.exact_frac = exact
    with mock.patch.object(AlgebraicReal, "nint", side_effect=exact), \
            mock.patch.object(AlgebraicReal, "scaled_enclosure", side_effect=exact), \
            pytest.raises(ValueError):
        fast.g_vec(ns)
