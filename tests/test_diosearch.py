from fractions import Fraction
from math import floor, isqrt
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gparith._fastlane import BLOCK, QuadSeqFast
from gparith.diosearch import (
    CFExpansion,
    calibrate_C,
    continued_fraction,
    equidist_check,
    find_progression_base,
    find_small_norm,
    find_weyl_witness,
    lemma32_scan,
    weyl_witnesses,
    _FIRST_WINDOW,
)
from gparith.errors import (
    NotFoundWithinBudget,
    PreconditionViolated,
    RationalInput,
    ThetaRational,
)
from gparith.exactnum import AlgebraicReal, circle_norm, field_create
from gparith.genpoly import SequenceHandle, delta_sym_iter
from test_exactnum import FUZZ_FIELDS, _ref_inverse

mp.mp.dps = 50


def continued_fraction_reference(x: AlgebraicReal, k: int) -> CFExpansion:
    """First k partial quotients via exact floor and the reference inverse.

    Rational inputs yield a terminating expansion with the flag set.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    quotients: list[int] = []
    cur = x
    for _ in range(k):
        a = cur.floor()
        quotients.append(a)
        rem = cur - a
        if rem.is_zero():
            return CFExpansion(quotients, terminated=True)
        cur = _ref_inverse(rem)
    return CFExpansion(quotients, terminated=False)


_CF_FIELDS = [field_create(*spec) for spec in FUZZ_FIELDS]
_coeff = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@st.composite
def _cf_elements(draw):
    """An element of a field above: a random one, or one within 2^-j of an
    integer, on either side."""
    K = draw(st.sampled_from(_CF_FIELDS))
    x = K.element(draw(st.lists(_coeff, min_size=K.degree, max_size=K.degree)))
    if draw(st.booleans()) and not x.is_rational():
        x = draw(st.integers(-5, 5)) + x.frac_signed() * Fraction(1, 2 ** draw(st.integers(10, 60)))
    return x


@st.composite
def _cf_rationals(draw):
    """A rational in a field above."""
    q = draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=1000))
    return draw(st.sampled_from(_CF_FIELDS)).from_rational(q)


class TestContinuedFraction:
    @settings(max_examples=150, deadline=None)
    @given(x=_cf_elements(), k=st.integers(1, 12))
    def test_matches_the_field_inverse_reference(self, x, k):
        assert continued_fraction(x, k) == continued_fraction_reference(x, k)

    @settings(max_examples=100, deadline=None)
    @given(x=_cf_rationals(), k=st.integers(1, 12))
    def test_rationals_match_the_reference(self, x, k):
        assert continued_fraction(x, k) == continued_fraction_reference(x, k)

    def test_sqrt2(self, sqrt2):
        cf = continued_fraction(sqrt2, 8)
        assert cf.partial_quotients == [1, 2, 2, 2, 2, 2, 2, 2]
        assert not cf.terminated

    def test_cbrt2(self, alpha):
        # matches the classical expansion of 2^(1/3)
        cf = continued_fraction(alpha, 6)
        assert cf.partial_quotients == [1, 3, 1, 5, 1, 1]

    def test_rational_terminates(self, cbrt2_field):
        cf = continued_fraction(cbrt2_field.from_rational(Fraction(7, 3)), 5)
        assert cf.partial_quotients == [2, 3]
        assert cf.terminated

    def test_convergent_norm_bound(self, alpha):
        # classical: ||alpha q|| < 1/q for convergent denominators
        cf = continued_fraction(alpha, 12)
        for _, q in cf.convergents()[1:]:
            nrm = (alpha * q).circle_norm()
            assert (nrm - Fraction(1, q)).sign() < 0


class TestSmallNorm:
    def test_sqrt2_eps_tenth(self, sqrt2):
        w = find_small_norm(sqrt2, Fraction(1, 10), 10**6)
        assert w.m == 5
        assert float(w.achieved["norm"]) == pytest.approx(
            float(abs(5 * mp.sqrt(2) - 7)))

    def test_sqrt2_eps_half(self, sqrt2):
        w = find_small_norm(sqrt2, Fraction(1, 2), 10**6)
        assert w.m == 1

    def test_budget_exhaustion(self, sqrt2):
        with pytest.raises(NotFoundWithinBudget):
            find_small_norm(sqrt2, Fraction(1, 10**9), 10)

    def test_rational_rejected(self, cbrt2_field):
        with pytest.raises(RationalInput):
            find_small_norm(cbrt2_field.from_rational(Fraction(3, 7)),
                            Fraction(1, 10), 10**6)

    def test_witness_reverifies(self, alpha):
        w = find_small_norm(alpha, Fraction(1, 50), 10**6)
        assert ((alpha * w.m).circle_norm() - Fraction(1, 50)).sign() < 0


def _least(holds, limit: int) -> int:
    """The reference: a brute-force exact scalar scan of 1..limit."""
    return next(m for m in range(1, limit + 1) if holds(m))


class TestLeastWitness:
    """Each search returns the least witness, and none below a bound that
    excludes it."""

    @pytest.mark.parametrize("x", ["alpha", "sqrt2"])
    @pytest.mark.parametrize("eps", [Fraction(1, d) for d in (2, 7, 23, 80, 300, 1000, 3000)],
                             ids=str)
    def test_small_norm(self, x, eps, request):
        x = request.getfixturevalue(x)
        least = _least(lambda m: ((x * m).circle_norm() - eps).sign() < 0, 5000)
        assert find_small_norm(x, eps, 10**6).m == least
        if least > 1:
            with pytest.raises(NotFoundWithinBudget):
                find_small_norm(x, eps, least - 1)

    @pytest.mark.parametrize("r", range(2, 9))
    @pytest.mark.parametrize("beta", ["1", "alpha^2"])
    def test_progression_base(self, alpha, r, beta):
        b = 1 if beta == "1" else alpha * alpha

        def holds(m):
            am = alpha * m
            return ((am.circle_norm() - Fraction(1, 2 * r)).sign() < 0
                    and circle_norm(b * m * am.nint()) < Fraction(1, 2 * r * r))

        least = _least(holds, 1000)
        assert find_progression_base(r, alpha, b, 10**6).m == least
        if least > 1:
            with pytest.raises(NotFoundWithinBudget):
                find_progression_base(r, alpha, b, least - 1)


class TestProgressionBase:
    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_conditions_hold(self, alpha, r):
        w = find_progression_base(r, alpha, 1, 10**6)
        m = w.m
        assert ((alpha * m).circle_norm() - Fraction(1, 2 * r)).sign() < 0
        g = QuadSeqFast(alpha, 1)
        # quadratic scaling along the progression
        assert all(g(t * m) == t * t * g(m) for t in range(1, r + 1))

    def test_budget(self, alpha):
        with pytest.raises(NotFoundWithinBudget):
            find_progression_base(2, alpha, 1, 1)

    def test_r_guard(self, alpha):
        with pytest.raises(ValueError):
            find_progression_base(1, alpha, 1, 10**6)

    def test_algebraic_beta(self, alpha):
        w = find_progression_base(3, alpha, alpha * alpha, 10**6)
        inner = alpha * alpha * w.m * (alpha * w.m).nint()
        assert (inner.circle_norm() - Fraction(1, 18)).sign() < 0


def find_lemma32_witness(n0: int, n1: int, C: int, g: QuadSeqFast,
                         max_candidate: int) -> int:
    """Least n2 in [C*n1, max_candidate] with D2 g(n0,n1,n2) = 0."""
    if n0 < C or n1 < C * n0:
        raise PreconditionViolated(f"need n0 >= C and n1 >= C*n0 (C={C})")
    s = (g.alpha * n0).frac_signed() + (g.alpha * n1).frac_signed()
    if (abs(s) - Fraction(1, 2)).sign() >= 0:
        raise PreconditionViolated("|frac(alpha n0) + frac(alpha n1)| < 1/2 fails")
    w = lemma32_scan(n0, n1, C * n1, max_candidate, g)
    if w is None:
        raise NotFoundWithinBudget(
            f"no n2 in [{C * n1}, {max_candidate}] for ({n0}, {n1})")
    return w


class TestLemma32Witness:
    def test_witness_reverifies(self, alpha):
        g = QuadSeqFast(alpha, 1)
        n2 = find_lemma32_witness(5, 50, 2, g, 10**6)
        assert delta_sym_iter(g, [5, 50, n2]) == 0
        # least witness: nothing below it
        assert lemma32_scan(5, 50, 100, n2 - 1, g) is None

    def test_precondition_ratio(self, alpha):
        with pytest.raises(PreconditionViolated):
            find_lemma32_witness(5, 7, 2, QuadSeqFast(alpha, 1), 10**6)

    def test_precondition_fractional(self, alpha):
        # frac(2 alpha) + frac(6 alpha) ~ -0.92 violates the strict bound
        with pytest.raises(PreconditionViolated):
            find_lemma32_witness(2, 6, 2, QuadSeqFast(alpha, 1), 10**6)


def _least_witness(g, n0, n1, lo, hi):
    """The scalar reading of lemma32_scan: least n2 in [lo, hi] with
    g(n0+n1+n2) - g(n0+n2) - g(n1+n2) + g(n2) = g(n0+n1) - g(n0) - g(n1) + g(0)."""
    target = g(n0 + n1) - g(n0) - g(n1) + g(0)
    return next((n2 for n2 in range(lo, hi + 1)
                 if g(n0 + n1 + n2) - g(n0 + n2) - g(n1 + n2) + g(n2) == target), None)


class _Table(SequenceHandle):
    """g(n) = values[n]: a sequence whose witnesses are planted before its
    table is first read."""

    def __init__(self, size, seed):
        super().__init__()
        self.values = np.random.default_rng(seed).integers(-2**40, 2**40, size)

    def g_scalar(self, n):
        return int(self.values[n])

    def g_range(self, lo, hi):
        return self.values[lo:hi + 1]

    def plant(self, n0, n1, n2, excess=0):
        """Make D2 g vanish at (n0, n1, n2), or miss by `excess`."""
        v = self.g_scalar
        self.values[n0 + n1 + n2] = (v(n0 + n1) - v(n0) - v(n1) + v(0)
                                     + v(n0 + n2) + v(n1 + n2) - v(n2) + excess)


# a scan from lo reads [lo, lo + 256) and then the rest of its range in one
# read: the first edge starts that read, and the later two lie inside it
_EDGES = (_FIRST_WINDOW, 5 * _FIRST_WINDOW, 21 * _FIRST_WINDOW)


class TestLemma32ScanBlocks:
    def test_real_sequence_across_blocks(self, alpha):
        g = QuadSeqFast(alpha, 1)
        # (2, 6) has no witness past n2 = 0, so both scans read every block
        for n0, n1, lo, hi in [(2, 6, 1, BLOCK + 700), (5, 50, BLOCK - 3, 2 * BLOCK),
                               (7, 100, 1, 2 * BLOCK)]:
            assert lemma32_scan(n0, n1, lo, hi, g) == _least_witness(g, n0, n1, lo, hi)
        assert lemma32_scan(2, 6, 1, BLOCK + 700, g) is None
        assert lemma32_scan(2, 6, 0, BLOCK + 700, g) == 0

    def test_planted_witnesses_at_block_edges(self):
        # window edges: each witness alone, then all three in one table
        n0, n1, lo = 3, 11, 100
        for seed, edge in enumerate(_EDGES):
            g = _Table(lo + 3 * edge, seed=seed)
            g.plant(n0, n1, lo + edge)
            assert lemma32_scan(n0, n1, lo, lo + 2 * edge - 1, g) == lo + edge
            assert lemma32_scan(n0, n1, lo, lo + edge, g) == lo + edge
            assert lemma32_scan(n0, n1, lo, lo + edge - 1, g) is None
        g = _Table(lo + 2 * _EDGES[-1], seed=4)
        p1, p2, p3 = (lo + e for e in _EDGES)
        for p in (p1, p2, p3):
            g.plant(n0, n1, p)
        cases = [(lo, p3 + 9), (lo, p1), (lo, p1 - 1), (lo + 1, p3 + 9), (p1 + 1, p3 + 9),
                 (p1 + 1, p2), (p1 + 1, p2 - 1), (p2 + 1, p3), (p2 + 1, p3 - 1)]
        for a, b in cases:
            assert lemma32_scan(n0, n1, a, b, g) == _least_witness(g, n0, n1, a, b)
        # from lo + 1, p1 is the last index of the first window
        assert lemma32_scan(n0, n1, lo + 1, p3 + 9, g) == p1
        assert lemma32_scan(n0, n1, p1 + 1, p3 + 9, g) == p2
        assert lemma32_scan(n0, n1, p2 + 1, p3, g) == p3
        assert lemma32_scan(n0, n1, p2 + 1, p3 - 1, g) is None

    def test_empty_and_single_ranges(self):
        g = _Table(4 * BLOCK, seed=5)
        g.plant(4, 9, 500)
        assert lemma32_scan(4, 9, 500, 500, g) == 500
        assert lemma32_scan(4, 9, 501, 501, g) is None
        assert lemma32_scan(4, 9, 501, 500, g) is None
        assert lemma32_scan(4, 9, 10**9, 0, g) is None

    @pytest.mark.parametrize("n0,n1,lo", [(-1, 9, 500), (4, -1, 500), (4, 9, -1)],
                             ids=["n0", "n1", "lo"])
    def test_a_negative_index_is_refused(self, n0, n1, lo):
        # the table starts at g(0): a negative index would read it from its end
        with pytest.raises(ValueError, match="must be >= 0"):
            lemma32_scan(n0, n1, lo, 600, _Table(4 * BLOCK, seed=5))

    def test_shift_larger_than_the_block_tail(self):
        # n1 exceeds every window before the last, n0 the first two, and
        # the last window holds 6 indices
        g = _Table(4 * BLOCK, seed=6)
        n0, n1, lo = 3000, _EDGES[-1] + 17, 20
        hi = lo + _EDGES[-1] + 5
        g.plant(n0, n1, hi)
        assert lemma32_scan(n0, n1, lo, hi, g) == hi == _least_witness(g, n0, n1, lo, hi)
        assert lemma32_scan(n0, n1, lo, hi - 1, g) is None

    def test_residue_collisions_are_rechecked(self):
        # D2 g misses the target by 2**16 at n2 = 100 and by -3*2**16 at
        # n2 = 900, in the first two windows: the int16 filter passes both
        # (an int32 one would not), the exact re-check rejects them, and
        # the scan returns the witness planted in the third window
        g = _Table(3 * BLOCK, seed=8)
        n0, n1, w = 5, 12, 3000
        target = g.g_scalar(n0 + n1) - g.g_scalar(n0) - g.g_scalar(n1) + g.g_scalar(0)
        for p, excess in ((100, 2**16), (900, -3 * 2**16)):
            g.plant(n0, n1, p, excess=excess)
            v = g.values
            assert int(v[p + n0 + n1]) - int(v[p + n0]) - int(v[p + n1]) + int(v[p]) == target + excess
        g.plant(n0, n1, w)
        assert lemma32_scan(n0, n1, 1, 2 * BLOCK, g) == w == _least_witness(g, n0, n1, 1, 2 * BLOCK)
        assert lemma32_scan(n0, n1, 1, w - 1, g) is None
        assert lemma32_scan(n0, n1, 100, 100, g) is None

    def test_an_int64_wrap_is_rechecked(self):
        # D2 g = 2**64 at n2 = 700: the int64 sum wraps onto the target, and
        # so does the int16 residue filter; the exact re-check rejects it
        g = _Table(3 * BLOCK, seed=7)
        n0, n1, p = 5, 12, 700
        g.values[[p, p + n0, p + n1]] = 2**62, -2**62, -2**62
        g.plant(n0, n1, p, excess=2**64)
        g.plant(n0, n1, p + BLOCK + 3)
        assert g(n0 + n1 + p) == g(n0 + n1) - g(n0) - g(n1) + g(0) + 2**62
        assert lemma32_scan(n0, n1, 1, 2 * BLOCK, g) == p + BLOCK + 3
        assert _least_witness(g, n0, n1, 1, 2 * BLOCK) == p + BLOCK + 3


class TestWeylWitness:
    def test_examples(self, sqrt2):
        n = find_weyl_witness(
            [("alpha*n*n", (Fraction(1, 5) - Fraction(1, 50), Fraction(1, 5))),
             ("2*alpha*n", (Fraction(0), Fraction(1, 40)))],
            10**6, {"alpha": sqrt2})
        v1 = (sqrt2 * n * n).frac_signed()
        assert (v1 - (Fraction(1, 5) - Fraction(1, 50))).sign() > 0
        assert (Fraction(1, 5) - v1).sign() > 0
        v2 = (2 * sqrt2 * n).frac_signed()
        assert v2.sign() > 0 and (Fraction(1, 40) - v2).sign() > 0

    def test_empty_targets(self):
        assert find_weyl_witness([], 10**6) == 1

    def test_contradictory(self, sqrt2):
        with pytest.raises(NotFoundWithinBudget):
            find_weyl_witness(
                [("alpha*n", (Fraction(1, 10), Fraction(2, 10))),
                 ("alpha*n", (Fraction(3, 10), Fraction(4, 10)))],
                3000, {"alpha": sqrt2})

    def test_empty_interval_rejected(self, sqrt2):
        with pytest.raises(ValueError):
            find_weyl_witness([("alpha*n", (Fraction(1, 5), Fraction(1, 5)))],
                              10**6, {"alpha": sqrt2})

    def test_negative_start_guards_the_square(self, sqrt2):
        # the first block's largest |n| is its first entry, whose square
        # exceeds int64 while its last entry's square still fits
        start = -(isqrt(2**63 - 1) + 10)
        with pytest.raises(ValueError, match="int64"):
            next(weyl_witnesses([("alpha*n*n", (Fraction(0), Fraction(1, 2)))],
                                start, 2, {"alpha": sqrt2}))


_WEYL_CONSTANTS = {
    "cbrt2": field_create([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))).theta,
    "sqrt2": field_create([-2, 0, 1], (Fraction(1), Fraction(2))).theta,
    "three_sevenths": Fraction(3, 7),
}
# c*n^d shapes: text with c's name in {c}, and the integer multiplier of c
_WEYL_SHAPES = {
    "{c}*n": lambda n: n,
    "-{c}*n": lambda n: -n,
    "2*{c}*n": lambda n: 2 * n,
    "{c}*n*n": lambda n: n * n,
}
_WEYL_LIMIT = 300


@st.composite
def _weyl_targets(draw):
    """One or two lane-shaped targets, each a shape, a constant and an open
    interval inside (-1/2, 1/2)."""
    out = []
    for _ in range(draw(st.integers(1, 2))):
        lo, hi = sorted(draw(st.lists(
            st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                         max_denominator=60),
            min_size=2, max_size=2, unique=True)))
        out.append((draw(st.sampled_from(sorted(_WEYL_SHAPES))),
                    draw(st.sampled_from(sorted(_WEYL_CONSTANTS))), lo, hi))
    return out


@settings(max_examples=100, deadline=None)
@given(spec=_weyl_targets())
def test_weyl_least_witness_against_brute_force(spec):
    targets = [(shape.format(c=c), (lo, hi)) for shape, c, lo, hi in spec]

    def holds(n):
        for shape, c, lo, hi in spec:
            v = _WEYL_CONSTANTS[c] * _WEYL_SHAPES[shape](n)
            f = v.frac_signed() if isinstance(v, AlgebraicReal) else v - floor(v + Fraction(1, 2))
            if not lo < f < hi:
                return False
        return True

    every = [n for n in range(1, _WEYL_LIMIT + 1) if holds(n)]
    # a lane-shaped target is decided by its lane mask alone, never in the field
    with patch("gparith.diosearch.frac_signed", side_effect=AssertionError("re-decided")):
        assert list(weyl_witnesses(targets, 1, _WEYL_LIMIT + 1, _WEYL_CONSTANTS)) == every
        if every:
            assert find_weyl_witness(targets, _WEYL_LIMIT, _WEYL_CONSTANTS) == every[0]
        # none below the least witness, nor in range when there is none
        bound = every[0] - 1 if every else _WEYL_LIMIT
        if bound:
            with pytest.raises(NotFoundWithinBudget):
                find_weyl_witness(targets, bound, _WEYL_CONSTANTS)


class TestCalibration:
    def test_integer_beta_calibrates_small(self, alpha):
        res = calibrate_C(alpha, 1, 400, seed=7)
        assert res.C == 2
        assert res.modes_indistinguishable  # gamma terms vanish for beta in Z
        assert res.failures[(2, "all-pairs")] == 0

    def test_algebraic_beta_distinguishes_modes(self, alpha):
        res = calibrate_C(alpha, alpha * alpha, 150, seed=7)
        assert res.gamma_mode == "all-pairs"
        assert not res.modes_indistinguishable
        assert res.failures[(res.C, "off-diagonal")] >= 1

    def test_zero_samples_rejected(self, alpha):
        with pytest.raises(ValueError):
            calibrate_C(alpha, 1, 0)


class TestEquidist:
    def test_histograms_sum(self, alpha):
        rep = equidist_check(alpha, 1, 2, 3, 1, N=5000, M=20000, grid=8)
        assert int(rep.orbit_hist.sum()) == 5000
        assert int(rep.push_hist.sum()) == 20000
        assert rep.discrepancy >= 0

    def test_origin_box_nonempty(self, alpha):
        rep = equidist_check(alpha, 1, 2, 3, 1, N=50_000, M=50_000, grid=10)
        assert rep.origin_fraction > 0

    def test_deterministic(self, alpha):
        r1 = equidist_check(alpha, 1, 2, 3, 1, N=2000, M=8000, grid=6, seed=5)
        r2 = equidist_check(alpha, 1, 2, 3, 1, N=2000, M=8000, grid=6, seed=5)
        assert np.array_equal(r1.push_hist, r2.push_hist)
        assert r1.discrepancy == r2.discrepancy

    def test_d_zero_rejected(self, alpha):
        with pytest.raises(PreconditionViolated):
            equidist_check(alpha, 0, 1, 1, 0, N=100, M=100, grid=4)

    @pytest.mark.parametrize("N,M,grid", [(0, 100, 4), (100, 0, 4), (100, 100, 0),
                                          (-3, 100, 4)])
    def test_empty_orbit_sample_or_grid_rejected(self, alpha, N, M, grid):
        # an empty orbit or sample has no frequencies to compare
        with pytest.raises(PreconditionViolated):
            equidist_check(alpha, 1, 2, 3, 1, N=N, M=M, grid=grid)

    def test_theta_rational_rejected(self, alpha):
        # (0 + 2 alpha) / (0 + 1 alpha) = 2
        with pytest.raises(ThetaRational):
            equidist_check(alpha, 0, 2, 0, 1, N=100, M=100, grid=4)

    def test_quadratic_alpha_rejected(self, sqrt2):
        with pytest.raises(PreconditionViolated):
            equidist_check(sqrt2, 1, 2, 3, 1, N=100, M=100, grid=4)

    def test_alpha_not_its_fields_generator_rejected(self, alpha):
        # each has degree 3, but theta is built over the generator only
        for other in (alpha + 1, alpha**2):
            with pytest.raises(PreconditionViolated):
                equidist_check(other, 1, 2, 3, 1, N=100, M=100, grid=4)
