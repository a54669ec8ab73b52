from fractions import Fraction
from math import floor, isqrt
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gparith import diosearch
from gparith._fastlane import BLOCK, QuadSeqFast
from gparith.diosearch import (
    CFExpansion,
    calibrate_C,
    continued_fraction,
    equidist_check,
    find_progression_base,
    find_small_norm,
    find_weyl_witness,
    lemma32_read_bound,
    lemma32_witnesses,
    weyl_witnesses,
)
from gparith.errors import (
    NotFoundWithinBudget,
    PreconditionViolated,
    RationalInput,
    ThetaRational,
)
from gparith.exactnum import AlgebraicReal, NumberField, circle_norm
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


_CF_FIELDS = [NumberField(*spec) for spec in FUZZ_FIELDS]
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
    w = int(lemma32_witnesses(n0, n1, C, max_candidate - C * n1, g))
    if w < 0:
        raise NotFoundWithinBudget(
            f"no n2 in [{C * n1}, {max_candidate}] for ({n0}, {n1})")
    return w


class TestLemma32Witness:
    def test_witness_reverifies(self, alpha):
        g = QuadSeqFast(alpha, 1)
        n2 = find_lemma32_witness(5, 50, 2, g, 10**6)
        assert delta_sym_iter(g, [5, 50, n2]) == 0
        # least witness: nothing below it
        assert lemma32_witnesses(5, 50, 2, n2 - 1 - 100, g) == -1

    def test_precondition_ratio(self, alpha):
        with pytest.raises(PreconditionViolated):
            find_lemma32_witness(5, 7, 2, QuadSeqFast(alpha, 1), 10**6)

    def test_precondition_fractional(self, alpha):
        # frac(2 alpha) + frac(6 alpha) ~ -0.92 violates the strict bound
        with pytest.raises(PreconditionViolated):
            find_lemma32_witness(2, 6, 2, QuadSeqFast(alpha, 1), 10**6)


def _least_witness(g, a, b, C, W):
    """The scalar reading of lemma32_witnesses: least n2 in [C*b, C*b + W]
    with g(a+b+n2) - g(a+n2) - g(b+n2) + g(n2) = g(a+b) - g(a) - g(b) + g(0),
    or -1."""
    target = g(a + b) - g(a) - g(b) + g(0)
    return next((n2 for n2 in range(C * b, C * b + W + 1)
                 if g(a + b + n2) - g(a + n2) - g(b + n2) + g(n2) == target), -1)


def _witnesses(g, a, b, C, W):
    """lemma32_witnesses on the pairs (a, b) with widths W, all in one call,
    each pair checked against _least_witness."""
    a, b, W = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (a, b, W)))
    got = lemma32_witnesses(a, b, C, W, g)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert got.ravel().tolist() == [_least_witness(g, x, y, C, w) for x, y, w in
                                    zip(a.ravel().tolist(), b.ravel().tolist(), W.ravel().tolist())]
    return got.tolist()


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


class TestLemma32ScanBlocks:
    def test_real_sequence_across_blocks(self, alpha):
        # pairs of different a, b and W in one call, read in windows that
        # cross BLOCK; (2, 6) has no witness past n2 = 0, so it reads its
        # whole width, and C = 0 makes n2 = 0 the least witness
        g = QuadSeqFast(alpha, 1)
        got = _witnesses(g, [2, 5, 7, 2], [6, 50, 100, 6], 1,
                         [BLOCK + 700, 2 * BLOCK, 2 * BLOCK, 3])
        assert got[0] == got[3] == -1 and got[1] >= 50 and got[2] >= 100
        assert _witnesses(g, [2, 5], [6, 50], 0, [BLOCK + 700, 9]) == [0, 0]

    def test_planted_witnesses_at_block_edges(self):
        # sixteen reads in one call take windows of 1024, 2048, 4096 offsets
        # from C*b = 100; a witness on the last or the first offset of a
        # window is found by the reads that reach it, and by none that end
        # one short
        a, b, C = 3, 10, 10
        starts = [x0 for x0, _ in diosearch._reads(8000, 16)]
        assert starts[:4] == [0, 1024, 3072, 7168]
        edges = [x0 - d for x0 in starts[1:3] for d in (1, 0)]
        for seed, e in enumerate(edges):
            g = _Table(C * b + e + a + b + 9, seed=seed)
            g.plant(a, b, C * b + e)
            W = [e + d for d in range(-8, 8)]
            assert _witnesses(g, a, b, C, W) == [C * b + e if w >= e else -1 for w in W]
        # one table with a pair planted on each edge, the four pairs read
        # together one short of, on, one and two past their witnesses
        firsts = [3, 5, 7, 9]
        W = [e + d for e in edges for d in (-1, 0, 1, 2)]
        g = _Table(C * b + edges[-1] + 3 * b + 9, seed=4)
        for a, e in zip(firsts, edges):
            g.plant(a, b, C * b + e)
        assert _witnesses(g, np.repeat(firsts, 4), b, C, W) == [
            C * b + e if d >= 0 else -1 for e in edges for d in (-1, 0, 1, 2)]

    def test_empty_and_single_ranges(self):
        # a width of -1 (or less) reads nothing, not even far past the
        # table; a width of 0 reads n2 = C*b alone
        a, b, C = 4, 10, 50
        g = _Table(4 * BLOCK, seed=5)
        g.plant(a, b, C * b)
        got = _witnesses(g, [a, a, a, a + 1, a], [b, b, b, b, b + 1], C, [0, -1, -5, 0, 0])
        assert got == [C * b, -1, -1, -1, -1]
        assert lemma32_witnesses([a, 4], [b, 10**8], C, [-1, -1], g).tolist() == [-1, -1]
        assert len(g.table(0)) == C * (b + 1) + a + b + 2  # g(0..C*b + W + a + b) only
        assert lemma32_witnesses([], [], C, [], g).tolist() == []

    @pytest.mark.parametrize("a,b,C", [(-1, 9, 50), (4, -1, 50), (4, 9, -50)],
                             ids=["n0", "n1", "lo"])
    def test_a_negative_index_is_refused(self, a, b, C):
        # the table starts at g(0): a negative a, b or C (and so a negative
        # start C*b of the read) would read it from its end, even beside a
        # valid pair
        with pytest.raises(ValueError, match="must be >= 0"):
            lemma32_witnesses([4, a], [9, b], C, [600, 600], _Table(4 * BLOCK, seed=5))

    def test_shift_larger_than_the_block_tail(self):
        # both shifts are wide, and b exceeds the whole range of n2 read
        g = _Table(4 * BLOCK, seed=6)
        a, b, C = 3000, 5393, 1
        W = b - 7
        g.plant(a, b, C * b + W)
        assert _witnesses(g, [a, a, 7], [b, b, 12], C, [W, W - 1, W]) == [C * b + W, -1, -1]

    def test_residue_collisions_are_rechecked(self):
        # D2 g misses the target by 2**16 at n2 = 100 and by -3*2**16 at
        # n2 = 900: a residue read mod 2**16 would pass both (one in int32
        # would not), the exact int64 read rejects them, and the read
        # returns the witness planted at n2 = 3000
        g = _Table(3 * BLOCK, seed=8)
        a, b, C, w = 5, 12, 4, 3000
        target = g.g_scalar(a + b) - g.g_scalar(a) - g.g_scalar(b) + g.g_scalar(0)
        for p, excess in ((100, 2**16), (900, -3 * 2**16)):
            g.plant(a, b, p, excess=excess)
            v = g.values
            assert int(v[p + a + b]) - int(v[p + a]) - int(v[p + b]) + int(v[p]) == target + excess
        g.plant(a, b, w)
        lo = C * b
        got = _witnesses(g, a, b, C, [2 * BLOCK, w - lo - 1, 100 - lo, 900 - lo, w - lo])
        assert got == [w, -1, -1, -1, w]

    def test_an_int64_wrap_is_refused(self):
        # D2 g = 2**64 at n2 = 700 would wrap onto the target in int64: a
        # table whose second differences could leave int64 is refused by
        # any read that reaches it, and a read ending before it still
        # answers
        g = _Table(3 * BLOCK, seed=7)
        a, b, p = 5, 12, 700
        g.values[[p, p + a, p + b]] = 2**62, -2**62, -2**62
        g.plant(a, b, p, excess=2**64)
        g.plant(a, b, 300)
        assert g(a + b + p) == g(a + b) - g(a) - g(b) + g(0) + 2**62
        for C, bs, W in [(1, b, 2 * BLOCK), (1, b, p - a - b - b), (50, 14, 0),
                         (1, [b, b], [p - a - 2 * b - 1, p - a - 2 * b])]:
            with pytest.raises(ValueError, match="int64"):
                lemma32_witnesses(a, bs, C, W, g)
        assert _witnesses(g, a, b, 1, p - a - 2 * b - 1) == 300

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_pairs_match_the_scalar_reading(self, seed):
        # random pairs and widths (some negative) in one call, half of them
        # with a witness planted in their read or one offset past its end
        rng = np.random.default_rng(seed)
        C, p = int(rng.integers(1, 4)), 24
        a, b = rng.integers(0, 40, p), rng.integers(0, 120, p)
        W = rng.integers(-2, 600, p)
        g = _Table(int((C * b + W + a + b).max()) + 2, seed=seed + 10)
        for q in np.flatnonzero(rng.random(p) < 0.5):
            g.plant(int(a[q]), int(b[q]), int(C * b[q] + rng.integers(0, max(W[q], 0) + 2)))
        _witnesses(g, a, b, C, W)


# alpha in its own field: the cube roots of 2 and 3 and the plastic number
_READ_BOUND_G = {name: QuadSeqFast(NumberField(*spec).theta, 1) for name, spec in {
    "cbrt2": ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    "cbrt3": ([-3, 0, 0, 1], (Fraction(7, 5), Fraction(3, 2))),
    "plastic": ([-1, -1, 0, 1], (Fraction(13, 10), Fraction(4, 3))),
}.items()}


def _gap_sum(alpha, qs, k):
    return circle_norm(alpha * qs[k - 1]) + circle_norm(alpha * qs[k])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_READ_BOUND_G)), st.integers(1, 60), st.integers(1, 2500))
def test_read_bound_decides_lemma32(name, a, b):
    # a positive pair has its least witness within W of C*b, and a negative
    # pair has none in a generic read.  W is a convergent denominator whose
    # gap sum lies below the exact arc of vanishing carries, and the one
    # before it has a gap sum no smaller than the arc less two grid steps
    g, C, wide = _READ_BOUND_G[name], 2, 20_000
    alpha = g.alpha
    W = int(lemma32_read_bound(g.const)(a, b))
    s = [(alpha * k).frac_signed() for k in (a, b, a + b)]
    arc = 1 - (max(s + [0]) - min(s + [0]))
    qs = [q for _, q in continued_fraction(alpha, 40).convergents()]
    k = qs.index(W)
    assert k >= 1 and _gap_sum(alpha, qs, k) < arc
    before = [j for j in range(1, k) if qs[j - 1] < qs[j]]
    if before:
        assert _gap_sum(alpha, qs, before[-1]) >= arc - Fraction(2, diosearch._GAP_GRID)
    w = int(lemma32_witnesses(a, b, C, max(W, wide), g))
    if (abs(s[0] + s[1]) - Fraction(1, 2)).sign() < 0:
        assert C * b <= w <= C * b + W
        assert lemma32_witnesses(a, b, C, W, g) == w
    else:
        assert w == -1


class TestReadBound:
    def test_pairs_broadcast(self):
        g = _READ_BOUND_G["cbrt2"]
        bound = lemma32_read_bound(g.const)
        ms = np.arange(1, 40, dtype=np.int64)
        W = bound(3, ms)
        assert W.shape == ms.shape and W.dtype == np.int64
        assert W.tolist() == [int(bound(3, m)) for m in ms.tolist()]
        assert len(bound(ms[:0], ms[:0])) == 0

    def test_no_qualifying_convergent_raises(self, monkeypatch):
        # a rational alpha has no gap bound; on a grid of two bins a pair
        # with s_2 < 0 leaves no room below its arc.  Neither returns a cap
        half = NumberField([-1, 3], (Fraction(0), Fraction(1))).theta  # alpha = 1/3
        with pytest.raises(ValueError, match="rational"):
            lemma32_read_bound(QuadSeqFast(half, 1).const)
        g = _READ_BOUND_G["cbrt2"]
        assert (g.alpha * 2).frac_signed().sign() < 0
        monkeypatch.setattr(diosearch, "_GAP_GRID", 2)
        with pytest.raises(ValueError, match="no convergent"):
            lemma32_read_bound(g.const)(2, 5)


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
    "cbrt2": NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))).theta,
    "sqrt2": NumberField([-2, 0, 1], (Fraction(1), Fraction(2))).theta,
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
