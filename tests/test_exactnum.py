import ast
import builtins
import functools
import hashlib
import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd

import mpmath as mp
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from gparith import harness as H
from gparith.errors import (
    FieldMismatch,
    MultipleRootsInInterval,
    NoRootInInterval,
    ReducibleMinpoly,
)
from gparith.exactnum import (
    AlgebraicReal,
    _check_irreducible,
    circle_norm,
    count_roots,
    field_create,
    floor_exact,
    frac_signed,
    nint,
    poly_eval,
    sign,
)

mp.mp.dps = 50
CBRT2 = mp.cbrt(2)


class TestFieldCreate:
    def test_rational_root_degenerate_interval(self):
        K = field_create([-2, 1], (2, 2))
        assert K.rational_theta == 2
        assert K.theta.as_fraction() == 2

    def test_rational_root_interior(self):
        # linear minpoly with the root strictly inside the interval
        K = field_create([-2, 1], (1, 3))
        assert K.theta.as_fraction() == 2
        assert K.theta.nint() == 2
        K2 = field_create([3, 2], (-2, 0))  # 2x + 3, root -3/2
        assert K2.theta.as_fraction() == Fraction(-3, 2)
        assert K2.theta.nint() == -1

    def test_cbrt2(self, cbrt2_field):
        t = cbrt2_field.theta
        lo, hi = t.enclosure(64)
        oracle = Fraction(mp.nstr(CBRT2, 40))
        assert lo <= oracle <= hi

    def test_one_sided_interval_accepts_single_root(self):
        # [0, 3] contains sqrt(2) but not -sqrt(2)
        K = field_create([-2, 0, 1], (0, 3))
        assert float(K.theta) == pytest.approx(2**0.5)

    def test_errors(self):
        # a repeated factor is refused as a reducible minimal polynomial
        for square in ([0, 0, 1],  # x^2
                       [4, 0, -4, 0, 1],  # (x^2 - 2)^2, no rational root
                       [1, -2, 2, -2, 1]):  # (x - 1)^2 (x^2 + 1)
            with pytest.raises(ReducibleMinpoly):
                field_create(square, (-1, 2))
        with pytest.raises(NoRootInInterval):
            field_create([-2, 0, 1], (3, 4))
        with pytest.raises(MultipleRootsInInterval):
            field_create([-2, 0, 1], (-2, 2))
        with pytest.raises(ReducibleMinpoly):
            field_create([-6, 5, 1], (0, 2))  # (x-1)(x+6)
        with pytest.raises(ReducibleMinpoly):
            field_create([6, 0, -5, 0, 1], (1, 2))  # (x^2-2)(x^2-3)
        # past degree 4 irreducibility is not verified: a field is refused,
        # reducible or not
        with pytest.raises(ValueError, match="degree 5"):
            field_create([6, 0, -3, -2, 0, 1], ("7/5", "143/100"))  # (x^2-2)(x^3-3)
        with pytest.raises(ValueError, match="degree 5"):
            field_create([-1, -1, 0, 0, 0, 1], (1, 2))  # x^5 - x - 1, irreducible
        with pytest.raises(ValueError):
            field_create([1], (0, 1))  # degree 0
        with pytest.raises(ValueError):
            field_create([2, -1], (0, 3))  # negative leading coefficient

    @pytest.mark.parametrize("minpoly, interval", [
        ([-2, 0, 0, 1], ("5/4", "13/10")),  # alpha of the default config
        ([-2, 0, 1], ("1", "2")),  # its bohr_alpha
        ([-4, 0, 0, 1], ("3/2", "8/5")),  # a beta from a field of its own
    ])
    def test_refine_matches_fraction_bisection(self, minpoly, interval):
        K = field_create(minpoly, tuple(map(Fraction, interval)))
        lo, hi = K.refine(Fraction(10))  # the isolating interval as it is
        p = [Fraction(c) for c in minpoly]
        slo = 1 if poly_eval(p, lo) > 0 else -1
        for width in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2**8), Fraction(1, 10**9),
                      Fraction(1, 2**64), Fraction(1, 2**80), Fraction(7, 3**130)):
            while hi - lo > width:
                mid = (lo + hi) / 2
                if (1 if poly_eval(p, mid) > 0 else -1) == slo:
                    lo = mid
                else:
                    hi = mid
            assert K.refine(width) == (lo, hi)

    def test_sturm_count(self):
        p = tuple(Fraction(c) for c in (-2, 0, 1))  # x^2 - 2
        assert count_roots(p, Fraction(-2), Fraction(2)) == 2
        assert count_roots(p, Fraction(0), Fraction(2)) == 1
        assert count_roots(p, Fraction(2), Fraction(3)) == 0


@st.composite
def _minpolys(draw):
    """An integer polynomial of degree 2 to 4, low degree first: random, or
    the product of two.  Leading coefficients are positive, not only 1."""

    def poly(degree):
        low = draw(st.lists(st.integers(-12, 12), min_size=degree, max_size=degree))
        return low + [draw(st.integers(1, 6))]

    if draw(st.booleans()):
        return poly(draw(st.integers(2, 4)))
    a = draw(st.integers(1, 3))
    f, g = poly(a), poly(draw(st.integers(1, 4 - a)))
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


class TestIrreducibility:
    """Every decision ends by refinement because `_check_irreducible` lets
    no reducible minimal polynomial through: a hidden zero would keep `sign`
    refining forever."""

    @settings(max_examples=200, deadline=None)
    @given(coeffs=_minpolys())
    @example(coeffs=[4, 0, 0, 0, 1])  # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
    @example(coeffs=[1, 0, -10, 0, 1])  # irreducible, but it splits modulo every prime
    def test_agrees_with_sympy(self, coeffs):
        try:
            _check_irreducible(coeffs)
            refused = False
        except ReducibleMinpoly:
            refused = True
        assert refused == (not sympy.Poly(coeffs[::-1], sympy.Symbol("x")).is_irreducible)


class TestArithmetic:
    def test_cube_relation(self, alpha):
        assert (alpha * alpha * alpha).as_fraction() == 2

    def test_cancellation(self, alpha):
        assert ((1 + alpha) - (1 + alpha)).is_zero()

    def test_power_reduction(self, alpha):
        # theta^4 = 2 theta
        assert (alpha**2 * alpha**2) == 2 * alpha

    def test_field_mismatch(self, alpha, sqrt2):
        with pytest.raises(FieldMismatch):
            _ = alpha + sqrt2


class TestDecisions:
    def test_sign_examples(self, alpha):
        assert sign(alpha**3 - 2) == 0
        assert sign(alpha - 1) == 1
        # 50-digit oracle: 5 * 2^(1/3) = 6.299...
        assert mp.mpf(5) * CBRT2 > 6
        assert sign(5 * alpha - 6) == 1

    def test_floor_examples(self, alpha, sqrt2):
        assert floor_exact(sqrt2) == 1
        assert floor_exact(-sqrt2) == -2
        assert floor_exact(5 * alpha) == int(mp.floor(5 * CBRT2)) == 6

    def test_nint_examples(self, alpha, cbrt2_field):
        assert nint(cbrt2_field.from_rational(Fraction(3, 2))) == 2
        assert nint(cbrt2_field.from_rational(Fraction(-1, 2))) == 0
        assert nint(4 * alpha) == int(mp.floor(4 * CBRT2 + mp.mpf(1) / 2)) == 5

    def test_frac_examples(self, alpha, cbrt2_field):
        assert frac_signed(cbrt2_field.from_rational(7)).is_zero()
        f = frac_signed(4 * alpha)
        assert f == 4 * alpha - 5
        assert float(f) == pytest.approx(float(4 * CBRT2 - 5))
        half = cbrt2_field.from_rational(Fraction(-1, 2))
        assert frac_signed(half) == Fraction(-1, 2)

    def test_circle_norm_examples(self, cbrt2_field, alpha):
        assert circle_norm(cbrt2_field.from_rational(3)).is_zero()
        assert circle_norm(cbrt2_field.from_rational(Fraction(1, 2))) == Fraction(1, 2)
        assert float(circle_norm(4 * alpha)) == pytest.approx(
            float(abs(4 * CBRT2 - 5)))

    def test_identities_random(self, cbrt2_field):
        rng = random.Random(11)
        half = Fraction(1, 2)
        for _ in range(100):
            coeffs = [Fraction(rng.randrange(-999, 1000), rng.randrange(1, 60))
                      for _ in range(3)]
            x = cbrt2_field.element(coeffs)
            q, f = x.nint(), x.frac_signed()
            assert (x - (q + f)).is_zero()
            assert (f + half).sign() >= 0 and (half - f).sign() > 0
            assert q == (x + half).floor()
            assert (-x).floor() == -((x.floor() + 1) if not (x - x.floor()).is_zero() else x.floor())

    def test_floor_monotone(self, cbrt2_field):
        rng = random.Random(5)
        xs = [cbrt2_field.element([Fraction(rng.randrange(-50, 50), 7),
                                   Fraction(rng.randrange(-9, 9)), 0])
              for _ in range(30)]
        xs.sort()
        floors = [x.floor() for x in xs]
        assert floors == sorted(floors)


# The five fields of test_fuzz.py.
FUZZ_FIELDS = [
    ([-2, 0, 1], (1, 2)),
    ([-3, 0, 1], (1, 2)),
    ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10))),
    ([-2, 0, 0, 0, 1], (1, Fraction(3, 2))),
    ([-1, -1, 1], (1, 2)),
]
_FUZZ = [field_create(*f) for f in FUZZ_FIELDS]


def _floor_q(q: Fraction) -> int:
    return q.numerator // q.denominator


class TestIntegerDecisions:
    """sign / floor / nint decided on the scaled-integer enclosure."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agree_with_fraction_enclosure(self, data):
        K = _FUZZ[data.draw(st.integers(0, len(_FUZZ) - 1))]
        coeffs = data.draw(st.lists(
            st.fractions(min_value=-10**4, max_value=10**4, max_denominator=300),
            min_size=K.degree, max_size=K.degree))
        x = K.element(coeffs)
        lo, hi = x.enclosure(200)
        assert lo <= hi and hi - lo <= Fraction(1, 1 << 200)
        if _floor_q(lo) == _floor_q(hi):
            assert x.floor() == _floor_q(lo)
        if _floor_q(lo + Fraction(1, 2)) == _floor_q(hi + Fraction(1, 2)):
            assert x.nint() == _floor_q(lo + Fraction(1, 2))
        if lo > 0 or hi < 0:
            assert x.sign() == (1 if lo > 0 else -1)
        L, H, S = x.scaled_enclosure(200)
        assert S > 0 and (Fraction(L, S), Fraction(H, S)) == (lo, hi)

    @pytest.mark.parametrize("k", [-7, 0, 1, 12345])
    def test_near_half_and_near_integer(self, alpha, cbrt2_field, k):
        tiny = Fraction(1, 1 << 60) * alpha          # 0 < tiny < 2^-59
        half = Fraction(1, 2)
        assert nint(k - half + tiny) == k
        assert nint(k - half - tiny) == k - 1
        assert floor_exact(k - half + tiny) == k - 1
        assert floor_exact(k + tiny) == k
        assert floor_exact(k - tiny) == k - 1
        assert nint(k + tiny) == nint(k - tiny) == k
        assert sign(tiny) == 1 and sign(-tiny) == -1
        # cbrt(2) = 1.2599210498948731647..., so these differ from 0 by
        # about 2^-60 * 10^-16 and need several precision doublings
        below = Fraction(12599210498948731, 10**16)
        above = Fraction(12599210498948732, 10**16)
        assert sign(Fraction(1, 1 << 60) * (alpha - below)) == 1
        assert sign(Fraction(1, 1 << 60) * (alpha - above)) == -1
        assert floor_exact(k + (alpha - below)) == k
        assert floor_exact(k + (alpha - above)) == k - 1

    def test_nint_follows_the_schedule_of_floor_at_x_plus_half(self):
        # weight(theta + 11/4) has 3 bits, weight(theta + 13/4) has 4: nint
        # must request the theta-power precisions that (x + 1/2).floor() does
        K, K_ref = (field_create(*FUZZ_FIELDS[2]) for _ in range(2))
        x = K.element([Fraction(11, 4), 1])
        x_ref = K_ref.element([Fraction(11, 4), 1])
        assert x.nint() == (x_ref + Fraction(1, 2)).floor() == 4
        assert sorted(K._pow_cache) == sorted(K_ref._pow_cache)

    def test_rational_theta_field(self):
        K = field_create([-3, 2], (0, 5))            # theta = 3/2
        t = K.theta
        assert (t.floor(), t.nint(), t.sign()) == (1, 2, 1)
        assert ((-t).floor(), (-t).nint()) == (-2, -1)
        assert (t - Fraction(3, 2)).sign() == 0
        assert t.enclosure(64) == (Fraction(3, 2), Fraction(3, 2))
        assert t.scaled_enclosure(64) == (3, 3, 2)
        assert (t * t).nint() == 2                   # 9/4

    # (field, coefficients, prec) -> sha256 of "lo hi", first 16 hex digits.
    # Recorded with the Fraction-based enclosure this one replaced; each
    # field is fresh and the rows run in order, since a cached theta-power
    # enclosure keeps the interval it was built from.
    ENCLOSURE_FIELDS = {"cbrt2": FUZZ_FIELDS[2], "golden": FUZZ_FIELDS[4]}
    ENCLOSURE_ROWS = [
        ("cbrt2", (0, 1, 0), 8, "262a04cf35651e74"),
        ("cbrt2", (Fraction(-7, 3), Fraction(5, 2), Fraction(1, 9)), 24, "ce65cc6d3b917902"),
        ("cbrt2", (Fraction(1, 2), 0, Fraction(-3, 5)), 64, "65b415ca0e3faa13"),
        ("cbrt2", (1000, -333, 17), 80, "821b4f51d07ee890"),
        ("cbrt2", (0, 1, 0), 8, "262a04cf35651e74"),
        ("golden", (Fraction(-1, 2), 1), 16, "32c38f7ed3e22c57"),
        ("golden", (3, Fraction(-11, 7)), 100, "3060c35cb6537f5e"),
    ]

    def test_enclosure_endpoints_unchanged(self):
        fields = {k: field_create(*v) for k, v in self.ENCLOSURE_FIELDS.items()}
        got = []
        for name, coeffs, prec, _ in self.ENCLOSURE_ROWS:
            lo, hi = fields[name].element(coeffs).enclosure(prec)
            got.append(hashlib.sha256(f"{lo} {hi}".encode()).hexdigest()[:16])
            if (name, prec) == ("cbrt2", 8):
                assert (lo, hi) == (Fraction(42275935, 33554432),
                                    Fraction(52844919, 41943040))
        assert got == [row[3] for row in self.ENCLOSURE_ROWS]


# The fields of the core oracle's tests: the fuzz fields, a negative root
# (-cbrt 2), a non-monic cubic, and two of degree 1, one whose root a
# bisection lands on (3/2) and one it never reaches (1/3).
ORACLE_FIELDS = FUZZ_FIELDS + [
    ([2, 0, 0, 1], (Fraction(-13, 10), Fraction(-5, 4))),
    ([-2, 0, 0, 3], (Fraction(4, 5), 1)),
    ([-3, 2], (1, 2)),
    ([-1, 3], (0, 1)),
]
_ORACLE_K = [field_create(*f) for f in ORACLE_FIELDS]


@functools.cache
def _oracle(i):
    return H.CoreOracle(_ORACLE_K[i])


@functools.cache
def _mp_theta(i):
    """theta of ORACLE_FIELDS[i] to 2,000 digits."""
    minpoly, ends = ORACLE_FIELDS[i]
    with mp.workdps(2000):
        lo, hi = (mp.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in ends)
        if lo == hi:
            return lo
        return mp.findroot(lambda t: mp.polyval(minpoly[::-1], t), (lo, hi),
                           solver="anderson")


def _mp_decisions(i, coeffs):
    """(floor, nint, sign) of sum coeffs[j] * theta^j at 2,000 digits."""
    theta = _mp_theta(i)
    with mp.workdps(2000):
        x = mp.fsum(mp.mpf(c.numerator) / c.denominator * theta**j
                    for j, c in enumerate(coeffs))
        return int(mp.floor(x)), int(mp.floor(x + mp.mpf(1) / 2)), int(mp.sign(x))


class TestCoreOracle:
    """`harness.CoreOracle` as a third opinion beside the core and mpmath."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_core_and_mpmath(self, data):
        i = data.draw(st.integers(0, len(ORACLE_FIELDS) - 1))
        K, oracle = _ORACLE_K[i], _oracle(i)
        coeffs = data.draw(st.lists(
            st.fractions(min_value=-10**4, max_value=10**4, max_denominator=300),
            min_size=K.degree, max_size=K.degree))
        if data.draw(st.booleans()):
            # within 4 * 2^-e of an integer or a half-integer, e <= 200
            e, r = data.draw(st.integers(0, 200)), data.draw(st.integers(-3, 3))
            k = data.draw(st.integers(-10**6, 10**6)) + data.draw(
                st.sampled_from([0, Fraction(1, 2)]))
            y = oracle.decide([0, *(c * (1 << e) for c in coeffs[1:])])
            assume(y is not None)
            coeffs[0] = k + Fraction(r - y[0], 1 << e)
        x = K.element(coeffs)
        want = oracle.decide(coeffs)
        assert want == (x.floor(), x.nint(), x.sign()) == _mp_decisions(i, coeffs)

    def test_a_sample_past_the_cap_is_cap_exhausted(self, monkeypatch, cbrt2_field):
        # with the cap below the starting bits no sample is decided
        monkeypatch.setattr(H, "_ORACLE_CAP", H._ORACLE_BITS // 2)
        r = H.verify_numeric_core(cbrt2_field, count=4)
        assert r.ok and r.violations == 0
        assert [rec["verdict"] for rec in r.records] == ["cap-exhausted"] * 5

    def test_shares_nothing_with_the_core(self):
        nodes = list(ast.walk(ast.parse(textwrap.dedent(inspect.getsource(H.CoreOracle)))))
        names = [n for n in nodes if isinstance(n, ast.Name)]
        on_field = [n.attr for n in nodes if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id == "field"]
        # the field is read through these two attributes and nothing else
        assert set(on_field) == {"minpoly_int", "interval"}
        assert len(on_field) == sum(n.id == "field" for n in names)
        used = {n.attr for n in nodes if isinstance(n, ast.Attribute)} | {n.id for n in names}
        assert not used & {"refine", "pow_table", "theta_enclosure", "_sign_at", "_scaled",
                           "scaled_enclosure", "enclosure", "floor", "nint", "sign"}
        # and it calls no function of the package
        bound = {n.arg for n in nodes if isinstance(n, ast.arg)} | {
            n.id for n in names if isinstance(n.ctx, ast.Store)}
        free = {n.id for n in names if isinstance(n.ctx, ast.Load)} - bound
        assert free <= {"Fraction", "lcm", "_ORACLE_BITS", "_ORACLE_CAP"} | set(dir(builtins))


# ---------------------------------------------------------------------------
# Integer numerators over one denominator, against a Fraction reference.
# ---------------------------------------------------------------------------

# The fuzz fields, a degree-1 field and two non-monic minimal polynomials:
# 2x^2 - 3 (theta = sqrt(3/2)) and 3x^3 - 2 (theta = (2/3)^(1/3)).
_REF_FIELDS = _FUZZ + [
    field_create([-3, 2], (0, 5)),
    field_create([-3, 0, 2], (1, 2)),
    field_create([-2, 0, 0, 3], (Fraction(4, 5), 1)),
]


def _ref_mul(a, b, minpoly):
    """Schoolbook product of two coefficient vectors, reduced modulo the
    minimal polynomial from the top degree down, in Fractions."""
    d = len(minpoly) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k] / minpoly[-1]
        for i, m in enumerate(minpoly):
            prod[k - d + i] -= c * m
    return tuple(prod[:d])


def _ref_inverse(x):
    """1/x for a nonzero int, Fraction or field element.  A field element's
    inverse is the u with _ref_mul(u, x.coeffs) = 1, solved as a d x d
    Fraction system by Gauss-Jordan elimination."""
    if not isinstance(x, AlgebraicReal):
        return 1 / Fraction(x)
    if x.is_zero():
        raise ZeroDivisionError("zero has no inverse")
    K, d = x.field, x.field.degree
    minpoly = [Fraction(c) for c in K.minpoly_int]
    # column j holds the coefficients of x * theta^j; the right side is 1
    cols = [_ref_mul(x.coeffs, [Fraction(int(i == j)) for i in range(d)], minpoly)
            for j in range(d)]
    rows = [[col[i] for col in cols] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return K.element([row[d] for row in rows])


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert len(x.nums) == x.field.degree
    assert all(type(k) is int for k in x.nums) and type(x.den) is int
    if not any(x.nums):
        assert x.den == 1


_small_q = st.fractions(min_value=-50, max_value=50, max_denominator=12)


class TestIntegerRepresentation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ring_operations_match_fraction_reference(self, data):
        K = data.draw(st.sampled_from(_REF_FIELDS))
        vec = st.lists(_small_q, min_size=K.degree, max_size=K.degree)
        ca, cb = data.draw(vec), data.draw(vec)
        q = data.draw(_small_q)
        k = data.draw(st.integers(-10**6, 10**6))
        x, y = K.element(ca), K.element(cb)
        cases = [
            (x + y, [a + b for a, b in zip(ca, cb)]),
            (x - y, [a - b for a, b in zip(ca, cb)]),
            (-x, [-a for a in ca]),
            (x * y, _ref_mul(ca, cb, K.minpoly)),
            (x + k, [ca[0] + k] + ca[1:]),
            (k - x, [k - ca[0]] + [-a for a in ca[1:]]),
            (x + q, [ca[0] + q] + ca[1:]),
            (q - x, [q - ca[0]] + [-a for a in ca[1:]]),
            (x * k, [a * k for a in ca]),
            (q * x, [a * q for a in ca]),
        ]
        for got, want in cases:
            _assert_canonical(got)
            assert got.coeffs == tuple(want)
            assert got == K.element(want)
            assert hash(got) == hash(K.element(want))
        # one value, reached along different paths, is one representation
        for other in ((x + y) - y, x * 3 * Fraction(1, 3), (x * y + x) - x * y):
            assert other == x and hash(other) == hash(x)
            assert (other.nums, other.den) == (x.nums, x.den)
        assert (x == y) == (tuple(ca) == tuple(cb))

    def test_canonical_form(self, cbrt2_field):
        K = cbrt2_field
        assert (K.zero.nums, K.zero.den) == ((0, 0, 0), 1)
        assert ((K.theta - K.theta).nums, (K.theta - K.theta).den) == ((0, 0, 0), 1)
        assert ((K.theta * 0).nums, (K.theta * 0).den) == ((0, 0, 0), 1)
        half = K.element([Fraction(1, 2)])
        assert K.element([Fraction(2, 4)]) == half
        assert hash(K.element([Fraction(2, 4)])) == hash(half)
        x = K.element([Fraction(1, 6), Fraction(-1, 4), 2])
        assert (x.nums, x.den) == ((2, -3, 24), 12)
        assert ((x + Fraction(5, 6)).nums, (x + Fraction(5, 6)).den) == ((4, -1, 8), 4)

    def test_non_monic_reduction_table(self):
        K = field_create([-2, 0, 0, 3], (Fraction(4, 5), 1))
        rows, den = K._xpow
        # x^3 = 2/3, x^4 = 2/3 x
        assert (rows, den) == ([(2, 0, 0), (0, 2, 0)], 3)
        t = K.theta
        assert t * t * t == Fraction(2, 3)
        assert (t ** 4).coeffs == (0, Fraction(2, 3), 0)
        assert (3 * t ** 3).nint() == 2 and (t * 1000).floor() == 873

    def test_ring_path_makes_no_fractions(self, alpha, monkeypatch):
        K = alpha.field
        beta = K.element([Fraction(1, 3), 2, Fraction(-5, 7)])
        ns = [1, 7, 40, 12345, -99, 10**6 + 3]

        def work():
            for n in ns:
                (alpha * n).nint()
                (alpha * n).frac_signed().sign()
                alpha * beta + 3

        work()  # fills the theta-power cache at the precisions used
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        work()
        assert made == []
        Fraction(1, 3)                  # the wrapper is live
        assert len(made) == 1


# ---------------------------------------------------------------------------
# Mobius images: (a + b theta)/(c + d theta) as the theta of a field of its own.
# ---------------------------------------------------------------------------


def _mobius_cases():
    """(field index, a, b, c, d): a pole -c/d = 32/25 inside the isolating
    interval [5/4, 13/10] of the cube root of 2, then one seeded random map
    with ad != bc per fuzz field."""
    rng = random.Random(33)
    cases = [(2, -1, 4, -32, 25)]
    for i in range(len(FUZZ_FIELDS)):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        while a * d == b * c:
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        cases.append((i, a, b, c, d))
    return cases


class TestMobius:
    @pytest.mark.parametrize("i, a, b, c, d", _mobius_cases())
    def test_matches_sympy_and_the_quotient(self, i, a, b, c, d):
        K = field_create(*FUZZ_FIELDS[i])
        T = K.mobius(a, b, c, d)
        x = sympy.Symbol("x")
        r = sympy.CRootOf(sympy.Poly(K.minpoly_int[::-1], x), 0)
        want = sympy.Poly(sympy.minimal_polynomial((a + b * r) / (c + d * r), x), x)
        # sympy's is primitive with a positive leading coefficient, and so is T's
        assert T.minpoly_int == tuple(want.all_coeffs()[::-1])
        # theta of T meets the quotients at the ends of a 2^-100 enclosure of
        # theta of K, which excludes the pole: it is the image of that root
        lo, hi = K.theta.enclosure(100)
        assert (c + d * lo) * (c + d * hi) > 0
        ends = sorted((a + b * t) / (c + d * t) for t in (lo, hi))
        t_lo, t_hi = T.theta.enclosure(100)
        assert t_lo <= ends[1] and ends[0] <= t_hi

    def test_a_constant_map_is_refused(self, cbrt2_field):
        with pytest.raises(ValueError):
            cbrt2_field.mobius(2, 4, 1, 2)
