"""Exact arithmetic over a real number field Q(theta).

A field is described by an integer minimal polynomial together with a
rational isolating interval pinning one real root theta.  An element is a
vector of integer numerators over one positive denominator, reduced modulo
the minimal polynomial and by the gcd of denominator and numerators, so
equality of representations is value equality whenever the minimal
polynomial is irreducible.  Sums, differences and products run in integers;
the product reduces x^d, ..., x^(2d-2) with one integer table over one
common denominator, so a non-monic minimal polynomial needs no Fractions
either.  Sign, floor, nearest integer, signed fractional part and circle
norm are all decided exactly by refining the isolating interval with
certified interval arithmetic.

Decisions run in integers.  The field caches the enclosures of theta^i once
per precision as integer numerators over one common denominator; an element
sums its numerators times those into a scaled enclosure (L, H, S) with the
value in [L/S, H/S].  sign compares L and H with 0, floor takes L // S and
H // S, and nint takes (2L + S) // 2S.  Only when the enclosure straddles an
integer in a field whose irreducibility is not verified is the exact zero
test consulted.  `enclosure(prec)` returns the same endpoints as Fractions,
and `coeffs` the coefficients as Fractions.

The dyadic ball backend (`ball_eval`, `ball_floor`, `ball_nint`) is built on
`enclosure`, so it cross-checks the decision logic, not the enclosure
itself: it is not an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from .errors import (
    AmbiguousAtPrecision,
    FieldMismatch,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotSquarefree,
    ReducibleMinpoly,
)

HALF = Fraction(1, 2)

# ---------------------------------------------------------------------------
# Polynomials over Q, coefficient tuples low degree first, no trailing zeros.
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_degree(p) -> int:
    return len(p) - 1  # degree of () is -1


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p):
    return _trim(i * c for i, c in enumerate(p) if i > 0)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        factor = a[-1] / lead
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
    return _trim(q), _trim(a)


def poly_gcd(a, b):
    """Monic gcd over Q."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def poly_ext_gcd(a, b):
    """Return (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = _trim(a), _trim(b)
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    if r0:
        lead = r0[-1]
        r0 = tuple(c / lead for c in r0)
        s0 = tuple(c / lead for c in s0)
        t0 = tuple(c / lead for c in t0)
    return r0, s0, t0


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def sturm_chain(p):
    chain = [_trim(p)]
    d = poly_derivative(p)
    if d:
        chain.append(d)
        while poly_degree(chain[-1]) > 0:
            rem = poly_divmod(chain[-2], chain[-1])[1]
            if not rem:
                break
            chain.append(tuple(-c for c in rem))
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree p in (lo, hi]."""
    chain = sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


# ---------------------------------------------------------------------------
# Irreducibility over Q for degree <= 4 (exact; degree >= 5 is caller's duty).
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def _primitive(coeffs: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    g = g or 1
    return tuple(c // g for c in coeffs)


def _has_rational_root(coeffs: Sequence[int]) -> bool:
    if coeffs[0] == 0:
        return True
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if poly_eval(tuple(Fraction(c) for c in coeffs), Fraction(num, q)) == 0:
                    return True
    return False


def _has_quadratic_factor(c: Sequence[int]) -> bool:
    """Integer quartic with no rational root: search (a2x^2+a1x+a0)(b2x^2+b1x+b0)."""
    c0, c1, c2, c3, c4 = c
    bound = 4 * (1 + abs(c4)) * (1 + isqrt(sum(ci * ci for ci in c)))
    for a2 in _divisors(c4):
        if c4 % a2 != 0:
            continue
        b2 = c4 // a2
        for a0d in _divisors(c0):
            for a0 in (a0d, -a0d):
                if a0 == 0 or c0 % a0 != 0:
                    continue
                b0 = c0 // a0
                det = b2 * a0 - a2 * b0
                if det != 0:
                    num_a1 = a0 * c3 - a2 * c1
                    num_b1 = b2 * c1 - b0 * c3
                    if num_a1 % det or num_b1 % det:
                        continue
                    a1, b1 = num_a1 // det, num_b1 // det
                    if a2 * b0 + a1 * b1 + a0 * b2 == c2:
                        return True
                else:
                    for a1 in range(-bound, bound + 1):
                        if (c3 - b2 * a1) % a2:
                            continue
                        b1 = (c3 - b2 * a1) // a2
                        if (
                            a2 * b0 + a1 * b1 + a0 * b2 == c2
                            and a1 * b0 + a0 * b1 == c1
                        ):
                            return True
    return False


def _check_irreducible(coeffs: Sequence[int]) -> None:
    """Raise ReducibleMinpoly for reducible primitive polys of degree 2..4."""
    deg = len(coeffs) - 1
    if deg <= 1:
        return
    prim = _primitive(coeffs)
    if _has_rational_root(prim):
        raise ReducibleMinpoly(f"minimal polynomial {list(coeffs)} has a rational root")
    if deg == 4 and _has_quadratic_factor(prim):
        raise ReducibleMinpoly(
            f"minimal polynomial {list(coeffs)} splits into integer quadratics"
        )


# ---------------------------------------------------------------------------
# Number fields.
# ---------------------------------------------------------------------------


class NumberField:
    """Real number field Q(theta) with a Sturm-certified isolating interval.

    The isolating interval only ever shrinks, so any cached interval is valid.
    """

    def __init__(self, minpoly: Sequence[int], interval) -> None:
        minpoly = tuple(int(c) for c in minpoly)
        if len(minpoly) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if minpoly[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo > hi:
            raise ValueError("isolating interval must satisfy lo <= hi")

        self.minpoly_int = minpoly
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.degree = len(minpoly) - 1

        if poly_degree(poly_gcd(self.minpoly, poly_derivative(self.minpoly))) > 0:
            raise NotSquarefree(f"minimal polynomial {list(minpoly)} is not squarefree")
        if self.degree <= 4:
            _check_irreducible(minpoly)
            self.irreducible_verified = True
        else:
            self.irreducible_verified = False

        self.rational_theta: Fraction | None = None
        self._interval = (lo, hi)
        self._isolate(lo, hi)
        if self.degree == 1 and self.rational_theta is None:
            # linear minpoly: the root is rational wherever it sits
            self.rational_theta = Fraction(-minpoly[0], minpoly[1])

        # x^k mod minpoly for k = degree .. 2*degree-2, used by multiplication:
        # integer numerator rows over one common denominator
        self._xpow = self._reduction_table()
        self._zeros = (0,) * (self.degree - 1)
        self._pow_cache: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    # -- construction helpers ------------------------------------------------

    def _isolate(self, lo: Fraction, hi: Fraction) -> None:
        p = self.minpoly
        plo, phi = poly_eval(p, lo), poly_eval(p, hi)
        if plo == 0 and phi == 0:
            if lo == hi:
                self.rational_theta = lo
                return
            raise MultipleRootsInInterval("both interval endpoints are roots")
        if plo == 0:
            if count_roots(p, lo, hi) > 0:
                raise MultipleRootsInInterval("endpoint root plus interior root")
            self.rational_theta = lo
            return
        if phi == 0:
            if count_roots(p, lo, hi) > 1:
                raise MultipleRootsInInterval("endpoint root plus interior root")
            self.rational_theta = hi
            return
        n = count_roots(p, lo, hi)
        if n == 0:
            raise NoRootInInterval(f"no root of {list(self.minpoly_int)} in [{lo}, {hi}]")
        if n > 1:
            raise MultipleRootsInInterval(f"{n} roots in [{lo}, {hi}]")
        # simple root of a squarefree polynomial: signs must differ
        assert (plo > 0) != (phi > 0)

    def _reduction_table(self):
        d = self.degree
        table = []
        # x^d = -(c_{d-1} x^{d-1} + ... + c_0)/c_d
        lead = self.minpoly[-1]
        base = tuple(-c / lead for c in self.minpoly[:-1])
        cur = base
        table.append(cur)
        for _ in range(d - 2):
            shifted = (Fraction(0),) + cur  # multiply by x
            over = shifted[d] if len(shifted) > d else Fraction(0)
            red = list(shifted[:d])
            while len(red) < d:
                red.append(Fraction(0))
            if over:
                red = [a + over * b for a, b in zip(red, base)]
            cur = tuple(red)
            table.append(cur)
        den = lcm(*(c.denominator for row in table for c in row))
        return [tuple(c.numerator * (den // c.denominator) for c in row)
                for row in table], den

    # -- interval refinement ---------------------------------------------------

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Shrink the isolating interval to the requested width by
        bisection, on integer endpoints L, H over one denominator."""
        if self.rational_theta is not None:
            t = self.rational_theta
            return (t, t)
        lo, hi = self._interval
        if hi - lo <= width:
            return (lo, hi)
        (a, b), (c, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
        L, H, den = a * e, c * b, b * e
        slo = 1 if self._sign_at(L, den) > 0 else -1
        while (H - L) * width.denominator > width.numerator * den:
            mid, den = L + H, 2 * den
            v = self._sign_at(mid, den)
            if v == 0:
                # can only happen for unverified reducible minpolys
                self.rational_theta = Fraction(mid, den)
                self._interval = (self.rational_theta,) * 2
                return self._interval
            L, H = (mid, 2 * H) if v == slo else (2 * L, mid)
        self._interval = (Fraction(L, den), Fraction(H, den))
        return self._interval

    def _sign_at(self, a: int, b: int) -> int:
        """Sign of the minimal polynomial at a/b (b > 0): the sign of the
        integer sum of c_i * a^i * b^(d-i)."""
        acc, bp = 0, 1
        for c in reversed(self.minpoly_int):
            acc, bp = acc * a + c * bp, bp * b
        return (acc > 0) - (acc < 0)

    def theta_enclosure(self, prec: int) -> tuple[Fraction, Fraction]:
        return self.refine(Fraction(1, 1 << prec))

    def pow_table(self, prec: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Enclosures of theta^i, i < degree, each of width <= 2^-prec, as
        integers (den, lo, hi) with theta^i in [lo[i]/den, hi[i]/den].

        One entry per precision, built on first request from the isolating
        interval as it stands then.
        """
        cached = self._pow_cache.get(prec)
        if cached is not None:
            return cached
        d = self.degree
        # guard bits soak up the width amplification of interval powers
        _, hi0 = self._interval
        mag = max(1, int(abs(hi0)) + 1)
        guard = 2 * d + mag.bit_length() * d + 2
        lo, hi = self.theta_enclosure(prec + guard)
        q = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (q // lo.denominator)
        b = hi.numerator * (q // hi.denominator)
        # theta^i in [los[i], his[i]] / q^i
        los, his = [1], [1]
        for _ in range(1, d):
            x, y = los[-1], his[-1]
            cands = (x * a, x * b, y * a, y * b)
            los.append(min(cands))
            his.append(max(cands))
        scale = [q ** (d - 1 - i) for i in range(d)]
        entry = (q ** (d - 1),
                 tuple(x * s for x, s in zip(los, scale)),
                 tuple(y * s for y, s in zip(his, scale)))
        self._pow_cache[prec] = entry
        return entry

    # -- element constructors --------------------------------------------------

    def element(self, coeffs) -> "AlgebraicReal":
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        # over the lcm of lowest-terms denominators the numerators are coprime
        # to it, so the pair is already reduced
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        return AlgebraicReal(self, nums + (0,) * (self.degree - len(nums)), den)

    def from_rational(self, q) -> "AlgebraicReal":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return AlgebraicReal(self, (q.numerator,) + self._zeros, q.denominator)

    @property
    def theta(self) -> "AlgebraicReal":
        if self.degree == 1:
            # theta is the rational root itself
            return self.from_rational(self.rational_theta)
        return self.element([0, 1])

    @property
    def zero(self) -> "AlgebraicReal":
        return self.from_rational(0)

    @property
    def one(self) -> "AlgebraicReal":
        return self.from_rational(1)

    def __repr__(self) -> str:
        return f"NumberField({list(self.minpoly_int)}, {self._interval})"


def field_create(minpoly: Sequence[int], interval) -> NumberField:
    """Validate and build a number field; see NumberField for the contract."""
    return NumberField(minpoly, interval)


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------


def _weight(nums: Sequence[int], den: int) -> int:
    """1 + sum(int(|c|) + 1) over the coefficients c = nums[i] / den."""
    return 1 + sum(abs(k) // den + 1 for k in nums)


def _reduced(field: NumberField, nums: tuple[int, ...], den: int) -> "AlgebraicReal":
    """The element nums / den (den > 0), divided through by gcd(den, *nums)."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(k // g for k in nums)
        den //= g
    return AlgebraicReal(field, nums, den)


class AlgebraicReal:
    """Element of Q(theta), canonically reduced; immutable.

    The value is sum(nums[i] * theta^i) / den with den > 0 and
    gcd(den, *nums) == 1, so zero is ((0, ..., 0), 1).
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums: tuple[int, ...], den: int) -> None:
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, theta, ..., theta^(d-1) as Fractions."""
        return tuple(Fraction(k, self.den) for k in self.nums)

    # -- coercion ---------------------------------------------------------------

    def _coerce(self, other) -> "AlgebraicReal":
        if isinstance(other, AlgebraicReal):
            if other.field is not self.field:
                raise FieldMismatch("operands belong to different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ----------------------------------------------------------

    def _plus(self, nums, den: int) -> "AlgebraicReal":
        """self + nums / den, for integer numerators and den > 0."""
        a, da = self.nums, self.den
        if da == den:
            return _reduced(self.field, tuple(x + y for x, y in zip(a, nums)), da)
        g = gcd(da, den)
        sa, sb = den // g, da // g
        return _reduced(self.field, tuple(x * sa + y * sb for x, y in zip(a, nums)),
                        da * sa)

    def __add__(self, other):
        if isinstance(other, int):
            # adding a multiple of den keeps gcd(den, *nums) == 1
            return AlgebraicReal(self.field, (self.nums[0] + other * self.den,)
                                 + self.nums[1:], self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o.nums, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return AlgebraicReal(self.field, (self.nums[0] - other * self.den,)
                                 + self.nums[1:], self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus([-k for k in o.nums], o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgebraicReal(self.field, tuple(-k for k in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self.field, tuple(k * other for k in self.nums), self.den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _reduced(self.field, tuple(k * p for k in self.nums),
                            self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        field = self.field
        d = field.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(o.nums):
                    prod[i + j] += a * b
        den = self.den * o.den
        out = prod[:d]
        rows, tden = field._xpow
        if tden != 1:
            out = [c * tden for c in out]
            den *= tden
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                for i, t in enumerate(rows[k - d]):
                    out[i] += c * t
        return _reduced(field, tuple(out), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational divisor needs no field inverse
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n: int):
        if n < 0:
            return (self**(-n))._inverse()
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _inverse(self) -> "AlgebraicReal":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        g, u, _ = poly_ext_gcd(_trim(self.coeffs), self.field.minpoly)
        if poly_degree(g) != 0:
            # nonzero value sharing a factor with a reducible minpoly
            raise ArithmeticError("element is a zero divisor; minpoly not irreducible")
        return self.field.element(u)

    # -- decision procedures ----------------------------------------------------

    def is_zero(self) -> bool:
        """Exact zero test (sound also for unverified degree >= 5 fields)."""
        if not any(self.nums):
            return True
        if self.field.irreducible_verified:
            return False
        g = poly_gcd(_trim(self.coeffs), self.field.minpoly)
        if poly_degree(g) <= 0:
            return False
        # theta is the unique minpoly root in the interval; it is a root of
        # the gcd iff the gcd has a root there.
        lo, hi = self.field._interval
        if self.field.rational_theta is not None:
            return poly_eval(g, self.field.rational_theta) == 0
        return count_roots(g, lo, hi) > 0

    def is_rational(self) -> bool:
        """Exact for validated fields; for unverified (degree >= 5) fields a
        rational value hidden in a nontrivial representation may report
        False, since only the canonical coefficients are inspected."""
        if not any(self.nums[1:]):
            return True
        if not self.field.irreducible_verified:
            return (self - self.field.from_rational(self.as_fraction_approx())).is_zero()
        return False

    def as_fraction_approx(self) -> Fraction:
        if self.field.rational_theta is not None:
            return poly_eval(_trim(self.coeffs), self.field.rational_theta)
        return Fraction(self.nums[0], self.den)

    def as_fraction(self) -> Fraction:
        """Exact rational value; raises if the element is irrational."""
        r = self._rational_form()
        if r is not None:
            return Fraction(*r)
        cand = self.as_fraction_approx()
        if not self.field.irreducible_verified and (self - cand).is_zero():
            return cand
        raise ValueError("element is not rational")

    def _rational_form(self) -> tuple[int, int] | None:
        """(p, q) in lowest terms, q > 0, if the representation is rational
        (no theta terms, or a rational theta); None otherwise."""
        if not any(self.nums[1:]):
            return self.nums[0], self.den
        if self.field.rational_theta is not None:
            v = self.as_fraction_approx()
            return v.numerator, v.denominator
        return None

    def _scaled(self, prec: int, weight: int) -> tuple[int, int, int]:
        """(L, H, S) with the value in [L/S, H/S] and (H - L) * 2^prec <= S.

        `weight` bounds the sum of coefficient magnitudes and sets the
        starting precision of the theta powers.
        """
        nums = self.nums
        fprec = prec + weight.bit_length() + 2
        table = self.field.pow_table
        while True:
            tden, los, his = table(fprec)
            lo = hi = 0
            for k, a, b in zip(nums, los, his):
                if k > 0:
                    lo += k * a
                    hi += k * b
                elif k < 0:
                    lo += k * b
                    hi += k * a
            scale = self.den * tden
            if (hi - lo) << prec <= scale:
                return lo, hi, scale
            fprec *= 2

    def scaled_enclosure(self, prec: int) -> tuple[int, int, int]:
        """Integers (L, H, S), S > 0, with the value in [L/S, H/S] and
        (H - L) * 2^prec <= S."""
        r = self._rational_form()
        if r is not None:
            return (r[0], r[0], r[1])
        return self._scaled(prec, _weight(self.nums, self.den))

    def enclosure(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, of width <= 2^-prec."""
        lo, hi, scale = self.scaled_enclosure(prec)
        return (Fraction(lo, scale), Fraction(hi, scale))

    def sign(self) -> int:
        r = self._rational_form()
        if r is not None:
            return (r[0] > 0) - (r[0] < 0)
        if self.is_zero():
            return 0
        weight = _weight(self.nums, self.den)
        prec = 32
        while True:
            lo, hi, _ = self._scaled(prec, weight)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def floor(self) -> int:
        r = self._rational_form()
        if r is not None:
            return r[0] // r[1]
        return self._floor_shifted(False)

    def nint(self) -> int:
        """Nearest integer, half up: floor(x + 1/2)."""
        r = self._rational_form()
        if r is not None:
            return (2 * r[0] + r[1]) // (2 * r[1])
        return self._floor_shifted(True)

    def _floor_shifted(self, half: bool) -> int:
        """floor(x + 1/2) if `half` else floor(x), for x of irrational form.

        The precision schedule is that of floor() applied to the element
        x + 1/2, whose weight counts |c0 + 1/2| in place of |c0|.
        """
        nums, den = self.nums, self.den
        weight = _weight(nums, den)
        if half:
            k0 = nums[0]
            weight += abs(2 * k0 + den) // (2 * den) - abs(k0) // den
        prec = 16
        while True:
            lo, hi, scale = self._scaled(prec, weight)
            if half:
                lo, hi, scale = 2 * lo + scale, 2 * hi + scale, 2 * scale
            flo, fhi = lo // scale, hi // scale
            if flo == fhi:
                return flo
            # the enclosure straddles integers; an exact boundary must be
            # tested (x - k is never zero in a verified field, as x is not
            # rational there)
            if not self.field.irreducible_verified:
                shift = HALF if half else 0
                for k in range(flo + 1, fhi + 1):
                    if (self - (k - shift)).is_zero():
                        return k
            prec *= 2

    def frac_signed(self) -> "AlgebraicReal":
        return self - self.nint()

    def circle_norm(self) -> "AlgebraicReal":
        f = self.frac_signed()
        return -f if f.sign() < 0 else f

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, AlgebraicReal):
            return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((id(self.field), self.nums, self.den))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions --------------------------------------------------------------

    def __float__(self) -> float:
        lo, hi = self.enclosure(64)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        return f"AlgebraicReal({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# The decisions as functions of field elements, ints and Fractions alike.
# ---------------------------------------------------------------------------

Number = Union[int, Fraction, AlgebraicReal]


def sign(x: Number) -> int:
    if isinstance(x, AlgebraicReal):
        return x.sign()
    return (x > 0) - (x < 0)


def floor_exact(x: Number) -> int:
    if isinstance(x, AlgebraicReal):
        return x.floor()
    return x.numerator // x.denominator


def floor_half_inverse(x: Number) -> int:
    """floor(1/(2x)) for x > 0, found with no field inverse: the q with
    2xq <= 1 < 2x(q+1).  2x <= H/S bounds q from below by S // H, and
    exact sign tests raise it."""
    two = 2 * x
    if not isinstance(two, AlgebraicReal):
        return floor_exact(1 / Fraction(two))
    _, hi, scale = two.scaled_enclosure(64)
    q = scale // hi
    while (two * (q + 1) - 1).sign() <= 0:
        q += 1
    return q


def nint(x: Number) -> int:
    """Nearest integer, half up: floor(x + 1/2)."""
    if isinstance(x, AlgebraicReal):
        return x.nint()
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def frac_signed(x: Number) -> Number:
    """x - nint(x), in [-1/2, 1/2)."""
    if isinstance(x, AlgebraicReal):
        return x.frac_signed()
    return x - nint(x)


def circle_norm(x: Number) -> Number:
    """Distance from x to the nearest integer."""
    if isinstance(x, AlgebraicReal):
        return x.circle_norm()
    return abs(x - nint(x))


# ---------------------------------------------------------------------------
# Dyadic ball backend (a cross-check of the decisions, built on enclosure).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dyadic:
    """Exact dyadic rational man * 2^exp."""

    man: int
    exp: int

    @staticmethod
    def zero() -> "Dyadic":
        return Dyadic(0, 0)

    @staticmethod
    def from_fraction(fr: Fraction, prec: int, direction: int = 0) -> "Dyadic":
        """Round to precision 2^-prec; direction -1/0/+1 = down/nearest/up."""
        num, den = fr.numerator, fr.denominator
        scaled = num << prec
        q, r = divmod(scaled, den)
        if r:
            if direction > 0:
                q += 1
            elif direction == 0 and 2 * r >= den:
                q += 1
        return Dyadic(q, -prec)

    def to_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << (-self.exp))

    def _align(self, other: "Dyadic") -> tuple[int, int, int]:
        e = min(self.exp, other.exp)
        return self.man << (self.exp - e), other.man << (other.exp - e), e

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._align(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._align(other)
        return Dyadic(a - b, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.man * other.man, self.exp + other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def __le__(self, other: "Dyadic") -> bool:
        a, b, _ = self._align(other)
        return a <= b

    def __lt__(self, other: "Dyadic") -> bool:
        a, b, _ = self._align(other)
        return a < b

    def sign(self) -> int:
        return 0 if self.man == 0 else (1 if self.man > 0 else -1)


@dataclass(frozen=True)
class Ball:
    """Dyadic midpoint-radius enclosure; every operation preserves enclosure."""

    mid: Dyadic
    rad: Dyadic
    precision: int

    def __add__(self, other: "Ball") -> "Ball":
        return Ball(self.mid + other.mid, self.rad + other.rad,
                    min(self.precision, other.precision))

    def __sub__(self, other: "Ball") -> "Ball":
        return Ball(self.mid - other.mid, self.rad + other.rad,
                    min(self.precision, other.precision))

    def __mul__(self, other: "Ball") -> "Ball":
        # |xy - mx my| <= |mx| ry + |my| rx + rx ry
        rad = abs(self.mid) * other.rad + abs(other.mid) * self.rad + self.rad * other.rad
        return Ball(self.mid * other.mid, rad, min(self.precision, other.precision))

    def __neg__(self) -> "Ball":
        return Ball(-self.mid, self.rad, self.precision)

    def contains_zero(self) -> bool:
        return abs(self.mid) <= self.rad

    def sign_certified(self) -> int | None:
        """Sign if the ball excludes zero, else None."""
        if self.contains_zero():
            return None
        return self.mid.sign()

    def lo(self) -> Fraction:
        return (self.mid - self.rad).to_fraction()

    def hi(self) -> Fraction:
        return (self.mid + self.rad).to_fraction()


def ball_eval(x: AlgebraicReal, precision: int) -> Ball:
    """Ball enclosure of x with radius <= 2^-(precision-2)."""
    if precision < 8:
        raise ValueError("precision must be >= 8")
    lo, hi = x.enclosure(precision)
    if lo == hi:
        mid = Dyadic.from_fraction(lo, precision + 4)
        err = abs(Dyadic.from_fraction(lo, precision + 4, direction=1) - mid)
        rad = err + Dyadic(1, -(precision + 2))
        if lo.denominator & (lo.denominator - 1) == 0:
            # dyadic input is exactly representable
            return Ball(Dyadic.from_fraction(lo, precision + 4), Dyadic.zero(), precision)
        return Ball(mid, rad, precision)
    mid = Dyadic.from_fraction((lo + hi) / 2, precision + 4)
    # rounding slack + half interval width
    rad = Dyadic(1, -(precision + 3)) + Dyadic.from_fraction((hi - lo) / 2, precision + 4, direction=1)
    return Ball(mid, rad, precision)


def ball_floor(x: AlgebraicReal, start: int = 64, cap: int = 4096) -> int:
    """Floor via the ball backend alone; raises AmbiguousAtPrecision at the cap."""
    prec = start
    while prec <= cap:
        b = ball_eval(x, prec)
        lo, hi = b.lo(), b.hi()
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo == fhi:
            return flo
        prec *= 2
    raise AmbiguousAtPrecision(f"floor undecided at {cap} bits")


def ball_nint(x: AlgebraicReal, start: int = 64, cap: int = 4096) -> int:
    return ball_floor(x + HALF, start=start, cap=cap)
