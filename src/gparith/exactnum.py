"""Exact arithmetic over a real number field Q(theta).

A field is described by an integer minimal polynomial together with a
rational isolating interval pinning one real root theta.  An element is a
vector of integer numerators over one positive denominator, reduced modulo
the minimal polynomial and by the gcd of denominator and numerators.  The
minimal polynomial is proven irreducible, which is why its degree is at most
4, so equality of representations is value equality and an element with a
theta term is irrational.  Sums, differences and products run in integers;
the product reduces x^d, ..., x^(2d-2) with one integer table over one
common denominator, so a non-monic minimal polynomial needs no Fractions
either.  There is no field division: a quotient (a + b theta)/(c + d theta)
is the theta of a field of its own, `NumberField.mobius`.  Sign, floor,
nearest integer, signed fractional part and circle norm are all decided
exactly by refining the isolating interval with certified interval
arithmetic, and refinement alone ends each decision.

Decisions run in integers.  The field caches the enclosures of theta^i once
per precision as integer numerators over one common denominator; an element
sums its numerators times those into a scaled enclosure (L, H, S) with the
value in [L/S, H/S].  sign compares L and H with 0, floor takes L // S and
H // S, and nint takes (2L + S) // 2S.  `enclosure(prec)` returns the same
endpoints as Fractions, and `coeffs` the coefficients as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from .errors import (
    FieldMismatch,
    MultipleRootsInInterval,
    NoRootInInterval,
    ReducibleMinpoly,
)

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
# Irreducibility over Q for degree <= 4 (exact; higher degrees are refused).
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
        if len(minpoly) > 5:
            raise ValueError(f"minimal polynomial has degree {len(minpoly) - 1}: "
                             "irreducibility is verified only up to degree 4")
        if minpoly[-1] <= 0:
            raise ValueError("leading coefficient must be positive")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo > hi:
            raise ValueError("isolating interval must satisfy lo <= hi")

        self.minpoly_int = minpoly
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.degree = len(minpoly) - 1

        _check_irreducible(minpoly)  # so squarefree, as the Sturm count needs

        self.rational_theta: Fraction | None = None
        self._given = self._interval = (lo, hi)
        self._isolate(lo, hi)

        # x^k mod minpoly for k = degree .. 2*degree-2, used by multiplication:
        # integer numerator rows over one common denominator
        self._xpow = self._reduction_table()
        self._zeros = (0,) * (self.degree - 1)
        self._pow_cache: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        """The isolating interval the field was constructed with; `refine`
        shrinks a copy of it."""
        return self._given

    # -- construction helpers ------------------------------------------------

    def _isolate(self, lo: Fraction, hi: Fraction) -> None:
        if self.degree == 1:
            root = Fraction(-self.minpoly_int[0], self.minpoly_int[1])
            n = int(lo <= root <= hi)
            self.rational_theta = root
        else:
            # an irreducible polynomial of degree >= 2 has no rational root,
            # so neither endpoint is one and (lo, hi] counts [lo, hi]
            n = count_roots(self.minpoly, lo, hi)
        if n == 0:
            raise NoRootInInterval(f"no root of {list(self.minpoly_int)} in [{lo}, {hi}]")
        if n > 1:
            raise MultipleRootsInInterval(f"{n} roots in [{lo}, {hi}]")

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
            L, H = (mid, 2 * H) if self._sign_at(mid, den) == slo else (2 * L, mid)
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

    def mobius(self, a: int, b: int, c: int, d: int) -> "NumberField":
        """The field whose theta is y = (a + b*theta)/(c + d*theta), ad != bc.

        Up to content its minimal polynomial is (d*y - b)^deg * P((a - c*y)/(d*y - b)),
        as a Mobius map keeps degree and irreducibility; off the pole -c/d it is
        monotone, so it carries an isolating interval onto one."""
        q = [0] * (self.degree + 1)
        for i, p in enumerate(self.minpoly_int):
            term = [p]  # times (a - c*y)^i * (d*y - b)^(deg - i), low degree first
            for u, v in [(a, -c)] * i + [(-b, d)] * (self.degree - i):
                term = [u * s + v * t for s, t in zip(term + [0], [0] + term)]
            q = [x + t for x, t in zip(q, term)]
        if a * d == b * c or q[-1] == 0:  # a constant map, or a pole at a rational theta
            raise ValueError(f"({a} + {b}theta)/({c} + {d}theta) is constant or undefined")
        lo, hi = self._interval
        while d and lo <= Fraction(-c, d) <= hi:
            lo, hi = self.refine((hi - lo) / 2)
        ends = sorted((a + b * x) / (c + d * x) for x in (lo, hi))
        return NumberField(_primitive([-x for x in q] if q[-1] < 0 else q), ends)

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers need a field inverse, which the core omits")
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- decision procedures ----------------------------------------------------

    def is_zero(self) -> bool:
        """Exact zero test: the representation is canonical."""
        return not any(self.nums)

    def is_rational(self) -> bool:
        """Exact: 1, theta, ..., theta^(d-1) are linearly independent over Q."""
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        """Exact rational value; raises if the element is irrational."""
        r = self._rational_form()
        if r is None:
            raise ValueError("element is not rational")
        return Fraction(*r)

    def _rational_form(self) -> tuple[int, int] | None:
        """(p, q) in lowest terms, q > 0, if the element has no theta terms;
        None otherwise."""
        if not any(self.nums[1:]):
            return self.nums[0], self.den
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
        weight = _weight(self.nums, self.den)
        prec = 32
        while True:
            lo, hi, _ = self._scaled(prec, weight)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # an element of irrational form is not 0, so refinement ends
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
            # x is irrational, so neither an integer nor a half-integer, and
            # refinement ends
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
