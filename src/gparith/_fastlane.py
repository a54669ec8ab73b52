"""Vectorised scanning lanes with certified error bounds.

Bulk searches evaluate nint/frac of const*k over int64 vectors through a
64-bit modular (wraparound) dyadic lane: with A = round(frac(const)*2^64),
the signed integer (A*k mod 2^64) approximates frac_signed(const*k)*2^64
with absolute error <= (|k|+2)*2^-64; the float margins add _ROUNDING for
the float roundings around that value.  Integer outputs (nearest integers,
sequence values) are exact: entries whose rounding falls inside the margin,
or past the float recovery range, are recomputed exactly.

This module is the only place a lane margin is read, and its answers are
exact.  Callers pass exact thresholds (int, Fraction or field element):
`FastConst.within(k, lo, hi)` returns the mask of
lo < frac_signed(const*k) < hi, `FastConst.extremes(k)` the least and
greatest frac_signed(const*k), `FastConst.bins(k, grid)` the index of
frac_signed(const*k) among `grid` equal bins of [-1/2, 1/2) (the exact
orbit bins of `verify 3.4`; its push-forward samples are Monte Carlo
floats and are not lane values), and `FastConst.half_inverse_norm(k, cap)`
the capped floor(1/(2*norm(const*k))) (the progression lengths of the Q
store).  Entries the margin settles are read from the lane; entries within
their margin of a threshold, a bin edge or +-1/2 are decided by
`exact_frac`.  Long scans walk `blocks`, int64 ranges of BLOCK
integers.

The scalar lane answers one Python int k: `exact_nint(k)` reads nint(const*k)
from one integer enclosure [L, H]/S of the constant (width <= 2^-128, taken
on the first scalar call) when both ends of k*[L, H]/S round alike, and
`within_scalar` decides lo < frac_signed(const*k) < hi against integer
enclosures of lo and hi; the field decides only where they straddle.

QuadSeqFast (g(n) = nint(beta*n*nint(alpha*n))) and BohrFast (the
indicator 1[norm(alpha*n^2) < rho]) are the one evaluator of each named
sequence: a call g(n) goes through the memo of genpoly.SequenceHandle to
the exact `g_scalar`, and `g_vec` / `g_range` are the certified lanes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import PreconditionViolated
from .exactnum import (
    AlgebraicReal,
    Number,
    floor_exact,
    floor_half_inverse,
    frac_signed,
    nint,
    sign,
)
from .genpoly import BLOCK, INT64_MAX, SequenceHandle

_SCALE = float(2.0**-64)
# A filter compares a float frac with a float threshold t: int64 -> float64
# moves the frac (|frac| <= 1/2) by at most 2^-55; rounding t (|t| < 2, also
# float() of an algebraic endpoint) and then t +- margin move the threshold
# by at most 2^-53 each.  2^-51 covers their sum.
_ROUNDING = 2.0**-51


def blocks(start: int, stop: int, size: int = BLOCK):
    """Consecutive int64 aranges of at most `size` integers covering
    start..stop-1 in increasing order."""
    for lo in range(start, stop, size):
        yield np.arange(lo, min(lo + size, stop), dtype=np.int64)


def check_int64_product(*factors) -> None:
    """Raise ValueError unless a product of integers bounded in magnitude by
    `factors` fits in int64 (lane products must never wrap silently)."""
    bound = 1
    for f in factors:
        bound *= abs(int(f))
    if bound > INT64_MAX:
        raise ValueError("lane product exceeds the int64 range")


def enclosure(x: Number) -> tuple[int, int, int]:
    """(L, H, S), S > 0, with x in [L/S, H/S] and (H - L)*2^128 <= S: the
    integer enclosure that the scalar lane compares (exact for a rational)."""
    if isinstance(x, AlgebraicReal):
        return x.scaled_enclosure(128)
    return x.numerator, x.numerator, x.denominator


class FastConst:
    """A real constant usable in modular vector lanes on any int64 k."""

    def __init__(self, value) -> None:
        self.value = value
        if isinstance(value, AlgebraicReal):
            lo, hi = value.enclosure(80)
            approx = (lo + hi) / 2
            exact = value
        else:
            lo = hi = approx = exact = Fraction(value)
        self.abs_low = floor_exact(max(lo, -hi, 0) * (1 << 32))  # |const| >= abs_low/2^32
        self.f64 = float(approx)
        # |frac_signed(const) - A/2^64| <= 2^-65 + (enclosure width 2^-80)
        self._A = np.uint64(nint(frac_signed(approx) * (1 << 64)) & ((1 << 64) - 1))
        enc = None  # enclosure(exact), taken on the first scalar call

        # closures, not methods: an instance holds no reference to itself
        def scalar(k: int) -> tuple[int, int, int, int]:
            """(q, a, b, S): const*k lies in [a/S, b/S] and q = nint(const*k),
            read from the enclosure unless it straddles a half."""
            nonlocal enc
            if enc is None:
                enc = enclosure(exact)
            L, H, S = enc
            a, b = (k * L, k * H) if k >= 0 else (k * H, k * L)
            q = (2 * a + S) // (2 * S)
            if q != (2 * b + S) // (2 * S):
                q = nint(exact * k)
            return q, a, b, S

        self._exact, self._scalar = exact, scalar
        self.exact_nint = lambda k: scalar(k)[0]
        self.exact_frac = lambda k: exact * k - scalar(k)[0]

    def within_scalar(self, k: int, lo, hi, ends) -> bool:
        """Exact lo < frac_signed(const*k) < hi, with ends = (enclosure(lo),
        enclosure(hi)); decided in the field only where the enclosures of
        the frac and of a threshold overlap."""
        q, a, b, S = self._scalar(k)
        a, b = a - q * S, b - q * S  # frac_signed(const*k) in [a/S, b/S]
        (l_lo, l_hi, l_den), (h_lo, h_hi, h_den) = ends
        if l_hi * S < a * l_den and b * h_den < h_lo * S:
            return True
        if b * l_den <= l_lo * S or h_hi * S <= a * h_den:
            return False
        return lo < self._exact * k - q < hi

    def frac_scaled(self, k: np.ndarray) -> np.ndarray:
        """int64 array f with f/2^64 ~ frac_signed(const*k), err <= (k+2)/2^64."""
        if k.dtype != np.int64:
            k = k.astype(np.int64)
        return (k.view(np.uint64) * self._A).view(np.int64)

    def nint_frac_vec(self, k: np.ndarray) -> np.ndarray:
        """Exact int64 nearest integers of const*k.  Entries whose rounding
        falls inside the lane margin, and entries past the float recovery
        range (about |const*k| >= 2^50), are decided by exact_nint;
        ValueError when such an answer leaves int64."""
        if k.dtype != np.int64:
            k = k.astype(np.int64)
        frac, margin = self.frac_vec_filter(k)
        flags = (0.5 - np.abs(frac)) <= margin
        # const*k - frac is an integer, and rint(x - frac) recovers it while
        # the lane error (at most margin) and the four float errors of x and
        # of the subtraction (each at most 2^-53*|x|) stay below 1/2
        x = k.astype(np.float64)
        x *= self.f64
        top = max(-float(k.min()), float(k.max())) if len(k) else 0.0
        # the largest margin, as frac_vec_filter computes it, and the largest |x|
        if (top + 4.0) * _SCALE + _ROUNDING + abs(self.f64) * top * 2.0**-51 >= 0.5:
            far = margin + np.abs(x) * 2.0**-51 >= 0.5
            flags |= far
            x[far] = 0.0  # numpy warns on casting a float past int64
        x -= frac
        q = np.rint(x, out=x).astype(np.int64)
        for i in np.nonzero(flags)[0]:
            v = self.exact_nint(int(k[i]))
            if not -INT64_MAX - 1 <= v <= INT64_MAX:
                raise ValueError("lane answer exceeds the int64 range")
            q[i] = v
        return q

    def frac_vec_filter(self, k: np.ndarray):
        """(frac float64, margin float64) -- for filtering only; the margin
        also covers the rounding of a threshold |t| < 2 compared with frac."""
        if k.dtype != np.int64:
            k = k.astype(np.int64)
        frac = self.frac_scaled(k).astype(np.float64) * _SCALE
        # |k| in float64: in int64 the magnitude of -2^63 stays negative
        margin = (np.abs(k.astype(np.float64)) + 4.0) * _SCALE + _ROUNDING
        return frac, margin

    def _filter(self, k: np.ndarray):
        """frac_vec_filter with an infinite margin for entries within their
        margin of +-1/2: the lane error is a distance on the circle, so the
        exact frac_signed of such an entry may lie at the other end."""
        frac, margin = self.frac_vec_filter(k)
        margin[(0.5 - np.abs(frac)) <= margin] = np.inf
        return frac, margin

    def within(self, k: np.ndarray, lo, hi) -> np.ndarray:
        """Exact mask of lo < frac_signed(const*k) < hi for exact thresholds
        lo, hi; entries the margin leaves open are decided by exact_frac."""
        frac, margin = self._filter(k)
        lo_f, hi_f = float(lo), float(hi)
        inside = (frac > lo_f + margin) & (frac < hi_f - margin)
        undecided = (frac > lo_f - margin) & (frac < hi_f + margin) & ~inside
        for i in np.nonzero(undecided)[0]:
            inside[i] = lo < self.exact_frac(int(k[i])) < hi
        return inside

    def bins(self, k: np.ndarray, grid: int) -> np.ndarray:
        """Exact int64 floor((frac_signed(const*k) + 1/2)*grid), the bin of
        each entry among `grid` equal bins of [-1/2, 1/2); entries within
        their margin of a bin edge or of +-1/2 are decided by exact_frac."""
        frac, margin = self._filter(k)
        s = (frac + 0.5) * grid
        idx = np.floor(s)
        # s, its distances to idx and idx + 1, and reach round by less than
        # grid*2^-51 in all (margin < 1/2 where it is finite)
        reach = (margin + _ROUNDING) * grid
        undecided = (s - idx <= reach) | (idx + 1 - s <= reach)
        idx = idx.astype(np.int64)
        for i in np.nonzero(undecided)[0]:
            idx[i] = floor_exact((self.exact_frac(int(k[i])) + Fraction(1, 2)) * grid)
        return idx

    def half_inverse_norm(self, k: np.ndarray, cap: int) -> np.ndarray:
        """Exact int64 min(cap, floor(1/(2*norm(const*k)))): the ell(k)/k of
        `focheck.ell`, capped.  Entries whose two lane bounds give different
        capped floors, or within their margin of +-1/2, are decided by
        exact_frac; an integer const*k raises PreconditionViolated."""
        frac, margin = self._filter(k)
        f = np.abs(frac)
        # 1/(2*norm) lies between 0.5/(f + reach) and 0.5/(f - reach): reach
        # adds the roundings of f +- margin, and the factors 1 -+ 2^-50 those
        # of the division and of the factor itself
        reach = margin + _ROUNDING
        apart = f - reach > 0  # False for an infinite margin
        lo = np.floor(0.5 / (f + reach) * (1 - 2.0**-50))
        hi = np.floor(0.5 / np.where(apart, f - reach, 1.0) * (1 + 2.0**-50))
        T = np.minimum(lo, float(cap))
        undecided = ~apart | (T != np.minimum(hi, float(cap)))
        T = T.astype(np.int64)
        for i in np.nonzero(undecided)[0]:
            nrm = abs(self.exact_frac(int(k[i])))
            if sign(nrm) == 0:
                raise PreconditionViolated(f"const*{int(k[i])} is an integer")
            # the cap test keeps the search of floor_half_inverse below cap
            T[i] = cap if sign(2 * nrm * cap - 1) <= 0 else floor_half_inverse(nrm)
        return T

    def extremes(self, k: np.ndarray) -> tuple[Number, Number]:
        """Exact least and greatest frac_signed(const*k[i]) over a non-empty
        k, decided among the indices whose margin reaches the extreme."""
        frac, margin = self._filter(k)
        lower, upper = frac - margin, frac + margin
        low = np.nonzero(lower <= upper.min())[0]
        high = np.nonzero(upper >= lower.max())[0]
        return (min(self.exact_frac(int(k[i])) for i in low),
                max(self.exact_frac(int(k[i])) for i in high))


class QuadSeqFast(SequenceHandle):
    """g(n) = nint(beta*n*nint(alpha*n)): memoised exact values and exact
    bulk evaluation for any beta, with the lanes `const` of alpha and
    `beta_const` of beta."""

    def __init__(self, alpha: AlgebraicReal, beta: Number) -> None:
        super().__init__()
        if isinstance(beta, Fraction) and beta.denominator == 1:
            beta = int(beta)
        self.alpha = alpha
        self.beta = beta
        self.const = FastConst(alpha)
        self.beta_const = FastConst(beta)

    def g_vec(self, n: np.ndarray) -> np.ndarray:
        """Exact g on an int64 vector, q = nint(alpha*n): beta*n*q for an
        integer beta, else nint(beta*x) on the products x = n*q through
        beta's lane; ValueError when g or x leaves int64, before the alpha
        lane runs where |alpha|*max|n| already shows it."""
        whole = isinstance(self.beta, int)
        factor = self.beta if whole else 1
        # numpy refuses an int beta outside int64 even where n or q is 0
        check_int64_product(factor)
        if not len(n):
            return np.zeros(0, dtype=np.int64)
        top = max(-int(n.min()), int(n.max()))
        # |nint(alpha*n)| grows with |n| and is at least |alpha|*top - 1/2 at
        # |n| = top, so a block that must leave int64 is refused before the lane
        check_int64_product(factor, top, max(0, (self.const.abs_low * top >> 32) - 1))
        q = self.const.nint_frac_vec(n)
        check_int64_product(factor, top, np.abs(q).max())
        return self.beta * n * q if whole else self.beta_const.nint_frac_vec(n * q)

    def g_range(self, lo: int, hi: int) -> np.ndarray:
        """Exact g(lo..hi) inclusive, index i -> g(lo+i)."""
        return self.g_vec(np.arange(lo, hi + 1, dtype=np.int64))

    def g_scalar(self, n: int) -> int:
        x = n * self.const.exact_nint(n)
        return self.beta * x if isinstance(self.beta, int) else self.beta_const.exact_nint(x)


class BohrFast(SequenceHandle):
    """The quadratic indicator 1[norm(alpha*n^2) < rho]: memoised exact
    values and exact bulk evaluation."""

    def __init__(self, alpha: AlgebraicReal, rho: Number) -> None:
        super().__init__()
        self.alpha = alpha
        self.rho = rho if isinstance(rho, AlgebraicReal) else Fraction(rho)
        self.const = FastConst(alpha)

    def g_vec(self, n: np.ndarray) -> np.ndarray:
        """Exact indicator values on an int64 vector."""
        n = n.astype(np.int64)
        if len(n):
            m = np.abs(n).max()
            check_int64_product(m, m)
        return self.const.within(n ** 2, -self.rho, self.rho).astype(np.int8)

    def g_range(self, lo: int, hi: int) -> np.ndarray:
        return self.g_vec(np.arange(lo, hi + 1, dtype=np.int64))

    def g_scalar(self, n: int) -> int:
        nrm = (self.alpha * (n * n)).circle_norm()
        return 1 if (nrm - self.rho).sign() < 0 else 0
