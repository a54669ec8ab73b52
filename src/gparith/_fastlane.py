"""Vectorised scanning lanes with certified error bounds.

Bulk searches evaluate nint/frac of const*k over int64 vectors through a
64-bit modular (wraparound) dyadic lane: with A = round(frac(const)*2^64),
the signed integer (A*k mod 2^64) approximates frac_signed(const*k)*2^64
with absolute error <= (|k|+2)*2^-64; the float margins add _ROUNDING for
the float roundings around that value.  Elements whose rounding decision
falls inside the margin are recomputed exactly.  Integer outputs (nearest
integers, sequence values) are therefore exact; float outputs are
filter-only and every surviving candidate must be re-verified exactly by
the caller.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exactnum import AlgebraicReal, frac_signed, nint

_SCALE = float(2.0**-64)
_INT64_MAX = (1 << 63) - 1
# A filter compares a float frac with a float threshold t: int64 -> float64
# moves the frac (|frac| <= 1/2) by at most 2^-55; rounding t (|t| < 2, also
# float() of an algebraic endpoint) and then t +- margin move the threshold
# by at most 2^-53 each.  2^-51 covers their sum.
_ROUNDING = 2.0**-51


def check_int64_product(*factors) -> None:
    """Raise ValueError unless a product of integers bounded in magnitude by
    `factors` fits in int64 (lane products must never wrap silently)."""
    bound = 1
    for f in factors:
        bound *= abs(int(f))
    if bound > _INT64_MAX:
        raise ValueError("lane product exceeds the int64 range")


class FastConst:
    """A real constant usable in modular vector lanes.

    Valid for |const * k| < 2^51 (the integer part is recovered in float64).
    """

    def __init__(self, value) -> None:
        self.value = value
        if isinstance(value, AlgebraicReal):
            lo, hi = value.enclosure(80)
            approx = (lo + hi) / 2
            self.exact_nint = lambda k: (value * k).nint()
            self.exact_frac = lambda k: (value * k).frac_signed()
        else:
            approx = Fraction(value)
            self.exact_nint = lambda k: nint(approx * k)
            self.exact_frac = lambda k: frac_signed(approx * k)
        self.f64 = float(approx)
        # |frac_signed(const) - A/2^64| <= 2^-65 + (enclosure width 2^-80)
        self._A = np.uint64(nint(frac_signed(approx) * (1 << 64)) & ((1 << 64) - 1))

    def frac_scaled(self, k: np.ndarray) -> np.ndarray:
        """int64 array f with f/2^64 ~ frac_signed(const*k), err <= (k+2)/2^64."""
        if k.dtype != np.int64:
            k = k.astype(np.int64)
        return (k.view(np.uint64) * self._A).view(np.int64)

    def nint_frac_vec(self, k: np.ndarray):
        """(q, frac64, margin64, flags); q exact where ~flags.

        q: int64 nearest integers of const*k, frac64/margin64: float64
        signed fractional parts with certified absolute error bound.
        """
        if k.dtype != np.int64:
            k = k.astype(np.int64)
        frac, margin = self.frac_vec_filter(k)
        flags = (0.5 - np.abs(frac)) <= margin
        # const*k - frac is an integer; float64 recovers it exactly for
        # |const*k| < 2^51 because the combined error stays far below 1/2.
        if len(k) and abs(self.f64) * float(np.abs(k).max()) >= 2.0**51:
            raise ValueError("lane argument exceeds the exact-recovery range")
        q = np.rint(self.f64 * k.astype(np.float64) - frac).astype(np.int64)
        if flags.any():
            for i in np.nonzero(flags)[0]:
                q[i] = self.exact_nint(int(k[i]))
        return q, frac, margin, flags

    def nint_vec_exact(self, k: np.ndarray) -> np.ndarray:
        """Exact nearest integers of const*k (ambiguous entries resolved)."""
        return self.nint_frac_vec(k)[0]

    def frac_vec_filter(self, k: np.ndarray):
        """(frac float64, margin float64) -- for filtering only; the margin
        also covers the rounding of a threshold |t| < 2 compared with frac."""
        if k.dtype != np.int64:
            k = k.astype(np.int64)
        # fs stays bound until return: freeing it earlier changed the
        # allocation pattern and raised the peak RSS of `verify 3.4` by 4%
        fs = self.frac_scaled(k)
        frac = fs.astype(np.float64) * _SCALE
        margin = (np.abs(k).astype(np.float64) + 4.0) * _SCALE + _ROUNDING
        return frac, margin


class QuadSeqFast:
    """Exact bulk evaluation of g(n) = nint(beta*n*nint(alpha*n)), beta in Z."""

    def __init__(self, alpha: AlgebraicReal, beta: int) -> None:
        if not isinstance(beta, int):
            raise TypeError("fast lane requires an integer beta")
        self.alpha = alpha
        self.beta = beta
        self.const = FastConst(alpha)

    def g_vec(self, n: np.ndarray) -> np.ndarray:
        """Exact g on an int64 vector (beta*n*nint(alpha*n) is an integer)."""
        q = self.const.nint_vec_exact(n)
        if len(n):
            check_int64_product(self.beta, np.abs(n).max(), np.abs(q).max())
        return self.beta * n * q

    def g_range(self, lo: int, hi: int) -> np.ndarray:
        """Exact g(lo..hi) inclusive, index i -> g(lo+i)."""
        return self.g_vec(np.arange(lo, hi + 1, dtype=np.int64))

    def frac_alpha_filter(self, n: np.ndarray):
        return self.const.frac_vec_filter(n)

    def g_scalar(self, n: int) -> int:
        return self.beta * n * self.const.exact_nint(n)


class BohrFast:
    """Exact bulk evaluation of the quadratic indicator 1[norm(alpha*n^2) < rho]."""

    def __init__(self, alpha: AlgebraicReal, rho: Fraction) -> None:
        self.alpha = alpha
        self.rho = Fraction(rho)
        self.const = FastConst(alpha)
        self._rho64 = float(self.rho)

    def g_vec(self, n: np.ndarray) -> np.ndarray:
        """Exact indicator values on an int64 vector."""
        n = n.astype(np.int64)
        if len(n):
            m = np.abs(n).max()
            check_int64_product(m, m)
        k = n ** 2
        frac, margin = self.const.frac_vec_filter(k)
        norm = np.abs(frac)
        out = (norm < self._rho64).astype(np.int8)
        undecided = np.abs(norm - self._rho64) <= margin
        if undecided.any():
            for i in np.nonzero(undecided)[0]:
                out[i] = self.g_scalar(int(n[i]))
        return out

    def g_range(self, lo: int, hi: int) -> np.ndarray:
        return self.g_vec(np.arange(lo, hi + 1, dtype=np.int64))

    def g_scalar(self, n: int) -> int:
        nrm = (self.alpha * (n * n)).circle_norm()
        return 1 if (nrm - self.rho).sign() < 0 else 0
