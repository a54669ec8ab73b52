"""The quadratic-indicator world: g(n) = 1[norm(alpha n^2) < rho], the
almost-period properties (mu, lambda, kappa, nu, delta) with bounded
quantifiers and three-way verdicts, and the sequence-based divisibility
characterisation used as the authoritative cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._fastlane import BohrFast, FastConst, check_int64_product
from .errors import NotFoundWithinBudget, PreconditionViolated
from .exactnum import AlgebraicReal
from .focheck import CAP_EXHAUSTED, REFUTED, VERIFIED, Verdict


@dataclass(frozen=True)
class BohrParams:
    alpha: AlgebraicReal
    rho: Fraction

    def __post_init__(self):
        rho = Fraction(self.rho)
        if not (0 < rho < Fraction(1, 4)):
            raise PreconditionViolated("rho must satisfy 0 < rho < 1/4")
        if self.alpha.is_rational():
            raise PreconditionViolated("alpha must be irrational")
        # rho rational + alpha irrational makes alpha a non-combination of
        # 1 and rho automatically
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class BohrBounds:
    """Caps for the nested almost-period formulas.

    n_cap bounds the inner witness searches (the existential n inside the
    shifted-hit property); outer_cap bounds the universal n scans of the
    two outermost relations.
    """

    N_cap: int = 10
    M_cap: int = 10
    L_cap: int = 10
    h_cap: int = 600
    n_cap: int = 60_000
    outer_cap: int = 240
    seq_len: int = 8

    def __post_init__(self):
        for name in ("N_cap", "M_cap", "L_cap", "h_cap", "n_cap", "outer_cap",
                     "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class BohrWorld:
    """Cached evaluation context for one (alpha, rho) pair."""

    def __init__(self, params: BohrParams, bounds: BohrBounds = BohrBounds()) -> None:
        self.params = params
        self.bounds = bounds
        self.fast = BohrFast(params.alpha, params.rho)
        self._G = self.fast.g_range(0, 1 << 12)
        self._R: np.ndarray | None = None
        self._R_window = 0
        self._lam_cache: dict[tuple[int, int], np.ndarray] = {}
        self._kappa_cache: dict[tuple[int, int], Verdict] = {}
        self._kappa_table_cache: dict[tuple[int, int], tuple[np.ndarray, bool]] = {}
        self._nu_cache: dict[tuple[int, int, int], Verdict] = {}

    # -- base sequence -------------------------------------------------------

    def _ensure(self, upto: int) -> None:
        if upto < len(self._G):
            return
        size = max(upto + 1, 2 * len(self._G))
        self._G = self.fast.g_range(0, size)

    def g(self, n: int) -> int:
        n = abs(n)  # even sequence
        self._ensure(n)
        return int(self._G[n])

    # -- almost periods --------------------------------------------------------

    def _radius(self, x_max: int, window: int) -> np.ndarray:
        """R[x] = least n in 1..window with g(n+x) != g(n), else window+1."""
        if self._R is not None and self._R_window == window and len(self._R) > x_max:
            return self._R
        self._ensure(x_max + window + 1)
        G = self._G
        base = G[1:window + 1]
        R = np.full(x_max + 1, window + 1, dtype=np.int64)
        for x in range(0, x_max + 1):
            diff = np.nonzero(G[x + 1:x + window + 1] != base)[0]
            if len(diff):
                R[x] = int(diff[0]) + 1
        self._R = R
        self._R_window = window
        return R

    def mu(self, m: int, N: int) -> bool:
        """g(n+m) = g(n) for all 1 <= n <= N, exactly."""
        if m < 0 or N < 0:
            raise PreconditionViolated("m, N must be >= 0")
        if m == 0 or N == 0:
            return True
        self._ensure(m + N)
        return bool(np.array_equal(self._G[m + 1:m + N + 1], self._G[1:N + 1]))

    def mu_true_upto(self, x_max: int, N: int) -> np.ndarray:
        R = self._radius(x_max, max(N, self._R_window or N))
        return np.nonzero(R[1:x_max + 1] > N)[0] + 1  # x >= 1 with mu(x, N)

    def delta_threshold(self, N: int) -> AlgebraicReal:
        """min over n <= N of |norm(alpha n^2) - rho|, exact and positive."""
        if N < 1:
            raise PreconditionViolated("N must be >= 1")
        alpha, rho = self.params.alpha, self.params.rho
        best: AlgebraicReal | None = None
        for n in range(1, N + 1):
            v = abs((alpha * (n * n)).circle_norm() - rho)
            if best is None or (v - best).sign() < 0:
                best = v
        assert best is not None and best.sign() > 0
        return best

    def lambda_(self, m: int, N: int) -> bool:
        """Bounded witness search for mu(n, N) and mu(n+m, N), n <= n_cap."""
        if m < 0 or N < 0:
            raise PreconditionViolated("m, N must be >= 0")
        if m == 0:
            return True
        cap = self.bounds.n_cap
        S = self.mu_true_upto(cap + m, N)
        if len(S) == 0:
            return False
        inset = np.zeros(cap + m + 2, dtype=bool)
        inset[S] = True
        lo = S[S <= cap]
        return bool(np.any(inset[lo + m]))

    def lambda_vec(self, N: int, n_max: int) -> np.ndarray:
        """lam[n] for 1 <= n <= n_max (index 0 unused), via mu-set differences."""
        key = (N, n_max)
        cached = self._lam_cache.get(key)
        if cached is not None:
            return cached
        cap = self.bounds.n_cap
        S = self.mu_true_upto(cap + n_max, N)
        lam = np.zeros(n_max + 1, dtype=bool)
        if len(S):
            inset = np.zeros(cap + n_max + 2, dtype=bool)
            inset[S] = True
            base = S[S <= cap]
            for n in range(1, n_max + 1):
                lam[n] = bool(np.any(inset[base + n]))
        self._lam_cache[key] = lam
        return lam

    # -- kappa / nu / delta with three-way verdicts ------------------------------

    def _kappa_table(self, N: int, x_max: int) -> np.ndarray | None:
        """kappa(x, N) for every 0 <= x <= x_max, or None when no admissible
        h exists within the caps (cap exhaustion).

        kappa(x) is an AND over admissible h of an OR over candidate n of
        g(h + x + n) = 1, computed by boolean dilations.
        """
        # normalise the table length so repeated queries share one table
        x_max = ((max(x_max, 2048) // 4096) + 1) * 4096
        key = (N, x_max)
        for (N0, xm0), (tab0, ok0) in self._kappa_table_cache.items():
            if N0 == N and xm0 >= x_max:
                return tab0 if ok0 else None
        cached = self._kappa_table_cache.get(key)
        if cached is not None:
            return cached[0] if cached[1] else None
        b = self.bounds
        lam_h = self.lambda_vec(b.M_cap, b.h_cap)
        hs = [h for h in range(1, b.h_cap + 1) if self.g(h) == 1 and lam_h[h]]
        if not hs:
            self._kappa_table_cache[key] = (np.zeros(0, dtype=bool), False)
            return None
        lam_n = self.lambda_vec(b.L_cap, b.n_cap)
        R = self._radius(b.n_cap, max(N, b.M_cap, b.L_cap))
        cand = np.nonzero(lam_n[:b.n_cap + 1]
                          & np.concatenate(([False], R[1:b.n_cap + 1] > N)))[0]
        table = np.ones(x_max + 1, dtype=bool)
        if len(cand) == 0:
            table[:] = False
        else:
            self._ensure(int(hs[-1] + x_max + cand[-1] + 1))
            hit = self._G == 1
            for h in hs:
                cur = np.zeros(x_max + 1, dtype=bool)
                for n in cand:
                    off = h + int(n)
                    cur |= hit[off:off + x_max + 1]
                table &= cur
                if not table.any():
                    break
        self._kappa_table_cache[key] = (table, True)
        return table

    def kappa(self, m: int, N: int) -> Verdict:
        """Bounded evaluation of the shifted-hit property.

        Existentials are taken at their caps, universals over their full
        ranges, which by monotonicity matches the literal prefix at caps.
        """
        if m < 0 or N < 1:
            raise PreconditionViolated("m >= 0 and N >= 1 required")
        key = (m, N)
        cached = self._kappa_cache.get(key)
        if cached is not None:
            return cached
        x_max = max(m, self.bounds.outer_cap * 2 + m)
        table = self._kappa_table(N, x_max)
        if table is None:
            v = Verdict(CAP_EXHAUSTED, None, {"reason": "no admissible h"})
        elif table[m]:
            v = Verdict(VERIFIED, True, {})
        else:
            v = Verdict(REFUTED, False, {})
        self._kappa_cache[key] = v
        return v

    def nu(self, m: int, m_tilde: int, N: int) -> Verdict:
        """lambda(n,L) and kappa(m+n,L) jointly force kappa(m_tilde+n,N)."""
        if min(m, m_tilde) < 0 or N < 1:
            raise PreconditionViolated("m, m_tilde >= 0 and N >= 1 required")
        key = (m, m_tilde, N)
        cached = self._nu_cache.get(key)
        if cached is not None:
            return cached
        b = self.bounds
        L = b.L_cap
        x_max = max(m, m_tilde) + b.outer_cap + 1
        kL = self._kappa_table(L, x_max)
        kN = self._kappa_table(N, x_max)
        if kL is None or kN is None:
            v = Verdict(CAP_EXHAUSTED, None, {"reason": "no admissible h"})
            self._nu_cache[key] = v
            return v
        lam_n = self.lambda_vec(L, b.outer_cap)
        ns = np.nonzero(lam_n[1:b.outer_cap + 1])[0] + 1
        ante = ns[kL[m + ns]]
        if len(ante) == 0:
            v = Verdict(CAP_EXHAUSTED, None, {"reason": "empty antecedent set"})
        else:
            bad = ante[~kN[m_tilde + ante]]
            if len(bad):
                v = Verdict(REFUTED, False, {"failing_n": int(bad[0])})
            else:
                v = Verdict(VERIFIED, True, {"antecedents": len(ante)})
        self._nu_cache[key] = v
        return v

    def delta_rel(self, m: int, m_tilde: int) -> Verdict:
        """nu(m+n, m, L) and kappa(n, L) jointly force nu(m_tilde+n, m_tilde, N)."""
        if m < 1 or m_tilde < 1:
            raise PreconditionViolated("m, m_tilde must be >= 1")
        b = self.bounds
        N, L = b.N_cap, b.L_cap
        antecedents = []
        exhausted = False
        for n in range(1, b.outer_cap + 1):
            kn = self.kappa(n, L)
            if kn.value is None:
                return Verdict(CAP_EXHAUSTED, None, {"reason": "no admissible h"})
            if not kn.value:
                continue
            nn = self.nu(m + n, m, L)
            if nn.value is None:
                exhausted = True
                continue
            if nn.value:
                antecedents.append(n)
        if not antecedents:
            return Verdict(CAP_EXHAUSTED, None,
                           {"reason": "empty antecedent set", "partial": exhausted})
        for n in antecedents:
            nc = self.nu(m_tilde + n, m_tilde, N)
            if nc.value is None:
                return Verdict(CAP_EXHAUSTED, None, {"at_n": n})
            if not nc.value:
                return Verdict(REFUTED, False, {"failing_n": n})
        return Verdict(VERIFIED, True, {"antecedents": len(antecedents)})


# ---------------------------------------------------------------------------
# Sequence-based divisibility characterisation
# ---------------------------------------------------------------------------


@dataclass
class DivisibilityReport:
    m: int
    m_tilde: int
    b: int  # denominator of m_tilde/m in lowest terms
    sequence: list[int]
    norm_2am: list[float]
    norm_asq: list[float]
    tail_norms: list[float]  # norm(2 alpha m_tilde n_i), last entries
    tail_max: float
    says_divides: bool
    target: float  # 0 for b = 1, 1/b otherwise

    @property
    def agrees(self) -> bool:
        return self.says_divides == (self.b == 1)


TAIL_LEN = 3


def divisibility_sequence_check(world: BohrWorld, m: int, m_tilde: int,
                                max_candidate: int = 20_000_000) -> DivisibilityReport:
    """Construct n_1 < ... < n_K with norm(2 alpha m n_i), norm(alpha n_i^2)
    below a decreasing dyadic schedule, and report the tail behaviour of
    norm(2 alpha m_tilde n_i) over the last TAIL_LEN steps: forced to 0 when
    m | m_tilde, pinned near 1/b (the witnessed limit of the defining
    relation) otherwise.
    """
    if m < 1 or m_tilde < 1:
        raise PreconditionViolated("m, m_tilde must be >= 1")
    alpha = world.params.alpha
    g = math.gcd(m, m_tilde)
    a, b = m_tilde // g, m // g

    K = world.bounds.seq_len

    c1 = FastConst(2 * alpha * m)
    c2 = FastConst(alpha)
    c3 = FastConst(2 * alpha * m_tilde)
    # the scaled norm is pinned at every step: near 0 in the divisible
    # case, near 1/b (the witnessed limit) otherwise
    if b == 1:
        third_lo, third_hi = -1.0, 0.005
        third_dev = Fraction(1, 200)
    else:
        third_lo, third_hi = 1.0 / b - 0.04, 1.0 / b + 0.04
        third_dev = Fraction(1, 25)

    exact_c1 = 2 * alpha * m
    exact_c3 = 2 * alpha * m_tilde
    rho_target = Fraction(0) if b == 1 else Fraction(1, b)

    seq: list[int] = []
    n2am: list[float] = []
    nasq: list[float] = []
    tails: list[float] = []
    prev = 0
    block = 1 << 16
    for i in range(1, K + 1):
        eps = Fraction(1, 2 ** min(i, K))
        eps_f = float(eps)
        found = None
        start = prev + 1
        while start <= max_candidate and found is None:
            stop = min(start + block - 1, max_candidate)
            ns = np.arange(start, stop + 1, dtype=np.int64)
            f1, g1 = c1.frac_vec_filter(ns)
            mask = np.abs(f1) < eps_f + g1
            if mask.any():
                sub = ns[mask]
                check_int64_product(sub[-1], sub[-1])
                f2, g2 = c2.frac_vec_filter(sub * sub)
                mask2 = np.abs(f2) < eps_f + g2
                sub2 = sub[mask2]
                if len(sub2):
                    f3, g3 = c3.frac_vec_filter(sub2)
                    n3 = np.abs(f3)
                    mask3 = (n3 > third_lo - g3) & (n3 < third_hi + g3)
                    cands = sub2[mask3]
                else:
                    cands = sub2
                for n in cands:
                    n = int(n)
                    ok = ((exact_c1 * n).circle_norm() - eps).sign() < 0
                    ok = ok and ((alpha * (n * n)).circle_norm() - eps).sign() < 0
                    if ok:
                        dev = abs((exact_c3 * n).circle_norm() - rho_target)
                        ok = (dev - third_dev).sign() < 0
                    if ok:
                        found = n
                        break
            start = stop + 1
        if found is None:
            raise NotFoundWithinBudget(
                f"schedule step {i} (eps={eps}) found no n <= {max_candidate}")
        prev = found
        seq.append(found)
        n2am.append(float((exact_c1 * found).circle_norm()))
        nasq.append(float((alpha * (found * found)).circle_norm()))
        tails.append(float((exact_c3 * found).circle_norm()))

    tail = tails[-TAIL_LEN:]
    tail_max = max(tail)
    return DivisibilityReport(
        m=m, m_tilde=m_tilde, b=b, sequence=seq, norm_2am=n2am, norm_asq=nasq,
        tail_norms=tail, tail_max=tail_max, says_divides=tail_max < 0.01,
        target=0.0 if b == 1 else 1.0 / b)
