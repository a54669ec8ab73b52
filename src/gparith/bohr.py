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

from ._fastlane import BohrFast, FastConst, blocks, check_int64_product
from .errors import NotFoundWithinBudget, PreconditionViolated
from .exactnum import AlgebraicReal
from .focheck import Verdict


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
        self._lam_cache: dict[tuple[int, int], np.ndarray] = {}
        self._kappa_table_cache: dict[tuple[int, int], tuple[np.ndarray, bool]] = {}

    # -- base sequence -------------------------------------------------------

    def g(self, n: int) -> int:
        """g(n), read from the table when n is inside it: it does not grow."""
        n, T = abs(n), self.fast.table(0)  # even sequence
        return int(T[n]) if n < len(T) else self.fast.g_scalar(n)

    # -- almost periods --------------------------------------------------------

    def mu(self, m: int, N: int) -> bool:
        """g(n+m) = g(n) for all 1 <= n <= N, exactly, read from a window of g
        at m so that a large m does not grow the table."""
        if m < 0 or N < 0:
            raise PreconditionViolated("m, N must be >= 0")
        if m == 0 or N == 0:
            return True
        shifted = self.fast.g_vec(np.arange(m + 1, m + N + 1, dtype=np.int64))
        return bool(np.array_equal(shifted, self.fast.table(N)[1:N + 1]))

    def mu_true_upto(self, x_max: int, N: int) -> np.ndarray:
        """The x in 1..x_max with mu(x, N): a mask over the table, cleared
        where g(x+n) != g(n) for some n <= N.  Nothing is kept between calls."""
        G = self.fast.table(x_max + N)
        keep = np.ones(x_max, dtype=bool)  # keep[x - 1] for x = 1..x_max
        for n in range(1, N + 1):
            keep &= G[n + 1:x_max + n + 1] == G[n]
        return np.flatnonzero(keep) + 1

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
        """lam[n] for 1 <= n <= n_max (index 0 unused), via mu-set differences.

        A cached table of the same N at any n_max' >= n_max answers by its
        prefix: s + n <= cap + n_max, so the mu set read is the same.
        """
        for (N0, n0), lam in self._lam_cache.items():
            if N0 == N and n0 >= n_max:
                return lam[:n_max + 1]
        cap = self.bounds.n_cap
        S = self.mu_true_upto(cap + n_max, N)
        inset = np.zeros(cap + n_max + 2, dtype=bool)
        inset[S] = True
        lam = np.zeros(n_max + 1, dtype=bool)
        for s in S[S <= cap]:  # lam[n] = any inset[s + n] over these s
            lam[1:] |= inset[s + 1:s + n_max + 1]
        self._lam_cache[(N, n_max)] = lam
        return lam

    # -- kappa / nu / delta with three-way verdicts ------------------------------

    def _kappa_table(self, N: int, x_max: int) -> np.ndarray | None:
        """kappa(x, N) for every 0 <= x <= x_max, or None when no admissible
        h exists within the caps (cap exhaustion).

        kappa(x) is an AND over admissible h of an OR over candidate n of
        g(h + x + n) = 1: an erosion, over hs, of one dilation of the hit
        set by cand, D[y] = OR over n of hit[y + n]. D is built in |cand|
        passes and the table in |hs| more.
        """
        # normalise the table length so repeated queries share one table
        x_max = ((max(x_max, 2048) // 4096) + 1) * 4096
        key = (N, x_max)
        for (N0, xm0), (tab0, ok0) in self._kappa_table_cache.items():
            if N0 == N and xm0 >= x_max:
                return tab0 if ok0 else None
        b = self.bounds
        lam_n = self.lambda_vec(b.L_cap, b.n_cap)  # first: lam_h may be its prefix
        lam_h = self.lambda_vec(b.M_cap, b.h_cap)
        hs = np.nonzero((self.fast.table(b.h_cap)[1:b.h_cap + 1] == 1) & lam_h[1:])[0] + 1
        if len(hs) == 0:
            self._kappa_table_cache[key] = (np.zeros(0, dtype=bool), False)
            return None
        S = self.mu_true_upto(b.n_cap, N)
        cand = S[lam_n[S]]
        y_max = int(hs[-1]) + x_max
        hit = self.fast.table(y_max + b.n_cap + 1) == 1
        D = np.zeros(y_max + 1, dtype=bool)  # all False when cand is empty
        for n in cand:
            D |= hit[n:n + y_max + 1]
        table = np.ones(x_max + 1, dtype=bool)
        for h in hs:
            table &= D[h:h + x_max + 1]
        self._kappa_table_cache[key] = (table, True)
        return table

    def kappa(self, m: int, N: int) -> Verdict:
        """Bounded evaluation of the shifted-hit property.

        Existentials are taken at their caps, universals over their full
        ranges, which by monotonicity matches the literal prefix at caps.
        """
        if m < 0 or N < 1:
            raise PreconditionViolated("m >= 0 and N >= 1 required")
        table = self._kappa_table(N, max(m, self.bounds.outer_cap * 2 + m))
        if table is None:
            return Verdict(None, {"reason": "no admissible h"})
        return Verdict(bool(table[m]))

    def nu(self, m: int, m_tilde: int, N: int) -> Verdict:
        """lambda(n,L) and kappa(m+n,L) jointly force kappa(m_tilde+n,N)."""
        if min(m, m_tilde) < 0 or N < 1:
            raise PreconditionViolated("m, m_tilde >= 0 and N >= 1 required")
        b = self.bounds
        L = b.L_cap
        x_max = max(m, m_tilde) + b.outer_cap + 1
        kL = self._kappa_table(L, x_max)
        kN = self._kappa_table(N, x_max)
        if kL is None or kN is None:
            return Verdict(None, {"reason": "no admissible h"})
        lam_n = self.lambda_vec(L, b.outer_cap)
        ns = np.nonzero(lam_n[1:b.outer_cap + 1])[0] + 1
        ante = ns[kL[m + ns]]
        if len(ante) == 0:
            return Verdict(None, {"reason": "empty antecedent set"})
        bad = ante[~kN[m_tilde + ante]]
        if len(bad):
            return Verdict(False, {"failing_n": int(bad[0])})
        return Verdict(True, {"antecedents": len(ante)})

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
                return Verdict(None, {"reason": "no admissible h"})
            if not kn.value:
                continue
            nn = self.nu(m + n, m, L)
            if nn.value is None:
                exhausted = True
                continue
            if nn.value:
                antecedents.append(n)
        if not antecedents:
            return Verdict(None, {"reason": "empty antecedent set", "partial": exhausted})
        for n in antecedents:
            nc = self.nu(m_tilde + n, m_tilde, N)
            if nc.value is None:
                return Verdict(None, {"at_n": n})
            if not nc.value:
                return Verdict(False, {"failing_n": n})
        return Verdict(True, {"antecedents": len(antecedents)})


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

    exact_c1 = 2 * alpha * m
    exact_c3 = 2 * alpha * m_tilde
    c1, c2, c3 = FastConst(exact_c1), FastConst(alpha), FastConst(exact_c3)
    # the scaled norm is pinned at every step: near 0 in the divisible
    # case, near 1/b (the witnessed limit) otherwise
    rho_target = Fraction(0) if b == 1 else Fraction(1, b)
    third_dev = Fraction(1, 200) if b == 1 else Fraction(1, 25)

    seq: list[int] = []
    n2am: list[float] = []
    nasq: list[float] = []
    tails: list[float] = []
    prev = 0
    for i in range(1, K + 1):
        eps = Fraction(1, 2 ** min(i, K))
        for ns in blocks(prev + 1, max_candidate + 1):
            sub = ns[c1.within(ns, -eps, eps)]
            if len(sub):
                check_int64_product(sub[-1], sub[-1])
                sub = sub[c2.within(sub * sub, -eps, eps)]
                # norm(c3*n) within third_dev of rho_target, i.e.
                # frac_signed(c3*n) within third_dev of +-rho_target
                near = [c3.within(sub, t - third_dev, t + third_dev)
                        for t in (rho_target, -rho_target)]
                sub = sub[near[0] | near[1]]
            if len(sub):
                break
        else:
            raise NotFoundWithinBudget(
                f"schedule step {i} (eps={eps}) found no n <= {max_candidate}")
        prev = int(sub[0])
        seq.append(prev)
        n2am.append(float((exact_c1 * prev).circle_norm()))
        nasq.append(float((alpha * (prev * prev)).circle_norm()))
        tails.append(float((exact_c3 * prev).circle_norm()))

    tail = tails[-TAIL_LEN:]
    tail_max = max(tail)
    return DivisibilityReport(
        m=m, m_tilde=m_tilde, b=b, sequence=seq, norm_2am=n2am, norm_asq=nasq,
        tail_norms=tail, tail_max=tail_max, says_divides=tail_max < 0.01,
        target=0.0 if b == 1 else 1.0 / b)
