"""Bounded Diophantine-approximation searches.

Every witness returned by this module re-verifies exactly: the fast lanes
only propose candidates, and the defining inequalities are re-checked in
exact field arithmetic before anything is reported.  Searches that find
nothing within their budget raise NotFoundWithinBudget; absence of a
witness in a scanned range is certified (ambiguous lane entries are
re-checked exactly).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._fastlane import FastConst, QuadSeqFast, check_int64_product
from .errors import (
    CalibrationFailed,
    NotFoundWithinBudget,
    PreconditionViolated,
    RationalInput,
    ThetaRational,
)
from .exactnum import AlgebraicReal, circle_norm, frac_signed, sign
from .genpoly import (
    GAMMA_ALL_PAIRS,
    GAMMA_OFF_DIAGONAL,
    Const,
    Expr,
    IntLit,
    Mul,
    Neg,
    SequenceHandle,
    Var,
    delta_sym_iter,
    eval_expr,
    lemma31_classify,
    parse,
    quadratic_sequence,
)

DEFAULT_SEED = 0xC0FFEE

STRATEGY_CONVERGENTS = "convergent-multiples"
STRATEGY_EXHAUSTIVE = "exhaustive"
STRATEGY_HYBRID = "hybrid"


@dataclass(frozen=True)
class SearchBudget:
    max_candidate: int = 10**6
    strategy: str = STRATEGY_HYBRID

    def __post_init__(self):
        if self.max_candidate < 1:
            raise ValueError("max_candidate must be >= 1")
        if self.strategy not in (STRATEGY_CONVERGENTS, STRATEGY_EXHAUSTIVE,
                                 STRATEGY_HYBRID):
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class ApproxWitness:
    m: int
    achieved: dict = dc_field(default_factory=dict)


@dataclass
class CFExpansion:
    partial_quotients: list[int]
    terminated: bool

    def convergents(self) -> list[tuple[int, int]]:
        """(p, q) convergents matching the partial quotients."""
        out = []
        p0, q0, p1, q1 = 1, 0, 0, 1
        for a in self.partial_quotients:
            p0, q0, p1, q1 = a * p0 + p1, a * q0 + q1, p0, q0
            out.append((p0, q0))
        return out


def continued_fraction(x: AlgebraicReal, k: int) -> CFExpansion:
    """First k partial quotients via exact floor and field reciprocal.

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
        cur = 1 / rem
    return CFExpansion(quotients, terminated=False)


# ---------------------------------------------------------------------------
# Small circle norms
# ---------------------------------------------------------------------------


def _norm_lt(x: AlgebraicReal, m: int, eps: Fraction) -> bool:
    """Exact test ||x*m|| < eps."""
    return ((x * m).circle_norm() - eps).sign() < 0


def _candidate_stream(x: AlgebraicReal, budget: SearchBudget) -> Iterable[int]:
    seen: set[int] = set()
    if budget.strategy in (STRATEGY_CONVERGENTS, STRATEGY_HYBRID):
        cf = continued_fraction(x, 40)
        for _, q in cf.convergents():
            if q < 1 or q > budget.max_candidate:
                continue
            for j in range(1, 5):
                m = j * q
                if m <= budget.max_candidate and m not in seen:
                    seen.add(m)
                    yield m
    if budget.strategy in (STRATEGY_EXHAUSTIVE, STRATEGY_HYBRID):
        for m in range(1, budget.max_candidate + 1):
            if m not in seen:
                yield m


def find_small_norm(x: AlgebraicReal, eps, budget: SearchBudget) -> ApproxWitness:
    """Some m <= max_candidate with ||x*m|| < eps (exact test).

    With the exhaustive strategy the returned m is minimal.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if x.is_rational():
        raise RationalInput("x must be irrational")
    fc = FastConst(x)
    eps_f = float(eps)
    if budget.strategy == STRATEGY_EXHAUSTIVE:
        # block filter + exact verification, ascending
        block = 1 << 15
        start = 1
        while start <= budget.max_candidate:
            stop = min(start + block - 1, budget.max_candidate)
            ms = np.arange(start, stop + 1, dtype=np.int64)
            frac, margin = fc.frac_vec_filter(ms)
            cand = np.nonzero(np.abs(frac) < eps_f + margin)[0]
            for i in cand:
                m = int(ms[i])
                if _norm_lt(x, m, eps):
                    return ApproxWitness(m, {"norm": (x * m).circle_norm()})
            start = stop + 1
        raise NotFoundWithinBudget(f"no m <= {budget.max_candidate} with norm < {eps}")
    for m in _candidate_stream(x, budget):
        if _norm_lt(x, m, eps):
            return ApproxWitness(m, {"norm": (x * m).circle_norm()})
    raise NotFoundWithinBudget(f"no m <= {budget.max_candidate} with norm < {eps}")


def find_progression_base(r: int, alpha: AlgebraicReal, beta,
                          budget: SearchBudget) -> ApproxWitness:
    """m with ||alpha*m|| < 1/(2r) and ||beta*m*nint(alpha*m)|| < 1/(2r^2)."""
    if r < 2:
        raise ValueError("r must be >= 2")
    eps1 = Fraction(1, 2 * r)
    eps2 = Fraction(1, 2 * r * r)

    def qualifies(m: int) -> ApproxWitness | None:
        am = alpha * m
        n1 = am.circle_norm()
        if (n1 - eps1).sign() >= 0:
            return None
        n2v = circle_norm(beta * m * am.nint())
        if not n2v < eps2:
            return None
        return ApproxWitness(m, {"alpha_norm": n1, "beta_norm": n2v})

    for m in _candidate_stream(alpha, budget):
        w = qualifies(m)
        if w is not None:
            return w
    raise NotFoundWithinBudget(f"no progression base for r={r} within {budget.max_candidate}")


# ---------------------------------------------------------------------------
# Lemma 3.2 witnesses: n2 with vanishing second symmetric derivative
# ---------------------------------------------------------------------------


def lemma32_scan(n0: int, n1: int, lo: int, hi: int, alpha: AlgebraicReal,
                 beta: int, g: SequenceHandle | None = None) -> int | None:
    """Least n2 in [lo, hi] with the second symmetric derivative of g
    vanishing at (n0, n1, n2); None if there is none (certified).

    Fast integer lanes compute exact g values; the found witness is
    re-verified through the exact evaluator.
    """
    if lo > hi:
        return None
    fast = QuadSeqFast(alpha, beta)
    gh = g or quadratic_sequence(alpha, beta)
    # D2 g = [g(n0+n1+n2) - g(n0+n2) - g(n1+n2) + g(n2)] - target with
    target = gh(n0 + n1) - gh(n0) - gh(n1) + gh(0)
    block = 1 << 15
    start = lo
    while start <= hi:
        stop = min(start + block - 1, hi)
        n2 = np.arange(start, stop + 1, dtype=np.int64)
        d2 = (fast.g_vec(n2 + n0 + n1) - fast.g_vec(n2 + n0)
              - fast.g_vec(n2 + n1) + fast.g_vec(n2))
        for i in np.nonzero(d2 == target)[0]:
            cand = int(n2[i])
            if delta_sym_iter(gh, [n0, n1, cand]) == 0:
                return cand
        start = stop + 1
    return None


def find_lemma32_witness(n0: int, n1: int, C: int, alpha: AlgebraicReal,
                         beta: int, budget: SearchBudget,
                         g: SequenceHandle | None = None) -> int:
    """Least n2 in [C*n1, max_candidate] with D2 g(n0,n1,n2) = 0."""
    if n0 < C or n1 < C * n0:
        raise PreconditionViolated(f"need n0 >= C and n1 >= C*n0 (C={C})")
    s = (alpha * n0).frac_signed() + (alpha * n1).frac_signed()
    if (abs(s) - Fraction(1, 2)).sign() >= 0:
        raise PreconditionViolated("|frac(alpha n0) + frac(alpha n1)| < 1/2 fails")
    w = lemma32_scan(n0, n1, C * n1, budget.max_candidate, alpha, beta, g=g)
    if w is None:
        raise NotFoundWithinBudget(
            f"no n2 in [{C * n1}, {budget.max_candidate}] for ({n0}, {n1})")
    return w


# ---------------------------------------------------------------------------
# Weyl witnesses: simultaneous fractional-part targets
# ---------------------------------------------------------------------------


def _linear_shape(expr: Expr, context: dict) -> tuple[object, int] | None:
    """Recognise c * n^d (d in {1,2}) and return (c, d); None otherwise."""
    if isinstance(expr, Var):
        return 1, 1
    if isinstance(expr, IntLit):
        return expr.value, 0
    if isinstance(expr, Const):
        if expr.name not in context:
            return None
        return context[expr.name], 0
    if isinstance(expr, Neg):
        sub = _linear_shape(expr.arg, context)
        if sub is None:
            return None
        return -sub[0], sub[1]
    if isinstance(expr, Mul):
        a = _linear_shape(expr.lhs, context)
        b = _linear_shape(expr.rhs, context)
        if a is None or b is None:
            return None
        d = a[1] + b[1]
        if d > 2:
            return None
        return a[0] * b[0], d
    return None


@dataclass
class _Target:
    expr: Expr
    lo: object
    hi: object
    coeff: object | None  # c for the c*n^d lane, None -> exact-only
    degree: int


def _prep_targets(targets: Sequence[tuple], context: dict) -> list[_Target]:
    out = []
    for expr, (lo, hi) in targets:
        if isinstance(expr, str):
            expr = parse(expr)
        lo_v = lo if isinstance(lo, AlgebraicReal) else Fraction(lo)
        hi_v = hi if isinstance(hi, AlgebraicReal) else Fraction(hi)
        if sign(hi_v - lo_v) <= 0:
            raise ValueError("target interval is empty")
        shape = _linear_shape(expr, context)
        if shape is not None and shape[1] in (1, 2):
            out.append(_Target(expr, lo_v, hi_v, shape[0], shape[1]))
        else:
            out.append(_Target(expr, lo_v, hi_v, None, 0))
    return out


def _target_holds(t: _Target, n: int, context: dict) -> bool:
    return t.lo < frac_signed(eval_expr(t.expr, context, n)) < t.hi


def find_weyl_witness(targets: Sequence[tuple], budget: SearchBudget,
                      context: dict | None = None, start: int = 1) -> int:
    """Least n >= start with frac_signed(expr_i(n)) in its open interval,
    for every target; exact membership on every reported witness."""
    context = dict(context or {})
    prepped = _prep_targets(targets, context)
    if not prepped:
        return start
    lanes = [t for t in prepped if t.coeff is not None]
    fasts = [FastConst(t.coeff) for t in lanes]
    los = [float(t.lo if not isinstance(t.lo, AlgebraicReal) else float(t.lo)) for t in lanes]
    his = [float(t.hi if not isinstance(t.hi, AlgebraicReal) else float(t.hi)) for t in lanes]
    block = 1 << 15
    pos = start
    while pos <= budget.max_candidate:
        stop = min(pos + block - 1, budget.max_candidate)
        ns = np.arange(pos, stop + 1, dtype=np.int64)
        mask = np.ones(len(ns), dtype=bool)
        for t, fc, lo_f, hi_f in zip(lanes, fasts, los, his):
            if t.degree == 2:
                check_int64_product(stop, stop)
            k = ns if t.degree == 1 else ns * ns
            frac, margin = fc.frac_vec_filter(k)
            mask &= (frac > lo_f - margin) & (frac < hi_f + margin)
            if not mask.any():
                break
        for i in np.nonzero(mask)[0]:
            n = int(ns[i])
            if all(_target_holds(t, n, context) for t in prepped):
                return n
        pos = stop + 1
    raise NotFoundWithinBudget(f"no witness <= {budget.max_candidate}")


# ---------------------------------------------------------------------------
# Calibration of the admissibility constant
# ---------------------------------------------------------------------------


@dataclass
class CalibrationResult:
    C: int
    gamma_mode: str
    failures: dict
    modes_indistinguishable: bool
    samples: int
    seed: int


C_SCHEDULE = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
_SAMPLE_SPAN = 40


def sample_admissible_triples(C: int, count: int,
                              seed: int) -> list[tuple[int, int, int]]:
    """Deterministic triples with n0 >= C, n1/n0 >= C, n2/n1 >= C."""
    rng = random.Random(seed * 0x9E3779B1 + C)
    out = []
    for _ in range(count):
        n0 = C + rng.randrange(_SAMPLE_SPAN)
        n1 = C * n0 + rng.randrange(_SAMPLE_SPAN * n0 // 4 + 1)
        n2 = C * n1 + rng.randrange(_SAMPLE_SPAN * n1 // 4 + 1)
        out.append((n0, n1, n2))
    return out


def calibrate_C(alpha: AlgebraicReal, beta, sample_count: int,
                seed: int = DEFAULT_SEED) -> CalibrationResult:
    """Smallest C in the doubling schedule C_SCHEDULE making the vanishing
    criterion match its carry/gamma characterisation on every sampled
    admissible triple, together with the gamma mode that achieves it."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    g = quadratic_sequence(alpha, beta)
    failures: dict = {}
    for C in C_SCHEDULE:
        triples = sample_admissible_triples(C, sample_count, seed)
        fail_all = fail_off = 0
        indist = True
        for (n0, n1, n2) in triples:
            # the two gamma modes differ only in cond2: classify once
            rep = lemma31_classify(n0, n1, n2, alpha, beta, g=g)
            verdict_all = rep.cond1 and rep.cond2_by_mode[GAMMA_ALL_PAIRS]
            verdict_off = rep.cond1 and rep.cond2_by_mode[GAMMA_OFF_DIAGONAL]
            if verdict_all != verdict_off:
                indist = False
            if rep.lhs_zero != verdict_all:
                fail_all += 1
            if rep.lhs_zero != verdict_off:
                fail_off += 1
        failures[(C, GAMMA_ALL_PAIRS)] = fail_all
        failures[(C, GAMMA_OFF_DIAGONAL)] = fail_off
        if fail_all == 0 or fail_off == 0:
            mode = GAMMA_ALL_PAIRS if fail_all == 0 else GAMMA_OFF_DIAGONAL
            return CalibrationResult(C=C, gamma_mode=mode, failures=failures,
                                     modes_indistinguishable=indist,
                                     samples=sample_count, seed=seed)
    raise CalibrationFailed(f"no C <= {C_SCHEDULE[-1]} achieves zero failures")


# ---------------------------------------------------------------------------
# Equidistribution check for the orbit (frac(a n), frac(a nint(theta n)))
# ---------------------------------------------------------------------------


@dataclass
class EquidistReport:
    orbit_hist: np.ndarray
    push_hist: np.ndarray
    orbit_count: int
    push_count: int
    discrepancy: float
    origin_fraction: float
    theta_float: float


def _element_degree_at_least_3(x: AlgebraicReal) -> bool:
    """True when 1, x, x^2 are linearly independent over Q."""
    d = x.field.degree
    vecs = [x.field.one.coeffs, x.coeffs, (x * x).coeffs]
    # Gaussian elimination over Q on a 3 x d matrix
    rows = [list(v) for v in vecs]
    rank = 0
    for col in range(d):
        piv = None
        for r in range(rank, 3):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(3):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == 3:
            return True
    return False


def equidist_check(alpha: AlgebraicReal, a: int, b: int, c: int, d: int,
                   N: int, M: int, grid: int,
                   seed: int = DEFAULT_SEED) -> EquidistReport:
    """Compare the orbit histogram of (frac(alpha n), frac(alpha nint(theta n)))
    with the push-forward of the uniform measure through the transfer map."""
    if d == 0:
        raise PreconditionViolated("d must be nonzero")
    if not _element_degree_at_least_3(alpha):
        raise PreconditionViolated("1, alpha, alpha^2 must be linearly independent")
    theta = (a + alpha * b) / (c + alpha * d)
    if theta.is_rational():
        raise ThetaRational(f"theta = ({a}+{b}a)/({c}+{d}a) is rational")

    fc_theta = FastConst(theta)
    fc_alpha = FastConst(alpha)
    ns = np.arange(1, N + 1, dtype=np.int64)
    k = fc_theta.nint_vec_exact(ns)          # exact nint(theta*n)
    x_orb, _ = fc_alpha.frac_vec_filter(ns)
    y_orb, _ = fc_alpha.frac_vec_filter(k)

    edges = np.linspace(-0.5, 0.5, grid + 1)
    orbit_hist, _, _ = np.histogram2d(x_orb, y_orb, bins=(edges, edges))

    rng = np.random.default_rng(seed)
    dd = abs(d)
    r = rng.integers(0, dd, size=M)
    x = rng.random(size=M) - 0.5
    y = rng.random(size=M) - 0.5
    af = fc_alpha.f64
    tf = fc_theta.f64

    def fs(z):
        return z - np.floor(z + 0.5)

    px = fs(d * x + af * r)
    py = fs(b * x - c * y + af * tf * r - af * fs(d * y + tf * r))
    push_hist, _, _ = np.histogram2d(px, py, bins=(edges, edges))

    disc = float(np.max(np.abs(orbit_hist / N - push_hist / M)))
    origin = float(np.mean((np.abs(x_orb) <= 0.05) & (np.abs(y_orb) <= 0.05)))
    return EquidistReport(orbit_hist=orbit_hist.astype(np.int64),
                          push_hist=push_hist.astype(np.int64),
                          orbit_count=N, push_count=M,
                          discrepancy=disc, origin_fraction=origin,
                          theta_float=float(theta))
