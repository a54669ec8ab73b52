"""Bounded Diophantine-approximation searches.

Each search scans its candidates in ascending order, up to a
`max_candidate` bound, and returns the least witness in that range.
Every witness is exact: `FastConst.within` masks and the integer lanes
answer exactly, and survivors of the masks are checked in exact field
arithmetic before they are reported.  Searches that find nothing within
their bound raise NotFoundWithinBudget; absence of a witness in a scanned
range is certified, because every lane entry is decided exactly.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from ._fastlane import BLOCK, FastConst, QuadSeqFast, blocks, check_int64_product
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
    Expr,
    IntLit,
    Mul,
    Neg,
    SequenceHandle,
    Var,
    compile_term,
    lemma31_classify,
    parse,
)

DEFAULT_SEED = 0xC0FFEE


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
    """First k partial quotients, by integer Euclid on both ends of an
    enclosure of x.

    A quotient is taken only when both ends give it with a nonzero
    remainder: the reals with a given prefix form an interval, so x has the
    prefix too.  Otherwise the precision doubles.  A rational x terminates
    with the flag set: one of rational form has a point enclosure and
    expands exactly, and in an unverified field, where a rational can hide
    in an irrational form, x is tested exactly against the convergent that
    ends in the one integer the ends straddle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_hidden = not x.field.irreducible_verified
    prec = 64
    while True:
        lo, hi, den = x.scaled_enclosure(prec)
        quotients: list[int] = []
        # (a/b, c/d): the complete quotients of the ends; (p, q), (p1, q1):
        # the last two convergents
        a, b, c, d = lo, den, hi, den
        p, q, p1, q1 = 1, 0, 0, 1
        while len(quotients) < k:
            qa, ra = divmod(a, b)
            qc, rc = divmod(c, d)
            if qa == qc and ra and rc:
                quotients.append(qa)
                a, b, c, d = b, ra, d, rc
                p, q, p1, q1 = qa * p + p1, qa * q + q1, p, q
                continue
            if lo == hi:
                return CFExpansion(quotients + [qa], terminated=True)
            if check_hidden:
                ends = sorted((Fraction(a, b), Fraction(c, d)))
                t = math.ceil(ends[0])
                if t == math.floor(ends[1]) and (x - Fraction(t * p + p1, t * q + q1)).is_zero():
                    return CFExpansion(quotients + [t], terminated=True)
            break
        else:
            return CFExpansion(quotients, terminated=False)
        prec *= 2


# ---------------------------------------------------------------------------
# Small circle norms
# ---------------------------------------------------------------------------


def find_small_norm(x: AlgebraicReal, eps, max_candidate: int) -> ApproxWitness:
    """The least m <= max_candidate with ||x*m|| < eps (exact test)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if x.is_rational():
        raise RationalInput("x must be irrational")
    fc = FastConst(x)
    for ms in blocks(1, max_candidate + 1):
        hits = ms[fc.within(ms, -eps, eps)]
        if len(hits):
            m = int(hits[0])
            return ApproxWitness(m, {"norm": (x * m).circle_norm()})
    raise NotFoundWithinBudget(f"no m <= {max_candidate} with norm < {eps}")


def find_progression_base(r: int, alpha: AlgebraicReal, beta,
                          max_candidate: int) -> ApproxWitness:
    """The least m <= max_candidate with ||alpha*m|| < 1/(2r) and
    ||beta*m*nint(alpha*m)|| < 1/(2r^2)."""
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

    # the exact ||alpha*m|| mask first; the beta test on its survivors only
    fc = FastConst(alpha)
    for ms in blocks(1, max_candidate + 1):
        for m in map(int, ms[fc.within(ms, -eps1, eps1)]):
            w = qualifies(m)
            if w is not None:
                return w
    raise NotFoundWithinBudget(f"no progression base for r={r} within {max_candidate}")


# ---------------------------------------------------------------------------
# Lemma 3.2 witnesses: n2 with vanishing second symmetric derivative
# ---------------------------------------------------------------------------


_FIRST_WINDOW = 256  # the scan reads n2 in windows this wide, growing fourfold


def lemma32_scan(n0: int, n1: int, lo: int, hi: int,
                 g: SequenceHandle) -> int | None:
    """Least n2 in [lo, hi] with the second symmetric derivative of g
    vanishing at (n0, n1, n2); None if there is none (certified).

    The one second-difference scan: with H(x) = g(x+n1) - g(x) in int16 over
    the handle's `residues`, D2 g = H(n2+n0) - H(n2) - target mod 2**16 misses
    no witness, and each hit is re-checked in Python ints from the exact
    `table` (10 bytes per n up to hi + n0 + n1).  It starts at g(0), so a
    negative n0, n1 or lo is refused (no caller passes one; `g_range` would serve it).
    """
    if min(n0, n1, lo) < 0:
        raise ValueError("lemma32_scan reads g from 0: n0, n1 and lo must be >= 0")
    T = g.table(n0 + n1)
    target = int(T[n0 + n1]) - int(T[n0]) - int(T[n1]) + int(T[0])
    t16 = (target + 2**15) % 2**16 - 2**15
    a, width = lo, _FIRST_WINDOW
    while a <= hi:
        k = min(width, hi + 1 - a)
        end = a + k - 1 + n0 + n1
        R, T = g.residues(end), g.table(end)
        H = R[a + n1:a + n1 + k + n0] - R[a:a + k + n0]  # H[j] = g(a+j+n1) - g(a+j)
        for x in (a + (H[n0:] - H[:k] == t16).nonzero()[0]).tolist():
            if int(T[x + n0 + n1]) - int(T[x + n0]) - int(T[x + n1]) + int(T[x]) == target:
                return x
        a, width = a + k, 4 * width
    return None


# ---------------------------------------------------------------------------
# Weyl witnesses: simultaneous fractional-part targets
# ---------------------------------------------------------------------------


def _linear_shape(expr: Expr, context: dict) -> tuple[object, int] | None:
    """Recognise c * n^d (d in {1,2}) and return (c, d); None otherwise."""
    if isinstance(expr, Var):
        if expr.name == "n":
            return 1, 1
        if expr.name not in context:
            return None
        return context[expr.name], 0
    if isinstance(expr, IntLit):
        return expr.value, 0
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
    value: Callable  # compile_term closure of the target's expression
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
        value = compile_term(expr)
        shape = _linear_shape(expr, context)
        if shape is not None and shape[1] in (1, 2):
            out.append(_Target(value, lo_v, hi_v, shape[0], shape[1]))
        else:
            out.append(_Target(value, lo_v, hi_v, None, 0))
    return out


def _target_holds(t: _Target, env: dict) -> bool:
    return t.lo < frac_signed(t.value(env, {})) < t.hi


def find_weyl_witness(targets: Sequence[tuple], max_candidate: int,
                      context: dict | None = None, start: int = 1) -> int:
    """Least n >= start with frac_signed(expr_i(n)) in its open interval,
    for every target; exact membership on every reported witness."""
    context = dict(context or {})
    prepped = _prep_targets(targets, context)
    env = dict(context)
    if not prepped:
        return start
    lanes = [t for t in prepped if t.coeff is not None]
    fasts = [FastConst(t.coeff) for t in lanes]
    for ns in blocks(start, max_candidate + 1):
        mask = np.ones(len(ns), dtype=bool)
        for t, fc in zip(lanes, fasts):
            if t.degree == 2:
                # the largest |n| sits at either end of a block
                top = max(abs(int(ns[0])), abs(int(ns[-1])))
                check_int64_product(top, top)
            mask &= fc.within(ns if t.degree == 1 else ns * ns, t.lo, t.hi)
            if not mask.any():
                break
        for n in map(int, ns[mask]):
            env["n"] = n
            if all(_target_holds(t, env) for t in prepped):
                return n
    raise NotFoundWithinBudget(f"no witness <= {max_candidate}")


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
    admissible triple, together with the gamma mode that achieves it.
    Each stage classifies all its triples, in both gamma modes, with one
    array call of `lemma31_classify`."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    g = QuadSeqFast(alpha, beta)
    failures: dict = {}
    for C in C_SCHEDULE:
        n0, n1, n2 = np.array(sample_admissible_triples(C, sample_count, seed),
                              dtype=np.int64).T
        rep = lemma31_classify(n0, n1, n2, g)
        verdict_all = rep.cond1 & rep.cond2_by_mode[GAMMA_ALL_PAIRS]
        verdict_off = rep.cond1 & rep.cond2_by_mode[GAMMA_OFF_DIAGONAL]
        failures[(C, GAMMA_ALL_PAIRS)] = fail_all = int((rep.lhs_zero != verdict_all).sum())
        failures[(C, GAMMA_OFF_DIAGONAL)] = fail_off = int((rep.lhs_zero != verdict_off).sum())
        if fail_all == 0 or fail_off == 0:
            mode = GAMMA_ALL_PAIRS if fail_all == 0 else GAMMA_OFF_DIAGONAL
            indist = bool((verdict_all == verdict_off).all())
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


def _edge_counts(p: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, p, side="right") for finite p and the edges
    np.linspace(-1/2, 1/2, grid + 1), with p == 1/2 moved into the last bin
    as np.histogram2d does: p lies in bin count - 1, and the counts 0 and
    grid + 1 are outside the edges."""
    grid = len(edges) - 1
    # within one of the count; one step up and one down against the edges
    c = np.clip(np.floor((p + 0.5) * grid) + 1, 1, grid).astype(np.int64)
    c += p >= edges[c]
    c -= p < edges[c - 1]
    c[p == edges[-1]] = grid
    return c


def equidist_check(alpha: AlgebraicReal, a: int, b: int, c: int, d: int,
                   N: int, M: int, grid: int,
                   seed: int = DEFAULT_SEED) -> EquidistReport:
    """Compare the orbit histogram of (frac(alpha n), frac(alpha nint(theta n)))
    with the push-forward of the uniform measure through the transfer map.

    The orbit bins and the origin cell count are exact (`FastConst.bins`
    and `within`); the push-forward samples are Monte Carlo floats, binned
    as np.histogram2d bins them.  Both are walked in BLOCK slices."""
    if d == 0:
        raise PreconditionViolated("d must be nonzero")
    if min(N, M, grid) < 1:
        raise PreconditionViolated("N, M and grid must be at least 1")
    if not _element_degree_at_least_3(alpha):
        raise PreconditionViolated("1, alpha, alpha^2 must be linearly independent")
    theta = (a + alpha * b) / (c + alpha * d)
    if theta.is_rational():
        raise ThetaRational(f"theta = ({a}+{b}a)/({c}+{d}a) is rational")

    fc_theta = FastConst(theta)
    fc_alpha = FastConst(alpha)
    # frac(alpha k) = +-1/20 only at k = 0, so < here is the <= of the report
    eps = Fraction(1, 20)
    orbit_hist = np.zeros(grid * grid, dtype=np.int64)
    origin = 0
    for ns in blocks(1, N + 1):
        k = fc_theta.nint_frac_vec(ns)           # exact nint(theta*n)
        orbit_hist += np.bincount(fc_alpha.bins(ns, grid) * grid + fc_alpha.bins(k, grid),
                                  minlength=grid * grid)
        origin += int(np.count_nonzero(fc_alpha.within(ns, -eps, eps)
                                       & fc_alpha.within(k, -eps, eps)))
    orbit_hist = orbit_hist.reshape(grid, grid)

    rng = np.random.default_rng(seed)
    r = rng.integers(0, abs(d), size=M)
    # x and y continue the stream after r, one 64-bit output per double:
    # x from rng, y from a copy M outputs ahead
    rng_y = copy.deepcopy(rng)
    rng_y.bit_generator.advance(M)
    af = fc_alpha.f64
    tf = fc_theta.f64

    def fs(z):
        return z - np.floor(z + 0.5)

    edges = np.linspace(-0.5, 0.5, grid + 1)
    side = grid + 2
    push_hist = np.zeros(side * side, dtype=np.int64)
    for i in range(0, M, BLOCK):
        rs = r[i:i + BLOCK]
        xs = rng.random(size=len(rs)) - 0.5
        ys = rng_y.random(size=len(rs)) - 0.5
        px = fs(d * xs + af * rs)
        py = fs(b * xs - c * ys + af * tf * rs - af * fs(d * ys + tf * rs))
        push_hist += np.bincount(_edge_counts(px, edges) * side + _edge_counts(py, edges),
                                 minlength=side * side)
    push_hist = push_hist.reshape(side, side)[1:-1, 1:-1]

    disc = float(np.max(np.abs(orbit_hist / N - push_hist / M)))
    return EquidistReport(orbit_hist=orbit_hist, push_hist=push_hist,
                          orbit_count=N, push_count=M,
                          discrepancy=disc, origin_fraction=origin / N,
                          theta_float=float(theta))
