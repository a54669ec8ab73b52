"""Bounded Diophantine-approximation searches.

Each search scans its candidates in ascending order, up to a
`max_candidate` bound, and returns the least witness in that range.  The
small-norm, progression-base and Weyl searches (and the Lemma 4.1 premise
in `harness`) read one scan, `weyl_witnesses`, which decides each target
once and exactly: a c*n^d target by its `FastConst.within` mask, any other
by its exact closure on the survivors of the masks.  Searches that find
nothing within their bound raise NotFoundWithinBudget; absence of a
witness in a scanned range is certified, because every entry is decided
exactly.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from ._fastlane import BLOCK, FastConst, QuadSeqFast, blocks, check_int64_product
from .errors import (
    CalibrationFailed,
    NotFoundWithinBudget,
    PreconditionViolated,
    RationalInput,
    ThetaRational,
)
from .exactnum import AlgebraicReal, circle_norm, floor_exact, frac_signed, sign
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
_R_SLICE = 8 * BLOCK  # the length of each draw of r in `equidist_check`


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
    prefix too.  Otherwise the precision doubles.  A rational x has a point
    enclosure, expands exactly and terminates with the flag set.  The
    complete quotients of an irrational x are irrational, so a finer
    enclosure always separates them from the integers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    prec = 64
    while True:
        lo, hi, den = x.scaled_enclosure(prec)
        quotients: list[int] = []
        # (a/b, c/d): the complete quotients of the ends
        a, b, c, d = lo, den, hi, den
        while len(quotients) < k:
            qa, ra = divmod(a, b)
            qc, rc = divmod(c, d)
            if qa == qc and ra and rc:
                quotients.append(qa)
                a, b, c, d = b, ra, d, rc
                continue
            if lo == hi:
                return CFExpansion(quotients + [qa], terminated=True)
            break
        else:
            return CFExpansion(quotients, terminated=False)
        prec *= 2


_GAP_GRID = 2**20  # the grid of [-1/2, 1/2) on which Lemma 3.2's read bound takes ell


def lemma32_read_bound(const: FastConst) -> Callable[..., np.ndarray]:
    """Lemma 3.2's read bound for alpha = const.value: a function of pairs
    (a, b) (int64 arrays or ints, broadcast) that gives each its W, the
    least convergent denominator q_k of alpha with ||q_{k-1}alpha|| +
    ||q_k alpha|| < ell = 1 - spread{0, s_a, s_b, s_{a+b}}, s_k =
    frac_signed(alpha k); ell is bounded from below by the exact `bins` at
    _GAP_GRID.  ValueError, never a cap, where no convergent qualifies: a
    rational alpha here, a pair with no room below ell in the call.

    For g(n) = beta*n*nint(alpha*n), beta a nonzero integer, and Lemma 3.1's
    carries c_k = nint(s_x + s_k): D2 g(a, b, x) - D2 g(a, b, 0) =
    beta*(K*x + L), K = nint(s_a + s_b) + c_{a+b} - c_a - c_b, L =
    (a+b)*c_{a+b} - a*c_a - b*c_b.  If |s_a + s_b| < 1/2, all c_k are 0 on
    an arc of s_x of length ell, which any q_k consecutive x reach: they
    leave no gap over ||q_{k-1}alpha|| + ||q_k alpha|| (three-distance
    theorem; Sos 1958, Slater 1967).  Else, say s_a + s_b > 1/2, (K, L) is
    (0, -(a+b)), (1, 0), (0, -a), (0, -b) or (-1, -(a+b)): no witness > 0.
    """
    alpha, G = const.value, _GAP_GRID
    if not isinstance(alpha, AlgebraicReal) or alpha.is_rational():
        raise ValueError("lemma32_read_bound: alpha is rational, and no "
                         "convergent bounds the gaps of {alpha x}")
    # u_k = floor(G*gap sum) + 1 over the q_k > q_{k-1}, down to u_k = 1: as
    # q_k >= F_{k+1}, 2*bit_length(G) quotients reach a gap sum < 2/q_k <= 1/G
    qs = [q for _, q in continued_fraction(alpha, 2 * G.bit_length()).convergents()]
    th, ws, gap = [], [], circle_norm(alpha * qs[0])
    for q0, q1 in zip(qs, qs[1:]):
        gap, prev = circle_norm(alpha * q1), gap
        if q0 < q1:
            th.append(floor_exact((prev + gap) * G) + 1)
            ws.append(q1)
            if th[-1] == 1:
                break
    th, ws = np.array(th), np.array(ws)

    def bound(a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        bins = const.bins(np.stack((a, b, a + b)).ravel(), G).reshape(3, -1)
        # ell > u/G, as s_0 = 0 lies in bin G/2
        u = G - 1 - np.maximum(bins.max(axis=0), G // 2) + np.minimum(bins.min(axis=0), G // 2)
        if (u < 1).any():
            raise ValueError("lemma32_read_bound: no convergent of alpha bounds the "
                             "read of a pair whose arc is below the grid")
        return ws[np.searchsorted(-th, -u)].reshape(a.shape)
    return bound


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
    m = next(weyl_witnesses([("x*n", (-eps, eps))], 1, max_candidate + 1, {"x": x}), None)
    if m is None:
        raise NotFoundWithinBudget(f"no m <= {max_candidate} with norm < {eps}")
    return ApproxWitness(m, {"norm": (x * m).circle_norm()})


def find_progression_base(r: int, alpha: AlgebraicReal, beta,
                          max_candidate: int) -> ApproxWitness:
    """The least m <= max_candidate with ||alpha*m|| < 1/(2r) and
    ||beta*m*nint(alpha*m)|| < 1/(2r^2)."""
    if r < 2:
        raise ValueError("r must be >= 2")
    eps1 = Fraction(1, 2 * r)
    eps2 = Fraction(1, 2 * r * r)
    targets = [("x*n", (-eps1, eps1)), ("beta*n*nint(x*n)", (-eps2, eps2))]
    m = next(weyl_witnesses(targets, 1, max_candidate + 1, {"x": alpha, "beta": beta}), None)
    if m is None:
        raise NotFoundWithinBudget(f"no progression base for r={r} within {max_candidate}")
    am = alpha * m
    return ApproxWitness(m, {"alpha_norm": am.circle_norm(),
                             "beta_norm": circle_norm(beta * m * am.nint())})


# ---------------------------------------------------------------------------
# Lemma 3.2 witnesses: n2 with vanishing second symmetric derivative
# ---------------------------------------------------------------------------


def _first_difference(g: SequenceHandle, x0: int, k: int, d: int) -> np.ndarray:
    """H(x) = g(x + d) - g(x) for x in [x0, x0 + k), in int64 from the exact
    `table`; ValueError where H(x') - H(x) could leave int64, so no read
    wraps."""
    T = g.table(x0 + k - 1 + d)[x0:x0 + k + d]
    if len(T):
        check_int64_product(4, max(-int(T.min()), int(T.max())))
    T = T.astype(np.int64, copy=False)
    return T[d:] - T[:k]


def _reads(width: int, columns: int) -> Iterator[tuple[int, int]]:
    """Windows [x0, x0 + k) over the offsets 0..width-1 of `columns` reads:
    about one BLOCK in all first, then each twice as wide as the last."""
    x0, k = 0, max(1, BLOCK // columns)
    while x0 < width:
        yield x0, min(k, width - x0)
        x0, k = x0 + k, 2 * k


def lemma32_scan(n0: int, n1: int, lo: int, hi: int,
                 g: SequenceHandle) -> int | None:
    """Least n2 in [lo, hi] with the second symmetric derivative of g
    vanishing at (n0, n1, n2); None if there is none (certified): an exact
    int64 read of the `table` in `_reads` windows, stopping at the first
    window with a witness.  `verify 3.2` reads [C*n1, C*n1 + W], W from
    `lemma32_read_bound`: D2 g(n0, n1, x) - D2 g(n0, n1, 0) = beta*(K*x + L),
    K and L made of Lemma 3.1's carries, vanishes within any W consecutive x
    on a positive pair (three-distance theorem) and at no n2 > 0 on a
    negative one.  A negative n0, n1 or lo is refused (the table starts at
    g(0); no caller passes one)."""
    if min(n0, n1, lo) < 0:
        raise ValueError("lemma32_scan reads g from 0: n0, n1 and lo must be >= 0")
    H = _first_difference(g, 0, n0 + 1, n1)
    target = H[n0] - H[0]  # D2 g(n0, n1, x) = H(x + n0) - H(x) at x = 0
    for x0, k in _reads(hi + 1 - lo, 1):
        H = _first_difference(g, lo + x0, k + n0, n1)
        hits = H[n0:] - H[:k] == target
        j = int(hits.argmax())
        if hits[j]:
            return lo + x0 + j
    return None


def lemma32_columns(N_max: int, m_max: int, C: int,
                    width: Callable[[int, np.ndarray], np.ndarray],
                    g: SequenceHandle) -> tuple[np.ndarray, int]:
    """(psi, w): psi[n-1, m], 1 <= n <= N_max and 0 <= m <= m_max, holds when
    every n' <= n has an n2 in [C*m, C*m + w_n'] with the second symmetric
    derivative of g vanishing at (n', m, n2), w_n = max width(n, ms) over
    the columns ms still True at row n; w is the largest w_n, column 0 False.

    In lock-step over n, row n takes one exact int64 first difference H(x) =
    g(x+n) - g(x), so D2 g(n, m, x) = H(x+m) - H(x), and reads the columns
    with no witness yet in `_reads` windows, in gathers of about one BLOCK.
    With width = `lemma32_read_bound(g.const)`, D2 g(n, m, x) -
    D2 g(n, m, 0) = beta*(K*x + L), K and L made of Lemma 3.1's carries,
    vanishes in the window of a positive pair (three-distance theorem) and
    at no n2 > 0 of a negative one, so the table is psi."""
    if C < 0:
        raise ValueError("lemma32_columns reads g from 0: C must be >= 0")
    psi = np.zeros((N_max, m_max + 1), dtype=bool)
    live = np.arange(1, m_max + 1)
    widest = 0
    for n in range(1, N_max + 1):
        if not len(live):
            break
        w = int(np.max(width(n, live)))
        if w < 0:
            raise ValueError("lemma32_columns: a width must be >= 0")
        widest = max(widest, w)
        H = _first_difference(g, 0, (C + 1) * int(live[-1]) + w + 1, n)  # x <= (C+1)*m + w
        target = H[live] - H[0]  # D2 g(n, m, 0)
        found = np.zeros(len(live), dtype=bool)
        for x0, k in _reads(w + 1, len(live)):
            V = np.lib.stride_tricks.sliding_window_view(H, k)  # V[x] = H[x:x + k]
            todo, step = np.flatnonzero(~found), max(1, BLOCK // k)
            for s in range(0, len(todo), step):
                i = todo[s:s + step]
                ms = live[i]
                found[i] = (V[(C + 1) * ms + x0] - V[C * ms + x0] == target[i, None]).any(axis=1)
        live = live[found]
        psi[n - 1, live] = True
    return psi, widest


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


def weyl_witnesses(targets: Sequence[tuple], start: int, stop: int,
                   context: dict | None = None) -> Iterator[int]:
    """Every n in start..stop-1, in increasing order, with frac_signed(expr(n))
    in the open interval (lo, hi) of each target (expr, (lo, hi)).

    Each target is decided once, exactly: a c*n^d target (d in {1, 2}) by
    its `within` mask alone, any other by its `compile_term` closure, on
    the survivors of the masks only."""
    env = dict(context or {})
    lanes, closures = [], []
    for expr, (lo, hi) in targets:
        if isinstance(expr, str):
            expr = parse(expr)
        lo = lo if isinstance(lo, AlgebraicReal) else Fraction(lo)
        hi = hi if isinstance(hi, AlgebraicReal) else Fraction(hi)
        if sign(hi - lo) <= 0:
            raise ValueError("target interval is empty")
        shape = _linear_shape(expr, env)
        if shape is not None and shape[1] in (1, 2):
            lanes.append((FastConst(shape[0]), shape[1] == 2, lo, hi))
        else:
            closures.append((compile_term(expr), lo, hi))
    for ns in blocks(start, stop):
        for fc, square, lo, hi in lanes:
            if not len(ns):
                break
            if square:
                # ns ascends, so its largest |n| sits at either end
                top = max(abs(int(ns[0])), abs(int(ns[-1])))
                check_int64_product(top, top)
            ns = ns[fc.within(ns * ns if square else ns, lo, hi)]
        for n in map(int, ns):
            env["n"] = n
            if all(lo < frac_signed(value(env, {})) < hi for value, lo, hi in closures):
                yield n


def find_weyl_witness(targets: Sequence[tuple], max_candidate: int,
                      context: dict | None = None) -> int:
    """The least n <= max_candidate of `weyl_witnesses` from 1."""
    n = next(weyl_witnesses(targets, 1, max_candidate + 1, context), None)
    if n is None:
        raise NotFoundWithinBudget(f"no witness <= {max_candidate}")
    return n


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


def _edge_counts(p: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.searchsorted(edges, p, side="right") for finite p and the edges
    np.linspace(-1/2, 1/2, grid + 1), with p == 1/2 moved into the last bin
    as np.histogram2d does: p lies in bin count - 1, and the counts 0 and
    grid + 1 are outside the edges; away from an edge, floor((p + 1/2)*grid) + 1."""
    grid = len(edges) - 1
    s = (p + 0.5) * grid
    c = np.floor(s)
    # for |p| <= 0.6, s and grid*(edges + 1/2) each err by < grid*2^-51, and the reach
    # grid*2^-49 also covers the rounding of s - c - 1/2; past 0.6 the clip decides
    near = np.flatnonzero(np.abs(s - c - 0.5) >= 0.5 - grid * 2.0**-49)
    c = np.clip(c, -1, grid, out=c).astype(np.int64) + 1
    q = p[near]
    c[near] = np.searchsorted(edges, q, side="right") - (q == edges[-1])
    return c


def equidist_check(alpha: AlgebraicReal, a: int, b: int, c: int, d: int,
                   N: int, M: int, grid: int,
                   seed: int = DEFAULT_SEED) -> EquidistReport:
    """Compare the orbit histogram of (frac(alpha n), frac(alpha nint(theta n)))
    with the push-forward of the uniform measure through the transfer map;
    alpha generates its field, of degree >= 3, and theta `NumberField.mobius`.

    The orbit bins and the origin cell count are exact G-bins, G = lcm(grid,
    20), of `FastConst.bins`.  The push-forward samples are Monte Carlo floats
    binned as np.histogram2d bins them; r is drawn in _R_SLICE slices, once to
    pass it and once beside x and y.  Both sides walk BLOCK slices."""
    if d == 0:
        raise PreconditionViolated("d must be nonzero")
    if min(N, M, grid) < 1:
        raise PreconditionViolated("N, M and grid must be at least 1")
    field = alpha.field
    if field.degree < 3 or alpha != field.theta:
        raise PreconditionViolated("alpha must be the generator of a field of degree >= 3")
    if a * d == b * c:
        raise ThetaRational(f"theta = ({a}+{b}a)/({c}+{d}a) is rational")
    theta = field.mobius(a, b, c, d).theta

    fc_theta = FastConst(theta)
    fc_alpha = FastConst(alpha)
    # no frac(alpha k) is +-1/20: G-bins [G/2 - G/20, G/2 + G/20) are |frac| <= 1/20
    G = int(np.lcm(grid, 20))
    lo, hi, per = G // 2 - G // 20, G // 2 + G // 20, G // grid
    orbit_hist = np.zeros(grid * grid, dtype=np.int64)
    origin = 0
    for ns in blocks(1, N + 1):
        bx = fc_alpha.bins(ns, G)
        by = fc_alpha.bins(fc_theta.nint_frac_vec(ns), G)  # exact nint(theta*n)
        orbit_hist += np.bincount(bx // per * grid + by // per, minlength=grid * grid)
        origin += int(np.count_nonzero((lo <= bx) & (bx < hi) & (lo <= by) & (by < hi)))
    orbit_hist = orbit_hist.reshape(grid, grid)

    rng = np.random.default_rng(seed)
    rng_r = copy.deepcopy(rng)
    for i in range(0, M, _R_SLICE):
        rng.integers(0, abs(d), size=min(_R_SLICE, M - i))
    # x and y continue the stream after r, one 64-bit output per double:
    # x from rng, y from a copy M outputs ahead
    rng_y = copy.deepcopy(rng)
    rng_y.bit_generator.advance(M)
    af, tf = fc_alpha.f64, fc_theta.f64

    def fs(z, t):  # z - floor(z + 1/2), in place
        return np.subtract(z, np.floor(np.add(z, 0.5, out=t), out=t), out=z)

    edges = np.linspace(-0.5, 0.5, grid + 1)
    side = grid + 2
    push_hist = np.zeros(side * side, dtype=np.int64)
    buffers = np.empty((5, BLOCK))
    for i in range(0, M, BLOCK):
        if i % _R_SLICE == 0:
            r = rng_r.integers(0, abs(d), size=min(_R_SLICE, M - i))
        # px = fs(d*x + af*r), and py = fs(b*x - c*y + af*tf*r - af*fs(d*y + tf*r)) in x
        x, y, rs, px, t = buffers[:, :min(BLOCK, M - i)]
        rs[:] = r[i % _R_SLICE:][:len(rs)]
        np.subtract(rng.random(out=x), 0.5, out=x)
        np.subtract(rng_y.random(out=y), 0.5, out=y)
        np.multiply(x, d, out=px)
        px += np.multiply(rs, af, out=t)
        x *= b
        x -= np.multiply(y, c, out=t)
        y *= d
        y += np.multiply(rs, tf, out=t)
        x += np.multiply(rs, af * tf, out=t)
        x -= np.multiply(fs(y, t), af, out=y)
        push_hist += np.bincount(_edge_counts(fs(px, t), edges) * side
                                 + _edge_counts(fs(x, t), edges), minlength=side * side)
    push_hist = push_hist.reshape(side, side)[1:-1, 1:-1]

    disc = float(np.max(np.abs(orbit_hist / N - push_hist / M)))
    return EquidistReport(orbit_hist=orbit_hist, push_hist=push_hist,
                          orbit_count=N, push_count=M,
                          discrepancy=disc, origin_fraction=origin / N,
                          theta_float=float(theta))
