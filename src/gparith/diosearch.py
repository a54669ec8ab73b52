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
from typing import Iterator, Sequence

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


_FIRST_WINDOW = 256  # the first window of n2; a scan then reads the rest of its range at once


def _d2(T: np.ndarray, x: int, n0: int, n1: int) -> int:
    """g(x+n0+n1) - g(x+n0) - g(x+n1) + g(x) in Python ints from the exact
    `table` T: a witness n2 = x has _d2(T, x, n0, n1) == _d2(T, 0, n0, n1)."""
    return T.item(x + n0 + n1) - T.item(x + n0) - T.item(x + n1) + T.item(x)


def _residue_hits(Hx: np.ndarray, Hxd: np.ndarray, t16, out=None) -> np.ndarray:
    """The residue filter: Hxd - Hx == t16 in int16, where Hx holds H(x) and
    Hxd holds H(x + d) for a first difference H of g in int16.  Every witness
    passes it, and so does any x whose second difference differs from the
    target by a multiple of 2**16.  `out` is an optional (int16, bool) pair
    of buffers shaped like Hx."""
    if out is None:
        return Hxd - Hx == t16
    diff, hits = out
    return np.equal(np.subtract(Hxd, Hx, out=diff), t16, out=hits)


def _first_witness(Hx: np.ndarray, Hxd: np.ndarray, t16, x0: int, n0: int, n1: int,
                   target: int, T: np.ndarray, out=None) -> int | None:
    """Least x = x0 + j passing `_residue_hits` at j whose second difference
    at (n0, n1, x) is exactly `target`, re-checked by `_d2`; None if none.
    The hits are taken one `argmax` at a time, which stops at each."""
    hits = _residue_hits(Hx, Hxd, t16, out)
    j = 0
    while j < len(hits):
        j += int(hits[j:].argmax())
        if not hits[j]:
            break
        if _d2(T, x0 + j, n0, n1) == target:
            return x0 + j
        j += 1
    return None


def lemma32_scan(n0: int, n1: int, lo: int, hi: int,
                 g: SequenceHandle) -> int | None:
    """Least n2 in [lo, hi] with the second symmetric derivative of g
    vanishing at (n0, n1, n2); None if there is none (certified).

    With H(x) = g(x+n1) - g(x) in int16 over the handle's `residues`, D2 g =
    H(n2+n0) - H(n2) - target mod 2**16 misses no witness, and each hit is
    re-checked in Python ints from the exact `table` (10 bytes per n up to
    hi + n0 + n1).  It reads the first _FIRST_WINDOW n2, then the rest of
    [lo, hi]: a positive `verify 3.2` pair whose least witness lies past the
    first window reads up to `wit_cap` (every least witness measured at its
    defaults, under the cube roots of 2 and 3 and the plastic number, lies
    within 22 of lo).  It starts at g(0), so a negative n0, n1 or lo is
    refused (no caller passes one; `g_range` would serve it).
    """
    if min(n0, n1, lo) < 0:
        raise ValueError("lemma32_scan reads g from 0: n0, n1 and lo must be >= 0")
    target = _d2(g.table(n0 + n1), 0, n0, n1)
    t16 = (target + 2**15) % 2**16 - 2**15
    a, width = lo, _FIRST_WINDOW
    while a <= hi:
        k = min(width, hi + 1 - a)
        end = a + k - 1 + n0 + n1
        R, T = g.residues(end), g.table(end)
        H = R[a + n1:a + n1 + k + n0] - R[a:a + k + n0]  # H[j] = g(a+j+n1) - g(a+j)
        x = _first_witness(H[:k], H[n0:], t16, a, n0, n1, target, T)
        if x is not None:
            return x
        a += k
        width = hi + 1 - a
    return None


def lemma32_columns(N_max: int, m_max: int, C: int, width: int,
                    g: SequenceHandle) -> np.ndarray:
    """psi[n-1, m] for 1 <= n <= N_max and 0 <= m <= m_max: every n' <= n has
    some n2 in [C*m, C*m + width] with the second symmetric derivative of g
    vanishing at (n', m, n2).  That is the conjunction over n' of
    `lemma32_scan(n', m, C*m, C*m + width, g) is not None`; column 0 is False.

    The scan runs in lock-step over n, on the columns still True.  Row n
    takes one int16 first difference H(x) = g(x+n) - g(x) from `residues`,
    so D2 g(n, m, x) = H(x+m) - H(x) mod 2**16.  The least residue hit among
    the first _FIRST_WINDOW n2 of each live column is re-checked exactly, in
    one gather per BLOCK // _FIRST_WINDOW columns.  Only a column with no
    exact hit there is read in full, from C*m, into buffers allocated once;
    its hits are re-checked in order.  No column is ruled out without a
    read, so each False entry is a certified absence.
    """
    if min(C, width) < 0:
        raise ValueError("lemma32_columns reads g from 0: C and width must be >= 0")
    psi = np.zeros((N_max, m_max + 1), dtype=bool)
    fw = min(_FIRST_WINDOW, width + 1)
    L = (C + 1) * m_max + width + 1  # H(x) for x <= C*m + width + m
    R, T = g.residues(L - 1 + N_max), g.table(L - 1 + N_max)
    H = np.empty(L, dtype=np.int16)
    V = np.lib.stride_tricks.sliding_window_view(H, fw)  # V[x] = H[x:x + fw]
    cols = BLOCK // fw
    full = (np.empty(width + 1, dtype=np.int16), np.empty(width + 1, dtype=bool))
    live = np.arange(1, m_max + 1)
    for n in range(1, N_max + 1):
        if not len(live):
            break
        np.subtract(R[n:n + L], R[:L], out=H)
        t16 = H[live] - H[0]  # D2 g(n, m, 0), the target mod 2**16
        found = np.zeros(len(live), dtype=bool)
        for s in range(0, len(live), cols):
            ms = live[s:s + cols]
            k = len(ms)
            hits = _residue_hits(V[C * ms], V[(C + 1) * ms], t16[s:s + k, None])
            j = hits.argmax(axis=1)
            for i in np.flatnonzero(hits[np.arange(k), j]).tolist():
                m = int(ms[i])
                found[s + i] = _d2(T, C * m + int(j[i]), n, m) == _d2(T, 0, n, m)
        for i in np.flatnonzero(~found).tolist():
            m = int(live[i])
            a = C * m
            found[i] = _first_witness(H[a:a + width + 1], H[a + m:a + m + width + 1],
                                      t16[i], a, n, m, _d2(T, 0, n, m), T, full) is not None
        live = live[found]
        psi[n - 1, live] = True
    return psi


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
    with the push-forward of the uniform measure through the transfer map;
    alpha generates its field, of degree >= 3, and theta `NumberField.mobius`.

    The orbit bins and the origin cell count are exact (`FastConst.bins`
    and `within`); the push-forward samples are Monte Carlo floats, binned
    as np.histogram2d bins them.  Both are walked in BLOCK slices."""
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
