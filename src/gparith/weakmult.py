"""Terms over (Z; 1, +, -, x), the partial products x_m, the multiplication
family F(p), quadruple sets Q, and the reduction from polynomial-equation
solvability to first-order sentences over (+, 1, Q).

Terms are `genpoly` terms: integer leaves IntLit(c), variables Var("x<i>")
and Add/Sub/Mul.  In the scaled evaluation t_m an integer leaf c
evaluates to c * m (and x to x_m); with that reading the dilation identity
t_m(m n1, ..., m ns) = m * p(n1, ..., ns) holds for every polynomial,
constants included.
"""

from __future__ import annotations

import operator
import re
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

from ._fastlane import check_int64_product
from .errors import ZeroModulus
from .focheck import (
    AlphaContext,
    FAnd,
    FCmp,
    FExists,
    Formula,
    FRel,
    progression_d2,
)
from .genpoly import Add, Expr, IntLit, Mul, Sub, TokenStream, Var, parse_sum

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}

# ---------------------------------------------------------------------------
# Multivariate integer polynomials (canonical sparse representation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    arity: int
    monomials: tuple[tuple[tuple[int, ...], int], ...]  # sorted, no zero coeffs

    @staticmethod
    def _normalise(arity: int, entries: dict[tuple[int, ...], int]) -> "IntPolynomial":
        mono = tuple(sorted((e, c) for e, c in entries.items() if c != 0))
        return IntPolynomial(arity, mono)

    @classmethod
    def constant(cls, c: int, arity: int) -> "IntPolynomial":
        return cls._normalise(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, i: int, arity: int) -> "IntPolynomial":
        if not 1 <= i <= arity:
            raise ValueError(f"variable x{i} outside arity {arity}")
        e = [0] * arity
        e[i - 1] = 1
        return cls._normalise(arity, {tuple(e): 1})

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        ent = dict(self.monomials)
        for e, c in other.monomials:
            ent[e] = ent.get(e, 0) + c
        return self._normalise(self.arity, ent)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + -other

    def __neg__(self) -> "IntPolynomial":
        return self._normalise(self.arity, {e: -c for e, c in self.monomials})

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        ent: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.monomials:
            for e2, c2 in other.monomials:
                e = tuple(a + b for a, b in zip(e1, e2))
                ent[e] = ent.get(e, 0) + c1 * c2
        return self._normalise(self.arity, ent)

    def eval(self, args: Sequence[int]) -> int:
        return sum(c * prod(x**k for x, k in zip(args, e)) for e, c in self.monomials)

    def is_zero(self) -> bool:
        return not self.monomials

    def constant_value(self) -> int | None:
        """The constant c if the polynomial is constant, else None."""
        if not self.monomials:
            return 0
        if len(self.monomials) == 1 and all(k == 0 for k in self.monomials[0][0]):
            return self.monomials[0][1]
        return None

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for e, c in self.monomials:
            vars_ = "*".join(f"x{i+1}^{k}" if k > 1 else f"x{i+1}"
                             for i, k in enumerate(e) if k)
            parts.append(f"{c}*{vars_}" if vars_ else str(c))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Canonical terms and the multiplication family
# ---------------------------------------------------------------------------


def _split_by_variable(p: IntPolynomial, i: int) -> dict[int, IntPolynomial]:
    """Coefficient polynomials of powers of x_i (with x_i removed)."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in p.monomials:
        k = e[i - 1]
        e0 = list(e)
        e0[i - 1] = 0
        out.setdefault(k, {})[tuple(e0)] = c
    return {k: IntPolynomial._normalise(p.arity, ent) for k, ent in out.items()}


def poly_to_term(p: IntPolynomial) -> Expr:
    """Deterministic canonical term: Horner by lowest variable index, with
    integer leaves for the constant coefficients."""
    return _horner(p, 1)


def _horner(p: IntPolynomial, i: int) -> Expr:
    c = p.constant_value()
    if c is not None:
        return IntLit(c)
    if i > p.arity:
        raise AssertionError("non-constant polynomial exhausted its variables")
    coeffs = _split_by_variable(p, i)
    kmax = max(coeffs)
    if kmax == 0:
        return _horner(coeffs[0], i + 1)
    acc = _horner(coeffs[kmax], i + 1)
    for k in range(kmax - 1, -1, -1):
        # multiplying the unit term is collapsed so that p = x_i yields the
        # bare variable (and no spurious product enters the family)
        acc = Var(f"x{i}") if acc == IntLit(1) else Mul(Var(f"x{i}"), acc)
        ck = coeffs.get(k)
        if ck is not None and not ck.is_zero():
            acc = Add(_horner(ck, i + 1), acc)
    return acc


def _index(v: Var) -> int:
    """The 1-based index i of the variable x<i>."""
    return int(v.name[1:])


def term_to_poly(t: Expr, arity: int) -> IntPolynomial:
    if isinstance(t, IntLit):
        return IntPolynomial.constant(t.value, arity)
    if isinstance(t, Var):
        return IntPolynomial.variable(_index(t), arity)
    return _OPS[type(t)](term_to_poly(t.lhs, arity), term_to_poly(t.rhs, arity))


def family_of_term(t: Expr, arity: int) -> frozenset:
    """Pairs of polynomials tracking every product node of the term."""
    if isinstance(t, (IntLit, Var)):
        return frozenset()
    fam = family_of_term(t.lhs, arity) | family_of_term(t.rhs, arity)
    if isinstance(t, Mul):
        fam |= {(term_to_poly(t.lhs, arity), term_to_poly(t.rhs, arity))}
    return fam


def family_F(p: IntPolynomial) -> frozenset:
    """F(p) computed over the canonical term of p."""
    return family_of_term(poly_to_term(p), p.arity)


# ---------------------------------------------------------------------------
# Quadruple sets
# ---------------------------------------------------------------------------


class ExplicitQSet:
    """An explicit store of quadruples, given as (m, a, b, c) tuples or a
    (4, n) int64 column array: deduplicated int64 columns, rows sorted."""

    # `contains` also answers int64 arrays entrywise (read by focheck's lane)
    array_contains = True

    def __init__(self, quadruples: Iterable[tuple[int, int, int, int]] | np.ndarray) -> None:
        self.cols = _sorted_rows(quadruples if isinstance(quadruples, np.ndarray) else
                                 np.fromiter(quadruples, dtype=np.dtype((np.int64, 4))).T)
        # progressions whose constant-d2 run falls short of T, as (m, T, run)
        self.short_runs: list[tuple[int, int, int]] = []
        self._keys = None  # (layout, packed keys, first key tied), on first use

    def contains(self, m, a, b, c):
        """Membership of (m, a, b, c): a bool for four ints, and entrywise a
        bool array for int64 arrays (ints broadcast against them).

        One search of the packed keys of `_sorted_rows`, built on the first
        call: a value outside its column's [min, max], an int outside int64
        among them, is no member's; the first key is found by `searchsorted`,
        and where rows tie on it the later keys are bisected on the run."""
        probe = (m, a, b, c)
        if all(isinstance(v, int) for v in probe):
            return bool(len(self) and self._inside(probe) and self._search(probe))
        shape = np.broadcast_shapes(*map(np.shape, probe))
        hit = np.zeros(shape, dtype=bool)
        if len(self) and all(not isinstance(v, int) or _INT64_MIN <= v <= _INT64_MAX
                             for v in probe):
            vs = [np.broadcast_to(np.asarray(v, dtype=np.int64), shape).ravel() for v in probe]
            inside = self._inside(vs)
            hit.reshape(-1)[inside] = self._search([v[inside] for v in vs])
        return hit

    def _packed(self):
        """(layout, keys, tied): `_layout` of the rows, their packed keys and
        whether two rows share the first key; built once, on first use."""
        if self._keys is None:
            layout = _layout(self.cols)
            keys = _pack(self.cols, layout)
            self._keys = layout, keys, bool((keys[0][1:] == keys[0][:-1]).any())
        return self._keys

    def _inside(self, probe):
        """Entrywise: is every value of the probe within its column's range?"""
        inside = True
        for group in self._packed()[0]:
            for j, lo, w in group:
                inside = inside & (lo <= probe[j]) & (probe[j] <= lo + (w - 1))
        return inside

    def _search(self, probe):
        """Entrywise: is the probe, inside every column's range, a row?"""
        layout, keys, tied = self._packed()
        pk = _pack(probe, layout)
        lo = keys[0].searchsorted(pk[0])
        if not tied:  # the first key fixes the row
            i = np.minimum(lo, len(self) - 1)
            return np.logical_and.reduce([k[i] == p for k, p in zip(keys, pk)])
        hi = keys[0].searchsorted(pk[0], "right")
        # rows equal on the earlier keys are sorted by the next one
        for key, p in zip(keys[1:], pk[1:]):
            lo, hi = _bisect(key, lo, hi, p, False), _bisect(key, lo, hi, p, True)
        return lo < hi

    def members(self):
        return zip(*self.cols.tolist())

    def moduli(self):
        m = self.cols[0]  # sorted, as the rows are
        return iter(m[np.r_[True, m[1:] != m[:-1]]].tolist() if len(m) else [])

    def __len__(self) -> int:
        return self.cols.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, ExplicitQSet) and np.array_equal(self.cols, other.cols)


def _layout(cols: np.ndarray) -> list[list[tuple[int, int, int]]]:
    """The groups of adjacent columns whose joint range fits in int64, each
    column as (index, min, width) of a non-empty (4, n) array."""
    layout, span = [], 0
    for j, col in enumerate(cols):
        lo = int(col.min())
        w = int(col.max()) - lo + 1
        if layout and span * w <= _INT64_MAX:
            layout[-1].append((j, lo, w))
            span *= w
        else:
            layout.append([(j, lo, w)])
            span = w
    return layout


def _pack(cols, layout) -> list[np.ndarray]:
    """One int64 key per group of `layout`, for columns inside its ranges:
    (x - lo_x) * w_y + (y - lo_y) orders as (x, y) does, and a column wider
    than int64 (alone in its group) is its own key."""
    keys = []
    for group in layout:
        key = None
        for j, lo, w in group:
            x = cols[j] - lo if w <= _INT64_MAX else cols[j]
            key = x if key is None else key * w + x
        keys.append(key)
    return keys


def _bisect(key: np.ndarray, lo: np.ndarray, hi: np.ndarray, v: np.ndarray,
            right: bool) -> np.ndarray:
    """Entrywise the first i in [lo, hi) with key[i] > v (right) or >= v,
    else hi, for `key` sorted on each [lo, hi)."""
    while (live := lo < hi).any():
        mid = (lo + hi) >> 1
        k = key[np.minimum(mid, len(key) - 1)]
        up = live & ((k <= v) if right else (k < v))
        lo, hi = np.where(up, mid + 1, lo), np.where(live & ~up, mid, hi)
    return lo


def _sorted_rows(cols: np.ndarray) -> np.ndarray:
    """The distinct rows of (4, n) columns, in lexicographic order, sorted by
    the packed keys of `_layout`."""
    if not cols.shape[1]:
        return cols
    keys = _pack(cols, _layout(cols))
    # take and compress keep the rows C-contiguous, as searchsorted wants them
    order = np.argsort(keys[0], kind="stable")
    first = keys[0][order]
    if (first[1:] != first[:-1]).all():  # distinct first keys: distinct rows
        return cols.take(order, axis=1)
    # the later keys break ties of the first; a generated Q, whose (m, a, b)
    # fixes c, has none
    cols = cols.take(np.lexsort(keys[::-1]) if len(keys) > 1 else order, axis=1)
    return cols.compress(np.r_[True, (cols[:, 1:] != cols[:, :-1]).any(axis=0)], axis=1)


class SyntheticQSet:
    """All (m, km, lm, klm) with 1 <= m <= m_max and |k|, |l| <= k_max.

    Membership is a structural predicate; the store is virtual because the
    bounds used by the randomized suites make explicit storage infeasible.
    Already closed under the sign action.
    """

    def __init__(self, m_max: int, k_max: int) -> None:
        if m_max < 0 or k_max < 0:
            raise ValueError("bounds must be nonnegative")
        self.m_max = m_max
        self.k_max = k_max

    def contains(self, m, a, b, c) -> bool:
        if not 1 <= m <= self.m_max:
            return False
        if a % m or b % m or c % m:
            return False
        k, l = a // m, b // m
        return abs(k) <= self.k_max and abs(l) <= self.k_max and c == k * l * m


# ---------------------------------------------------------------------------
# Partial products and scaled term evaluation
# ---------------------------------------------------------------------------


def times_m(Q: ExplicitQSet | SyntheticQSet, m: int, a: int, b: int) -> Optional[int]:
    """a x_m b = ab/m when ab/m is an integer and (m,a,b,ab/m) in Q."""
    if m == 0:
        raise ZeroModulus("modulus must be nonzero")
    if (a * b) % m != 0:
        return None
    c = (a * b) // m
    return c if Q.contains(m, a, b, c) else None


def eval_term_m(t: Expr, m: int, args: Sequence[int],
                Q: ExplicitQSet | SyntheticQSet) -> Optional[int]:
    """Scaled partial evaluation: x -> x_m and an integer leaf c -> c * m.

    None propagates from any undefined partial product.
    """
    if m == 0:
        raise ZeroModulus("modulus must be nonzero")
    if isinstance(t, IntLit):
        return t.value * m
    if isinstance(t, Var):
        return args[_index(t) - 1]
    a = eval_term_m(t.lhs, m, args, Q)
    if a is None:
        return None
    b = eval_term_m(t.rhs, m, args, Q)
    if b is None:
        return None
    return times_m(Q, m, a, b) if isinstance(t, Mul) else _OPS[type(t)](a, b)


def family_domain_ok(fam: frozenset, m: int, args: Sequence[int],
                     Q: ExplicitQSet | SyntheticQSet) -> bool:
    """Domain condition of the dilation identity: every family pair lands
    in dom(x_m) after scaling by m."""
    for p1, p2 in fam:
        a, b = m * p1.eval(args), m * p2.eval(args)
        if times_m(Q, m, a, b) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Q construction from the quadratic sequence
# ---------------------------------------------------------------------------


def _kl_pairs(T: int) -> np.ndarray:
    """Rows (k, l, kl) over k, l >= 1 with kl <= T - 1, ordered by kl: the
    pairs of any smaller T are a prefix."""
    k = np.repeat(np.arange(1, T, dtype=np.int64), (T - 1) // np.arange(1, T))
    l = np.arange(1, len(k) + 1) - np.searchsorted(k, k)
    return np.stack([k, l, k * l])[:, np.argsort(k * l, kind="stable")]


def build_Q(ctx: AlphaContext, m_max: int, h_factor_max: int) -> ExplicitQSet:
    """All quadruples with modulus m <= m_max witnessed by an admissible
    progression P_{m,h}, h <= h_factor_max * m, built in one lane pass over
    all moduli.

    The largest admissible T = h/m of every m comes from one certified
    lane call (range clause via ell, T = min(h_factor_max, ell(m)/m)), and
    g along every stride-m progression with T >= 3 from one `g_vec` call
    (constant nonzero second difference along the progression).  The
    memberships force quadruples (m, km, lm, klm) with kl <= T-1, and the
    defining equality D g(m, klm) = D g(km, lm) is verified exactly on the
    stride values.  For T <= ell(m)/m and integer beta, g(tm) = beta t^2 m
    nint(alpha m), so the constant-d2 run reaches T - 2; a shorter one
    refutes the construction and is recorded in `short_runs` as (m, T, run).
    """
    ms = np.arange(1, m_max + 1, dtype=np.int64)
    Ts = ctx.g.const.half_inverse_norm(ms, h_factor_max)
    ms, Ts = ms[Ts >= 3], Ts[Ts >= 3]
    gv, off, a, run = progression_d2(ctx, ms, Ts)
    check_int64_product(4, np.abs(gv).max(initial=0))
    live = a != 0
    short = live & (run < Ts - 2)
    short_runs = list(zip(*(x[short].tolist() for x in (ms, Ts, run))))
    ms, Ts, base = ms[live], Ts[live], off[:-1][live]
    # the (k, l) of each modulus are a prefix of the pairs of the largest T
    pairs = _kl_pairs(int(Ts.max(initial=3)))
    counts = pairs[2].searchsorted(Ts - 1, side="right")
    starts = np.cumsum(counts) - counts
    k, l, kl = pairs.take(np.arange(counts.sum()) - starts.repeat(counts), axis=1)
    m, base = ms.repeat(counts), base.repeat(counts)
    # defining equality, exact on the stride values (the g(0) terms cancel)
    ok = (gv[base + kl + 1] - gv[base + 1] - gv[base + kl]
          == gv[base + k + l] - gv[base + k] - gv[base + l])
    Q = ExplicitQSet(np.stack([m, k * m, l * m, kl * m]).compress(ok, axis=1))
    Q.short_runs = short_runs
    return Q


def _negatable(Q: ExplicitQSet) -> np.ndarray:
    """Q's columns, once no sign flip of them can leave the int64 range."""
    if (Q.cols[1:] == _INT64_MIN).any():
        raise ValueError("sign flip of -2^63 leaves the int64 range")
    return Q.cols


def close_pm(Q: ExplicitQSet) -> ExplicitQSet:
    """Sign closure {(m, sa, tb, st c)}; idempotent."""
    m, a, b, c = _negatable(Q)
    return ExplicitQSet(np.concatenate([np.stack([m, s * a, t * b, s * t * c])
                                        for s in (1, -1) for t in (1, -1)], axis=1))


def _reversal(cols: np.ndarray, L: int) -> np.ndarray:
    """The permutation of sorted rows that reverses each run of rows equal on
    the first L columns: row i of the run [start, stop) goes to start + stop - 1 - i."""
    n = cols.shape[1]
    edges = np.flatnonzero((cols[:L, 1:] != cols[:L, :-1]).any(axis=0)) + 1
    starts, stops = np.append(0, edges), np.append(edges, n)
    return (starts + stops - 1).repeat(stops - starts) - np.arange(n)


def is_sign_closed(Q: ExplicitQSet) -> bool:
    """close_pm(Q) == Q, without a sort.  Of rows sorted by (m, a, b, c), the
    flip (1, -1) is sorted by reversing each run of equal (m, a), and the flip
    (-1, -1) by reversing each run of equal (m, a, b), then of equal m.  Q is
    closed when both sorted flips equal it: they generate the sign group."""
    _, a, b, c = cols = _negatable(Q)
    p, q = _reversal(cols, 2), _reversal(cols, 3)[_reversal(cols, 1)]
    return all(np.array_equal(x[r], y) for x, r, y in
               ((b, p, -b), (c, p, -c), (a, q, -a), (b, q, -b), (c, q, c)))


@dataclass
class Q1Report:
    total: int
    violations: list


def check_Q1(Q: ExplicitQSet) -> Q1Report:
    """Exhaustive structural check: every member is (m, km, lm, klm)."""
    m, a, b, c = Q.cols
    # -2^63 // -1 wraps to -2^63: a wrapped k (|k| = 2^63) trips the row's
    # guard unless its l is 0, where k*l = 0 is right, and a guarded
    # |k*l| < 2^63 never equals a wrapped c // m
    with np.errstate(over="ignore"):
        (k, rk), (l, rl), (r, rc) = (np.divmod(x, np.where(m == 0, 1, m)) for x in (a, b, c))
    ok = (m != 0) & (rk == 0) & (rl == 0) & (rc == 0)
    k, l = k[ok], l[ok]
    # |x| as uint64: np.abs(-2^63) wraps to -2^63, whose uint64 view is 2^63
    ak, al = (np.abs(x).view(np.uint64) for x in (k, l))
    if np.any((al != 0) & (ak > np.uint64(_INT64_MAX) // np.maximum(al, 1))):
        raise ValueError("Q1 product k*l exceeds the int64 range")
    ok[ok] = k * l == r[ok]
    return Q1Report(total=len(Q), violations=list(zip(*Q.cols[:, ~ok].tolist())))


def commutes(Q: ExplicitQSet) -> bool:
    """(m, a, b, c) in Q iff (m, b, a, c) in Q, settled on the whole store."""
    m, a, b, c = Q.cols
    return ExplicitQSet(np.stack([m, b, a, c])) == Q


def check_Q2(Q: ExplicitQSet, F: Iterable[tuple[int, int]]) -> Optional[int]:
    """Smallest modulus m whose dilated copy of F sits inside dom(x_m).

    Where the store answers arrays and every k*l*m fits in int64, one array
    `contains` asks every pair of F at once for a run of moduli, runs of 64
    moduli and then twice as many each time; else one scalar call per
    modulus and pair."""
    F, moduli = list(F), list(Q.moduli())
    if F and moduli and getattr(Q, "array_contains", False):
        top = max(1, -moduli[0], moduli[-1]) * max(max(abs(k), abs(l), abs(k * l)) for k, l in F)
        if top <= _INT64_MAX:
            k, l = np.array(F, dtype=np.int64).T
            start, size = 0, 64
            while start < len(moduli):
                m = np.array(moduli[start:start + size], dtype=np.int64)[:, None]
                rows = Q.contains(m, k * m, l * m, k * l * m).all(axis=1)
                if rows.any():
                    return moduli[start + int(rows.argmax())]
                start, size = start + size, 2 * size
            return None
    for m in moduli:
        if all(Q.contains(m, k * m, l * m, k * l * m) for (k, l) in F):
            return m
    return None


# ---------------------------------------------------------------------------
# CSV interchange (sorted `m,a,b,c` lines, no header)
# ---------------------------------------------------------------------------


def _opened(fp, mode: str):
    """A path opened as ASCII text, or an open file left to its caller."""
    return open(fp, mode, encoding="ascii") if isinstance(fp, str) else nullcontext(fp)


def export_csv(Q: ExplicitQSet, fp) -> None:
    with _opened(fp, "w") as f:
        f.write("%d,%d,%d,%d\n" * len(Q) % tuple(Q.cols.T.ravel().tolist()))


def import_csv(fp) -> ExplicitQSet:
    """The store of `m,a,b,c` lines of int64 integers, parsed in C.  Blank
    lines are skipped; a field is an optional sign and decimal digits, with
    surrounding whitespace."""
    with _opened(fp, "r") as f:
        lines = [line for line in map(str.strip, f) if line]
    if not lines:
        return ExplicitQSet(np.zeros((4, 0), dtype=np.int64))
    # a "\r" inside a line is whitespace, where loadtxt would end the line
    text = [s.replace("\r", " ") for s in lines] if "\r" in "".join(lines) else lines
    try:
        rows = _parse_rows(text)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != 4:
        raise _first_bad_line(lines, text)
    return ExplicitQSet(rows.T)


def _parse_rows(text: list[str]) -> np.ndarray:
    return np.loadtxt(text, delimiter=",", dtype=np.int64, comments=None,
                      quotechar=None, ndmin=2)


def _first_bad_line(lines: list[str], text: list[str]) -> ValueError:
    """The error that names the first line that is not four int64 integers,
    parsing each `text` line alone; only an import that failed calls it."""
    for line, t in zip(lines, text):
        try:
            if _parse_rows([t]).shape == (1, 4):
                continue
        except ValueError:
            pass
        try:
            values = [int(v) for v in t.split(",")]
        except ValueError:
            values = []
        if len(values) == 4 and not all(_INT64_MIN <= v <= _INT64_MAX for v in values):
            return ValueError(f"quadruple line outside the int64 range: {line!r}")
        return ValueError(f"malformed quadruple line: {line!r}")
    raise AssertionError("the lines parse one by one but not together")


# ---------------------------------------------------------------------------
# Polynomial text parsing (x1, x2, ... over +, -, *, integer literals)
# ---------------------------------------------------------------------------

_PTOK = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x[1-9]\d*)|(?P<op>[-+*()]))")


def parse_poly(text: str) -> IntPolynomial:
    # every x<digits> of a well-formed text is a variable token
    arity = max((int(i) for i in re.findall(r"x(\d+)", text)), default=0)

    def atom(toks: TokenStream) -> IntPolynomial:
        if (v := toks.accept("int")) is not None:
            return IntPolynomial.constant(int(v), arity)
        if (v := toks.accept("var")) is not None:
            return IntPolynomial.variable(int(v[1:]), arity)
        raise toks.error(("INT", "xN", "(", "-"))

    toks = TokenStream(text, _PTOK)
    poly = parse_sum(toks, atom, operator.add, operator.sub, operator.mul,
                     operator.neg)
    toks.done()
    return poly


# ---------------------------------------------------------------------------
# The solvability reduction
# ---------------------------------------------------------------------------


def _lin_term(lin: dict[str, int]) -> Expr:
    parts = [Var(name) if c == 1 else Mul(IntLit(c), Var(name))
             for name, c in sorted(lin.items()) if c != 0]
    return reduce(Add, parts) if parts else IntLit(0)


def compile_solvability(p: IntPolynomial, m_cap: int = 8,
                        y_cap: int = 400) -> Formula:
    """First-order sentence over (+, 1, Q) asserting solvability of p = 0.

    Products are flattened through fresh existential variables constrained
    by Q-membership atoms; an integer leaf c of the canonical term
    contributes c times the quantified modulus m, so the inner equation
    says m * p(n) = 0.
    """
    t = poly_to_term(p)
    atoms: list[Formula] = []
    z_names: list[str] = []

    def walk(node: Expr) -> dict[str, int]:
        if isinstance(node, IntLit):
            return {"m": node.value}
        if isinstance(node, Var):
            return {f"y{_index(node)}": 1}
        a = walk(node.lhs)
        b = walk(node.rhs)
        if isinstance(node, (Add, Sub)):
            out = dict(a)
            sign = 1 if isinstance(node, Add) else -1
            for k, v in b.items():
                out[k] = out.get(k, 0) + sign * v
            return {k: v for k, v in out.items() if v != 0}
        z = f"z{len(z_names) + 1}"
        z_names.append(z)
        atoms.append(FRel("Q", (Var("m"), _lin_term(a), _lin_term(b), Var(z))))
        return {z: 1}

    final = walk(t)
    body: Formula = FCmp("=", _lin_term(final), IntLit(0))
    for atom in reversed(atoms):
        body = FAnd(atom, body)

    z_cap = y_cap * y_cap
    for z in reversed(z_names):
        body = FExists(z, IntLit(-z_cap), IntLit(z_cap), body)
    for i in range(p.arity, 0, -1):
        body = FExists(f"y{i}", IntLit(-y_cap), IntLit(y_cap), body)
    return FExists("m", IntLit(1), IntLit(m_cap), body)


@dataclass
class SolvabilityWitness:
    m: int
    n: tuple[int, ...]
    y: tuple[int, ...]


def check_solvability(p: IntPolynomial, Q: ExplicitQSet | SyntheticQSet,
                      m_values: Iterable[int], n_cap: int,
                      exclude_zero: bool = False) -> Optional[SolvabilityWitness]:
    """Bounded witness search for the compiled sentence: scan moduli and
    scaled assignments y = m*n, evaluating the term under x_m.

    A miss is only 'not found within bounds', never unsolvability.
    exclude_zero skips the all-zero assignment.
    """
    t = poly_to_term(p)
    rng = sorted(range(-n_cap, n_cap + 1), key=lambda x: (abs(x), -x))
    for m in m_values:
        if m == 0:
            continue
        for n_vec in product(rng, repeat=p.arity):
            if exclude_zero and not any(n_vec):
                continue
            val = eval_term_m(t, m, [m * x for x in n_vec], Q)
            if val == 0:
                return SolvabilityWitness(m=m, n=tuple(n_vec),
                                          y=tuple(m * x for x in n_vec))
    return None
