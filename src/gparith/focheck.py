"""First-order formulas over (Z; <, +, 1) with named sequences/relations,
a bounded-quantifier evaluator, and the defining formulas of the
divisibility construction (mu, psi, delta, pi, ell, progressions).

Every quantifier carries an explicit inclusive range; harness verdicts are
tagged verified-in-range / refuted-in-range / cap-exhausted so that a
bounded "false" is never silently reported as a mathematical one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from ._fastlane import QuadSeqFast
from .errors import (
    ExprSyntaxError,
    PreconditionViolated,
    RangeOverflow,
    UnboundVariable,
)
from .exactnum import AlgebraicReal, nint
from .genpoly import (
    SequenceHandle,
    TokenStream,
    delta_sym,
    parse_sum,
    quadratic_sequence,
)

# ---------------------------------------------------------------------------
# Term and formula ASTs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TInt:
    value: int


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TAdd:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class TSub:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class TMul:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class TNeg:
    arg: "Term"


@dataclass(frozen=True)
class TSeq:
    seq: str
    arg: "Term"


Term = Union[TInt, TVar, TAdd, TSub, TMul, TNeg, TSeq]


@dataclass(frozen=True)
class FCmp:
    op: str  # =, !=, <, <=, >, >=
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class FRel:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class FNot:
    body: "Formula"


@dataclass(frozen=True)
class FAnd:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class FOr:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class FImplies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class FExists:
    var: str
    lo: Term
    hi: Term
    body: "Formula"


@dataclass(frozen=True)
class FForall:
    var: str
    lo: Term
    hi: Term
    body: "Formula"


Formula = Union[FCmp, FRel, FNot, FAnd, FOr, FImplies, FExists, FForall]


@dataclass
class Structure:
    """Interpretation of the named sequences and relations."""

    sequences: dict[str, Callable[[int], int]] = dc_field(default_factory=dict)
    relations: dict[str, Callable[..., bool]] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class BoundProfile:
    """Explicit caps for bounded relativisation of the formulas."""

    n2_cap: int = 200_000
    M_cap: int = 30
    H_cap: int = 2
    h_cap: int = 64
    m_cap: int = 100_000
    max_range: int = 4_000_000

    def __post_init__(self):
        for name in ("n2_cap", "M_cap", "H_cap", "h_cap", "m_cap", "max_range"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


DEFAULT_BOUNDS = BoundProfile()

# ---------------------------------------------------------------------------
# Evaluation (Tarskian semantics, quantifiers relativised to their ranges)
# ---------------------------------------------------------------------------


def eval_term(t: Term, valuation: dict[str, int], structure: Structure) -> int:
    if isinstance(t, TInt):
        return t.value
    if isinstance(t, TVar):
        try:
            return valuation[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    if isinstance(t, TAdd):
        return eval_term(t.lhs, valuation, structure) + eval_term(t.rhs, valuation, structure)
    if isinstance(t, TSub):
        return eval_term(t.lhs, valuation, structure) - eval_term(t.rhs, valuation, structure)
    if isinstance(t, TMul):
        return eval_term(t.lhs, valuation, structure) * eval_term(t.rhs, valuation, structure)
    if isinstance(t, TNeg):
        return -eval_term(t.arg, valuation, structure)
    if isinstance(t, TSeq):
        try:
            seq = structure.sequences[t.seq]
        except KeyError:
            raise UnboundVariable(f"sequence {t.seq}") from None
        return seq(eval_term(t.arg, valuation, structure))
    raise TypeError(f"not a term: {t!r}")


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_formula(phi: Formula, valuation: dict[str, int], structure: Structure,
                 bounds: BoundProfile = DEFAULT_BOUNDS) -> bool:
    if isinstance(phi, FCmp):
        return _CMP[phi.op](eval_term(phi.lhs, valuation, structure),
                            eval_term(phi.rhs, valuation, structure))
    if isinstance(phi, FRel):
        try:
            rel = structure.relations[phi.name]
        except KeyError:
            raise UnboundVariable(f"relation {phi.name}") from None
        return bool(rel(*(eval_term(a, valuation, structure) for a in phi.args)))
    if isinstance(phi, FNot):
        return not eval_formula(phi.body, valuation, structure, bounds)
    if isinstance(phi, FAnd):
        return (eval_formula(phi.lhs, valuation, structure, bounds)
                and eval_formula(phi.rhs, valuation, structure, bounds))
    if isinstance(phi, FOr):
        return (eval_formula(phi.lhs, valuation, structure, bounds)
                or eval_formula(phi.rhs, valuation, structure, bounds))
    if isinstance(phi, FImplies):
        return (not eval_formula(phi.lhs, valuation, structure, bounds)
                or eval_formula(phi.rhs, valuation, structure, bounds))
    if isinstance(phi, (FExists, FForall)):
        lo = eval_term(phi.lo, valuation, structure)
        hi = eval_term(phi.hi, valuation, structure)
        if hi - lo + 1 > bounds.max_range:
            raise RangeOverflow(f"range [{lo}, {hi}] exceeds max_range")
        want = isinstance(phi, FExists)
        inner = dict(valuation)
        for v in range(lo, hi + 1):
            inner[phi.var] = v
            if eval_formula(phi.body, inner, structure, bounds) == want:
                return want
        return not want
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Formula text syntax
# ---------------------------------------------------------------------------

_FTOK = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<kw>exists|forall|and|or|not|in)\b"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>=>|!=|<=|>=|[-+*()\[\],:<>=]))")


def parse_formula(text: str) -> Formula:
    toks = TokenStream(text, _FTOK)
    phi = _parse_f(toks)
    toks.done()
    return phi


def _parse_f(toks: TokenStream) -> Formula:
    quantifier = toks.accept("kw", "exists", "forall")
    if quantifier is not None:
        name = toks.expect("name")
        toks.expect("kw", "in")
        toks.expect("op", "[")
        lo = _parse_t(toks)
        toks.expect("op", ",")
        hi = _parse_t(toks)
        toks.expect("op", "]")
        toks.expect("op", ":")
        body = _parse_f(toks)
        cls = FExists if quantifier == "exists" else FForall
        return cls(name, lo, hi, body)
    lhs = _parse_or(toks)
    if toks.accept("op", "=>"):
        return FImplies(lhs, _parse_f(toks))
    return lhs


def _parse_or(toks: TokenStream) -> Formula:
    node = _parse_and(toks)
    while toks.accept("kw", "or"):
        node = FOr(node, _parse_and(toks))
    return node


def _parse_and(toks: TokenStream) -> Formula:
    node = _parse_not(toks)
    while toks.accept("kw", "and"):
        node = FAnd(node, _parse_not(toks))
    return node


def _parse_not(toks: TokenStream) -> Formula:
    if toks.accept("kw", "not"):
        return FNot(_parse_not(toks))
    mark = toks.i
    if toks.accept("op", "("):
        # backtrack to disambiguate "(formula)" from "(term) < term"
        try:
            inner = _parse_f(toks)
            toks.expect("op", ")")
        except ExprSyntaxError:
            inner = None
        if inner is not None and toks.peek()[1] not in _CMP:
            return inner
        toks.i = mark
    return _parse_atom(toks)


def _parse_atom(toks: TokenStream) -> Formula:
    k, v, _ = toks.peek()
    if k == "name" and v[0].isupper():
        toks.next()
        toks.expect("op", "(")
        args = [_parse_t(toks)]
        while toks.accept("op", ","):
            args.append(_parse_t(toks))
        toks.expect("op", ")")
        return FRel(v, tuple(args))
    lhs = _parse_t(toks)
    op = toks.accept("op", *_CMP)
    if op is None:
        raise toks.error(tuple(_CMP), "comparison")
    return FCmp(op, lhs, _parse_t(toks))


def _parse_t(toks: TokenStream) -> Term:
    return parse_sum(toks, _parse_t_atom, TAdd, TSub, TMul, TNeg)


def _parse_t_atom(toks: TokenStream) -> Term:
    value = toks.accept("int")
    if value is not None:
        return TInt(int(value))
    name = toks.accept("name")
    if name is None:
        raise toks.error(("INT", "NAME", "(", "-"))
    if name[0].islower() and toks.accept("op", "("):
        arg = _parse_t(toks)
        toks.expect("op", ")")
        return TSeq(name, arg)
    return TVar(name)


def pretty_formula(phi: Formula) -> str:
    if isinstance(phi, FExists):
        return (f"exists {phi.var} in [{pretty_term(phi.lo)}, {pretty_term(phi.hi)}]: "
                f"{pretty_formula(phi.body)}")
    if isinstance(phi, FForall):
        return (f"forall {phi.var} in [{pretty_term(phi.lo)}, {pretty_term(phi.hi)}]: "
                f"{pretty_formula(phi.body)}")
    if isinstance(phi, FImplies):
        return f"{_pf_bin(phi.lhs)} => {pretty_formula(phi.rhs)}"
    if isinstance(phi, FOr):
        return f"{_pf_bin(phi.lhs)} or {_pf_bin(phi.rhs)}"
    if isinstance(phi, FAnd):
        return f"{_pf_bin(phi.lhs)} and {_pf_bin(phi.rhs)}"
    if isinstance(phi, FNot):
        return f"not {_pf_bin(phi.body)}"
    if isinstance(phi, FRel):
        return f"{phi.name}({', '.join(pretty_term(a) for a in phi.args)})"
    if isinstance(phi, FCmp):
        return f"{pretty_term(phi.lhs)} {phi.op} {pretty_term(phi.rhs)}"
    raise TypeError(f"not a formula: {phi!r}")


def _pf_bin(phi: Formula) -> str:
    s = pretty_formula(phi)
    if isinstance(phi, (FExists, FForall, FImplies, FOr, FAnd)):
        return f"({s})"
    return s


def pretty_term(t: Term) -> str:
    if isinstance(t, TInt):
        return str(t.value)
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TSeq):
        return f"{t.seq}({pretty_term(t.arg)})"
    if isinstance(t, TNeg):
        return f"-{_pt_atom(t.arg)}"
    if isinstance(t, TMul):
        return f"{_pt_atom(t.lhs)}*{_pt_atom(t.rhs)}"
    if isinstance(t, TAdd):
        return f"{pretty_term(t.lhs)} + {_pt_atom(t.rhs)}"
    if isinstance(t, TSub):
        return f"{pretty_term(t.lhs)} - {_pt_atom(t.rhs)}"
    raise TypeError(f"not a term: {t!r}")


def _pt_atom(t: Term) -> str:
    s = pretty_term(t)
    if isinstance(t, (TAdd, TSub)):
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# The mu / psi formulas (second-derivative witness conditions)
# ---------------------------------------------------------------------------


def _d2_term(v0: Term, v1: Term, v2: Term) -> Term:
    """g(v0+v1+v2)-g(v1+v2)-g(v0+v2)-g(v0+v1)+g(v0)+g(v1)+g(v2)-g(0)."""
    def gt(t: Term) -> Term:
        return TSeq("g", t)
    s01, s02, s12 = TAdd(v0, v1), TAdd(v0, v2), TAdd(v1, v2)
    s012 = TAdd(v0, TAdd(v1, v2))
    acc: Term = TSub(gt(s012), gt(s12))
    acc = TSub(acc, gt(s02))
    acc = TSub(acc, gt(s01))
    acc = TAdd(acc, gt(v0))
    acc = TAdd(acc, gt(v1))
    acc = TAdd(acc, gt(v2))
    acc = TSub(acc, gt(TInt(0)))
    return acc


def mu_formula(C: int, n2_cap: int) -> Formula:
    """exists n2 in [C*n1, cap]: D2 g(n0, n1, n2) = 0 (free: n0, n1)."""
    return FExists("n2", TMul(TInt(C), TVar("n1")), TInt(n2_cap),
                   FCmp("=", _d2_term(TVar("n0"), TVar("n1"), TVar("n2")), TInt(0)))


def psi_formula(C: int, n2_cap: int, N_var: str = "N") -> Formula:
    """forall n in [1, N]: mu(n, m) (free: m, N)."""
    body = FExists("n2", TMul(TInt(C), TVar("m")), TInt(n2_cap),
                   FCmp("=", _d2_term(TVar("n"), TVar("m"), TVar("n2")), TInt(0)))
    return FForall("n", TInt(1), TVar(N_var), body)


def def_mu(n0: int, n1: int, C: int, bounds: BoundProfile,
           g: SequenceHandle) -> bool:
    """Bounded evaluation of the witness formula through the generic evaluator."""
    if n0 < 1 or n1 < 1:
        raise PreconditionViolated("n0, n1 must be >= 1")
    phi = mu_formula(C, bounds.n2_cap)
    return eval_formula(phi, {"n0": n0, "n1": n1}, Structure(sequences={"g": g}),
                        bounds)


def def_psi(m: int, N: int, C: int, bounds: BoundProfile,
            g: SequenceHandle) -> bool:
    if m < 1 or N < 0:
        raise PreconditionViolated("m >= 1 and N >= 0 required")
    if N == 0:
        return True
    phi = psi_formula(C, bounds.n2_cap)
    return eval_formula(phi, {"m": m, "N": N}, Structure(sequences={"g": g}), bounds)


# ---------------------------------------------------------------------------
# Fast window machinery shared by the scans
# ---------------------------------------------------------------------------


class AlphaContext:
    """Caches exact and lane data for one alpha (and integer beta)."""

    def __init__(self, alpha: AlgebraicReal, beta: int = 1) -> None:
        self.alpha = alpha
        self.beta = beta
        self.fast = QuadSeqFast(alpha, beta)
        self.g = quadratic_sequence(alpha, beta)
        self._frac_exact_cache: dict[int, AlgebraicReal] = {}
        self._fracs64: np.ndarray | None = None
        self._margins64: np.ndarray | None = None
        self._window_cache: dict[int, tuple[AlgebraicReal, AlgebraicReal]] = {}
        self._member_cache: dict[int, tuple[list[int], int]] = {}

    def frac_exact(self, n: int) -> AlgebraicReal:
        v = self._frac_exact_cache.get(n)
        if v is None:
            v = (self.alpha * n).frac_signed()
            self._frac_exact_cache[n] = v
        return v

    def fracs_upto(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """Float fractional parts of alpha*1..N with error margins (filters)."""
        if self._fracs64 is None or len(self._fracs64) < N:
            size = max(N, 4096)
            f, m = self.fast.frac_alpha_filter(np.arange(1, size + 1, dtype=np.int64))
            self._fracs64, self._margins64 = f, m
        return self._fracs64[:N], self._margins64[:N]

    def window(self, N: int) -> tuple[AlgebraicReal, AlgebraicReal]:
        """Exact endpoints (lo, hi) of the small-norm window at level N:
        lo = -1/2 - min frac(alpha n), hi = 1/2 - max frac(alpha n), n <= N."""
        cached = self._window_cache.get(N)
        if cached is not None:
            return cached
        fr, mg = self.fracs_upto(N)
        lo_idx = _extreme_indices(fr, mg, want_min=True)
        hi_idx = _extreme_indices(fr, mg, want_min=False)
        mn = min(self.frac_exact(i + 1) for i in lo_idx)
        mx = max(self.frac_exact(i + 1) for i in hi_idx)
        half = Fraction(1, 2)
        lo = -(mn + half)
        hi = -(mx - half)
        self._window_cache[N] = (lo, hi)
        return (lo, hi)

    def in_window(self, m: int, N: int) -> bool:
        """Exact strict test frac(alpha m) in (lo_N, hi_N)."""
        lo, hi = self.window(N)
        s = self.frac_exact(m)
        return (s - lo).sign() > 0 and (hi - s).sign() > 0


def _extreme_indices(fr: np.ndarray, mg: np.ndarray, want_min: bool) -> list[int]:
    if want_min:
        best = float(np.min(fr))
        cand = np.nonzero(fr <= best + 2 * mg)[0]
    else:
        best = float(np.max(fr))
        cand = np.nonzero(fr >= best - 2 * mg)[0]
    return [int(i) for i in cand]


# ---------------------------------------------------------------------------
# ell, progressions, pi
# ---------------------------------------------------------------------------


def ell(k: int, alpha: AlgebraicReal) -> int:
    """k * floor(1 / (2*norm(alpha k))), exact."""
    if k < 1:
        raise PreconditionViolated("k must be >= 1")
    nrm = (alpha * k).circle_norm()
    if nrm.sign() == 0:
        raise PreconditionViolated("alpha*k is an integer; alpha must be irrational")
    return k * (1 / (2 * nrm)).floor()


@dataclass
class Progression:
    m: int
    h: int
    elements: list[int]


def progression(m: int, h: int, alpha: AlgebraicReal) -> Progression:
    """P = {t*m : 1 <= t <= h/m}; requires 1 <= m <= h <= ell(m)."""
    if m < 1 or h < m:
        raise PreconditionViolated("need 1 <= m <= h")
    if h > ell(m, alpha):
        raise PreconditionViolated(f"h={h} exceeds ell({m})={ell(m, alpha)}")
    return Progression(m, h, [t * m for t in range(1, h // m + 1)])


def progression_d2(ctx: AlphaContext, m: int, T: int) -> tuple[np.ndarray, int, int]:
    """Values and second differences of g along the stride-m progression.

    Returns (gv, a, run): gv[t] = g(t*m) for t = 0..T; a is the first of the
    T - 2 second differences gv[t+2] - 2*gv[t+1] + gv[t], t = 1..T-2 (along
    P_{m,(T-2)m}); run counts how many of them, from the first, equal a.
    Needs T >= 3."""
    gv = ctx.fast.g_vec(np.arange(0, (T + 1) * m, m, dtype=np.int64))
    d2 = gv[3:T + 1] - 2 * gv[2:T] + gv[1:T - 1]
    a = int(d2[0])
    same = d2 == a
    run = len(d2) if bool(same.all()) else int(np.argmin(same))
    return gv, a, run


def def_pi(m: int, h: int, ctx: AlphaContext) -> bool:
    """Admissibility of P_{m,h}: range clause plus constant nonzero second
    difference of g along P_{m,h-2m}."""
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    if h < 3 * m or h > ell(m, ctx.alpha):
        return False
    T = h // m
    _, a, run = progression_d2(ctx, m, T)
    return a != 0 and run == T - 2


# ---------------------------------------------------------------------------
# Lemma 3.7: polynomial restriction vs constant second difference
# ---------------------------------------------------------------------------


def lagrange_quadratic(points: list[tuple[int, int]]) -> tuple[Fraction, Fraction, Fraction]:
    """(c0, c1, c2) of the unique degree-<=2 polynomial through 3 points."""
    (x0, y0), (x1, y1), (x2, y2) = points
    d0 = Fraction((x0 - x1) * (x0 - x2))
    d1 = Fraction((x1 - x0) * (x1 - x2))
    d2 = Fraction((x2 - x0) * (x2 - x1))
    c2 = Fraction(y0, 1) / d0 + Fraction(y1, 1) / d1 + Fraction(y2, 1) / d2
    c1 = (-Fraction(y0 * (x1 + x2)) / d0 - Fraction(y1 * (x0 + x2)) / d1
          - Fraction(y2 * (x0 + x1)) / d2)
    c0 = (Fraction(y0 * x1 * x2) / d0 + Fraction(y1 * x0 * x2) / d1
          + Fraction(y2 * x0 * x1) / d2)
    return (c0, c1, c2)


@dataclass
class Lemma37Report:
    m: int
    h: int
    side_polynomial: bool
    side_constant_d2: bool
    fit: tuple[Fraction, Fraction, Fraction]
    a_value: int

    @property
    def equivalent(self) -> bool:
        return self.side_polynomial == self.side_constant_d2

    @property
    def leading_matches(self) -> bool:
        """On true instances the fitted leading coefficient must be a/(2m^2)."""
        if not (self.side_polynomial and self.side_constant_d2):
            return True
        return self.fit[2] == Fraction(self.a_value, 2 * self.m * self.m)


def verify_lemma37(m: int, h: int, ctx: AlphaContext) -> Lemma37Report:
    """Evaluate both sides of the polynomial-restriction equivalence
    independently (exact fit + full scan vs constant second difference)."""
    if not (3 * m <= h <= ell(m, ctx.alpha)):
        raise PreconditionViolated("need 3m <= h <= ell(m)")
    T = h // m
    gv, a, run = progression_d2(ctx, m, T)

    fit = lagrange_quadratic([(m, int(gv[1])), (2 * m, int(gv[2])), (3 * m, int(gv[3]))])
    c0, c1, c2 = fit
    side1 = c2 != 0
    if side1:
        for t in range(1, T + 1):
            x = t * m
            if c0 + c1 * x + c2 * x * x != int(gv[t]):
                side1 = False
                break

    side2 = a != 0 and run == T - 2
    return Lemma37Report(m=m, h=h, side_polynomial=side1, side_constant_d2=side2,
                         fit=fit, a_value=a)


# ---------------------------------------------------------------------------
# Bounded delta and the divisibility characterisation (Lemmas 3.5/3.6)
# ---------------------------------------------------------------------------

VERIFIED = "verified-in-range"
REFUTED = "refuted-in-range"
CAP_EXHAUSTED = "cap-exhausted"


@dataclass
class Verdict:
    """Three-way bounded verdict: value None means the caps ran out."""

    tag: str
    value: bool | None
    detail: dict = dc_field(default_factory=dict)


def lemma36_characterisation(n: int, n_prime: int, alpha: AlgebraicReal) -> bool:
    """nint(alpha n')/nint(alpha n) = n'/n in N, decided exactly."""
    if n_prime % n != 0:
        return False
    q = (alpha * n).nint()
    qp = (alpha * n_prime).nint()
    t = n_prime // n
    return qp == t * q


# window members checked (expected true) or tried as refuters (expected false)
_M_WITNESSES = 3
_REFUTE_BUDGET = 400


def _delta_core(n: int, n_prime: int, ctx: AlphaContext,
                bounds: BoundProfile) -> Verdict:
    """Single-pass bounded delta with per-pair calibrated caps.

    Universal quantifiers are evaluated at their largest cap and existential
    ones at theirs, which by monotonicity of the nested formula equals the
    literal prefix evaluated at those caps.
    """
    alpha = ctx.alpha
    g = ctx.g
    H = bounds.H_cap
    Mp = bounds.M_cap  # psi level required of the partner m'

    divisible = n_prime % n == 0
    t = n_prime // n if divisible else 0
    char_true = divisible and lemma36_characterisation(n, n_prime, alpha)

    if char_true:
        # fit M so that the dilation by t of window(M) sits inside window(Mp)
        # and the quantitative margins of the direct construction hold
        lo_p, hi_p = ctx.window(Mp)
        nrm_n = (alpha * n).circle_norm()
        M = Mp
        M_hard = 1 << 17
        while M <= M_hard:
            lo, hi = ctx.window(M)
            eps = max(-lo, hi)  # bound on |frac(alpha m)| over window members
            ok = ((t * lo - lo_p).sign() >= 0 and (hi_p - t * hi).sign() >= 0
                  and (Fraction(1, 2 * t) - eps).sign() > 0
                  and (Fraction(1, 2) - (eps + t * nrm_n)).sign() > 0
                  and (Fraction(1, 2) - (t * eps + nrm_n)).sign() > 0)
            if ok:
                break
            M *= 2
        else:
            return Verdict(CAP_EXHAUSTED, None, {"reason": "no fitting M"})
        ms = _window_members(ctx, M, bounds.m_cap, _M_WITNESSES)
        if not ms:
            return Verdict(CAP_EXHAUSTED, None,
                                {"reason": "no psi-small m in cap", "M": M})
        for m in ms:
            mp = t * m
            d1 = delta_sym(g, mp, n)
            d2 = delta_sym(g, m, n_prime)
            if abs(d1 - d2) > H or not ctx.in_window(mp, Mp):
                return Verdict(REFUTED, False,
                                    {"mismatch_m": m, "M": M, "unexpected": True})
        return Verdict(VERIFIED, True, {"M": M, "witness_ms": ms, "t": t})

    # expected-false path: hunt for an m whose partner search fails; the
    # second pass raises the partner filter level to look harder before
    # conceding a verified-in-range verdict
    any_members = False
    for Mp_try in (Mp, 4 * Mp):
        M = Mp_try
        ms = _window_members(ctx, M, bounds.m_cap, _REFUTE_BUDGET)
        if not ms:
            continue
        any_members = True
        for m in ms:
            if not _has_partner(n, n_prime, m, ctx, Mp_try, H):
                return Verdict(REFUTED, False, {"refuting_m": m, "M": M})
    if not any_members:
        return Verdict(CAP_EXHAUSTED, None,
                            {"reason": "no psi-small m in cap"})
    return Verdict(VERIFIED, True, {"note": "no refuting m found"})


def _window_members(ctx: AlphaContext, M: int, m_cap: int, count: int) -> list[int]:
    """First `count` m <= m_cap with frac(alpha m) in window(M), exactly.

    Results are cached per window level and extended on demand.
    """
    cached, scanned = ctx._member_cache.get(M, ([], 0))
    if len(cached) >= count or scanned >= m_cap:
        return [m for m in cached[:count] if m <= m_cap]
    lo, hi = ctx.window(M)
    lo_f, hi_f = float(lo), float(hi)
    out = list(cached)
    block = 1 << 14
    start = scanned + 1
    scanned_to = scanned
    while start <= m_cap and len(out) < count:
        stop = min(start + block - 1, m_cap)
        ms = np.arange(start, stop + 1, dtype=np.int64)
        fr, mg = ctx.fast.frac_alpha_filter(ms)
        cand = np.nonzero((fr > lo_f - mg) & (fr < hi_f + mg))[0]
        for i in cand:
            m = int(ms[i])
            if ctx.in_window(m, M):
                out.append(m)
        scanned_to = stop
        start = stop + 1
    ctx._member_cache[M] = (out, scanned_to)
    return [m for m in out[:count] if m <= m_cap]


def _has_partner(n: int, n_prime: int, m: int, ctx: AlphaContext, Mp: int,
                 H: int) -> bool:
    """Is there m' with frac(alpha m') in window(Mp) and
    |D g(n, m') - D g(n', m)| <= H?  Every such m' lies in the exact
    candidate ranges of _partner_ranges."""
    g = ctx.g
    d2 = delta_sym(g, m, n_prime)
    if ctx.beta == 0:
        # g = 0, and window(Mp) (an open interval around 0) holds
        # frac(alpha m') for infinitely many m'
        return abs(d2) <= H
    for mps in _partner_ranges(n, d2, ctx, Mp, H):
        for mp in mps:
            if not ctx.in_window(mp, Mp):
                continue
            if abs(delta_sym(g, mp, n) - d2) <= H:
                return True
    return False


def _partner_ranges(n: int, d2: int, ctx: AlphaContext, Mp: int,
                    H: int) -> list[range]:
    """Ranges of m' >= 1, one per possible carry e, holding every m' with
    frac(alpha m') in window(Mp) and |D g(n, m') - d2| <= H (beta != 0).

    With q_n = nint(alpha n), s_n and s' the signed fractional parts of
    alpha n and alpha m', and the carry e = nint(s_n + s'),
    D g(n, m') = beta (m' kappa_e + n e - n s'), kappa_e = alpha n + q_n + e.
    Bounds are taken from integer enclosures and rounded outward, so they
    hold exactly; kappa_e of either sign is handled.
    """
    b = abs(ctx.beta)
    d = d2 if ctx.beta > 0 else -d2
    lo_p, hi_p = ctx.window(Mp)
    an = ctx.alpha * n
    q_n = an.nint()
    prec = 64
    l_lo, _, l_den = lo_p.scaled_enclosure(prec)
    _, h_hi, h_den = hi_p.scaled_enclosure(prec)
    s_lo, s_hi, s_den = ctx.frac_exact(n).scaled_enclosure(prec)
    # e is nondecreasing in s' in (lo_p, hi_p): nint of the outer ends
    e_lo = nint(Fraction(s_lo * l_den + l_lo * s_den, s_den * l_den))
    e_hi = nint(Fraction(s_hi * h_den + h_hi * s_den, s_den * h_den))
    ranges = []
    for e in range(e_lo, e_hi + 1):
        kappa = an + (q_n + e)
        k_prec = prec
        k_lo, k_hi, k_den = kappa.scaled_enclosure(k_prec)
        while k_lo <= 0 <= k_hi:
            if kappa.is_zero():
                raise PreconditionViolated(
                    "alpha*n + nint(alpha*n) + e is 0; alpha must be irrational")
            k_prec *= 2
            k_lo, k_hi, k_den = kappa.scaled_enclosure(k_prec)
        # m' * b * kappa_e lies in [A, B]; A >= a_num/a_den, B <= b_num/b_den
        a_num, a_den = (d - H - b * n * e) * l_den + b * n * l_lo, l_den
        b_num, b_den = (d + H - b * n * e) * h_den + b * n * h_hi, h_den
        k_lo, k_hi = b * k_lo, b * k_hi
        if k_hi < 0:
            # m' * (-b kappa_e) lies in [-B, -A]
            a_num, a_den, b_num, b_den = -b_num, b_den, -a_num, a_den
            k_lo, k_hi = -k_hi, -k_lo
        lo_m = -((-a_num * k_den) // (a_den * (k_hi if a_num >= 0 else k_lo)))
        hi_m = (b_num * k_den) // (b_den * (k_lo if b_num >= 0 else k_hi))
        ranges.append(range(max(1, lo_m), hi_m + 1))
    return ranges


def delta_bounded(n: int, n_prime: int, ctx: AlphaContext,
                  bounds: BoundProfile = DEFAULT_BOUNDS) -> Verdict:
    """Three-way bounded verdict for the delta relation."""
    if n < 1 or n_prime < 1:
        raise PreconditionViolated("n, n' must be >= 1")
    return _delta_core(n, n_prime, ctx, bounds)


def delta_literal(n: int, n_prime: int, ctx: AlphaContext, H_cap: int,
                  Mp_cap: int, M_cap: int, m_cap: int, mp_cap: int) -> bool:
    """Literal nested-prefix evaluation at (tiny) caps, for spot checks."""
    g = ctx.g

    def psi(m: int, N: int) -> bool:
        return ctx.in_window(m, N) if N >= 1 else True

    for H in range(1, H_cap + 1):
        ok_all_Mp = True
        for Mp in range(1, Mp_cap + 1):
            found_M = False
            for M in range(1, M_cap + 1):
                ok_all_m = True
                for m in range(1, m_cap + 1):
                    if not psi(m, M):
                        continue
                    if not any(psi(mp, Mp)
                               and abs(delta_sym(g, mp, n) - delta_sym(g, m, n_prime)) <= H
                               for mp in range(1, mp_cap + 1)):
                        ok_all_m = False
                        break
                if ok_all_m:
                    found_M = True
                    break
            if not found_M:
                ok_all_Mp = False
                break
        if ok_all_Mp:
            return True
    return False
