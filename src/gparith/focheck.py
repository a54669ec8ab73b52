"""First-order formulas over (Z; <, +, 1) with named sequences/relations,
a bounded-quantifier evaluator, and the defining formulas of the
divisibility construction (mu, psi, delta, pi, ell, progressions).

Formula terms are `genpoly` terms, parsed, printed and evaluated by
`genpoly`; every variable of a formula is an integer, so a rounding
function applied to a term is an integer too.

`eval_formula` compiles a formula once into closures and runs them.  An
innermost bounded quantifier whose body compares integer terms over +, -,
*, nint, floor and named sequences, and tests relation atoms on such
terms, under not/and/or/=>, is scanned as a certified lane: one numpy
evaluation per `_fastlane.blocks` block, reading each sequence through its
`g_vec` and each relation through its store's array `contains`, with
exists stopping at the first block with a hit and forall at the first with
a miss.  A nest of two quantifiers whose inner bounds do not read the
outer variable is scanned as one grid: each pass covers as many outer
values as fit a block beside the whole inner range.  The scans fall back
to the exact closures, in the walk's order, for frac, norm or `ind` (the
whole scan), and for a pass that the lane declines: an unbound name, a
sequence without `g_vec`, a store without an array `contains` or a value
past int64.

Every quantifier carries an explicit inclusive range; harness verdicts are
tagged verified-in-range / refuted-in-range / cap-exhausted so that a
bounded "false" is never silently reported as a mathematical one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Union

import numpy as np

from ._fastlane import QuadSeqFast, blocks, enclosure
from .diosearch import weyl_witnesses
from .errors import (
    ExprSyntaxError,
    PreconditionViolated,
    RangeOverflow,
    UnboundVariable,
)
from .exactnum import AlgebraicReal, floor_half_inverse, nint
from .genpoly import (
    BLOCK,
    Add,
    Apply,
    Expr,
    INT64_MAX,
    IntLit,
    Mul,
    NoLane,
    SequenceHandle,
    Sub,
    TokenStream,
    Var,
    compile_lane,
    compile_term,
    delta_sym,
    parse_term,
    pretty,
    term_vars,
)

# ---------------------------------------------------------------------------
# Formula AST (terms are `genpoly` terms)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FCmp:
    op: str  # =, !=, <, <=, >, >=
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class FRel:
    name: str
    args: tuple[Expr, ...]


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
    lo: Expr
    hi: Expr
    body: "Formula"


@dataclass(frozen=True)
class FForall:
    var: str
    lo: Expr
    hi: Expr
    body: "Formula"


Formula = Union[FCmp, FRel, FNot, FAnd, FOr, FImplies, FExists, FForall]


@dataclass
class Structure:
    """Interpretation of the named sequences and relations: a relation name
    maps to a store whose `contains(*args)` answers membership.  A store
    with `array_contains` set also answers int64 arrays (ints broadcast)
    entrywise, which the lane reads."""

    sequences: dict[str, Callable[[int], int]] = dc_field(default_factory=dict)
    relations: dict[str, object] = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# Evaluation (Tarskian semantics, quantifiers relativised to their ranges)
# ---------------------------------------------------------------------------

# the most values one quantifier may range over (RangeOverflow past it)
MAX_RANGE = 4_000_000

_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_formula(phi: Formula, valuation: dict[str, int], structure: Structure) -> bool:
    """Truth of `phi` under `valuation`: `phi` is compiled once into
    closures (see `_compile`), which then run."""
    return _compile(phi, structure)(valuation)


def _compile(phi: Formula, st: Structure) -> Callable[[dict], bool]:
    """The closure env -> truth of `phi`, with connectives short-circuited
    left to right and quantifiers run in increasing order of their
    variable, so each name is read (and UnboundVariable raised) where a
    walk of the tree would read it."""
    seqs = st.sequences
    if isinstance(phi, FCmp):
        op = _CMP[phi.op]
        lhs, rhs = compile_term(phi.lhs), compile_term(phi.rhs)
        return lambda env: op(lhs(env, seqs), rhs(env, seqs))
    if isinstance(phi, FRel):
        name, args = phi.name, [compile_term(a) for a in phi.args]

        def rel(env):
            try:
                store = st.relations[name]
            except KeyError:
                raise UnboundVariable(f"relation {name}") from None
            return bool(store.contains(*[a(env, seqs) for a in args]))
        return rel
    if isinstance(phi, FNot):
        body = _compile(phi.body, st)
        return lambda env: not body(env)
    if isinstance(phi, (FAnd, FOr, FImplies)):
        lhs, rhs = _compile(phi.lhs, st), _compile(phi.rhs, st)
        if isinstance(phi, FAnd):
            return lambda env: lhs(env) and rhs(env)
        if isinstance(phi, FOr):
            return lambda env: lhs(env) or rhs(env)
        return lambda env: not lhs(env) or rhs(env)
    if isinstance(phi, (FExists, FForall)):
        return _quantifier(phi, st)
    raise TypeError(f"not a formula: {phi!r}")


def _quantifier(phi: FExists | FForall, st: Structure) -> Callable[[dict], bool]:
    """The closure of a bounded quantifier.

    An innermost quantifier whose body is comparisons and relation atoms
    of lane terms (see `genpoly.compile_lane`) under not/and/or/=> scans
    an int64 range one `_fastlane.blocks` block at a time.  A quantifier
    whose body is such a quantifier, with bounds that do not read the
    outer variable, scans passes of R = BLOCK // (inner length) >= 2 outer
    values by the whole inner range as one flat grid, each row reduced by
    the inner any/all (see `_grid`); otherwise it calls its body once per
    value.  A pass whose lane raises NoLane (an unbound name, a sequence
    without `g_vec`, a store without an array `contains`, a value past
    int64) is decided by the exact closures, value by value and in order.
    Lane values are exact and every name a walk reads is read before any
    body, so the verdict, and any error, is the walk's."""
    seqs = st.sequences
    lo, hi = compile_term(phi.lo), compile_term(phi.hi)
    body = _compile(phi.body, st)
    var, want = phi.var, isinstance(phi, FExists)
    lane = _lane_body(phi.body, (var,), st)
    grid = None if lane is not None else _grid(phi, st)

    def quantifier(env: dict) -> bool:
        a, b = lo(env, seqs), hi(env, seqs)
        _check_range(a, b)
        inner = dict(env)
        scan = None
        if -INT64_MAX <= a <= b < INT64_MAX:
            if lane is not None:
                scan = BLOCK, lambda xs: lane({var: xs}, inner, seqs)
            elif grid is not None:
                scan = grid(inner)
        if scan is None:
            return _scan(range(a, b + 1), inner, var, body, want)
        size, holds_at = scan
        for xs in blocks(a, b + 1, size):
            try:
                holds = holds_at(xs)
            except NoLane:
                if _scan(xs.tolist(), inner, var, body, want) == want:
                    return want
                continue
            if holds.any() if want else not holds.all():
                return want
        return not want
    return quantifier


def relation_atoms(phi: Formula) -> Iterator[FRel]:
    """The relation atoms of `phi`, left to right."""
    if isinstance(phi, FRel):
        yield phi
    elif isinstance(phi, (FNot, FExists, FForall)):
        yield from relation_atoms(phi.body)
    elif isinstance(phi, (FAnd, FOr, FImplies)):
        yield from relation_atoms(phi.lhs)
        yield from relation_atoms(phi.rhs)


def _check_range(a: int, b: int) -> None:
    if b - a + 1 > MAX_RANGE:
        raise RangeOverflow(f"range [{a}, {b}] exceeds MAX_RANGE")


def _grid(phi: FExists | FForall, st: Structure):
    """For a nest `Q x: Q' y in [c, d]: body` whose c, d do not read x, the
    function env -> (R, holds_at) or None; else None.

    It evaluates c and d (which the walk reads at the first x, before any
    body).  holds_at(xs) is the truth of Q' y at each of at most R outer
    values xs, from one lane call on the grid xs by [c, d], R = BLOCK //
    (d - c + 1); the function gives None, for the scan value by value, when
    R < 2, a grid value would leave int64 or the body is not a lane body in
    x and y.  The lane body is compiled once, on the first pass with R >= 2."""
    nest = phi.body
    if not isinstance(nest, (FExists, FForall)) \
            or phi.var in term_vars(nest.lo) | term_vars(nest.hi):
        return None
    seqs, some = st.sequences, isinstance(nest, FExists)
    lo, hi = compile_term(nest.lo), compile_term(nest.hi)
    compiled = []  # [the lane body, or None], once a pass has R >= 2

    def grid(env: dict):
        c, d = lo(env, seqs), hi(env, seqs)
        _check_range(c, d)
        width = d - c + 1
        if not 1 <= width <= BLOCK // 2 or c < -INT64_MAX or d >= INT64_MAX:
            return None
        if not compiled:
            compiled.append(_lane_body(nest.body, (phi.var, nest.var), st))
        lane = compiled[0]
        if lane is None:
            return None
        ys = np.arange(c, d + 1, dtype=np.int64)

        def holds_at(xs):
            cells = lane({phi.var: xs.repeat(width), nest.var: np.tile(ys, len(xs))},
                         env, seqs)
            rows = np.broadcast_to(cells, (len(xs) * width,)).reshape(len(xs), width)
            return rows.any(axis=1) if some else rows.all(axis=1)
        return BLOCK // width, holds_at
    return grid


def _scan(values, env: dict, var: str, body, want: bool) -> bool:
    """Exact scan: `want` at the first value whose body is `want`."""
    for v in values:
        env[var] = v
        if body(env) == want:
            return want
    return not want


def _lane_body(phi: Formula, lanes: tuple[str, ...], st: Structure):
    """Mask runner (xs, env, sequences) -> bool array of a quantifier-free
    body of lane comparisons and relation atoms, or None."""
    if isinstance(phi, FCmp):
        lhs, rhs = compile_lane(phi.lhs, lanes), compile_lane(phi.rhs, lanes)
        if lhs is None or rhs is None:
            return None
        op = _CMP[phi.op]
        return lambda xs, env, s: np.asarray(op(lhs(xs, env, s), rhs(xs, env, s)))
    if isinstance(phi, FRel):
        args = [compile_lane(a, lanes) for a in phi.args]
        if None in args:
            return None
        name = phi.name

        def rel(xs, env, s):
            store = st.relations.get(name)
            if not getattr(store, "array_contains", False):
                raise NoLane
            return np.asarray(store.contains(*[a(xs, env, s) for a in args]))
        return rel
    if isinstance(phi, FNot):
        body = _lane_body(phi.body, lanes, st)
        return None if body is None else lambda xs, env, s: ~body(xs, env, s)
    if isinstance(phi, (FAnd, FOr, FImplies)):
        lhs, rhs = _lane_body(phi.lhs, lanes, st), _lane_body(phi.rhs, lanes, st)
        if lhs is None or rhs is None:
            return None
        if isinstance(phi, FAnd):
            return lambda xs, env, s: lhs(xs, env, s) & rhs(xs, env, s)
        if isinstance(phi, FOr):
            return lambda xs, env, s: lhs(xs, env, s) | rhs(xs, env, s)
        return lambda xs, env, s: ~lhs(xs, env, s) | rhs(xs, env, s)
    return None


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
        lo = parse_term(toks)
        toks.expect("op", ",")
        hi = parse_term(toks)
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
        args = [parse_term(toks)]
        while toks.accept("op", ","):
            args.append(parse_term(toks))
        toks.expect("op", ")")
        return FRel(v, tuple(args))
    lhs = parse_term(toks)
    op = toks.accept("op", *_CMP)
    if op is None:
        raise toks.error(tuple(_CMP), "comparison")
    return FCmp(op, lhs, parse_term(toks))


def pretty_formula(phi: Formula) -> str:
    if isinstance(phi, FExists):
        return (f"exists {phi.var} in [{pretty(phi.lo)}, {pretty(phi.hi)}]: "
                f"{pretty_formula(phi.body)}")
    if isinstance(phi, FForall):
        return (f"forall {phi.var} in [{pretty(phi.lo)}, {pretty(phi.hi)}]: "
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
        return f"{phi.name}({', '.join(pretty(a) for a in phi.args)})"
    if isinstance(phi, FCmp):
        return f"{pretty(phi.lhs)} {phi.op} {pretty(phi.rhs)}"
    raise TypeError(f"not a formula: {phi!r}")


def _pf_bin(phi: Formula) -> str:
    s = pretty_formula(phi)
    if isinstance(phi, (FExists, FForall, FImplies, FOr, FAnd)):
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# The mu / psi formulas (second-derivative witness conditions)
# ---------------------------------------------------------------------------


def _d2_term(v0: Expr, v1: Expr, v2: Expr) -> Expr:
    """g(v0+v1+v2)-g(v1+v2)-g(v0+v2)-g(v0+v1)+g(v0)+g(v1)+g(v2)-g(0)."""
    def gt(t: Expr) -> Expr:
        return Apply("g", t)
    s01, s02, s12 = Add(v0, v1), Add(v0, v2), Add(v1, v2)
    s012 = Add(v0, Add(v1, v2))
    acc: Expr = Sub(gt(s012), gt(s12))
    acc = Sub(acc, gt(s02))
    acc = Sub(acc, gt(s01))
    acc = Add(acc, gt(v0))
    acc = Add(acc, gt(v1))
    acc = Add(acc, gt(v2))
    acc = Sub(acc, gt(IntLit(0)))
    return acc


def mu_formula(C: int, n2_cap: int) -> Formula:
    """exists n2 in [C*n1, cap]: D2 g(n0, n1, n2) = 0 (free: n0, n1)."""
    return FExists("n2", Mul(IntLit(C), Var("n1")), IntLit(n2_cap),
                   FCmp("=", _d2_term(Var("n0"), Var("n1"), Var("n2")), IntLit(0)))


def psi_formula(C: int, n2_cap: int) -> Formula:
    """forall n in [1, N]: mu(n, m) (free: m, N)."""
    body = FExists("n2", Mul(IntLit(C), Var("m")), IntLit(n2_cap),
                   FCmp("=", _d2_term(Var("n"), Var("m"), Var("n2")), IntLit(0)))
    return FForall("n", IntLit(1), Var("N"), body)


def def_mu(n0: int, n1: int, C: int, n2_cap: int, g: SequenceHandle) -> bool:
    """Bounded evaluation of the witness formula through the generic evaluator."""
    if n0 < 1 or n1 < 1:
        raise PreconditionViolated("n0, n1 must be >= 1")
    phi = mu_formula(C, n2_cap)
    return eval_formula(phi, {"n0": n0, "n1": n1}, Structure(sequences={"g": g}))


def def_psi(m: int, N: int, C: int, n2_cap: int, g: SequenceHandle) -> bool:
    if m < 1 or N < 0:
        raise PreconditionViolated("m >= 1 and N >= 0 required")
    if N == 0:
        return True
    phi = psi_formula(C, n2_cap)
    return eval_formula(phi, {"m": m, "N": N}, Structure(sequences={"g": g}))


# ---------------------------------------------------------------------------
# Fast window machinery shared by the scans
# ---------------------------------------------------------------------------


class AlphaContext:
    """Caches exact and lane data for one alpha (and integer beta)."""

    def __init__(self, alpha: AlgebraicReal, beta: int = 1) -> None:
        self.alpha = alpha
        self.beta = beta
        self.g = QuadSeqFast(alpha, beta)
        self._window_cache: dict[int, tuple[AlgebraicReal, AlgebraicReal]] = {}
        self._window_ends: dict[int, tuple] = {}
        self._member_cache: dict[tuple[int, int], tuple[Iterator[int], list[int]]] = {}
        self._partner_cache: dict[tuple[int, int], tuple] = {}

    def window(self, N: int) -> tuple[AlgebraicReal, AlgebraicReal]:
        """Exact endpoints (lo, hi) of the small-norm window at level N:
        lo = -1/2 - min frac(alpha n), hi = 1/2 - max frac(alpha n), n <= N."""
        cached = self._window_cache.get(N)
        if cached is not None:
            return cached
        mn, mx = self.g.const.extremes(np.arange(1, N + 1, dtype=np.int64))
        half = Fraction(1, 2)
        lo = -(mn + half)
        hi = -(mx - half)
        self._window_cache[N] = (lo, hi)
        return (lo, hi)

    def in_window(self, m: int, N: int) -> bool:
        """Exact strict test frac(alpha m) in (lo_N, hi_N) on the scalar lane."""
        lo, hi = self.window(N)
        ends = self._window_ends.get(N)
        if ends is None:
            ends = self._window_ends[N] = (enclosure(lo), enclosure(hi))
        return self.g.const.within_scalar(m, lo, hi, ends)


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
    return k * floor_half_inverse(nrm)


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


def progression_d2(ctx: AlphaContext, ms: np.ndarray, Ts: np.ndarray):
    """Values and second differences of g along the stride-m progressions
    of many moduli, from one lane call.

    Returns (gv, off, a, run): gv[off[i] + t] = g(t*ms[i]) for t = 0..Ts[i]
    (off has one more entry than ms); a[i] is the first of the T - 2 second
    differences gv[t+2] - 2*gv[t+1] + gv[t], t = 1..T-2 (along
    P_{m,(T-2)m}), and run[i] counts how many of them, from the first,
    equal a[i].  Needs every T >= 3."""
    lengths = Ts + 1
    off = np.zeros(len(Ts) + 1, dtype=np.int64)
    np.add.accumulate(lengths, out=off[1:])
    t = np.arange(off[-1]) - off[:-1].repeat(lengths)
    gv = ctx.g.g_vec(ms.repeat(lengths) * t)
    # d2[j] is the second difference centred on gv[j + 2], so the T - 2 of
    # modulus i are d2[off[i] .. off[i] + T - 3]; the rest cross into the
    # next modulus
    d2 = gv[3:] - 2 * gv[2:-1] + gv[1:-2]
    a = d2[off[:-1]]
    # the first index s where d2 leaves a; entries past T - 3 are capped
    first = np.where(d2 != a.repeat(lengths)[:len(d2)], t[:len(d2)], off[-1])
    run = np.minimum(np.minimum.reduceat(first, off[:-1]), Ts - 2)
    return gv, off, a, run


def def_pi(m: int, h: int, ctx: AlphaContext) -> bool:
    """Admissibility of P_{m,h}: range clause plus constant nonzero second
    difference of g along P_{m,h-2m}."""
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    if h < 3 * m or h > ell(m, ctx.alpha):
        return False
    T = h // m
    _, _, a, run = progression_d2(ctx, np.array([m]), np.array([T]))
    return bool(a[0] != 0 and run[0] == T - 2)


# ---------------------------------------------------------------------------
# Lemma 3.7: the closed form of g on an admissible progression
# ---------------------------------------------------------------------------


@dataclass
class Lemma37Report:
    m: int
    h: int
    closed_form: bool  # g(tm) = beta t^2 m nint(alpha m) for 1 <= t <= h/m
    side_constant_d2: bool
    a_value: int

    @property
    def holds(self) -> bool:
        return self.closed_form and self.side_constant_d2


def verify_lemma37(m: int, h: int, ctx: AlphaContext) -> Lemma37Report:
    """On P_{m,h} with 3m <= h <= ell(m), check exactly that g(tm) equals
    beta t^2 m nint(alpha m), with nint(alpha m) decided in `exactnum`,
    and that the second difference of g along P is constant and nonzero."""
    if not (3 * m <= h <= ell(m, ctx.alpha)):
        raise PreconditionViolated("need 3m <= h <= ell(m)")
    T = h // m
    gv, _, a, run = progression_d2(ctx, np.array([m]), np.array([T]))
    lead = ctx.beta * m * ctx.g.const.exact_nint(m)
    closed = gv[1:].tolist() == [lead * t * t for t in range(1, T + 1)]
    return Lemma37Report(m=m, h=h, closed_form=closed,
                         side_constant_d2=bool(a[0] != 0 and run[0] == T - 2),
                         a_value=int(a[0]))


# ---------------------------------------------------------------------------
# Bounded delta and the divisibility characterisation (Lemmas 3.5/3.6)
# ---------------------------------------------------------------------------

VERIFIED = "verified-in-range"
REFUTED = "refuted-in-range"
CAP_EXHAUSTED = "cap-exhausted"


@dataclass
class Verdict:
    """Three-way bounded verdict: value None means the caps ran out."""

    value: bool | None
    detail: dict = dc_field(default_factory=dict)

    @property
    def tag(self) -> str:
        return {True: VERIFIED, False: REFUTED, None: CAP_EXHAUSTED}[self.value]


def lemma36_characterisation(n: int, n_prime: int, ctx: AlphaContext) -> bool:
    """nint(alpha n')/nint(alpha n) = n'/n in N, exactly on alpha's scalar lane."""
    if n_prime % n != 0:
        return False
    q = ctx.g.const.exact_nint
    return q(n_prime) == n_prime // n * q(n)


# The caps of delta_bounded: the tolerance H on |D g(n, m') - D g(n', m)|,
# the psi level M_CAP required of the partner m', and the window members m
# searched for in 1..MEMBER_CAP, of which _M_WITNESSES are checked (expected
# true) or up to _REFUTE_BUDGET tried as refuters (expected false).
H_CAP = 2
M_CAP = 30
MEMBER_CAP = 100_000
_M_WITNESSES = 3
_REFUTE_BUDGET = 400


def delta_bounded(n: int, n_prime: int, ctx: AlphaContext) -> Verdict:
    """Three-way bounded verdict for the delta relation: a single pass with
    per-pair calibrated caps.

    Universal quantifiers are evaluated at their largest cap and existential
    ones at theirs, which by monotonicity of the nested formula equals the
    literal prefix evaluated at those caps.
    """
    if n < 1 or n_prime < 1:
        raise PreconditionViolated("n, n' must be >= 1")
    alpha = ctx.alpha
    g = ctx.g
    H = H_CAP
    Mp = M_CAP  # psi level required of the partner m'

    divisible = n_prime % n == 0
    t = n_prime // n if divisible else 0
    char_true = divisible and lemma36_characterisation(n, n_prime, ctx)

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
            return Verdict(None, {"reason": "no fitting M"})
        ms = _window_members(ctx, M, MEMBER_CAP, _M_WITNESSES)
        if not ms:
            return Verdict(None, {"reason": "no psi-small m in cap", "M": M})
        for m in ms:
            mp = t * m
            d1 = delta_sym(g, mp, n)
            d2 = delta_sym(g, m, n_prime)
            if abs(d1 - d2) > H or not ctx.in_window(mp, Mp):
                return Verdict(False, {"mismatch_m": m, "M": M, "unexpected": True})
        return Verdict(True, {"M": M, "witness_ms": ms, "t": t})

    # expected-false path: hunt for an m whose partner search fails; the
    # second pass raises the partner filter level to look harder before
    # conceding a verified-in-range verdict
    any_members = False
    for Mp_try in (Mp, 4 * Mp):
        M = Mp_try
        ms = _window_members(ctx, M, MEMBER_CAP, _REFUTE_BUDGET)
        if not ms:
            continue
        any_members = True
        for m in ms:
            if not _has_partner(n, n_prime, m, ctx, Mp_try, H):
                return Verdict(False, {"refuting_m": m, "M": M})
    if not any_members:
        return Verdict(None, {"reason": "no psi-small m in cap"})
    return Verdict(True, {"note": "no refuting m found"})


def _window_members(ctx: AlphaContext, M: int, m_cap: int, count: int) -> list[int]:
    """First `count` m <= m_cap with frac(alpha m) in window(M), exactly:
    the `weyl_witnesses` scan of 1..m_cap, cached per (M, m_cap) with the
    members it has yielded and extended on demand."""
    if (M, m_cap) not in ctx._member_cache:
        ctx._member_cache[M, m_cap] = (weyl_witnesses(
            [("x*n", ctx.window(M))], 1, m_cap + 1, {"x": ctx.alpha}), [])
    scan, out = ctx._member_cache[M, m_cap]
    out.extend(islice(scan, max(0, count - len(out))))
    return out[:count]


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
    hold exactly; kappa_e of either sign is handled.  The enclosures do not
    depend on d2 or H: they are taken once per (n, Mp) (`_partner_enclosures`).
    """
    key = (n, Mp)
    cached = ctx._partner_cache.get(key)
    if cached is None:
        cached = ctx._partner_cache[key] = _partner_enclosures(n, ctx, Mp)
    l_lo, l_den, h_hi, h_den, kappas = cached
    bn = abs(ctx.beta) * n
    d = d2 if ctx.beta > 0 else -d2
    ranges = []
    for e, k_lo, k_hi, k_den in kappas:
        # m' * b * kappa_e lies in [A, B]; A >= a_num/a_den, B <= b_num/b_den
        a_num, a_den = (d - H - bn * e) * l_den + bn * l_lo, l_den
        b_num, b_den = (d + H - bn * e) * h_den + bn * h_hi, h_den
        if k_hi < 0:
            # m' * (-b kappa_e) lies in [-B, -A]
            a_num, a_den, b_num, b_den = -b_num, b_den, -a_num, a_den
            k_lo, k_hi = -k_hi, -k_lo
        lo_m = -((-a_num * k_den) // (a_den * (k_hi if a_num >= 0 else k_lo)))
        hi_m = (b_num * k_den) // (b_den * (k_lo if b_num >= 0 else k_hi))
        ranges.append(range(max(1, lo_m), hi_m + 1))
    return ranges


def _partner_enclosures(n: int, ctx: AlphaContext, Mp: int) -> tuple:
    """(l_lo, l_den, h_hi, h_den, kappas): the lower end of window(Mp) is at
    least l_lo/l_den, its upper end at most h_hi/h_den, and `kappas` holds
    (e, k_lo, k_hi, k_den) for every possible carry e, with b kappa_e in
    [k_lo/k_den, k_hi/k_den] and 0 outside that interval."""
    b = abs(ctx.beta)
    lo_p, hi_p = ctx.window(Mp)
    an = ctx.alpha * n
    q_n = ctx.g.const.exact_nint(n)
    prec = 64
    l_lo, _, l_den = lo_p.scaled_enclosure(prec)
    _, h_hi, h_den = hi_p.scaled_enclosure(prec)
    s_lo, s_hi, s_den = ctx.g.const.exact_frac(n).scaled_enclosure(prec)
    # e is nondecreasing in s' in (lo_p, hi_p): nint of the outer ends
    e_lo = nint(Fraction(s_lo * l_den + l_lo * s_den, s_den * l_den))
    e_hi = nint(Fraction(s_hi * h_den + h_hi * s_den, s_den * h_den))
    kappas = []
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
        kappas.append((e, b * k_lo, b * k_hi, k_den))
    return l_lo, l_den, h_hi, h_den, kappas
