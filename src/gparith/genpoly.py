"""Generalised-polynomial terms: the one expression language of the package.

One node set (`IntLit`, `Var`, `Add`/`Sub`/`Mul`/`Neg`, `Apply` of a
rounding function or a named sequence, `IndicatorLess`) with one atom
parser under the shared +/-/* layer, one printer and one exact evaluator
(`compile_term`, which turns a term into a closure once); `eval` text,
`focheck` formulas and `weakmult`'s canonical terms all use it.  Integer
terms over +, -, * and named sequences also have a vector form
(`compile_lane`) that evaluates one int64 block of a variable at a time
through the sequences' certified `g_vec`.  Also: the memo base class of the named sequences (their one evaluator
each lives in `_fastlane`), the discrete derivatives (shift, symmetric,
iterated symmetric), and the classifier that compares the vanishing of the
second symmetric derivative of g(n) = nint(b*n*nint(a*n)) against its
carry/fractional-part characterisation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Callable, Mapping, Union

import numpy as np

from .errors import ArityTooSmall, ExprSyntaxError, UnboundVariable
from .exactnum import (
    Number,
    circle_norm,
    floor_exact,
    frac_signed,
    nint,
)

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Sub:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Mul:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Apply:
    """fn(arg): a rounding function of ROUNDING or a named sequence."""

    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class IndicatorLess:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[IntLit, Var, Add, Sub, Mul, Neg, Apply, IndicatorLess]

ROUNDING = {"floor": floor_exact, "nint": nint, "frac": frac_signed,
            "norm": circle_norm}

INT_SORT = "int"
REAL_SORT = "real"


def expr_sort(expr: Expr) -> str:
    """Static sort of `eval` text, where n is the one integer variable and
    every other name a real constant; integer-sort terms evaluate to int."""
    if isinstance(expr, Var):
        return INT_SORT if expr.name == "n" else REAL_SORT
    if isinstance(expr, Apply):
        return REAL_SORT if expr.fn in ("frac", "norm") else INT_SORT
    if isinstance(expr, Neg):
        return expr_sort(expr.arg)
    if isinstance(expr, (Add, Sub, Mul)):
        a, b = expr_sort(expr.lhs), expr_sort(expr.rhs)
        return INT_SORT if a == b == INT_SORT else REAL_SORT
    if isinstance(expr, (IntLit, IndicatorLess)):
        return INT_SORT
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Token stream and the +/-/* layer shared by the three text parsers
# (expressions here, formulas in focheck, polynomials in weakmult)
# ---------------------------------------------------------------------------


class TokenStream:
    """Tokens of `text` matched by `pattern`, whose named groups are the
    token kinds.  Tokens are read on demand, so a syntax error is reported
    at the leftmost offending token; the end of input sits at len(text).
    `i` indexes the next token and may be reset to backtrack."""

    def __init__(self, text: str, pattern: re.Pattern) -> None:
        self.text = text
        self.i = 0
        self._pattern = pattern
        self._toks: list[tuple[str, str, int]] = []
        self._scanned = 0

    def peek(self) -> tuple[str | None, str | None, int]:
        """(kind, value, position) of the next token; kind None at the end."""
        while self.i >= len(self._toks):
            m = self._pattern.match(self.text, self._scanned)
            if m is None:
                rest = self.text[self._scanned:].lstrip()
                if rest:
                    raise ExprSyntaxError(f"unrecognised input {rest[:10]!r}",
                                          len(self.text) - len(rest))
                return (None, None, len(self.text))
            kind = m.lastgroup
            self._toks.append((kind, m.group(kind), m.start(kind)))  # type: ignore[arg-type]
            self._scanned = m.end()
        return self._toks[self.i]

    def next(self) -> tuple[str | None, str | None, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def accept(self, kind: str, *values: str) -> str | None:
        """Consume the next token if it has this kind (and one of `values`)."""
        k, v, _ = self.peek()
        if k != kind or (values and v not in values):
            return None
        self.i += 1
        return v

    def expect(self, kind: str, value: str | None = None) -> str:
        got = self.accept(kind, value) if value else self.accept(kind)
        if got is None:
            want = value or kind
            raise self.error((want,), repr(want))
        return got

    def error(self, expected=(), want: str | None = None) -> ExprSyntaxError:
        """The syntax error at the next token."""
        k, v, p = self.peek()
        got = "end of input" if k is None else f"token {v!r}"
        msg = f"expected {want}, got {got}" if want else f"unexpected {got}"
        return ExprSyntaxError(msg, p, expected=expected)

    def done(self) -> None:
        k, v, p = self.peek()
        if k is not None:
            raise ExprSyntaxError(f"trailing input {v!r}", p)


def parse_sum(toks: TokenStream, atom, add, sub, mul, neg):
    """Left-associative +/- over * over unary minus, parentheses and
    `atom(toks)`; add/sub/mul/neg build the nodes."""
    # module-level helpers rather than closures: a closure that calls itself
    # is a reference cycle, left for the garbage collector by every parse
    nodes = (atom, add, sub, mul, neg)
    node = _parse_product(toks, nodes)
    while (op := toks.accept("op", "+", "-")) is not None:
        node = (add if op == "+" else sub)(node, _parse_product(toks, nodes))
    return node


def _parse_product(toks: TokenStream, nodes: tuple):
    node = _parse_factor(toks, nodes)
    while toks.accept("op", "*"):
        node = nodes[3](node, _parse_factor(toks, nodes))
    return node


def _parse_factor(toks: TokenStream, nodes: tuple):
    if toks.accept("op", "-"):
        return nodes[4](_parse_factor(toks, nodes))
    if toks.accept("op", "("):
        inner = parse_sum(toks, *nodes)
        toks.expect("op", ")")
        return inner
    return nodes[0](toks)


# ---------------------------------------------------------------------------
# Term atoms, `eval` text, printing and evaluation
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[a-z][a-z0-9_]*)|(?P<op>[-+*()<]))")


def parse_term(toks: TokenStream) -> Expr:
    """A term at the stream's position; the token pattern of the caller
    decides which names exist."""
    return parse_sum(toks, _parse_atom, Add, Sub, Mul, Neg)


def _parse_atom(toks: TokenStream) -> Expr:
    value = toks.accept("int")
    if value is not None:
        return IntLit(int(value))
    name = toks.accept("name")
    if name is None:
        raise toks.error(("INT", "NAME", "(", "-"))
    if name == "ind":
        toks.expect("op", "(")
        if toks.accept("name", "norm") is None:
            raise ExprSyntaxError("ind() requires norm(...) < ...", toks.peek()[2],
                                  expected=("norm",))
        lhs = _parse_call(toks, "norm")
        toks.expect("op", "<")
        rhs = parse_term(toks)
        toks.expect("op", ")")
        return IndicatorLess(lhs, rhs)
    # a lowercase name applied to a parenthesised term is a function or
    # sequence application; any other name is a variable
    if name[0].islower() and toks.peek()[1] == "(":
        return _parse_call(toks, name)
    return Var(name)


def _parse_call(toks: TokenStream, fn: str) -> Apply:
    toks.expect("op", "(")
    arg = parse_term(toks)
    toks.expect("op", ")")
    return Apply(fn, arg)


def parse(text: str) -> Expr:
    """Parse `eval` text; raises ExprSyntaxError with position on failure."""
    toks = TokenStream(text, _TOKEN)
    expr = parse_term(toks)
    toks.done()
    return expr


def pretty(expr: Expr) -> str:
    """Grammar-conformant text; parse(pretty(e)) == e for parser output."""
    return _pp(expr, 0)


def _pp(expr: Expr, level: int) -> str:
    # level 0 = sum (+/-), 1 = product (*), 2 = factor
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "-" + _pp(expr.arg, 2)
    if isinstance(expr, Apply):
        return f"{expr.fn}({_pp(expr.arg, 0)})"
    if isinstance(expr, IndicatorLess):
        return f"ind({_pp(expr.lhs, 0)} < {_pp(expr.rhs, 0)})"
    if isinstance(expr, Mul):
        s = f"{_pp(expr.lhs, 1)}*{_pp(expr.rhs, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(expr, (Add, Sub)):
        op = "+" if isinstance(expr, Add) else "-"
        s = f"{_pp(expr.lhs, 0)} {op} {_pp(expr.rhs, 1)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not an expression node: {expr!r}")


def compile_term(t: Expr) -> Callable[[Mapping[str, Number], Mapping[str, Callable]], Number]:
    """The closure (env, sequences) -> exact value of `t`, reading each
    variable from `env` and each applied name that is not a rounding
    function from `sequences`; it raises UnboundVariable for a name in
    neither.  Integer-sort terms over integer variables evaluate to Python
    ints.  Subterms are evaluated left to right, and an applied name is
    looked up before its argument is evaluated."""
    if isinstance(t, IntLit):
        value = t.value
        return lambda env, sequences: value
    if isinstance(t, Var):
        name = t.name

        def var(env, sequences):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None
        return var
    if isinstance(t, Apply):
        arg, fn_name = compile_term(t.arg), t.fn
        rounding = ROUNDING.get(fn_name)
        if rounding is not None:
            return lambda env, sequences: rounding(arg(env, sequences))

        def apply(env, sequences):
            fn = sequences.get(fn_name)
            if fn is None:
                raise UnboundVariable(f"sequence {fn_name}")
            return fn(arg(env, sequences))
        return apply
    if isinstance(t, Neg):
        inner = compile_term(t.arg)
        return lambda env, sequences: -inner(env, sequences)
    if isinstance(t, (Add, Sub, Mul, IndicatorLess)):
        op = _BINARY[type(t)]
        lhs, rhs = compile_term(t.lhs), compile_term(t.rhs)
        return lambda env, sequences: op(lhs(env, sequences), rhs(env, sequences))
    raise TypeError(f"not an expression node: {t!r}")


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           IndicatorLess: lambda a, b: 1 if a < b else 0}


# ---------------------------------------------------------------------------
# The vector form of integer terms: one int64 array per scan block
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1


class NoLane(Exception):
    """A lane value would leave int64, or a sequence lane declined its
    argument; the caller evaluates the block with the exact closures."""


def compile_lane(t: Expr, var: str):
    """The vector form of `t` in the integer variable `var`, or None when
    `t` has a node other than IntLit, Var, Add/Sub/Mul/Neg and Apply of a
    named sequence.

    Returns (run, names, seqs): the other variables and the sequences that
    `t` reads, and run(xs, env, sequences), the value of `t` at var = xs[i]
    as entry i of an int64 array (an int when `t` does not read `var`).
    `xs` is an int64 array with |x| <= 2^63 - 1, `env` binds every name
    and each sequence has a certified `g_vec`.  Subterms that do not read
    `var` are evaluated once, exactly; before each +, - and * the largest
    magnitudes of the operands, as Python ints, must keep the result in
    int64.  run raises NoLane when they do not, when a value read from
    `env` is not an int64 integer, or when a `g_vec` rejects its argument,
    so every value it returns is exact.
    """
    names: set[str] = set()
    seqs: set[str] = set()
    lane = _lane(t, var, names, seqs)
    if lane is None:
        return None
    return _vector(lane), frozenset(names), frozenset(seqs)


def _lane(t: Expr, var: str, names: set, seqs: set):
    """(reads_var, fn) for `t`, fn a lane runner when `t` reads `var` and
    a compile_term closure when not; None outside the lane grammar.  Adds
    the names and sequences `t` reads to `names` and `seqs`."""
    if isinstance(t, IntLit):
        return False, compile_term(t)
    if isinstance(t, Var):
        if t.name == var:
            return True, lambda xs, env, sequences: xs
        names.add(t.name)
        return False, compile_term(t)
    if isinstance(t, Neg) or (isinstance(t, Apply) and t.fn not in ROUNDING):
        arg = _lane(t.arg, var, names, seqs)
        if isinstance(t, Apply):
            seqs.add(t.fn)
        if arg is None:
            return None
        if not arg[0]:
            return False, compile_term(t)
        return True, _neg_lane(arg[1]) if isinstance(t, Neg) else _apply_lane(t.fn, arg[1])
    if isinstance(t, (Add, Sub, Mul)):
        lhs = _lane(t.lhs, var, names, seqs)
        rhs = _lane(t.rhs, var, names, seqs)
        if lhs is None or rhs is None:
            return None
        if not (lhs[0] or rhs[0]):
            return False, compile_term(t)
        bound = operator.mul if isinstance(t, Mul) else operator.add
        return True, _binary_lane(_BINARY[type(t)], bound, _vector(lhs), _vector(rhs))
    return None


def _vector(lane):
    """The lane runner of a `_lane` pair; a scalar must fit in int64."""
    reads_var, fn = lane
    if reads_var:
        return fn

    def scalar(xs, env, sequences):
        v = fn(env, sequences)
        if not isinstance(v, int) or abs(v) > INT64_MAX:
            raise NoLane
        return v
    return scalar


def _max_abs(v) -> int:
    """Largest magnitude of a lane value, as a Python int."""
    if isinstance(v, int):
        return abs(v)
    return max(-int(v.min()), int(v.max()))


def _neg_lane(arg):
    # every lane array keeps |entry| <= 2^63 - 1, so negation cannot wrap
    return lambda xs, env, sequences: -arg(xs, env, sequences)


def _binary_lane(op, bound, lhs, rhs):
    def run(xs, env, sequences):
        a, b = lhs(xs, env, sequences), rhs(xs, env, sequences)
        if bound(_max_abs(a), _max_abs(b)) > INT64_MAX:
            raise NoLane
        return op(a, b)
    return run


def _apply_lane(name: str, arg):
    def run(xs, env, sequences):
        k = arg(xs, env, sequences)
        try:
            values = sequences[name].g_vec(k)
        except (ValueError, OverflowError):
            # a value past int64: the lane's own guards, and numpy's
            # refusal of an out-of-range Python int
            raise NoLane from None
        return values.astype("int64", copy=False)  # BohrFast gives int8
    return run


MEMO_SIZE = 1 << 20
# Scan block length: at 2**15 the lane temporaries of `verify 3.5/3.6`
# raised its peak RSS by 1.2 MB.
BLOCK = 2**14


class SequenceHandle:
    """Memo base of the named integer sequences n -> Z.

    A call reads a per-instance dict that keeps at most MEMO_SIZE entries;
    a miss is evaluated exactly by the subclass's `g_scalar`, so a hit
    always equals a fresh evaluation.  The dict holds only ints, so a
    handle forms no reference cycle.  `table` is the one dense prefix of
    the sequence: g(0), g(1), ... from `g_range`, grown by doubling.
    """

    def __init__(self) -> None:
        self._memo: dict[int, int] = {}
        # int8 is the narrowest dtype, so the first growth takes the lane's own
        self._table = self._residues = np.zeros(0, dtype=np.int8)

    def table(self, upto: int) -> np.ndarray:
        """g(0), ..., g(L - 1) exactly, for some L > upto.  Growth appends
        into a new array, so no table handed out is rewritten, and reads
        `g_range` one BLOCK at a time, so the lane temporaries stay small."""
        T = self._table
        if upto >= len(T):
            stop = max(upto + 1, 2 * len(T))
            T = self._table = np.concatenate([T] + [
                self.g_range(a, min(a + BLOCK, stop) - 1)  # type: ignore[attr-defined]
                for a in range(len(T), stop, BLOCK)])
        return T

    def residues(self, upto: int) -> np.ndarray:
        """table(upto) mod 2**16 as signed int16, grown with it."""
        R = self._residues
        if upto >= len(R):
            R = self._residues = np.concatenate((R, self.table(upto)[len(R):].astype(np.int16)))
        return R

    def _fresh(self, n: int) -> int:
        return self.g_scalar(n)  # type: ignore[attr-defined]

    def __call__(self, n: int) -> int:
        v = self._memo.get(n)
        if v is None:
            v = self._fresh(n)
            if len(self._memo) < MEMO_SIZE:
                self._memo[n] = v
        return v


# ---------------------------------------------------------------------------
# Discrete calculus
# ---------------------------------------------------------------------------

IntSeq = Callable[[int], int]


def delta_shift(f: IntSeq, m: int, n: int) -> int:
    """f(n+m) - f(n)."""
    return f(n + m) - f(n)


def delta_sym(f: IntSeq, m: int, n: int) -> int:
    """f(n+m) - f(n) - f(m) + f(0)."""
    return f(n + m) - f(n) - f(m) + f(0)


def delta_sym_iter(f: IntSeq, args: list[int]) -> int:
    """Iterated symmetric derivative at (n0, n1, ..., nr), r >= 1.

    Peels the last argument: each step replaces f by its symmetric
    derivative in that direction, then recurses.
    """
    if len(args) < 2:
        raise ArityTooSmall("need n0 plus at least one derivative direction")
    if len(args) == 2:
        return delta_sym(f, args[1], args[0])
    last = args[-1]
    c = f(last) - f(0)
    g: IntSeq = lambda n: f(n + last) - f(n) - c
    return delta_sym_iter(g, args[:-1])


# ---------------------------------------------------------------------------
# Second-derivative vanishing classifier for g(n) = nint(b n nint(a n))
# ---------------------------------------------------------------------------

GAMMA_ALL_PAIRS = "all-pairs"
GAMMA_OFF_DIAGONAL = "off-diagonal"

_SUBSETS = tuple(frozenset(s) for k in range(4) for s in combinations((0, 1, 2), k))
_COL = {I: c for c, I in enumerate(_SUBSETS)}
_PAIRS = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0}))
_FULL = frozenset({0, 1, 2})
# n @ _MEMBERS.T is the table of subset sums K_I; the alternating sum of
# g(K_I) with _SIGNS is the iterated derivative at (n0, n1, n2)
_MEMBERS = np.array([[i in I for i in range(3)] for I in _SUBSETS], dtype=np.int64)
_SIGNS = np.array([(-1) ** (3 - len(I)) for I in _SUBSETS], dtype=np.int64)
# the gamma sums that cond2 reads (the full set, then the pairs) in each
# mode, as rows over the nine products X_ij = n_i*a_j (column 3i + j)
_GAMMA_ROWS = np.array(
    [[i in I and j in I and (mode == GAMMA_ALL_PAIRS or i != j)
      for i in range(3) for j in range(3)]
     for mode in (GAMMA_ALL_PAIRS, GAMMA_OFF_DIAGONAL) for I in (_FULL,) + _PAIRS], dtype=np.int64)


@dataclass
class Lemma31Report:
    """Exact vanishing-criterion classification of a triple, or entrywise."""

    triple: tuple
    lhs_zero: bool
    cond1: bool
    cond2: bool
    gamma_mode: str
    carries_e: dict = dc_field(default_factory=dict)
    carries_f: dict = dc_field(default_factory=dict)
    cond2_by_mode: dict = dc_field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        """True when lhs vanishing matches cond1 and cond2."""
        return self.lhs_zero == (self.cond1 & self.cond2)


def _summable(v):
    """v, as Python ints when a sum of 16 of its entries could leave int64."""
    lim = INT64_MAX >> 4
    return v if -lim <= v.min() and v.max() <= lim else v.astype(object)


def _nint_times(const, x):
    """Exact nint(const*x) on an integer array x, summable: const's
    `FastConst` lane on int64, and `exact_nint` entry by entry on Python
    ints or where the lane refuses (an answer past int64)."""
    if x.dtype == np.int64:
        try:
            return _summable(const.nint_frac_vec(x.ravel())).reshape(x.shape)
        except ValueError:
            pass
    exact = [const.exact_nint(int(v)) for v in x.ravel()]
    return _summable(np.array(exact, dtype=object)).reshape(x.shape)


def lemma31_classify(n0, n1, n2, g: SequenceHandle,
                     gamma_mode: str = GAMMA_ALL_PAIRS) -> Lemma31Report:
    """Classify positive triples for g(n) = nint(beta*n*nint(alpha*n)),
    read through the handle `g` (`g_vec`, `g(k)`) and its lanes `g.const`
    of alpha and `g.beta_const` of beta: exact second-derivative vanishing
    vs the carry condition (cond1) and the gamma identity (cond2).

    n0, n1, n2 are ints, or equal-length int64 arrays classified entry by
    entry in one pass (the report then holds arrays).  With K_I the subset
    sums and A_I = nint(alpha*K_I), the carry of I is A_I - sum of A_{i};
    with X_ij = n_i*A_{j} and S_I its sum over the pairs of I, nint(gamma_I)
    = nint(beta*S_I) - sum of nint(beta*X_ij).  Where a lane refuses (an
    answer past int64), every entry is decided by `exact_nint`, and by
    `g(k)` where `g_vec` refuses.  `cond2_by_mode` holds cond2 of both
    gamma modes; cond2 is that of `gamma_mode`.
    """
    if gamma_mode not in (GAMMA_ALL_PAIRS, GAMMA_OFF_DIAGONAL):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    n = np.column_stack([np.asarray(v, dtype=np.int64).reshape(-1) for v in (n0, n1, n2)])
    if (n < 1).any() or (n > INT64_MAX // 3).any():
        raise ValueError("triple entries must lie in [1, (2^63 - 1) // 3]")
    K = n @ _MEMBERS.T
    A = _nint_times(g.const, K)  # type: ignore[attr-defined]
    a = A[:, 1:4]
    carry = A - a @ _MEMBERS.T
    beta = g.beta_const  # type: ignore[attr-defined]

    try:
        G = g.g_vec(K.ravel())  # type: ignore[attr-defined]
    except ValueError:  # a value past int64: g(k) on every entry
        G = np.array([g(int(k)) for k in K.ravel()], dtype=object)
    G = _summable(G).reshape(K.shape)

    # |X_ij| and |S_I| are at most (sum of |n_i|)*(sum of |a_j|)
    if int(n.sum(axis=1).max()) * int(np.abs(a).sum(axis=1).max()) > INT64_MAX:
        n, a = n.astype(object), a.astype(object)
    X = (n[:, :, None] * a[:, None, :]).reshape(-1, 9)
    NX = _nint_times(beta, X)
    gam = _nint_times(beta, X @ _GAMMA_ROWS.T) - NX @ _GAMMA_ROWS.T
    cond2_by_mode = {GAMMA_ALL_PAIRS: gam[:, 0] == gam[:, 1:4].sum(axis=1),
                     GAMMA_OFF_DIAGONAL: gam[:, 4] == gam[:, 5:8].sum(axis=1)}

    carries_e = {I: carry[:, _COL[I]] for I in _PAIRS + (_FULL,)}
    carries_f = {}
    for I in _PAIRS:
        i, j = sorted(I)
        dg = G[:, _COL[I]] - G[:, 1 + i] - G[:, 1 + j] + G[:, 0]
        bsum = _nint_times(beta, K[:, _COL[I]])
        carries_f[I] = dg - NX[:, 3 * i + j] - NX[:, 3 * j + i] - bsum * carries_e[I]

    one = (lambda v: v.tolist()[0]) if np.ndim(n0) == 0 else (lambda v: v)
    return Lemma31Report(
        triple=(n0, n1, n2),
        lhs_zero=one(G @ _SIGNS == 0),
        cond1=one((carry == 0).all(axis=1)),
        cond2=one(cond2_by_mode[gamma_mode]),
        gamma_mode=gamma_mode,
        carries_e={I: one(v) for I, v in carries_e.items()},
        carries_f={I: one(v) for I, v in carries_f.items()},
        cond2_by_mode={m: one(v) for m, v in cond2_by_mode.items()},
    )
