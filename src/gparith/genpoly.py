"""Generalised-polynomial expressions over one integer variable.

AST + parser + pretty-printer + exact evaluator, the discrete derivatives
(shift, symmetric, iterated symmetric), and the classifier that compares
the vanishing of the second symmetric derivative of g(n) = nint(b*n*nint(a*n))
against its carry/fractional-part characterisation.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Union

from .errors import ArityTooSmall, ExprSyntaxError, UnknownConstant
from .exactnum import (
    AlgebraicReal,
    Number,
    circle_norm,
    floor_exact,
    frac_signed,
    nint,
)

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    pass


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
class Floor:
    arg: "Expr"


@dataclass(frozen=True)
class Nint:
    arg: "Expr"


@dataclass(frozen=True)
class FracSigned:
    arg: "Expr"


@dataclass(frozen=True)
class CircleNorm:
    arg: "Expr"


@dataclass(frozen=True)
class IndicatorLess:
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[IntLit, Const, Var, Add, Sub, Mul, Neg, Floor, Nint,
             FracSigned, CircleNorm, IndicatorLess]

INT_SORT = "int"
REAL_SORT = "real"


def expr_sort(expr: Expr) -> str:
    """Static sort of an expression; integer-sort nodes evaluate to int."""
    if isinstance(expr, (IntLit, Var, Floor, Nint, IndicatorLess)):
        return INT_SORT
    if isinstance(expr, Const):
        return REAL_SORT
    if isinstance(expr, (FracSigned, CircleNorm)):
        return REAL_SORT
    if isinstance(expr, Neg):
        return expr_sort(expr.arg)
    if isinstance(expr, (Add, Sub, Mul)):
        a, b = expr_sort(expr.lhs), expr_sort(expr.rhs)
        return INT_SORT if a == b == INT_SORT else REAL_SORT
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
# Expression parser (floor/nint/frac/norm/ind keywords over the shared layer)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[a-z][a-z0-9_]*)|(?P<op>[-+*()<]))")
_FUNCS = {"floor": Floor, "nint": Nint, "frac": FracSigned, "norm": CircleNorm}


def parse(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError with position on failure."""
    toks = TokenStream(text, _TOKEN)
    expr = _parse_expr(toks)
    toks.done()
    return expr


def _parse_expr(toks: TokenStream) -> Expr:
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
        toks.expect("op", "(")
        lhs = _parse_expr(toks)
        toks.expect("op", ")")
        toks.expect("op", "<")
        rhs = _parse_expr(toks)
        toks.expect("op", ")")
        return IndicatorLess(CircleNorm(lhs), rhs)
    if name in _FUNCS:
        toks.expect("op", "(")
        inner = _parse_expr(toks)
        toks.expect("op", ")")
        return _FUNCS[name](inner)
    return Var() if name == "n" else Const(name)


def pretty(expr: Expr) -> str:
    """Grammar-conformant text; parse(pretty(e)) == e for parser output."""
    return _pp(expr, 0)


def _pp(expr: Expr, level: int) -> str:
    # level 0 = expr (+/-), 1 = term (*), 2 = factor
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Var):
        return "n"
    if isinstance(expr, Neg):
        return "-" + _pp(expr.arg, 2)
    if isinstance(expr, Floor):
        return f"floor({_pp(expr.arg, 0)})"
    if isinstance(expr, Nint):
        return f"nint({_pp(expr.arg, 0)})"
    if isinstance(expr, FracSigned):
        return f"frac({_pp(expr.arg, 0)})"
    if isinstance(expr, CircleNorm):
        return f"norm({_pp(expr.arg, 0)})"
    if isinstance(expr, IndicatorLess):
        if isinstance(expr.lhs, CircleNorm):
            return f"ind(norm({_pp(expr.lhs.arg, 0)}) < {_pp(expr.rhs, 0)})"
        return f"ind(norm({_pp(expr.lhs, 0)}) < {_pp(expr.rhs, 0)})"
    if isinstance(expr, Mul):
        s = f"{_pp(expr.lhs, 1)}*{_pp(expr.rhs, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(expr, (Add, Sub)):
        op = "+" if isinstance(expr, Add) else "-"
        s = f"{_pp(expr.lhs, 0)}{op}{_pp(expr.rhs, 1)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def eval_expr(expr: Expr, context: dict[str, Number], n: int) -> Number:
    """Exact value at n; integer-sort expressions return Python ints."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Var):
        return n
    if isinstance(expr, Const):
        try:
            return context[expr.name]
        except KeyError:
            raise UnknownConstant(expr.name) from None
    if isinstance(expr, Add):
        return eval_expr(expr.lhs, context, n) + eval_expr(expr.rhs, context, n)
    if isinstance(expr, Sub):
        return eval_expr(expr.lhs, context, n) - eval_expr(expr.rhs, context, n)
    if isinstance(expr, Mul):
        return eval_expr(expr.lhs, context, n) * eval_expr(expr.rhs, context, n)
    if isinstance(expr, Neg):
        return -eval_expr(expr.arg, context, n)
    if isinstance(expr, Floor):
        return floor_exact(eval_expr(expr.arg, context, n))
    if isinstance(expr, Nint):
        return nint(eval_expr(expr.arg, context, n))
    if isinstance(expr, FracSigned):
        return frac_signed(eval_expr(expr.arg, context, n))
    if isinstance(expr, CircleNorm):
        return circle_norm(eval_expr(expr.arg, context, n))
    if isinstance(expr, IndicatorLess):
        return 1 if eval_expr(expr.lhs, context, n) < eval_expr(expr.rhs, context, n) else 0
    raise TypeError(f"not an expression node: {expr!r}")


MEMO_SIZE = 1 << 20


class SequenceHandle:
    """Integer sequence n -> Z backed by an expression, with a memo bounded
    by MEMO_SIZE entries; cached hits always equal fresh evaluation."""

    def __init__(self, expr: Expr, context: dict[str, Number]) -> None:
        if expr_sort(expr) != INT_SORT:
            raise TypeError("sequence expression must have integer sort")
        self.expr = expr
        self.context = dict(context)
        # the memo reaches the handle through a weak reference: a memo bound
        # to self._fresh would form a cycle, and the handle, its memo and
        # the field behind it would then wait for a full garbage collection
        handle = weakref.ref(self)
        self._cached = lru_cache(maxsize=MEMO_SIZE)(lambda n: handle()._fresh(n))

    def _fresh(self, n: int) -> int:
        return eval_expr(self.expr, self.context, n)  # type: ignore[return-value]

    def fresh(self, n: int) -> int:
        """Evaluation bypassing the memo (for cache-transparency checks)."""
        return self._fresh(n)

    def __call__(self, n: int) -> int:
        return self._cached(n)


QUADRATIC_SEQUENCE_TEXT = "nint(beta*n*nint(alpha*n))"
BOHR_TEXT = "ind(norm(alpha*n*n) < rho)"


def quadratic_sequence(alpha: AlgebraicReal, beta: Number) -> SequenceHandle:
    """g(n) = nint(beta * n * nint(alpha * n))."""
    return SequenceHandle(parse(QUADRATIC_SEQUENCE_TEXT), {"alpha": alpha, "beta": beta})


def bohr_indicator_sequence(alpha: AlgebraicReal, rho: Number) -> SequenceHandle:
    """g(n) = 1 if the circle norm of alpha*n^2 is < rho, else 0."""
    return SequenceHandle(parse(BOHR_TEXT), {"alpha": alpha, "rho": rho})


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


def delta_sym_iter_subsets(f: IntSeq, args: list[int]) -> int:
    """Independent inclusion-exclusion form of the iterated derivative."""
    if len(args) < 2:
        raise ArityTooSmall("need n0 plus at least one derivative direction")
    n0, rest = args[0], args[1:]
    r = len(rest)
    total = 0
    for k in range(r + 1):
        for idx in combinations(range(r), k):
            s = sum(rest[i] for i in idx)
            total += (-1) ** (r - k) * (f(n0 + s) - f(s))
    return total


# ---------------------------------------------------------------------------
# Second-derivative vanishing classifier for g(n) = nint(b n nint(a n))
# ---------------------------------------------------------------------------

GAMMA_ALL_PAIRS = "all-pairs"
GAMMA_OFF_DIAGONAL = "off-diagonal"

_SUBSETS = tuple(
    frozenset(s) for s in chain.from_iterable(
        combinations((0, 1, 2), k) for k in range(4))
)
_PAIRS = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0}))


@dataclass
class Lemma31Report:
    """Exact classification of one triple for the vanishing criterion."""

    triple: tuple[int, int, int]
    lhs_zero: bool
    cond1: bool
    cond2: bool
    gamma_mode: str
    gammas: dict = dc_field(default_factory=dict)
    gamma_nints: dict = dc_field(default_factory=dict)
    carries_e: dict = dc_field(default_factory=dict)
    carries_f: dict = dc_field(default_factory=dict)
    cond2_by_mode: dict = dc_field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        """True when lhs vanishing matches cond1 and cond2."""
        return self.lhs_zero == (self.cond1 and self.cond2)


def _gamma_nints(frac_table: dict, gamma_mode: str) -> tuple[dict, dict]:
    """The gamma sums over each index subset, and their nearest integers."""
    gammas = {}
    gamma_nints = {}
    for I in _SUBSETS:
        acc: Number = Fraction(0)
        for i in I:
            for j in I:
                if gamma_mode == GAMMA_OFF_DIAGONAL and i == j:
                    continue
                acc = acc + frac_table[(i, j)]
        gammas[I] = acc
        gamma_nints[I] = nint(acc)
    return gammas, gamma_nints


def lemma31_classify(n0: int, n1: int, n2: int, alpha: AlgebraicReal,
                     beta: Number, gamma_mode: str = GAMMA_ALL_PAIRS,
                     g: SequenceHandle | None = None) -> Lemma31Report:
    """Classify a positive triple: exact second-derivative vanishing vs the
    carry condition (cond1) and the gamma identity (cond2).

    The two gamma modes differ only in cond2, so the report's
    `cond2_by_mode` holds cond2 of both; cond2, gammas and gamma_nints are
    those of `gamma_mode`.
    """
    if min(n0, n1, n2) < 1:
        raise ValueError("triple entries must be >= 1")
    if gamma_mode not in (GAMMA_ALL_PAIRS, GAMMA_OFF_DIAGONAL):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    if g is None:
        g = quadratic_sequence(alpha, beta)
    ns = (n0, n1, n2)

    lhs = delta_sym_iter(g, [n0, n1, n2])

    s = [(alpha * ni).frac_signed() for ni in ns]
    cond1 = True
    for I in _SUBSETS:
        acc: Number = Fraction(0)
        for i in I:
            acc = acc + s[i]
        if nint(acc) != 0:
            cond1 = False
            break

    a_ints = [(alpha * ni).nint() for ni in ns]
    frac_table = {}
    for i in range(3):
        for j in range(3):
            frac_table[(i, j)] = frac_signed(beta * ns[i] * a_ints[j])

    full = frozenset({0, 1, 2})
    cond2_by_mode = {}
    for mode in (GAMMA_ALL_PAIRS, GAMMA_OFF_DIAGONAL):
        mode_gammas, mode_nints = _gamma_nints(frac_table, mode)
        cond2_by_mode[mode] = mode_nints[full] == sum(mode_nints[p] for p in _PAIRS)
        if mode == gamma_mode:
            gammas, gamma_nints = mode_gammas, mode_nints
    cond2 = cond2_by_mode[gamma_mode]

    carries_e = {}
    for I in (_PAIRS + (full,)):
        acc = Fraction(0)
        for i in I:
            acc = acc + s[i]
        carries_e[I] = nint(acc)

    carries_f = {}
    for I in _PAIRS:
        i, j = sorted(I)
        dg = delta_sym(g, ns[j], ns[i])
        nij = nint(beta * ns[i] * a_ints[j])
        nji = nint(beta * ns[j] * a_ints[i])
        bsum = nint(beta * (ns[i] + ns[j]))
        carries_f[I] = dg - nij - nji - bsum * carries_e[I]

    return Lemma31Report(
        triple=ns,
        lhs_zero=(lhs == 0),
        cond1=cond1,
        cond2=cond2,
        gamma_mode=gamma_mode,
        gammas=gammas,
        gamma_nints=gamma_nints,
        carries_e=carries_e,
        carries_f=carries_f,
        cond2_by_mode=cond2_by_mode,
    )
