"""Terms over (Z; 1, +, -, x), the partial products x_m, the multiplication
family F(p), quadruple sets Q, and the reduction from polynomial-equation
solvability to first-order sentences over (+, 1, Q).

In the scaled evaluation t_m the unit leaf evaluates to the modulus m (and
x to x_m); with that reading the dilation identity
t_m(m n1, ..., m ns) = m * p(n1, ..., ns) holds for every polynomial,
constants included.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import focheck
from .errors import ZeroModulus
from .focheck import (
    AlphaContext,
    FAnd,
    FCmp,
    FExists,
    Formula,
    FRel,
    TAdd,
    TInt,
    TMul,
    TVar,
    Term as FTerm,
    ell,
    progression_d2,
)
from .genpoly import TokenStream, parse_sum

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class TermVar:
    index: int  # 1-based


@dataclass(frozen=True)
class Plus:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Minus:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Times:
    lhs: "Term"
    rhs: "Term"


Term = One | TermVar | Plus | Minus | Times

ONE = One()


def term_arity(t: Term) -> int:
    if isinstance(t, One):
        return 0
    if isinstance(t, TermVar):
        return t.index
    return max(term_arity(t.lhs), term_arity(t.rhs))


def term_eval(t: Term, args: Sequence[int]) -> int:
    """Plain evaluation over Z (the unit evaluates to 1)."""
    if isinstance(t, One):
        return 1
    if isinstance(t, TermVar):
        return args[t.index - 1]
    a, b = term_eval(t.lhs, args), term_eval(t.rhs, args)
    if isinstance(t, Plus):
        return a + b
    if isinstance(t, Minus):
        return a - b
    return a * b


def term_str(t: Term) -> str:
    if isinstance(t, One):
        return "1"
    if isinstance(t, TermVar):
        return f"x{t.index}"
    op = {"Plus": "+", "Minus": "-", "Times": "*"}[type(t).__name__]
    return f"({term_str(t.lhs)} {op} {term_str(t.rhs)})"


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

    def _entries(self) -> dict[tuple[int, ...], int]:
        return dict(self.monomials)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        ent = self._entries()
        for e, c in other.monomials:
            ent[e] = ent.get(e, 0) + c
        return self._normalise(self.arity, ent)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        ent = self._entries()
        for e, c in other.monomials:
            ent[e] = ent.get(e, 0) - c
        return self._normalise(self.arity, ent)

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
        total = 0
        for e, c in self.monomials:
            v = c
            for x, k in zip(args, e):
                v *= x**k
        # no break on zero: polynomial degrees are tiny here
            total += v
        return total

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


def _constant_term(c: int) -> Term:
    if c == 0:
        return Minus(ONE, ONE)
    if c < 0:
        return Minus(Minus(ONE, ONE), _constant_term(-c))
    t: Term = ONE
    for _ in range(c - 1):
        t = Plus(t, ONE)
    return t


def _split_by_variable(p: IntPolynomial, i: int) -> dict[int, IntPolynomial]:
    """Coefficient polynomials of powers of x_i (with x_i removed)."""
    out: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in p.monomials:
        k = e[i - 1]
        e0 = list(e)
        e0[i - 1] = 0
        out.setdefault(k, {})[tuple(e0)] = c
    return {k: IntPolynomial._normalise(p.arity, ent) for k, ent in out.items()}


def poly_to_term(p: IntPolynomial) -> Term:
    """Deterministic canonical term: Horner by lowest variable index,
    constants as repeated unit sums, negatives via subtraction."""
    return _horner(p, 1)


def _horner(p: IntPolynomial, i: int) -> Term:
    c = p.constant_value()
    if c is not None:
        return _constant_term(c)
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
        acc = TermVar(i) if isinstance(acc, One) else Times(TermVar(i), acc)
        ck = coeffs.get(k)
        if ck is not None and not ck.is_zero():
            acc = Plus(_horner(ck, i + 1), acc)
    return acc


def term_to_poly(t: Term, arity: int | None = None) -> IntPolynomial:
    s = arity if arity is not None else term_arity(t)
    if isinstance(t, One):
        return IntPolynomial.constant(1, s)
    if isinstance(t, TermVar):
        return IntPolynomial.variable(t.index, s)
    a, b = term_to_poly(t.lhs, s), term_to_poly(t.rhs, s)
    if isinstance(t, Plus):
        return a + b
    if isinstance(t, Minus):
        return a - b
    return a * b


def family_of_term(t: Term, arity: int | None = None) -> frozenset:
    """Pairs of polynomials tracking every product node of the term."""
    s = arity if arity is not None else term_arity(t)
    if isinstance(t, (One, TermVar)):
        return frozenset()
    fam = family_of_term(t.lhs, s) | family_of_term(t.rhs, s)
    if isinstance(t, Times):
        fam |= {(term_to_poly(t.lhs, s), term_to_poly(t.rhs, s))}
    return fam


def family_F(p: IntPolynomial) -> frozenset:
    """F(p) computed over the canonical term of p."""
    return family_of_term(poly_to_term(p), p.arity)


# ---------------------------------------------------------------------------
# Quadruple sets
# ---------------------------------------------------------------------------


class QSet:
    """Set of multiplicative quadruples (m, a, b, c); membership is pure."""

    def contains(self, m: int, a: int, b: int, c: int) -> bool:
        raise NotImplementedError

    def members(self) -> Iterator[tuple[int, int, int, int]]:
        raise NotImplementedError

    def moduli(self) -> Iterator[int]:
        raise NotImplementedError


class ExplicitQSet(QSet):
    """An explicit store of quadruples, given as tuples of Python ints."""

    def __init__(self, quadruples: Iterable[tuple[int, int, int, int]]) -> None:
        self._store = frozenset(quadruples)

    def contains(self, m, a, b, c) -> bool:
        return (m, a, b, c) in self._store

    def members(self):
        return iter(sorted(self._store))

    def moduli(self):
        return iter(sorted({q[0] for q in self._store}))

    def __len__(self) -> int:
        return len(self._store)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExplicitQSet) and self._store == other._store


class SyntheticQSet(QSet):
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

    def members(self):
        if self.m_max * (2 * self.k_max + 1) ** 2 > 10**7:
            raise ValueError("synthetic store too large to enumerate")
        for m in range(1, self.m_max + 1):
            for k in range(-self.k_max, self.k_max + 1):
                for l in range(-self.k_max, self.k_max + 1):
                    yield (m, k * m, l * m, k * l * m)

    def moduli(self):
        return iter(range(1, self.m_max + 1))


# ---------------------------------------------------------------------------
# Partial products and scaled term evaluation
# ---------------------------------------------------------------------------


def times_m(Q: QSet, m: int, a: int, b: int) -> Optional[int]:
    """a x_m b = ab/m when ab/m is an integer and (m,a,b,ab/m) in Q."""
    if m == 0:
        raise ZeroModulus("modulus must be nonzero")
    if (a * b) % m != 0:
        return None
    c = (a * b) // m
    return c if Q.contains(m, a, b, c) else None


def eval_term_m(t: Term, m: int, args: Sequence[int], Q: QSet) -> Optional[int]:
    """Scaled partial evaluation: x -> x_m and the unit leaf -> m.

    None propagates from any undefined partial product.
    """
    if m == 0:
        raise ZeroModulus("modulus must be nonzero")
    if isinstance(t, One):
        return m
    if isinstance(t, TermVar):
        return args[t.index - 1]
    a = eval_term_m(t.lhs, m, args, Q)
    if a is None:
        return None
    b = eval_term_m(t.rhs, m, args, Q)
    if b is None:
        return None
    if isinstance(t, Plus):
        return a + b
    if isinstance(t, Minus):
        return a - b
    return times_m(Q, m, a, b)


def family_domain_ok(fam: frozenset, m: int, args: Sequence[int], Q: QSet) -> bool:
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


def build_Q(ctx: AlphaContext, m_max: int, h_factor_max: int) -> ExplicitQSet:
    """All quadruples with modulus m <= m_max witnessed by an admissible
    progression P_{m,h}, h <= h_factor_max * m.

    For each m the largest admissible T = h/m is found (range clause via
    ell, constant nonzero second difference along the progression); the
    memberships force quadruples (m, km, lm, klm) with kl <= T-1, and the
    defining equality D g(m, klm) = D g(km, lm) is verified exactly.
    """
    quads: list[tuple[int, int, int, int]] = []
    if m_max >= 1:
        ms = np.arange(1, m_max + 1, dtype=np.int64)
        fr, mg = ctx.fast.frac_alpha_filter(ms)
        nrm = np.abs(fr)
        # T >= 3 needs norm < 1/6; keep a margin and decide exactly below
        maybe = np.nonzero(nrm < 1.0 / 6.0 + mg)[0]
        for i in maybe:
            m = int(ms[i])
            T_ell = ell(m, ctx.alpha) // m
            T = min(h_factor_max, T_ell)
            if T < 3:
                continue
            gv, a, run = progression_d2(ctx, m, T)
            if a == 0:
                continue
            T_eff = min(T, run + 2)
            for k in range(1, T_eff):
                for l in range(1, (T_eff - 1) // k + 1):
                    kl = k * l
                    # defining equality, exact on the cached stride values
                    lhs = int(gv[kl + 1] - gv[1] - gv[kl] + gv[0])
                    rhs = int(gv[k + l] - gv[k] - gv[l] + gv[0])
                    if lhs == rhs:
                        quads.append((m, k * m, l * m, kl * m))
    return ExplicitQSet(quads)


def close_pm(Q: QSet) -> QSet:
    """Sign closure {(m, sa, tb, st c)}; idempotent."""
    if isinstance(Q, SyntheticQSet):
        return Q  # structurally sign-closed already
    closed = set()
    for (m, a, b, c) in Q.members():
        for s in (1, -1):
            for t in (1, -1):
                closed.add((m, s * a, t * b, s * t * c))
    return ExplicitQSet(closed)


@dataclass
class Q1Report:
    total: int
    violations: list
    commutes: bool  # (m,a,b,c) in Q iff (m,b,a,c) in Q, settled empirically


def check_Q1(Q: QSet) -> Q1Report:
    """Exhaustive structural check: every member is (m, km, lm, klm)."""
    violations = []
    total = 0
    commutes = True
    for (m, a, b, c) in Q.members():
        total += 1
        ok = (m != 0 and a % m == 0 and b % m == 0 and c % m == 0
              and (a // m) * (b // m) == c // m)
        if not ok:
            violations.append((m, a, b, c))
        if not Q.contains(m, b, a, c):
            commutes = False
    return Q1Report(total=total, violations=violations, commutes=commutes)


def check_Q2(Q: QSet, F: Iterable[tuple[int, int]]) -> Optional[int]:
    """Smallest modulus m whose dilated copy of F sits inside dom(x_m)."""
    F = list(F)
    for m in Q.moduli():
        if all(Q.contains(m, k * m, l * m, k * l * m) for (k, l) in F):
            return m
    return None


# ---------------------------------------------------------------------------
# CSV interchange (sorted `m,a,b,c` lines, no header)
# ---------------------------------------------------------------------------


def export_csv(Q: QSet, fp) -> None:
    close_me = False
    if isinstance(fp, str):
        fp = open(fp, "w", encoding="ascii")
        close_me = True
    try:
        for (m, a, b, c) in Q.members():
            fp.write(f"{m},{a},{b},{c}\n")
    finally:
        if close_me:
            fp.close()


def import_csv(fp) -> ExplicitQSet:
    close_me = False
    if isinstance(fp, str):
        fp = open(fp, "r", encoding="ascii")
        close_me = True
    try:
        quads = []
        for line in fp:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"malformed quadruple line: {line!r}")
            quads.append(tuple(int(x) for x in parts))
        return ExplicitQSet(quads)
    finally:
        if close_me:
            fp.close()


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


@dataclass
class CompiledReduction:
    polynomial: IntPolynomial
    term: Term
    formula: Formula
    aux_count: int
    y_names: list[str]
    z_names: list[str]

    def text(self) -> str:
        return focheck.pretty_formula(self.formula)


def _lin_term(lin: dict[str, int]) -> FTerm:
    parts: list[FTerm] = []
    for name in sorted(lin):
        c = lin[name]
        if c == 0:
            continue
        base: FTerm = TVar(name)
        parts.append(base if c == 1 else TMul(TInt(c), base))
    if not parts:
        return TInt(0)
    acc = parts[0]
    for p in parts[1:]:
        acc = TAdd(acc, p)
    return acc


def compile_solvability(p: IntPolynomial, m_cap: int = 8,
                        y_cap: int = 400) -> CompiledReduction:
    """First-order sentence over (+, 1, Q) asserting solvability of p = 0.

    Products are flattened through fresh existential variables constrained
    by Q-membership atoms; the unit leaf of the canonical term contributes
    the quantified modulus m, so the inner equation says m * p(n) = 0.
    """
    t = poly_to_term(p)
    atoms: list[Formula] = []
    z_names: list[str] = []

    def walk(node: Term) -> dict[str, int]:
        if isinstance(node, One):
            return {"m": 1}
        if isinstance(node, TermVar):
            return {f"y{node.index}": 1}
        a = walk(node.lhs)
        b = walk(node.rhs)
        if isinstance(node, (Plus, Minus)):
            out = dict(a)
            sign = 1 if isinstance(node, Plus) else -1
            for k, v in b.items():
                out[k] = out.get(k, 0) + sign * v
            return {k: v for k, v in out.items() if v != 0}
        z = f"z{len(z_names) + 1}"
        z_names.append(z)
        atoms.append(FRel("Q", (TVar("m"), _lin_term(a), _lin_term(b), TVar(z))))
        return {z: 1}

    final = walk(t)
    body: Formula = FCmp("=", _lin_term(final), TInt(0))
    for atom in reversed(atoms):
        body = FAnd(atom, body)

    y_names = [f"y{i}" for i in range(1, p.arity + 1)]
    z_cap = y_cap * y_cap
    for z in reversed(z_names):
        body = FExists(z, TInt(-z_cap), TInt(z_cap), body)
    for y in reversed(y_names):
        body = FExists(y, TInt(-y_cap), TInt(y_cap), body)
    body = FExists("m", TInt(1), TInt(m_cap), body)
    return CompiledReduction(polynomial=p, term=t, formula=body,
                             aux_count=len(z_names), y_names=y_names,
                             z_names=z_names)


@dataclass
class SolvabilityWitness:
    m: int
    n: tuple[int, ...]
    y: tuple[int, ...]
    value: int


def check_solvability(p: IntPolynomial, Q: QSet, m_values: Iterable[int],
                      n_cap: int,
                      exclude_zero: bool = False) -> Optional[SolvabilityWitness]:
    """Bounded witness search for the compiled sentence: scan moduli and
    scaled assignments y = m*n, evaluating the term under x_m.

    A miss is only 'not found within bounds', never unsolvability.
    exclude_zero skips the all-zero assignment.
    """
    t = poly_to_term(p)
    s = p.arity
    rng = sorted(range(-n_cap, n_cap + 1), key=lambda x: (abs(x), -x))
    for m in m_values:
        if m == 0:
            continue
        for n_vec in product(rng, repeat=s):
            if exclude_zero and not any(n_vec):
                continue
            val = eval_term_m(t, m, [m * x for x in n_vec], Q)
            if val == 0:
                return SolvabilityWitness(m=m, n=tuple(n_vec),
                                          y=tuple(m * x for x in n_vec), value=0)
    return None
