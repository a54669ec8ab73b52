"""Randomised cross-checks of the exact core and the expression layer
against a 50-digit decimal oracle."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from gparith.exactnum import NumberField
from gparith.focheck import FCmp, parse_formula, pretty_formula
from gparith.genpoly import (
    Add,
    Apply,
    IndicatorLess,
    IntLit,
    Mul,
    Neg,
    Sub,
    Var,
    compile_term,
    expr_sort,
    parse,
    pretty,
)

mp.mp.dps = 50

FIELDS = [
    ([-2, 0, 1], (1, 2), mp.sqrt(2)),
    ([-3, 0, 1], (1, 2), mp.sqrt(3)),
    ([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)), mp.cbrt(2)),
    ([-2, 0, 0, 0, 1], (1, Fraction(3, 2)), mp.root(2, 4)),
    ([-1, -1, 1], (1, 2), (1 + mp.sqrt(5)) / 2),
]


@pytest.mark.parametrize("minpoly,iv,root", FIELDS,
                         ids=["sqrt2", "sqrt3", "cbrt2", "qrt2", "golden"])
def test_field_decisions_match_oracle(minpoly, iv, root):
    K = NumberField(minpoly, iv)
    rng = random.Random(hash(tuple(minpoly)) & 0xFFFF)
    for _ in range(150):
        coeffs = [Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 200))
                  for _ in range(K.degree)]
        x = K.element(coeffs)
        ref = sum(mp.mpf(c.numerator) / c.denominator * root**i
                  for i, c in enumerate(coeffs))
        assert x.floor() == int(mp.floor(ref))
        assert x.nint() == int(mp.floor(ref + mp.mpf(1) / 2))
        if abs(ref) > mp.mpf(10)**-30:
            assert x.sign() == (1 if ref > 0 else -1)
        y = K.element([Fraction(rng.randrange(-50, 51), rng.randrange(1, 7))
                       for _ in range(K.degree)])
        refy = sum(mp.mpf(c.numerator) / c.denominator * root**i
                   for i, c in enumerate(y.coeffs))
        z = x * y - x + y
        lo, hi = z.enclosure(80)
        assert lo <= Fraction(mp.nstr(ref * refy - ref + refy, 40)) <= hi


def _rand_expr(rng, depth):
    if depth == 0:
        return rng.choice([IntLit(rng.randrange(0, 20)), Var("n"),
                           Var("alpha"), Var("beta")])
    k = rng.randrange(10)
    sub = lambda: _rand_expr(rng, depth - 1)
    if k < 3:
        return Add(sub(), sub())
    if k < 5:
        return Sub(sub(), sub())
    if k < 7:
        return Mul(sub(), sub())
    if k == 7:
        return Neg(sub())
    if k == 8:
        return Apply(rng.choice(["floor", "nint", "frac", "norm"]), sub())
    return IndicatorLess(Apply("norm", sub()), sub())


_REF_ROUNDING = {
    "floor": mp.floor,
    "nint": lambda v: mp.floor(v + mp.mpf(1) / 2),
    "frac": lambda v: v - mp.floor(v + mp.mpf(1) / 2),
    "norm": lambda v: abs(v - mp.floor(v + mp.mpf(1) / 2)),
}


def _ref_eval(e, env):
    if isinstance(e, IntLit):
        return mp.mpf(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Add):
        return _ref_eval(e.lhs, env) + _ref_eval(e.rhs, env)
    if isinstance(e, Sub):
        return _ref_eval(e.lhs, env) - _ref_eval(e.rhs, env)
    if isinstance(e, Mul):
        return _ref_eval(e.lhs, env) * _ref_eval(e.rhs, env)
    if isinstance(e, Neg):
        return -_ref_eval(e.arg, env)
    if isinstance(e, Apply):
        return _REF_ROUNDING[e.fn](_ref_eval(e.arg, env))
    v = _ref_eval(e.lhs, env)
    w = _ref_eval(e.rhs, env)
    return mp.mpf(1) if v < w else mp.mpf(0)


def test_random_expressions_roundtrip_and_evaluate(cbrt2_field):
    rng = random.Random(17)
    ctx = {"alpha": cbrt2_field.theta, "beta": Fraction(3, 7)}
    ref_ctx = {"alpha": mp.cbrt(2), "beta": mp.mpf(3) / 7}
    for _ in range(300):
        e = _rand_expr(rng, rng.randrange(1, 5))
        assert parse(pretty(e)) == e
        # formula text prints terms with the same printer
        phi = FCmp("=", e, IntLit(0))
        assert parse_formula(pretty_formula(phi)) == phi
        n = rng.randrange(-30, 31)
        v = compile_term(e)({**ctx, "n": n}, {})
        ref = _ref_eval(e, {**ref_ctx, "n": mp.mpf(n)})
        if expr_sort(e) == "int":
            assert isinstance(v, int)
        if abs(ref) < 1e12:
            assert abs(float(v) - float(ref)) <= 1e-6 * max(1.0, abs(float(ref)))
