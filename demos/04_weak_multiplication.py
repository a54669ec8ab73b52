"""Weak multiplication: canonical terms, the multiplication family, the
quadruple set generated by the quadratic sequence, and the reduction from
polynomial solvability to a first-order sentence over (+, 1, Q).
"""

from fractions import Fraction

from gparith.exactnum import NumberField
from gparith.focheck import AlphaContext, pretty_formula
from gparith.genpoly import pretty
from gparith.weakmult import (
    SyntheticQSet,
    build_Q,
    check_Q1,
    check_Q2,
    check_solvability,
    close_pm,
    compile_solvability,
    eval_term_m,
    family_F,
    parse_poly,
    poly_to_term,
    times_m,
)

p = parse_poly("x1*x2 + x2*x2 + 2*x1*x3 + 2*x2*x3 + x1*x1*x3 + 2")
t = poly_to_term(p)
print("canonical term:", pretty(t))
print("family of products:")
for (a, b) in sorted(family_F(p), key=str):
    print("   (", a, ") x (", b, ")")

print("\n-- the partial product --")
Q = SyntheticQSet(m_max=3, k_max=10**6)
print("4 x_2 6  =", times_m(Q, 2, 4, 6))
print("3 x_2 5  =", times_m(Q, 2, 3, 5), " (2 does not divide 15)")
print("t_m at m=2, scaled arguments (2,4,6):",
      eval_term_m(t, 2, [2 * 1, 2 * 2, 2 * 3], Q),
      "= 2 * p(1,2,3) =", 2 * p.eval([1, 2, 3]))

print("\n-- quadruples generated by the quadratic sequence --")
K = NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))
ctx = AlphaContext(K.theta, 1)
Qg = build_Q(ctx, 500, 100)
print("quadruples with modulus <= 500:", len(Qg))
print("structure check violations:", len(check_Q1(Qg).violations))
print("modulus covering {1..4}^2:", check_Q2(Qg, [(k, l) for k in range(1, 5)
                                                  for l in range(1, 5)]))
Qpm = close_pm(Qg)
print("sign closure size:", len(Qpm), "(idempotent:",
      close_pm(Qpm) == Qpm, ")")

print("\n-- solvability reduction --")
for text in ("x1*x2 - 6", "x1*x1 + x2*x2 - x3*x3", "x1*x1 - 2"):
    poly = parse_poly(text)
    compiled = compile_solvability(poly)
    w = check_solvability(poly, Q, range(1, 4), 8, exclude_zero=True)
    print(f"\n  {text}:")
    print("   ", pretty_formula(compiled))
    if w is None:
        print("    no witness within bounds (soundness only, never "
              "'unsolvable')")
    else:
        print(f"    witness m={w.m} n={w.n} y={w.y}")
