"""The quadratic generalised polynomial g(n) = nint(beta n nint(alpha n)):
parsing, its one evaluator (memoised exact values and a certified integer
lane), discrete derivatives, and the carry classification of vanishing
second derivatives.
"""

from fractions import Fraction

from gparith._fastlane import QuadSeqFast
from gparith.exactnum import NumberField
from gparith.genpoly import (
    delta_shift,
    delta_sym,
    delta_sym_iter,
    lemma31_classify,
    parse,
    pretty,
)

K = NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))
alpha = K.theta

expr = parse("nint(beta*n*nint(alpha*n))")
print("expression:", pretty(expr))

g = QuadSeqFast(alpha, 1)
print("g(0..10) =", [g(n) for n in range(11)])
print("lane     =", g.g_range(0, 10).tolist())

print("\n-- discrete derivatives --")
print("shift  g(6)-g(5)     =", delta_shift(g, 1, 5))
print("sym    D g(7, 5)     =", delta_sym(g, 7, 5))
print("iter   D^2 g(5,50,600) =", delta_sym_iter(g, [5, 50, 600]))

print("\n-- where does the second derivative vanish? --")
hits = [n2 for n2 in range(100, 140) if delta_sym_iter(g, [5, 50, n2]) == 0]
print("zeros with (n0,n1) = (5,50), n2 in [100,140):", hits)

print("\n-- carry classification --")
for triple in [(5, 50, 600), (2, 6, 500), (5, 50, 123)]:
    rep = lemma31_classify(*triple, g)
    print(f"  {triple}: D^2=0 {str(rep.lhs_zero):5s}  carries-vanish "
          f"{str(rep.cond1):5s}  gamma-identity {str(rep.cond2):5s}  "
          f"equivalent {rep.equivalent}")

print("\nwith an algebraic coefficient (beta = alpha^2) the gamma terms "
      "are no longer trivial:")
g2 = QuadSeqFast(alpha, alpha * alpha)
rep = lemma31_classify(23, 530, 9722, g2, "all-pairs")
rep_off = lemma31_classify(23, 530, 9722, g2, "off-diagonal")
print("  all-pairs   :", rep.lhs_zero, rep.cond1 and rep.cond2, "->", rep.equivalent)
print("  off-diagonal:", rep_off.lhs_zero, rep_off.cond1 and rep_off.cond2,
      "->", rep_off.equivalent, " (diagonal terms matter)")
