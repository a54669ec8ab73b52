"""Diophantine witness searches: continued fractions, small circle norms,
progression bases, simultaneous fractional-part targets, and the orbit
equidistribution report.
"""

from fractions import Fraction

from gparith.diosearch import (
    calibrate_C,
    continued_fraction,
    equidist_check,
    find_progression_base,
    find_small_norm,
    find_weyl_witness,
)
from gparith.exactnum import field_create

K = field_create([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))
K2 = field_create([-2, 0, 1], (1, 2))
alpha, sqrt2 = K.theta, K2.theta

cf = continued_fraction(alpha, 10)
print("CF(2^(1/3)) =", cf.partial_quotients)
print("convergents:", cf.convergents()[:6])

w = find_small_norm(sqrt2, Fraction(1, 10), 10**6)
print(f"\nsmallest m with ||sqrt2 m|| < 1/10: m = {w.m}, "
      f"norm ~ {float(w.achieved['norm']):.5f}")

print("\nprogression bases (norm conditions for length-r admissibility):")
for r in range(2, 9):
    w = find_progression_base(r, alpha, 1, 10**7)
    print(f"  r = {r}: m = {w.m:4d}   ||alpha m|| ~ "
          f"{float(w.achieved['alpha_norm']):.5f} < {1 / (2 * r):.5f}")

n = find_weyl_witness(
    [("alpha*n*n", (Fraction(1, 5) - Fraction(1, 50), Fraction(1, 5))),
     ("2*alpha*n", (Fraction(0), Fraction(1, 40)))],
    10**6, {"alpha": sqrt2})
print(f"\nsimultaneous targets hit at n = {n}:")
print("  frac(sqrt2 n^2) ~", float((sqrt2 * n * n).frac_signed()))
print("  frac(2 sqrt2 n) ~", float((2 * sqrt2 * n).frac_signed()))

print("\ncalibrating the admissibility constant for (alpha, beta=1):")
res = calibrate_C(alpha, 1, 2000)
print(f"  C = {res.C}, gamma mode = {res.gamma_mode}, "
      f"modes indistinguishable = {res.modes_indistinguishable}")

print("\norbit vs push-forward (theta = (1+2a)/(3+a)):")
rep = equidist_check(alpha, 1, 2, 3, 1, N=100_000, M=400_000, grid=16)
print(f"  sup-cell discrepancy = {rep.discrepancy:.4f}")
print(f"  orbit mass near the origin = {rep.origin_fraction:.4f} (> 0)")
