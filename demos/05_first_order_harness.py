"""Bounded first-order evaluation: the witness formulas, the small-norm
window, admissible progressions, and the divisibility relation compared
with its arithmetic characterisation.
"""

from fractions import Fraction

from gparith.exactnum import NumberField
from gparith.focheck import (
    AlphaContext,
    Structure,
    def_mu,
    def_pi,
    delta_bounded,
    ell,
    eval_formula,
    lemma36_characterisation,
    parse_formula,
    progression,
    verify_lemma37,
)

K = NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))
ctx = AlphaContext(K.theta, 1)

print("-- generic bounded evaluation --")
phi = parse_formula("exists x in [1,20]: g(x) = 30 and x > 3")
print(" ", "exists x in [1,20]: g(x) = 30 and x > 3  ->",
      eval_formula(phi, {}, Structure(sequences={"g": ctx.g})))

print("\n-- witness formula (bounded existential) --")
print("  mu(5, 50):", def_mu(5, 50, 2, 5000, ctx.g), " (witness exists)")
print("  mu(2, 6): ", def_mu(2, 6, 2, 5000, ctx.g), " (fractional parts overflow)")

print("\n-- small-norm windows --")
for N in (1, 5, 10, 30):
    lo, hi = ctx.window(N)
    print(f"  N={N:2d}: window ({float(lo):+.5f}, {float(hi):+.5f})")

print("\n-- progressions --")
print("  ell(4) =", ell(4, ctx.alpha))
print("  P_{4,48} =", progression(4, 48, ctx.alpha).elements)
print("  admissible pi(4,48):", def_pi(4, 48, ctx))
rep = verify_lemma37(4, 48, ctx)
print("  g(4t) = beta t^2 4 nint(4 alpha), t <= 12:", rep.closed_form,
      " constant second difference:", rep.a_value)

print("\n-- bounded divisibility relation vs nearest-integer ratio --")
print("  pair   bounded  characterisation")
for (n, npr) in [(4, 8), (4, 12), (3, 9), (2, 3), (5, 5), (10, 250)]:
    v = delta_bounded(n, npr, ctx)
    c = lemma36_characterisation(n, npr, ctx)
    print(f"  ({n:3d},{npr:3d})  {str(v.value):5s}    {c}")
