"""The quadratic indicator world: almost periods, the nested shifted-hit
properties with three-way verdicts, and the sequence-based divisibility
characterisation.
"""

from fractions import Fraction

from gparith.bohr import BohrParams, BohrWorld, divisibility_sequence_check
from gparith.exactnum import NumberField

sqrt2 = NumberField([-2, 0, 1], (1, 2)).theta
world = BohrWorld(BohrParams(sqrt2, Fraction(1, 5)))

print("g(n) = 1[norm(sqrt2 n^2) < 1/5]")
print("g(0..19):", [world.g(n) for n in range(20)])

print("\nexact threshold delta(N) = min |norm(alpha n^2) - rho|:")
for N in (1, 10, 50):
    print(f"  delta({N:2d}) ~ {float(world.delta_threshold(N)):.6f}")

print("\nalmost periods (first few m with g(n+m) = g(n) for n <= 10):")
S = world.mu_true_upto(3000, 10)
print(" ", S[:8].tolist())

print("\nshifted-hit verdicts (bounded, three-way):")
for m in (13, 1, 2):
    v = world.kappa(m, 10)
    print(f"  kappa({m:2d}, 10): {v.tag:18s} "
          f"norm(alpha m^2) ~ {float((sqrt2 * m * m).circle_norm()):.4f}")

print("\nreflexive shift is forced:", world.nu(3, 3, 10).tag)

print("\nsequence-based divisibility (tail of norm(2 alpha mt n_i)):")
print("  m mt | b   tail                        verdict   agrees")
for (m, mt) in [(2, 6), (2, 3), (3, 12), (4, 6), (5, 5), (6, 4)]:
    rep = divisibility_sequence_check(world, m, mt)
    tail = " ".join(f"{t:.4f}" for t in rep.tail_norms)
    verdict = "divides" if rep.says_divides else "not-div"
    print(f"  {m} {mt:2d} | {rep.b:2d}  [{tail}]  {verdict}   {rep.agrees}")
