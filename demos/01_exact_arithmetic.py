"""Exact arithmetic in Q(2^(1/3)): decidable signs, floors and nearest
integers.
"""

from fractions import Fraction

from gparith.exactnum import NumberField

# the field is pinned by an integer minimal polynomial and an isolating
# interval; validation is exact (irreducibility + Sturm root count)
K = NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))
theta = K.theta
print("theta = 2^(1/3) ~", float(theta))

print("\n-- canonical reduction --")
print("theta^3          =", (theta * theta * theta).as_fraction())
print("theta^2 * theta^2 = 2*theta:", theta**2 * theta**2 == 2 * theta)

print("\n-- decidable rounding --")
for expr, value in [("5*theta", 5 * theta), ("-5*theta", -5 * theta),
                    ("4*theta", 4 * theta)]:
    print(f"floor({expr}) = {value.floor():3d}   nint({expr}) = {value.nint():3d}"
          f"   frac ~ {float(value.frac_signed()):+.6f}")

x = K.element([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)])
print("\nx = 1/3 - 2/7 theta + 5/11 theta^2 ~", float(x))
print("x == nint(x) + frac(x) exactly:",
      (x - (x.nint() + x.frac_signed())).is_zero())
print("circle norm of x ~", float(x.circle_norm()))

