"""Build the equivariant disk potential and read off its structure.

The generating series lives in four variables: Q (square root of the area
parameter), X (boundary winding), T (degree-zero log coordinate), and V
(the circle weight).  Every coefficient is an exact rational number; the
truncation window fixes finite exponent ranges so the series is a finite
table.

Run:  python3 demos/01_disk_potential.py
"""

from fractions import Fraction

from ocmirror.correspondence import disk_potential_bessel, disk_potential_localized
from ocmirror.series import TruncationWindow

window = TruncationWindow(max_q=4, max_t=2, max_abs_x=2, min_v=-4, max_v=1)
potential = disk_potential_bessel(window)

print("disk potential on a small window")
print("  winding | area | log | weight | coefficient")
for m, c in potential.items():
    print(f"  {m.X:7d} | {m.Q:4d} | {m.T:3d} | {m.V:6d} | {c.numerator}/{c.denominator}")

# Structure worth noticing in the table:
#
# 1. Winding mu enters at area order Q^|mu| with coefficient 1/mu^2 times
#    mu^... — the leading coefficients at T=0 are +1 for mu=1 and -1 for
#    mu=-1: the series is antisymmetric under (X -> 1/X, V -> -V).
print("\nantisymmetry: c(-mu) == -c(mu) with the weight sign flipped")
for m, c in potential.items():
    mirror = m._replace(X=-m.X)
    flipped = -c * Fraction(-1) ** m.V
    assert potential.coeff(mirror) == flipped, m
print("  holds on every monomial in the window")

# 2. The same series falls out of the fixed-locus graph sums, term by term.
graph_route = disk_potential_localized(window)
assert graph_route == potential
print("\ngraph-sum route reproduces the series exactly "
      f"({sum(1 for _ in potential.items())} coefficients)")
