"""The headline identity, and what breaks when you perturb it.

The sphere-side series is assembled in four moves: extract the second
descendant slice of the surface series, pair against the distinguished
divisor direction, substitute the two area variables by ∓(square-root area
times winding), and add a four-monomial exceptional correction.  The result
must equal the disk potential coefficient-for-coefficient — exactly, with
tolerance zero.

Run:  python3 demos/02_correspondence_check.py
"""

from ocmirror import cli
from ocmirror.correspondence import run_check
from ocmirror.series import TruncationWindow

window = TruncationWindow(max_q=8, max_t=4, max_abs_x=4, min_v=-8, max_v=1)

# the honest run: both sides built independently, compared slice by slice
# as T-ladders (one geometric run mu^l/l! per winding), a slice whose
# ladders differ, or that the correction joins, term by term.  The CLI
# prints the report on this window and exits 0 on exact equality.
print("honest run:")
code = cli.main(["check", "--max-q", "8", "--max-t", "4", "--max-mu", "4", "--min-v", "-8"])
assert code == 0

# the mutation run: flip the sign of the weight^-1 slice of the correction.
# The diff is nonzero and sits entirely at weight exponent -1 — the
# correction is pinned by the low-order coefficients, not a free knob.
report = run_check(window, corrupt_correction=True)
print("\ncorrupted-correction run:")
assert not report.passed
for m, c in report.diff.items():
    print(f"  leftover: X^{m.X} Q^{m.Q} T^{m.T} V^{m.V}  ->  {c.numerator}/{c.denominator}")
    assert m.V == -1
print("every leftover monomial carries weight exponent -1, as it must")
