"""The headline identity, and what breaks when you perturb it.

The sphere-side series is assembled in four moves: extract the second
descendant slice of the surface series, pair against the distinguished
divisor direction, substitute the two area variables by ∓(square-root area
times winding), and add a four-monomial exceptional correction.  The result
must equal the disk potential coefficient-for-coefficient — exactly, with
tolerance zero.

Run:  python3 demos/02_correspondence_check.py
"""

import json

from ocmirror.correspondence import run_check
from ocmirror.series import TruncationWindow

window = TruncationWindow(max_q=8, max_t=4, max_abs_x=4, min_v=-8, max_v=1)

# the honest run: both sides built independently, compared slice by slice
# as T-ladders (one geometric run mu^l/l! per winding), a slice whose
# ladders differ, or that the correction joins, term by term
report = run_check(window)
print("honest run:")
print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
assert report.passed and report.diff.is_zero()

# the mutation run: flip the sign of the weight^-1 slice of the correction.
# The diff is nonzero and sits entirely at weight exponent -1 — the
# correction is pinned by the low-order coefficients, not a free knob.
report = run_check(window, corrupt_correction=True)
print("\ncorrupted-correction run:")
assert not report.passed
for row in report.diff_rows():
    print(f"  leftover: X^{row['X']} Q^{row['Q']} T^{row['T']} "
          f"V^{row['V']}  ->  {row['value']}")
    assert row["V"] == -1
print("every leftover monomial carries weight exponent -1, as it must")
