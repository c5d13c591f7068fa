"""Test helpers: the surface series split by the sign of each term's slope,
and the random windows of the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from ocmirror.series import TruncationWindow


def by_slope_sign(terms, sign):
    """Terms whose slope has ``sign``.

    -1 is the first-Kaehler excess (d1 > d2), +1 the second (d2 > d1),
    0 the balanced classes, the constant term among them.
    """
    return tuple(t for t in terms if (t.slope > 0) - (t.slope < 0) == sign)


@st.composite
def sweep_window(draw, top_v=2):
    """A window from the sweep ranges: max_q 0-8, max_t 0-4, max_abs_x 0-4,
    min_v -10..1 (capped at max_v), max_v -4..top_v."""
    max_v = draw(st.integers(-4, top_v))
    return TruncationWindow(
        max_q=draw(st.integers(0, 8)),
        max_t=draw(st.integers(0, 4)),
        max_abs_x=draw(st.integers(0, 4)),
        min_v=draw(st.integers(-10, min(1, max_v))),
        max_v=max_v,
    )
