"""Test helper: the surface series split by the sign of each term's slope."""

from __future__ import annotations


def by_slope_sign(terms, sign):
    """Terms whose slope has ``sign``.

    -1 is the first-Kaehler excess (d1 > d2), +1 the second (d2 > d1),
    0 the balanced classes, the constant term among them.
    """
    return tuple(t for t in terms if (t.slope > 0) - (t.slope < 0) == sign)
