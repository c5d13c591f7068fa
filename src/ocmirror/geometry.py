"""Equivariant fixed-point data for the projective line.

The projective line carries the standard circle action with two fixed
points.  An equivariant cohomology class is carried by its pair of
fixed-point restrictions, each a Laurent polynomial in the equivariant
weight V (a :class:`~ocmirror.series.FormalSeries` over a wide window).  The
graph sums of :mod:`ocmirror.localization` insert the unit and the
fixed-point basis classes.

The toric surface of the other side enters the program only through two
constants of its origin fixed point: the distinguished pairing, an exact
1/v, and the Kaehler map q1 -> -Q*X^-1, q2 -> -Q*X.  Both are written into
:func:`ocmirror.correspondence.rhs_terms`; the tests recompute the
pairing from the surface's fixed-point tables and apply the map through a
general substitution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .series import FormalSeries, TruncationWindow, mono

__all__ = ["WIDE", "v_term", "P1_POINTS", "P1Class", "unit_p1", "phi_p1"]

WIDE = TruncationWindow.wide()


def v_term(c: Fraction | int, k: int = 0) -> FormalSeries:
    """The exact Laurent monomial c * V^k as a wide-window series."""
    return FormalSeries.of(Fraction(c), mono(V=k), WIDE)


P1_POINTS = (1, 2)

#: restriction pair type: (value at point 1, value at point 2)
P1Class = Tuple[FormalSeries, FormalSeries]


def unit_p1() -> P1Class:
    return (v_term(1), v_term(1))


def phi_p1(alpha: int) -> P1Class:
    """Fixed-point basis class: restriction is 1 at its own point, 0 at the other."""
    if alpha not in P1_POINTS:
        raise ValueError(f"no fixed point {alpha}")
    return (v_term(1 if alpha == 1 else 0), v_term(1 if alpha == 2 else 0))
