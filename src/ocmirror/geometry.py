"""Equivariant fixed-point data for the projective line.

The projective line carries the standard circle action with two fixed
points.  An equivariant cohomology class is carried by its pair of
fixed-point restrictions.  Every class the graph sums of
:mod:`ocmirror.localization` insert (the fixed-point basis classes, and the
unit, which the class rows take as 1) restricts to an exact monomial c * V^k
in the equivariant weight V at each point, carried as the pair (c, k).

The toric surface of the other side enters the program only through two
constants of its origin fixed point: the distinguished pairing, an exact
1/v, and the Kaehler map q1 -> -Q*X^-1, q2 -> -Q*X.  Both are written
into each class's ladder by :func:`ocmirror.correspondence._rhs_walk`; the
tests recompute the pairing from the surface's fixed-point tables and
apply the map through a general substitution.
"""

from __future__ import annotations

from numbers import Rational
from typing import Tuple

__all__ = ["P1_POINTS", "Restriction", "P1Class", "phi_p1"]

P1_POINTS = (1, 2)

#: a fixed-point restriction c * V^k, as (c, k)
Restriction = Tuple[Rational, int]

#: restriction pair type: (value at point 1, value at point 2)
P1Class = Tuple[Restriction, Restriction]


def phi_p1(alpha: int) -> P1Class:
    """Fixed-point basis class: restriction is 1 at its own point, 0 at the other."""
    if alpha not in P1_POINTS:
        raise ValueError(f"no fixed point {alpha}")
    return ((1 if alpha == 1 else 0, 0), (1 if alpha == 2 else 0, 0))
