"""Equivariant fixed-point data for the projective line and a toric surface.

Two geometries feed the correspondence:

* The projective line with the standard circle action, two fixed points.  An
  equivariant cohomology class is carried by its pair of fixed-point
  restrictions, each a Laurent polynomial in the equivariant weight V
  (a :class:`~ocmirror.series.FormalSeries` over a wide window).  The
  hyperplane class is normalized so its restrictions are -V/2 and +V/2.

* A smooth projective toric surface with rays (0,1), (1,0), (-1,1), (1,-1)
  and three torus-fixed points, acted on by a two-torus with weight lattice
  generated by u1, u2.  All tables (tangent weights, divisor and hyperplane
  restrictions, Euler classes) are polynomials in u1, u2.

The surface pairing is computed *symbolically* as a sum of polynomial
fractions, because the circle embedding used downstream, u1 -> -V, u2 -> V,
kills the Euler classes of two of the three fixed points.  Specializing a
pairing is legal exactly when every addend with a vanishing specialized
denominator already has a vanishing specialized numerator — which is what
happens for the pairings the correspondence actually needs (the distinguished
point-class supported at the origin cone restricts to zero at the two bad
points *before* specialization).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .series import FormalSeries, Monomial, TruncationWindow, mono

__all__ = [
    "UPoly",
    "SymbolicPairing",
    "WIDE",
    "v_term",
    "P1_POINTS",
    "euler_p1",
    "unit_p1",
    "hyperplane_p1",
    "phi_p1",
    "phi_dual_p1",
    "RAYS",
    "CONES",
    "CHARGES",
    "SURFACE_POINTS",
    "flag_weight",
    "euler_surface",
    "divisor_restriction",
    "hyperplane_restriction",
    "point_basis_class",
    "pairing_surface",
    "distinguished_pairing_prefactor",
]

WIDE = TruncationWindow.wide()


def v_term(c: Fraction | int, k: int = 0) -> FormalSeries:
    """The exact Laurent monomial c * V^k as a wide-window series."""
    return FormalSeries.of(Fraction(c), mono(V=k), WIDE)


# ===========================================================================
# projective line
# ===========================================================================

P1_POINTS = (1, 2)

#: restriction pair type: (value at point 1, value at point 2)
P1Class = Tuple[FormalSeries, FormalSeries]

_EULER_P1 = {1: v_term(-1, 1), 2: v_term(1, 1)}


def euler_p1(point: int) -> FormalSeries:
    """Euler weight of the tangent line at a fixed point: -V at 1, +V at 2."""
    return _EULER_P1[point]


def unit_p1() -> P1Class:
    return (v_term(1), v_term(1))


def hyperplane_p1() -> P1Class:
    """Equivariant hyperplane class, restrictions -V/2 and +V/2."""
    return (v_term(Fraction(-1, 2), 1), v_term(Fraction(1, 2), 1))


def phi_p1(alpha: int) -> P1Class:
    """Fixed-point basis class: restriction is 1 at its own point, 0 at the other."""
    if alpha not in P1_POINTS:
        raise ValueError(f"no fixed point {alpha}")
    return (v_term(1 if alpha == 1 else 0), v_term(1 if alpha == 2 else 0))


def phi_dual_p1(alpha: int) -> P1Class:
    """Pairing-dual of phi: the Euler weight concentrated at the point."""
    e = euler_p1(alpha)
    zero = v_term(0)
    return (e, zero) if alpha == 1 else (zero, e)


# ===========================================================================
# polynomials in the surface torus weights u1, u2
# ===========================================================================


class UPoly:
    """Polynomial in u1, u2 with exact rational coefficients.

    Stored sparsely as {(i, j): coefficient} for u1^i * u2^j.  Just enough
    ring structure for weight tables and pairings; nothing clever.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, int], Fraction] | None = None) -> None:
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def term(cls, c: Fraction | int, i: int = 0, j: int = 0) -> "UPoly":
        return cls({(i, j): Fraction(c)})

    @classmethod
    def u1(cls) -> "UPoly":
        return cls.term(1, 1, 0)

    @classmethod
    def u2(cls) -> "UPoly":
        return cls.term(1, 0, 1)

    def __add__(self, other: "UPoly") -> "UPoly":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, Fraction(0)) + c
        return UPoly(acc)

    def __neg__(self) -> "UPoly":
        return UPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other: "UPoly") -> "UPoly":
        acc: Dict[Tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                acc[k] = acc.get(k, Fraction(0)) + c1 * c2
        return UPoly(acc)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({} if other == 0 else {(0, 0): Fraction(other)})
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not self.terms

    def specialize(self) -> FormalSeries:
        """Image under the circle embedding u1 -> -V, u2 -> V."""
        acc: Dict[Monomial, Fraction] = {}
        for (i, j), c in self.terms.items():
            m = mono(V=i + j)
            acc[m] = acc.get(m, Fraction(0)) + c * (-1) ** i
        return FormalSeries(acc, WIDE)

    def __repr__(self) -> str:
        if not self.terms:
            return "UPoly(0)"
        bits = [f"({c})*u1^{i}*u2^{j}" for (i, j), c in sorted(self.terms.items())]
        return "UPoly(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class SymbolicPairing:
    """A sum of polynomial fractions num/den in u1, u2, kept unreduced.

    Fixed-point pairings on the surface live here until specialized; keeping
    the per-point addends separate is what makes the singular circle
    embedding safe (addends whose numerator dies before specialization never
    meet their vanishing denominator).
    """

    addends: Tuple[Tuple[UPoly, UPoly], ...]

    def _over_common_denominator(self) -> Tuple[UPoly, UPoly]:
        num = UPoly()
        den = UPoly.term(1)
        for n, d in self.addends:
            num = num * d + n * den
            den = den * d
        return num, den

    def equals(self, other: "SymbolicPairing") -> bool:
        """Exact equality as rational functions, by cross-multiplication."""
        n1, d1 = self._over_common_denominator()
        n2, d2 = other._over_common_denominator()
        return n1 * d2 == n2 * d1

    def specialize(self) -> FormalSeries:
        """Apply u1 -> -V, u2 -> V addend by addend.

        Addends whose specialized numerator vanishes are dropped; a surviving
        addend with vanishing specialized denominator is a genuine pole and
        raises.  Denominators are products of weights, so after
        specialization they are V-monomials and division is exact.
        """
        out = FormalSeries.zero(WIDE)
        for n, d in self.addends:
            ns = n.specialize()
            if ns.is_zero():
                continue
            ds = d.specialize()
            if ds.is_zero():
                raise ZeroDivisionError(
                    "pairing addend survives specialization with vanishing Euler factor"
                )
            if len(ds) != 1:
                raise NotImplementedError("specialized denominator is not a monomial")
            ((dm, dc),) = ds.items()
            out = out + ns.scale(1 / dc, mono(V=-dm.V))
        return out


# ===========================================================================
# the toric surface
# ===========================================================================

RAYS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (-1, 1), (1, -1))

#: maximal cones as pairs of ray indices (1-based); index 0 is the origin cone
CONES: Tuple[Tuple[int, int], ...] = ((1, 2), (1, 3), (2, 4))

#: intersection numbers of the four toric divisors with the two curve classes
CHARGES: Tuple[Tuple[int, int], ...] = ((-1, 1), (1, -1), (1, 0), (0, 1))

SURFACE_POINTS = (0, 1, 2)  # fixed points, indexed by their cone

_U1 = UPoly.u1()
_U2 = UPoly.u2()
_MINUS_SUM = -(_U1 + _U2)

_FLAG_WEIGHTS: Dict[Tuple[int, int], UPoly] = {
    (1, 1): _U1,
    (1, 0): -_U1,
    (2, 2): _U2,
    (2, 0): -_U2,
    (3, 1): _MINUS_SUM,
    (4, 2): _MINUS_SUM,
}

_DIVISOR_RESTRICTIONS: Dict[int, Tuple[UPoly, UPoly, UPoly]] = {
    # index by divisor; entries ordered by fixed point (0, 1, 2)
    1: (-_U2, _MINUS_SUM, UPoly()),
    2: (-_U1, UPoly(), _MINUS_SUM),
    3: (UPoly(), _U1, UPoly()),
    4: (UPoly(), UPoly(), _U2),
}

_HYPERPLANE_RESTRICTIONS: Dict[int, Tuple[UPoly, UPoly, UPoly]] = {
    1: (UPoly(), _U1, UPoly()),
    2: (UPoly(), UPoly(), _U2),
}


def flag_weight(ray: int, cone: int) -> UPoly:
    """Tangent weight of the invariant curve along ``ray`` at the cone's point."""
    try:
        return _FLAG_WEIGHTS[(ray, cone)]
    except KeyError:
        raise ValueError(f"ray {ray} is not a face of cone {cone}") from None


def euler_surface(point: int) -> UPoly:
    """Euler class of the tangent space: product of the cone's two flag weights."""
    r1, r2 = CONES[point]
    return flag_weight(r1, point) * flag_weight(r2, point)


def divisor_restriction(divisor: int, point: int) -> UPoly:
    return _DIVISOR_RESTRICTIONS[divisor][point]


def hyperplane_restriction(index: int, point: int) -> UPoly:
    """Restrictions of the two Kaehler-basis hyperplane classes."""
    return _HYPERPLANE_RESTRICTIONS[index][point]


SurfaceClass = Tuple[UPoly, UPoly, UPoly]


def point_basis_class(point: int) -> SurfaceClass:
    """Point class at a fixed point, divided by one of its two weights.

    Normalized so the restriction at its own point is the *other* weight of
    the cone: at the origin cone the divisor used is the full Euler class, so
    the restriction there is exactly 1.
    """
    rest = [UPoly(), UPoly(), UPoly()]
    if point == 0:
        rest[0] = UPoly.term(1)
    else:
        # Euler = (own weight) * (shared weight); dividing the point class by
        # the shared weight -(u1+u2) leaves the own weight as restriction.
        rest[point] = _U1 if point == 1 else _U2
    return tuple(rest)  # type: ignore[return-value]


def pairing_surface(a: SurfaceClass, b: SurfaceClass) -> SymbolicPairing:
    """Fixed-point pairing: sum over the three points of a*b/Euler, unreduced."""
    return SymbolicPairing(
        tuple((a[p] * b[p], euler_surface(p)) for p in SURFACE_POINTS)
    )


@functools.cache  # input-independent; the series is immutable
def distinguished_pairing_prefactor() -> FormalSeries:
    """The scalar ⟨-, u1 * (origin point-basis class)⟩ applied to a class
    restricting to 1 at the origin point and arbitrary elsewhere.

    The origin basis class kills the two singular points symbolically, so the
    specialization is regular; the result is the overall 1/V of the
    correspondence, computed through the pairing machinery rather than
    written down by hand.
    """
    unit: SurfaceClass = (UPoly.term(1), UPoly.term(1), UPoly.term(1))
    weighted = tuple(_U1 * r for r in point_basis_class(0))
    return pairing_surface(unit, weighted).specialize()
