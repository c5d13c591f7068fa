"""Closed-string generating series for the right side of the correspondence.

Curve side: the reduced genus-zero descendant potential of the projective
line is hypergeometric,

    J~(alpha) = e^(t0/z) * sum_d q^d / (d! z^d * prod_{m=1..d} (D + m z)),

with D = -v at fixed point 1 and +v at fixed point 2.  At z = +v/mu (point
2) or -v/mu (point 1) it collapses to a Bessel function of the first kind
of integer order mu — the identity that seeds the disk potential, whose
coefficients :mod:`ocmirror.correspondence` writes down in closed form.  The
series J~, its evaluation routes and the Bessel series itself are test
oracles.

Surface side: the origin-cone restriction of the toric surface's
hypergeometric series under the circle embedding u1 -> -V, u2 -> V.  At the
origin one closed form gives every curve class (d1, d2): a single
v/(v - mu z) term whose slope mu = d2 - d1 is the signed Kaehler excess,
which the Kaehler map turns into the winding X^mu.  The tests check it
term by term against a general resolver, which reads each class off the
surface's divisor restriction tables and resolves it by partial fractions.

A term is carried as a ``FactorTerm``, ``(monomial, num, den, slope)`` for
num/den * monomial * v/(v - slope*z), the factor kept unexpanded; slope 0
means the factor is 1.  The one expansion the program makes is in the z/v
direction, v/(v-cz) = sum_{k>=0} (cz/v)^k.

Extraction: ``z_coeff_ladders`` takes the coefficient of a fixed power
z^(-m) of the exponential-prefactored sum of such terms, expanding every
factor in the z/v direction.  The prefactor's T^l/l! and the factor's
(slope z/v)^k move together, so each term contributes one *ladder* (see
``Ladder``): a geometric run in l, over l!.  This honest extraction
keeps only nonnegative expansion indices; the tests check it against the
expanded product itself and against a regrouped presentation (boundary
monomials such as -q1*v plus an unconstrained resummation).  It reads
the range of each ladder off the window.  It serves ``ifunction`` and
the tests' route to the right side of the correspondence, which writes
its z^-2 ladders straight from each class instead.  ``expand_ladders``
writes ladders as raw ``(monomial, numerator, denominator)`` terms,
where the right side of the correspondence adds its correction to them
or ``check`` compares them by value; the tables write each ladder's
rungs straight from it, each reduced from the one before.  The disk
potential's exp(mu*t0/v) dressing is a ladder too, so one expansion
writes both sides of the correspondence.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple

from .series import Monomial, RawTerm, TruncationWindow, _tuple_new

__all__ = [
    "FactorTerm",
    "Ladder",
    "expand_ladders",
    "surface_series_terms",
    "z_coeff_ladders",
]


class FactorTerm(NamedTuple):
    """``num/den * monomial * v/(v - slope*z)``, the factor unexpanded (den > 0)."""

    monomial: Monomial
    num: int
    den: int
    slope: int


#: (Q, T0, X, V0, q1, q2, num, den, lo, hi, a): for each l in [lo, hi], the
#: term num*a^(l-lo) / (den*l!) at Q^Q T^(T0+l) X^X V^(V0-l) q1^q1 q2^q2,
#: with 0 <= lo and den > 0
Ladder = Tuple[int, int, int, int, int, int, int, int, int, int, int]


def _factorials(n: int) -> List[int]:
    """[0!, 1!, ..., n!]."""
    return list(accumulate(range(1, n + 1), mul, initial=1))


# ===========================================================================
# surface side: the origin-cone series in closed form, one term per curve class
# ===========================================================================


def surface_series_terms(
    window: TruncationWindow, max_abs_slope: int, max_degree: int, min_degree: int = 0
) -> Tuple[FactorTerm, ...]:
    """Origin-restricted specialized surface series, window-complete.

    One term per curve class (d1, d2) with d1 + d2 at most the window's
    ``max_q``, its joint q1+q2 cap, at most ``max_degree`` (a negative one
    keeps no class) and at least ``min_degree``, and |d2 - d1| at most
    ``max_abs_slope`` (``max_q`` or more keeps every class).  With the
    signed Kaehler excess mu = d2 - d1 and d = min(d1, d2), the term is

        (-1)^|mu| / (d! (d+|mu|)!) * q1^d1 q2^d2 * z^-(d1+d2) * v/(v - mu z);

    balanced classes (mu = 0, the constant 1 among them) have the factor 1.
    Since {d, d+|mu|} = {d1, d2}, the denominator is d1! d2!.  The Kaehler
    substitution sends the term to the winding X^mu, so its slope is also
    its winding.  The terms come by degree d1 + d2, and within a degree by
    slope upwards.  The identity with the general resolver term by term is
    part of the test suite.
    """
    cap = min(window.max_q, max_degree)
    facts = _factorials(cap)
    terms: List[FactorTerm] = []
    for e in range(max(min_degree, 0), cap + 1):
        top = min(max_abs_slope, e)
        top -= (e - top) % 2  # mu has the parity of d1 + d2 = e
        for mu in range(-top, top + 1, 2):
            d1, d2 = (e - mu) // 2, (e + mu) // 2
            monomial = _tuple_new(Monomial, (0, 0, 0, 0, -e, d1, d2))
            sign = -1 if mu % 2 else 1
            terms.append(_tuple_new(FactorTerm, (monomial, sign, facts[d1] * facts[d2], mu)))
    return tuple(terms)


# ===========================================================================
# coefficient extraction in z
# ===========================================================================


def expand_ladders(ladders: Sequence[Ladder]) -> List[RawTerm]:
    """The raw terms of ``ladders``: l outer, the ladders inside it in list order.

    So ladders given by winding, or by a degree's classes mapped to winding
    variables, come out in the kernel's order (T, then X).  Equal ladder
    lists give equal term lists."""
    raw: List[RawTerm] = []
    if not ladders:
        return raw
    nums = [ladder[6] for ladder in ladders]  # each ladder's running numerator
    facts = _factorials(max(ladder[9] for ladder in ladders))
    for l in range(min(ladder[8] for ladder in ladders), len(facts)):
        f = facts[l]
        for i, (Q, t0, x, v, q1, q2, _, den, lo, hi, a) in enumerate(ladders):
            if lo <= l <= hi:
                monomial = _tuple_new(Monomial, (Q, t0 + l, x, v - l, 0, q1, q2))
                raw.append((monomial, nums[i], den * f))
                nums[i] *= a
    return raw


def z_coeff_ladders(
    terms: Sequence[FactorTerm], m: int, window: TruncationWindow
) -> List[Ladder]:
    """The ladders of the z^(-m) coefficient of e^(t0/z) * sum(terms), factors expanded in z/v.

    The exponential prefactor is the origin restriction of the full monomial
    prefactor (the hyperplane-dependent exponent vanishes there), so each
    term gains T^l/l! alongside z^(-l), and the expansion index is
    k = l - m - Z(term), giving slope^k V^-k: one ladder per term, of ratio
    slope.  The window coordinates that do not move with l (Q, X, q1, q2
    and the stripped Z) are checked once per term; l then runs only where
    k >= 0 (k = 0 for a slope-0 factor, which is 1), T <= max_t and V - k
    lies in [min_v, max_v].  So every term of a ladder lies inside
    ``window``; a term of the input whose z-power is z^-D reaches the slice
    only if D <= m - min_v + V(term).  The ladders keep the input's order.
    """
    ladders: List[Ladder] = []
    if not window.min_z <= 0 <= window.max_z:  # Z is stripped from every output
        return ladders
    max_q, max_t, max_x = window.max_q, window.max_t, window.max_abs_x
    min_v, max_v = window.min_v, window.max_v
    for monomial, p, q, slope in terms:
        Q, t0, x, v, z, q1, q2 = monomial
        if Q > max_q or abs(x) > max_x or min(Q, q1, q2) < 0 or q1 + q2 > max_q:
            continue
        shift = m + z  # k = l - shift
        lo = max(0, -t0, shift, shift + v - max_v)
        hi = min(max_t - max(t0, 0), shift + v - min_v)
        if not slope:
            hi = min(hi, shift)
        if lo <= hi:
            num = p * slope ** (lo - shift)
            ladders.append((Q, t0, x, v + shift, q1, q2, num, q, lo, hi, slope))
    return ladders
