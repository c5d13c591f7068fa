"""Closed-string generating series for both sides of the correspondence.

Curve side: the reduced genus-zero descendant potential of the projective
line is hypergeometric,

    J~(alpha) = e^(t0/z) * sum_d q^d / (d! z^d * prod_{m=1..d} (D + m z)),

with D = -v at fixed point 1 and +v at fixed point 2.  At z = +v/mu (point
2) or -v/mu (point 1) it collapses to a Bessel function of the first kind
of integer order mu — the identity that seeds the disk potential, and the
one curve-side series this module builds (``bessel_first_kind``).  The
series J~ itself and its evaluation routes are test oracles.

Surface side: the origin-cone restriction of the toric surface's
hypergeometric series under the circle embedding u1 -> -V, u2 -> V.  At the
origin one closed form gives every curve class (d1, d2): a single
v/(v - mu z) term whose slope mu = d2 - d1 is the signed Kaehler excess,
which the Kaehler map turns into the winding X^mu.  The tests check it
term by term against a general resolver, which reads each class off the
surface's divisor restriction tables and resolves it by partial fractions.

Extraction: ``z_coeff`` takes the coefficient of a fixed power z^(-m) of the
exponential-prefactored sum of linear-factor terms, expanding every factor in
the z/v direction.  This honest extraction keeps only nonnegative expansion
indices; the tests check it against the expanded product itself and against
a regrouped presentation (boundary monomials such as -q1*v plus an
unconstrained resummation).

``bessel_first_kind`` and ``z_coeff`` build their series from raw
``(monomial, numerator, denominator)`` terms through the kernel's single-lcm
assembly, as the expansions of :mod:`ocmirror.series` do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, List, Tuple

from .series import (
    FormalSeries,
    LinearFactorTerm,
    Monomial,
    TruncationWindow,
    _from_raw,
    _tuple_new,
    mono,
)

__all__ = ["bessel_first_kind", "surface_series_terms", "z_coeff"]


# ===========================================================================
# Bessel functions of the first (modified) kind, integer order, exact
# ===========================================================================


def bessel_first_kind(
    order: int, arg_coeff: Fraction | int, arg_mono: Monomial, window: TruncationWindow
) -> FormalSeries:
    """I_order evaluated on the monomial argument ``arg_coeff * arg_mono``.

    Implements sum_{m >= 0} (x/2)^(2m+order) / (m! * Gamma(m+order+1)) with
    the reciprocal-Gamma convention: summands whose Gamma argument is a
    nonpositive integer vanish.  The order symmetry I_n == I_(-n) is then a
    consequence of the index shift, not an input (and is pinned in tests).
    """
    if arg_mono.bounded_mass <= 0:
        raise ValueError("bessel argument monomial must increase the bounded grading")
    half = Fraction(arg_coeff) / 2
    p, q = half.numerator, half.denominator
    raw = []
    m = 0
    while True:
        e = 2 * m + order
        if e * arg_mono.bounded_mass > window.mass_budget:
            break
        if m + order >= 0:  # reciprocal Gamma kills the rest
            mm = arg_mono**e  # distinct for distinct e: arg_mono has positive mass
            if window.contains(mm):
                raw.append((mm, p**e, q**e * factorial(m) * factorial(m + order)))
        m += 1
    return _from_raw(raw, window)


# ===========================================================================
# surface side: the origin-cone series in closed form, one term per curve class
# ===========================================================================


def surface_series_terms(
    window: TruncationWindow, max_abs_slope: int
) -> Tuple[LinearFactorTerm, ...]:
    """Origin-restricted specialized surface series, window-complete.

    One term per curve class (d1, d2) with d1 + d2 at most the window's
    ``max_q``, its joint q1+q2 cap, and |d2 - d1| at most ``max_abs_slope``
    (``max_q`` or more keeps every class).  With the signed Kaehler excess
    mu = d2 - d1 and d = min(d1, d2), the term is

        (-1)^|mu| / (d! (d+|mu|)!) * q1^d1 q2^d2 * z^-(d1+d2) * v/(v - mu z);

    balanced classes (mu = 0, the constant 1 among them) have the factor 1.
    The Kaehler substitution sends the term to the winding X^mu, so its slope
    is also its winding.  The identity with the general resolver term by term
    is part of the test suite.
    """
    cap = window.max_q
    terms: List[LinearFactorTerm] = []
    for d1 in range(cap + 1):
        for d2 in range(max(0, d1 - max_abs_slope), min(cap - d1, d1 + max_abs_slope) + 1):
            mu = d2 - d1
            d = min(d1, d2)
            c = Fraction((-1) ** abs(mu), factorial(d) * factorial(d + abs(mu)))
            terms.append(LinearFactorTerm(c, mono(q1=d1, q2=d2, Z=-(d1 + d2)), Fraction(mu)))
    return tuple(terms)


# ===========================================================================
# coefficient extraction in z
# ===========================================================================


def z_coeff(
    terms: Iterable[LinearFactorTerm], m: int, window: TruncationWindow
) -> FormalSeries:
    """Coefficient of z^(-m) in e^(t0/z) * sum(terms), factors expanded in z/v.

    The exponential prefactor is the origin restriction of the full monomial
    prefactor (the hyperplane-dependent exponent vanishes there), so each
    term gains T^l/l! alongside z^(-l).  The expansion index
    k = l - m - Z(term) must be >= 0; a slope-0 factor is 1, so it
    contributes only at k = 0.
    """
    facts = [factorial(l) for l in range(window.max_t + 1)]
    contains = window.contains
    raw = []
    for t in terms:
        coefficient, slope = t.coefficient, t.slope
        if not coefficient:
            continue
        p, q = coefficient.numerator, coefficient.denominator
        a, b = slope.numerator, slope.denominator
        Q, t0, x, v, z, q1, q2 = t.monomial  # Z is stripped from every output
        for l, f in enumerate(facts):
            k = l - m - z
            if k < 0 or (k and not a):
                continue
            out = _tuple_new(Monomial, (Q, t0 + l, x, v - k, 0, q1, q2))
            if contains(out):
                raw.append((out, p * a**k, q * f * b**k))
    return _from_raw(raw, window)
