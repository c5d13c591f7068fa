"""Second routes to kernel results for the tests, written over the public API.

The ``fraction_*`` functions are the kernel's expansions computed the direct
way, one ``Fraction`` per coefficient, and handed to the validated
constructor; the kernel itself stores integer numerators over one common
denominator, so these are an independent check of its rescaling and
reduction.  ``z_slice``, ``z_coeff_split`` and ``phi_k_coeff`` are
presentations of the surface series that only the tests read.

The module is not named ``oracles``: pytest imports it by its bare name, and
``perfbench/oracles.py`` is imported the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, List, Tuple

from ocmirror.series import (
    Expansion,
    FormalSeries,
    LinearFactorTerm,
    Monomial,
    TruncationWindow,
    mono,
)

Pairs = List[Tuple[Monomial, Fraction]]


def z_slice(s: FormalSeries, z_exp: int) -> FormalSeries:
    """Sub-series of terms whose Z-exponent equals ``z_exp``, Z divided out."""
    shift = Monomial(Z=-z_exp)
    return FormalSeries([(m * shift, c) for m, c in s.items() if m.Z == z_exp], s.window)


# ---------------------------------------------------------------------------
# the kernel's expansions, one Fraction per coefficient
# ---------------------------------------------------------------------------


def fraction_series_exp(c, m: Monomial, window: TruncationWindow) -> FormalSeries:
    """exp(c·m): the loop over the powers of m, coefficients c^n/n! as Fractions."""
    c = Fraction(c)
    pairs: Pairs = []
    power, coefficient, n = Monomial(), Fraction(1), 0
    while coefficient and window.contains(power):
        pairs.append((power, coefficient))
        n += 1
        power, coefficient = power * m, coefficient * c / n
    return FormalSeries(pairs, window)


def fraction_expand_factor(
    term: LinearFactorTerm, mode: Expansion, window: TruncationWindow
) -> FormalSeries:
    """``expand_factor`` with each ladder coefficient c·slope^±k a Fraction."""
    c, m, slope = term.coefficient, term.monomial, term.slope
    pairs: Pairs = []
    if mode is Expansion.Z_OVER_V:
        if slope == 0:
            return FormalSeries([(m, c)], window)
        k = 0
        while True:
            mm = m * Monomial(V=-k, Z=k)
            if mm.V < window.min_v or mm.Z > window.max_z:
                break
            pairs.append((mm, c * slope**k))
            k += 1
        return FormalSeries(pairs, window)
    j = 1
    while True:
        mm = m * Monomial(V=j, Z=-j)
        if mm.V > window.max_v or mm.Z < window.min_z:
            break
        pairs.append((mm, -c * slope**-j))
        j += 1
    return FormalSeries(pairs, window)


def fraction_bessel_first_kind(
    order: int, arg_coeff, arg_mono: Monomial, window: TruncationWindow
) -> FormalSeries:
    """I_order on ``arg_coeff * arg_mono``, each (x/2)^e/(m!(m+order)!) a Fraction."""
    half = Fraction(arg_coeff) / 2
    pairs: Pairs = []
    m = 0
    while True:
        e = 2 * m + order
        if e * arg_mono.bounded_mass > window.mass_budget:
            break
        if m + order >= 0:
            pairs.append((arg_mono**e, half**e / (factorial(m) * factorial(m + order))))
        m += 1
    return FormalSeries(pairs, window)


def fraction_z_coeff(
    terms: Iterable[LinearFactorTerm], m: int, window: TruncationWindow
) -> FormalSeries:
    """``z_coeff`` with each coefficient·slope^k/l! a Fraction."""
    pairs: Pairs = []
    for t in terms:
        z = t.monomial.Z
        for l in range(window.max_t + 1):
            k = l - m - z
            if k < 0 or (k and not t.slope):
                continue
            out = t.monomial * mono(T=l, V=-k, Z=-z)
            pairs.append((out, t.coefficient * t.slope**k / factorial(l)))
    return FormalSeries(pairs, window)


# ---------------------------------------------------------------------------
# presentations of the surface series that only the tests read
# ---------------------------------------------------------------------------


def z_coeff_split(
    terms: Iterable[LinearFactorTerm], m: int, window: TruncationWindow
) -> Tuple[FormalSeries, FormalSeries]:
    """Regrouped presentation of the z/v-direction ``z_coeff``: (boundary, bulk).

    The bulk drops the k >= 0 constraint on the expansion index, which turns
    each sloped term into an unconstrained ladder (the shape that resums into
    Bessel functions); the boundary is minus the spilled k < 0 part — finitely
    many monomials of positive V-power (V-power m-1 at most, so the window
    must admit it).  By construction boundary + bulk == z_coeff; the tests
    freeze the boundary monomials (e.g. -q1*v and +q2*v at m = 2) and check
    the identity against the honest extraction.
    """
    boundary: Pairs = []
    bulk: Pairs = []
    for t in terms:
        for l in range(window.max_t + 1):
            lc = t.coefficient / factorial(l)
            if t.slope == 0:
                if t.monomial.Z - l == -m:
                    bulk.append((t.monomial * mono(T=l, Z=-t.monomial.Z), lc))
                continue
            k = l - m - t.monomial.Z
            out = t.monomial * mono(T=l, V=-k, Z=-t.monomial.Z)
            contribution = lc * t.slope**k
            bulk.append((out, contribution))
            if k < 0:
                boundary.append((out, -contribution))
    return FormalSeries(boundary, window), FormalSeries(bulk, window)


def phi_k_coeff(k: int, m: int, window: TruncationWindow) -> FormalSeries:
    """z^(-m)-coefficient of the k-th inverse-weight expansion coefficient.

    The second-excess terms (slope > 0), read as a series in 1/v at large
    weight, have coefficients phi_k whose z-expansion is

        sum_{l + 2d + mu = k + m, mu >= 1}
            (t0^l / l!) * (-1)^mu * mu^k / (d! (d+mu)!) * q1^d q2^(d+mu),

    a finite sum inside any window.  ``m`` may be negative down to 1 - k:
    for k >= 2 the scale coefficient genuinely carries positive z-powers
    (d = 0, mu < k).  These are the exact counterparts of the floating-point
    evaluations in :mod:`ocmirror.asymptotics`.
    """
    if k < 0:
        raise ValueError("the inverse-weight index is nonnegative")
    pairs: Pairs = []
    for l in range(min(k + m, window.max_t) + 1):
        for d in range((k + m - l) // 2 + 1):
            mu = k + m - l - 2 * d
            if mu < 1 or 2 * d + mu > window.max_q:
                continue
            c = Fraction((-1) ** mu * mu**k) / (factorial(l) * factorial(d) * factorial(d + mu))
            pairs.append((mono(T=l, q1=d, q2=d + mu), c))
    return FormalSeries(pairs, window)
