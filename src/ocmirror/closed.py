"""Closed-string generating series for both sides of the correspondence.

Curve side: the reduced genus-zero descendant potential of the projective
line.  The exact solution is hypergeometric,

    J~(alpha) = e^(t0/z) * sum_d q^d / (d! z^d * prod_{m=1..d} (D + m z)),

with D = -v at fixed point 1 and +v at fixed point 2.  (The extra monomial
prefactor q^(D/2z) of the unreduced series is not a Laurent series in the
carried variables; callers that specialize z to a rational multiple of v
account for it as an explicit Q-power.)  At z = c*v the series collapses to
exact V-Laurent scalars per degree, and for c = +1/mu (point 2) or -1/mu
(point 1) it is a Bessel function of the first kind of integer order mu — the
identity that seeds the disk potential.

Surface side: the origin-cone restriction of the toric surface's
hypergeometric series under the circle embedding u1 -> -V, u2 -> V.  Each
curve class (d1, d2) contributes a product of linear-factor ratios read off
the divisor restriction tables (:mod:`ocmirror.geometry`); after
specialization the product collapses to a finite combination of
v/(v - c z) factors, computed here by exact cancellation plus partial
fractions in t = v/z.  At the origin one closed form gives every class: a
single v/(v - mu z) term whose slope mu = d2 - d1 is the signed Kaehler
excess, which the Kaehler substitution turns into the winding X^mu.  It is
cross-checked against the general resolver in the tests.

Extraction: ``z_coeff`` takes the coefficient of a fixed power z^(-m) of the
exponential-prefactored sum of linear-factor terms, expanding every factor in
the z/v direction.  This honest extraction keeps only nonnegative expansion
indices; the tests check it against a regrouped presentation (boundary
monomials such as -q1*v plus an unconstrained resummation) and against the
inverse-weight coefficients of the asymptotic expansion.

``bessel_first_kind`` and ``z_coeff`` build their series from raw
``(monomial, numerator, denominator)`` terms through the kernel's single-lcm
assembly, as the expansions of :mod:`ocmirror.series` do.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Iterable, List, Sequence, Tuple

from .geometry import CHARGES, SURFACE_POINTS, UPoly, divisor_restriction
from .series import (
    Expansion,
    FormalSeries,
    LinearFactorTerm,
    Monomial,
    TruncationWindow,
    _from_raw,
    _tuple_new,
    expand_factor,
    mono,
    series_exp,
)

__all__ = [
    "bessel_first_kind",
    "j_reduced_component",
    "j_reduced_at",
    "j_bessel_form",
    "SurfaceTermFactors",
    "surface_term_symbolic",
    "surface_term_specialized",
    "surface_series_terms",
    "z_coeff",
]


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
# curve side: reduced J-components
# ===========================================================================


def _sign(alpha: int) -> int:
    if alpha == 1:
        return -1
    if alpha == 2:
        return 1
    raise ValueError(f"no fixed point {alpha}")


def j_reduced_component(alpha: int, window: TruncationWindow) -> FormalSeries:
    """Reduced curve series at a fixed point, as a Laurent series in v/z.

    Degree d carries Q^(2d); each factor 1/(D + m z) is expanded in the
    v/z direction, so the output involves V^(j-1) Z^(-j) ladders and the
    window's V-ceiling controls the retained depth.
    """
    eps = _sign(alpha)
    prefactor = series_exp(1, mono(T=1, Z=-1), window)
    total = FormalSeries.zero(window)
    d_max = window.max_q // 2
    for d in range(d_max + 1):
        part = FormalSeries.of(
            Fraction(1, factorial(d)), mono(Q=2 * d, Z=-d), window
        )
        for m in range(1, d + 1):
            # 1/(eps*v + m*z) = eps * v^-1 * [v / (v - (-eps*m) z)]
            factor = LinearFactorTerm(Fraction(eps), mono(V=-1), Fraction(-eps * m))
            part = part * expand_factor(factor, Expansion.V_OVER_Z, window)
        total = total + part
    return prefactor * total


def j_reduced_at(alpha: int, c: Fraction, window: TruncationWindow) -> FormalSeries:
    """Reduced curve series with z evaluated at the point c*v, exactly.

    Valid off the poles: c must avoid -eps/m for every degree m the window
    admits.  Each degree contributes a scalar multiple of Q^(2d) V^(-2d); no
    expansion is involved, so no truncation error either.
    """
    eps = _sign(alpha)
    c = Fraction(c)
    if c == 0:
        raise ValueError("z -> 0 is not a regular point of the reduced series")
    d_max = window.max_q // 2
    for m in range(1, d_max + 1):
        if eps + m * c == 0:
            raise ValueError(f"z = ({c})*v hits the pole at degree factor m={m}")
    prefactor = series_exp(1 / c, mono(T=1, V=-1), window)
    total = FormalSeries.zero(window)
    for d in range(d_max + 1):
        denom = Fraction(factorial(d)) * c**d
        for m in range(1, d + 1):
            denom *= eps + m * c
        total = total + FormalSeries.of(1 / denom, mono(Q=2 * d, V=-2 * d), window)
    return prefactor * total


def j_gamma_form(alpha: int, mu: int, window: TruncationWindow) -> FormalSeries:
    """Factorial-quotient form of Q^mu * J~(alpha) at z = (eps/mu) v, mu >= 1.

        e^(eps mu t0/v) * sum_m  mu^(2m) mu! / (m! (m+mu)!) * Q^(2m+mu) V^(-2m)

    The per-degree product of linear factors collapses to a single ratio of
    factorials; this is an independent route between :func:`j_reduced_at`
    (products, no collapse) and :func:`j_bessel_form` (Bessel machinery).
    """
    if mu < 1:
        raise ValueError("winding order must be positive here")
    eps = _sign(alpha)
    prefactor = series_exp(eps * mu, mono(T=1, V=-1), window)
    acc: Dict[Monomial, Fraction] = {}
    m = 0
    while 2 * m + mu <= window.max_q:
        mm = mono(Q=2 * m + mu, V=-2 * m)
        if window.contains(mm):
            acc[mm] = Fraction(
                mu ** (2 * m) * factorial(mu), factorial(m) * factorial(m + mu)
            )
        m += 1
    return prefactor * FormalSeries(acc, window)


def j_bessel_form(alpha: int, mu: int, window: TruncationWindow) -> FormalSeries:
    """Bessel-function form of Q^mu * J~(alpha) at z = (eps/mu) v, mu >= 1.

    point 2:  e^( mu t0/v) * ( v/mu)^mu * mu! * I_mu( 2 mu sqrt(q) / v)
    point 1:  e^(-mu t0/v) * (-v/mu)^mu * mu! * I_mu(-2 mu sqrt(q) / v)

    written with (x/2) = ±mu*Q/V so every power is an exact monomial.
    """
    if mu < 1:
        raise ValueError("winding order must be positive here")
    eps = _sign(alpha)
    prefactor = series_exp(eps * mu, mono(T=1, V=-1), window)
    scale = Fraction(eps, mu) ** mu * factorial(mu)
    bess = bessel_first_kind(mu, 2 * eps * mu, mono(Q=1, V=-1), window)
    return (prefactor * bess).scale(scale, mono(V=mu))


# ===========================================================================
# surface side: hypergeometric terms from the divisor tables
# ===========================================================================


@dataclass(frozen=True)
class SurfaceTermFactors:
    """Unreduced factor data of one curve-class term at one fixed point.

    ``numerator``/``denominator`` hold (restriction, j) pairs standing for
    the linear form (restriction + j*z); restrictions are u1,u2-polynomials.
    The term's value is q1^d1 q2^d2 times the factor ratio.
    """

    degrees: Tuple[int, int]
    point: int
    numerator: Tuple[Tuple[UPoly, int], ...]
    denominator: Tuple[Tuple[UPoly, int], ...]


def surface_term_symbolic(d1: int, d2: int, point: int) -> SurfaceTermFactors:
    """Factor data for curve class (d1, d2) >= 0 at a fixed point, unspecialized."""
    if d1 < 0 or d2 < 0 or point not in SURFACE_POINTS:
        raise ValueError("effective curve classes and valid fixed points only")
    num: List[Tuple[UPoly, int]] = []
    den: List[Tuple[UPoly, int]] = []
    for i in range(1, 5):
        a = CHARGES[i - 1][0] * d1 + CHARGES[i - 1][1] * d2
        r = divisor_restriction(i, point)
        if a >= 0:
            den.extend((r, j) for j in range(1, a + 1))
        else:
            num.extend((r, j) for j in range(a + 1, 1))
    return SurfaceTermFactors((d1, d2), point, tuple(num), tuple(den))


def _specialized_r(p: UPoly) -> Fraction:
    """A restriction as a multiple of v under u1 -> -V, u2 -> V (all are linear)."""
    s = p.specialize()
    if s.is_zero():
        return Fraction(0)
    ((m, c),) = s.items()
    if m != mono(V=1):
        raise ValueError("divisor restriction did not specialize to a multiple of v")
    return c


def surface_term_specialized(d1: int, d2: int, point: int) -> Tuple[LinearFactorTerm, ...]:
    """One curve-class term under the circle embedding, fully resolved.

    Cancels identical linear factors between numerator and denominator
    exactly, splits off scalar factors (j z), and resolves what remains by
    partial fractions in t = v/z (the specialized roots are pairwise
    distinct, which is asserted).  Returns a tuple of unexpanded linear
    factor terms summing to the term's value; the empty tuple means the term
    vanishes identically (a numerator factor specialized to zero).
    """
    data = surface_term_symbolic(d1, d2, point)
    num = [( _specialized_r(p), j) for p, j in data.numerator]
    den = [( _specialized_r(p), j) for p, j in data.denominator]

    # exact multiset cancellation of common (r, j) factors
    cnum, cden = Counter(num), Counter(den)
    common = cnum & cden
    cnum -= common
    cden -= common

    coeff = Fraction(1)
    z_exp = 0
    num_poly = [Fraction(1)]  # polynomial in t = v/z, ascending coefficients
    den_roots: List[Fraction] = []
    for (r, j), k in sorted(cnum.items()):
        for _ in range(k):
            if r == 0 and j == 0:
                return ()  # the factor is identically zero
            if r == 0:
                coeff *= j
                z_exp += 1
            else:
                # factor (r v + j z) = r z (t + j/r)
                coeff *= r
                z_exp += 1
                num_poly = _poly_mul_linear(num_poly, Fraction(j, r))
    for (r, j), k in sorted(cden.items()):
        for _ in range(k):
            if r == 0 and j == 0:
                raise ZeroDivisionError("vanishing denominator factor")
            if r == 0:
                coeff /= j
                z_exp -= 1
            else:
                coeff /= r
                z_exp -= 1
                den_roots.append(Fraction(-j, r))
    if len(set(den_roots)) != len(den_roots):
        raise AssertionError("specialized denominator roots must be distinct")

    base = mono(q1=d1, q2=d2)
    out: List[LinearFactorTerm] = []
    quot, residues = _partial_fractions(num_poly, den_roots)
    # polynomial part: sum_m g_m t^m = sum_m g_m v^m z^-m
    for m, g in enumerate(quot):
        if g != 0:
            out.append(
                LinearFactorTerm(coeff * g, base * mono(V=m, Z=z_exp - m), Fraction(0))
            )
    # residue part: res/(t - tau) = res * (z/v) * [v/(v - tau z)]
    for tau, res in residues:
        if res != 0:
            out.append(
                LinearFactorTerm(coeff * res, base * mono(V=-1, Z=z_exp + 1), tau)
            )
    return tuple(out)


def _poly_mul_linear(p: Sequence[Fraction], c: Fraction) -> List[Fraction]:
    """Multiply an ascending-coefficient polynomial in t by (t + c)."""
    out = [Fraction(0)] * (len(p) + 1)
    for i, a in enumerate(p):
        out[i] += a * c
        out[i + 1] += a
    return out


def _partial_fractions(
    num: Sequence[Fraction], roots: Sequence[Fraction]
) -> Tuple[List[Fraction], List[Tuple[Fraction, Fraction]]]:
    """num(t) / prod (t - root) as (quotient poly, [(root, residue)]).

    Roots must be pairwise distinct.  Uses division for the polynomial part
    and residue evaluation num(root)/prod(root - other) for the rest.
    """
    den = [Fraction(1)]
    for r in roots:
        den = _poly_mul_linear(den, -r)
    quot, rem = _poly_divmod(list(num), den)
    residues = []
    for r in roots:
        val = _poly_eval(rem, r)
        for other in roots:
            if other != r:
                val /= r - other
        residues.append((r, val))
    return quot, residues


def _poly_divmod(num: List[Fraction], den: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] += c
        for i, dcoef in enumerate(den):
            num[shift + i] -= c * dcoef
        num.pop()
    return q, num or [Fraction(0)]


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


# --- the origin-cone series in closed form: one term per curve class ------


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
