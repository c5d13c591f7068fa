"""Second routes to the program's results, for the tests, over the public API.

The program builds each quantity one way; the routes here build the same
quantities another way, and the tests assert that the two agree.

* ``series_sum`` and ``series_exp``, the sum of many series over one lcm
  and the exponential of a monomial, which the routes here build on; the
  program writes its series down as raw terms instead.  ``v_term`` and
  ``v_series`` turn the graph sums' exact values c * V^k, which the
  program carries as pairs (c, k), into wide-window series.  The kernel
  helpers the program does not use live here too: ``bounded_mass``,
  ``monomial_power``, ``zero_series``, ``one_series`` and ``scale``.
* ``LinearFactorTerm``, a term coeff * monomial * v/(v - slope*z) with one
  ``Fraction`` coefficient, which the routes here take; ``factor_terms``
  and ``linear_terms`` convert to and from the program's integer
  ``FactorTerm``.
* ``bessel_first_kind``, the modified Bessel series I_n on a monomial
  argument, and ``disk_potential_by_product``, the disk potential as
  exp(mu*t0/v) times the scaled Bessel series, one series product per
  winding summed over their lcm; the program writes each coefficient down
  directly instead.
* The ``fraction_*`` functions are the kernel's expansions computed the
  direct way, one ``Fraction`` per coefficient, and handed to the validated
  constructor; the kernel itself stores integer numerators over one common
  denominator, so these are an independent check of its rescaling and
  reduction.  ``fraction_expand_factor`` is the only expansion of a linear
  factor into its z/v or v/z ladder.
* ``disk_terms`` and ``rhs_terms``, both sides of the identity in one list
  each; the program walks them one Q-power slice at a time, and
  ``rhs_terms`` builds the right side whole, every class in one
  extraction.  ``whole_table`` prints a ``disk`` or ``rhs`` table from such
  a list the way the command line did before it streamed: summed per
  monomial and sorted by ``lowest_terms``, then one ``json.dumps`` or CSV
  text of the whole table.  ``whole_ifunction_table`` prints an
  ``ifunction`` table the same way from every class.
* ``rhs_slices``, the right side's slices by the three-stage route: every
  class built by ``surface_series_terms``, paired and sent to winding
  variables by ``_paired_in_winding_variables``, then read off the window
  by ``z_coeff_ladders``; the program writes each class's ladder directly
  when its slice is reached.
* ``z_coeff_terms``, the expansion of ``z_coeff_ladders`` into raw terms;
  the program's tables write each ladder's rungs instead, each reduced
  from the one before.
* ``z_coeff``, ``exceptional_correction`` and ``rhs_assemble`` are the
  program's raw terms (``z_coeff_terms``, ``correction_terms``,
  ``rhs_terms``) made into series, the form the tests compare.
* ``z_slice``, ``z_coeff_split`` and ``phi_k_coeff`` are presentations of
  the surface series that only the tests read.
* The toric surface's fixed-point data: polynomials in its torus weights
  u1, u2 (``UPoly``), unreduced sums of their fractions
  (``SymbolicPairing``), the ray, cone, charge, flag-weight, divisor and
  hyperplane tables, and the fixed-point pairing, which recomputes the
  distinguished pairing that ``rhs_terms`` writes as 1/v.
* The general substitution of rational multiples of monomials for
  variables (``substitute``, and ``substitute_terms`` on unexpanded
  terms), and ``KAEHLER``, the map that trades the surface's Kaehler
  parameters for winding/area variables; with the pairing it rebuilds the
  right side another way.  ``truncated`` re-truncates a series.
* The general surface resolver reads each curve class off the divisor
  restriction tables and resolves it by partial fractions; the closed form
  of ``ocmirror.closed.surface_series_terms`` is checked against it.
  ``unfloored_surface_terms`` is that closed form without the degree floor
  ``ifunction`` passes it: every class from degree 0.
* The reduced curve series J~ of the projective line, as a series in v/z
  and at z = c*v in three forms (products, factorial quotients, Bessel), and
  its degree parts rebuilt from the closed descendant graph sums
  (``closed_descendant``, which sums each class's summand).
* The vertex integrals of the graph sums with each 1/(w - psi) expanded
  in its ladder, one term per weak composition of the psi budget
  (``vertex_integral_by_ladder``), against the program's closed form read
  in the same weights (``vertex_integral``).
* ``validate_graph``, the shape checks of a decorated tree, which the
  enumeration meets by construction, and ``canonical_key``, the complete
  isomorphism invariant the dedupe oracle sorts every labeled decoration
  by; the program keys only the trees it walks up to their automorphisms.
* The Pruefer walk over every labeled 2-coloured tree (``walk_blocks``)
  and the first tree of each bare shape in it (``walk_shapes``): the
  program grows its shape catalogue by leaf extension instead, and for
  V <= 4 keeps the walk's trees.
* The string recursion for the psi integrals, and the equivariant pairing
  on the line with its Euler weights, hyperplane class and dual basis.

The module is not named ``oracles``: pytest imports it by its bare name, and
``perfbench/oracles.py`` is imported the same way.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm
from numbers import Rational
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from ocmirror.cli import F_COLUMNS, SLICE_COLUMNS
from ocmirror.closed import (
    FactorTerm,
    Ladder,
    expand_ladders,
    surface_series_terms,
    z_coeff_ladders,
)
from ocmirror.correspondence import correction_terms, disk_slices
from ocmirror.geometry import P1_POINTS, P1Class, Restriction, phi_p1, unit_p1
from ocmirror.localization import (
    DecoratedGraph,
    _edge_adjacency,
    _graph_contribution,
    _markings_by_vertex,
    _rooted_key,
    _rooted_order,
    _vertex_scalar,
    _with_factors,
    enumerate_graph_classes,
)
from ocmirror.series import (
    MAX_MASS_BUDGET,
    ONE,
    VARIABLES,
    FormalSeries,
    Monomial,
    RawTerm,
    TruncationWindow,
    _clip,
    _exact,
    _from_raw,
    _reduced,
    lowest_terms,
    mono,
)

Pairs = List[Tuple[Monomial, Fraction]]

WIDE = TruncationWindow.wide()


def v_term(c, k: int = 0) -> FormalSeries:
    """The exact Laurent monomial c * V^k as a wide-window series."""
    return FormalSeries({mono(V=k): Fraction(c)}, WIDE)


def v_series(values: Iterable[Tuple[Rational, int]]) -> FormalSeries:
    """The sum of the monomials c * V^k, given as (c, k) pairs, as a wide-window series."""
    return FormalSeries([(mono(V=k), c) for c, k in values], WIDE)


# ---------------------------------------------------------------------------
# series and monomial helpers the program does not use
# ---------------------------------------------------------------------------


def bounded_mass(m: Monomial) -> int:
    """Total exponent in the directions every window bounds from above.

    Q, T, q1, q2 never carry negative exponents (no window admits them),
    so any monomial of positive mass escapes every finite window under
    repeated powers; this is the termination certificate of an
    exponential or a hypergeometric series in such a monomial.
    """
    return m.Q + m.T + m.q1 + m.q2


def monomial_power(m: Monomial, n: int) -> Monomial:
    """m^n: every exponent times n."""
    return Monomial(*(a * n for a in m))


def zero_series(window: TruncationWindow) -> FormalSeries:
    return FormalSeries({}, window)


def one_series(window: TruncationWindow) -> FormalSeries:
    return FormalSeries({ONE: 1}, window)


def scale(s: FormalSeries, c: Rational, m: Monomial = ONE) -> FormalSeries:
    """s times the single term c·m (cheaper than a full ``*``)."""
    c = _exact(c)
    p, den = c.numerator, s._den * c.denominator
    contains = s.window.contains
    out: Dict[Monomial, int] = {}
    for mm, n in s._nums.items():
        mm = mm * m
        if contains(mm):
            out[mm] = n * p
    return _reduced(out, den, s.window)


# ---------------------------------------------------------------------------
# the sum and the exponential of series
# ---------------------------------------------------------------------------


def series_sum(parts: Iterable[FormalSeries], window: TruncationWindow) -> FormalSeries:
    """Sum of ``parts`` over the lcm of their denominators, accumulated in one dict.

    Equal to folding ``+`` over ``zero_series(window)`` and the parts:
    the result window is the intersection of ``window`` with every part's
    window, and a part whose window is larger is clipped to it.
    """
    parts = list(parts)
    w = window
    for p in parts:
        w = w.intersect(p.window)
    den = lcm(*{p._den for p in parts})
    acc: Dict[Monomial, int] = {}
    get = acc.get
    for p in parts:
        f = den // p._den
        for m, n in p._nums.items():
            acc[m] = get(m, 0) + n * f
    if any(p.window != w for p in parts):
        acc = _clip(acc, w)
    return _reduced(acc, den, w)


def series_exp(c: Rational, m: Monomial, window: TruncationWindow) -> FormalSeries:
    """exp(c·m) = sum_n c^n/n! · m^n in ``window``, for m of positive bounded mass.

    The mass condition (m strictly increases the jointly bounded-above
    grading Q + T + q1 + q2) guarantees that m^n leaves the window once n
    exceeds the window's mass budget, so the exponential is a finite sum.
    Every exponent of m^n moves linearly in n, so when the window holds
    1 = m^0 a power that leaves it never comes back, and the sum stops at
    the first power outside; a window without 1 gives zero, as repeated
    truncated multiplication does.  A monomial violating the mass condition
    — the constant 1, or a pure V/Z/X monomial whose powers could wander
    inside the window forever — is rejected.
    """
    if bounded_mass(m) <= 0:
        raise ValueError(f"series_exp argument {m} does not increase the bounded grading")
    if window.mass_budget > MAX_MASS_BUDGET:
        raise ValueError("series_exp needs a finite window (mass budget too large)")
    c = _exact(c)
    p, q = c.numerator, c.denominator
    raw: List[RawTerm] = []
    power, num, den, n = ONE, 1, 1, 0
    while num and window.contains(power):
        raw.append((power, num, den))
        n += 1
        power, num, den = power * m, num * p, den * q * n
    return _from_raw(raw, window)


# ---------------------------------------------------------------------------
# both sides of the identity whole, and the tables printed whole
# ---------------------------------------------------------------------------


def disk_terms(window: TruncationWindow) -> List[RawTerm]:
    """The disk potential's raw terms, every Q-power slice in one list."""
    return [t for s in disk_slices(window) for t in s]


def _paired_in_winding_variables(t: FactorTerm) -> FactorTerm:
    """The pairing's 1/v times ``t``, with q1 -> -Q*X^-1 and q2 -> -Q*X.

    q1^d1 q2^d2 Z^e goes to (-1)^(d1+d2) Q^(d1+d2) X^(d2-d1) V^-1 Z^e; the
    factor v/(v - slope*z) involves neither map.  Since d1 + d2 and
    |d2 - d1| have the same parity, the sign cancels the closed form's.
    """
    m, num, den, slope = t
    d1, d2 = m.q1, m.q2
    mapped = Monomial(Q=d1 + d2, X=d2 - d1, V=-1, Z=m.Z)
    return FactorTerm(mapped, -num if (d1 + d2) % 2 else num, den, slope)


def rhs_slices(
    window: TruncationWindow, corrupt_correction: bool = False
) -> Iterator[Tuple[List[Ladder], List[RawTerm]]]:
    """The right side by Q-power as ``correspondence._rhs_walk`` yields it,
    by the three-stage route it replaced: every class built whole by
    ``surface_series_terms``, paired and mapped, then each degree's ladders
    read off the window by ``z_coeff_ladders``."""
    classes: Dict[int, List[FactorTerm]] = {}
    for t in surface_series_terms(window, window.max_abs_x, 1 - window.min_v):
        classes.setdefault(-t.monomial.Z, []).append(_paired_in_winding_variables(t))
    correction = correction_terms(window, corrupt_correction)
    top = min(window.max_q, 1 - window.min_v) if window.min_z <= 0 <= window.max_z else -1
    for e in range(top + 1):
        extra = [c for c in correction if c[0].Q == e]
        yield z_coeff_ladders(classes.get(e, []), 2, window), extra


def rhs_terms(window: TruncationWindow, corrupt_correction: bool = False) -> List[RawTerm]:
    """The right side's raw terms in one list, built whole.

    Every class through one ``z_coeff_terms`` call, then the correction
    appended: the route before the right side was walked one Q-power slice
    at a time, so its terms are in no particular order and the correction
    repeats monomials of the slice.
    """
    classes = surface_series_terms(window, window.max_abs_x, 1 - window.min_v)
    mapped = [_paired_in_winding_variables(t) for t in classes]
    return z_coeff_terms(mapped, 2, window) + correction_terms(window, corrupt_correction)


def unfloored_surface_terms(
    window: TruncationWindow, max_abs_slope: int, max_degree: int, min_degree: int
) -> Tuple[FactorTerm, ...]:
    """``surface_series_terms`` with every class from degree 0, whatever
    ``min_degree`` asks: the classes ``ifunction`` built before its floor."""
    return surface_series_terms(window, max_abs_slope, max_degree)


def _printed(columns: Sequence[str], rows: List[tuple], fmt: str) -> str:
    """``json.dumps`` of all the rows as dicts, or their CSV lines."""
    if fmt == "json":
        return json.dumps([dict(zip(columns, r)) for r in rows], sort_keys=True, indent=2) + "\n"
    return "".join(",".join(map(str, r)) + "\n" for r in [columns, *rows])


def whole_table(raw: Iterable[RawTerm], fmt: str) -> str:
    """A ``disk`` or ``rhs`` table printed whole, as before it streamed.

    The raw terms summed per monomial in lowest terms, which sorts them,
    then printed in one piece.
    """
    rows = [(m.X, m.Q, m.T, m.V, f"{n}/{d}") for m, n, d in lowest_terms(raw)]
    return _printed(F_COLUMNS, rows, fmt)


def whole_ifunction_table(zcoeff: int, max_q: int, max_t: int, min_v: int, fmt: str) -> str:
    """An ``ifunction`` table printed whole, as before its rows came from ladders.

    Every curve class of degree up to ``max_q`` through one
    ``z_coeff_terms`` call, its terms summed per monomial in lowest terms,
    which sorts them, then printed in one piece.
    """
    window = TruncationWindow(max_q=max_q, max_t=max_t, max_abs_x=0, min_v=min_v, max_v=1)
    raw = z_coeff_terms(surface_series_terms(window, max_q, max_q), zcoeff, window)
    rows = [(m.T, m.q1, m.q2, m.V, f"{n}/{d}") for m, n, d in lowest_terms(raw)]
    return _printed(SLICE_COLUMNS, rows, fmt)


# ---------------------------------------------------------------------------
# re-truncation, and the program's raw terms as series
# ---------------------------------------------------------------------------


def truncated(s: FormalSeries, window: TruncationWindow) -> FormalSeries:
    """``s`` re-truncated to ``window``: its terms through the validated constructor."""
    return FormalSeries(s.items(), window)


def z_coeff_terms(terms: Sequence[FactorTerm], m: int, window: TruncationWindow) -> List[RawTerm]:
    """Raw terms of the z^(-m) coefficient of e^(t0/z) * sum(terms), in the
    kernel's order for one degree's classes in winding variables: the
    expansion of ``z_coeff_ladders``, as the program wrote them before its
    tables read the ladders rung by rung."""
    return expand_ladders(z_coeff_ladders(terms, m, window))


def z_coeff(terms: Sequence[FactorTerm], m: int, window: TruncationWindow) -> FormalSeries:
    """Coefficient of z^(-m) in e^(t0/z) * sum(terms) as a series; see ``z_coeff_terms``."""
    return _from_raw(z_coeff_terms(terms, m, window), window)


def exceptional_correction(window: TruncationWindow) -> FormalSeries:
    """The four-monomial correction added to the descendant slice, as a series."""
    return _from_raw(correction_terms(window), window)


def rhs_assemble(window: TruncationWindow) -> FormalSeries:
    """The descendant-slice side of the identity as a series; see ``rhs_terms``."""
    return _from_raw(rhs_terms(window), window)


def z_slice(s: FormalSeries, z_exp: int) -> FormalSeries:
    """Sub-series of terms whose Z-exponent equals ``z_exp``, Z divided out."""
    shift = Monomial(Z=-z_exp)
    return FormalSeries([(m * shift, c) for m, c in s.items() if m.Z == z_exp], s.window)


# ---------------------------------------------------------------------------
# unexpanded linear factors with a Fraction coefficient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFactorTerm:
    """A term ``coefficient * monomial * v/(v - slope*z)``, factor unexpanded.

    ``slope == 0`` means the factor is identically 1.  The program carries
    the same term as an integer ``ocmirror.closed.FactorTerm``;
    :func:`factor_terms` and :func:`linear_terms` convert between the two.
    """

    coefficient: Fraction
    monomial: Monomial
    slope: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", _rational(self.coefficient))
        object.__setattr__(self, "slope", _rational(self.slope))


def factor_terms(terms: Iterable[LinearFactorTerm]) -> List[FactorTerm]:
    """``terms`` as the program's integer terms, for ``z_coeff``."""
    return [
        FactorTerm(t.monomial, t.coefficient.numerator, t.coefficient.denominator, t.slope)
        for t in terms
    ]


def linear_terms(terms: Iterable[FactorTerm]) -> Tuple[LinearFactorTerm, ...]:
    """The program's integer terms with one ``Fraction`` coefficient each."""
    return tuple(LinearFactorTerm(Fraction(t.num, t.den), t.monomial, t.slope) for t in terms)


# ---------------------------------------------------------------------------
# the expansions, one Fraction per coefficient
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
    term: LinearFactorTerm, window: TruncationWindow, *, v_over_z: bool = False
) -> FormalSeries:
    """The factor v/(v - c*z) of ``term`` expanded, each coefficient a Fraction.

    In the z/v direction, v/(v-cz) = sum_{k>=0} c^k (z/v)^k; for c = 0 the
    factor is literally 1.  In the v/z direction (``v_over_z``),
    v/(v-cz) = -(v/cz) * sum_{j>=0} (v/cz)^j = -sum_{j>=1} c^-j (v/z)^j,
    which needs c != 0.  Both ladders stop at the window's V and Z bounds.

    The overall sign of the v/z ladder is easy to get wrong; the tests pin
    both directions by the telescoping identities

        expand(t, z/v) * (1 - c z/v) == t-without-factor     exactly, and
        expand(t, v/z) * (v - c z)   == v * t-without-factor exactly,

    inside any window: the single boundary monomial of the telescope falls
    outside the window on the correct side in each direction.  A second pin:
    with these signs the v/z expansion of the surface hypergeometric series
    starts 1 + t0/z + O(z^-2), as it must for a cohomology-valued series of
    that shape.
    """
    c, m, slope = term.coefficient, term.monomial, term.slope
    pairs: Pairs = []
    if not v_over_z:
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
    if slope == 0:
        raise ValueError("slope-0 factor has no v/z expansion")
    j = 1
    while True:
        mm = m * Monomial(V=j, Z=-j)
        if mm.V > window.max_v or mm.Z < window.min_z:
            break
        pairs.append((mm, -c * slope**-j))
        j += 1
    return FormalSeries(pairs, window)


def expand_terms(terms: Iterable[LinearFactorTerm], window: TruncationWindow) -> FormalSeries:
    """Sum of the z/v expansions of ``terms``."""
    return series_sum([fraction_expand_factor(t, window) for t in terms], window)


def bessel_first_kind(
    order: int, arg_coeff: Fraction | int, arg_mono: Monomial, window: TruncationWindow
) -> FormalSeries:
    """I_order evaluated on the monomial argument ``arg_coeff * arg_mono``.

    Implements sum_{m >= 0} (x/2)^(2m+order) / (m! * Gamma(m+order+1)) with
    the reciprocal-Gamma convention: summands whose Gamma argument is a
    nonpositive integer vanish.  The order symmetry I_n == I_(-n) is then a
    consequence of the index shift, not an input (and is pinned in tests).
    Built from raw terms over one lcm, as the program builds its series.
    """
    if bounded_mass(arg_mono) <= 0:
        raise ValueError("bessel argument monomial must increase the bounded grading")
    half = Fraction(arg_coeff) / 2
    p, q = half.numerator, half.denominator
    raw = []
    m = 0
    while True:
        e = 2 * m + order
        if e * bounded_mass(arg_mono) > window.mass_budget:
            break
        if m + order >= 0:  # reciprocal Gamma kills the rest
            mm = monomial_power(arg_mono, e)  # distinct for distinct e: arg_mono has positive mass
            if window.contains(mm):
                raw.append((mm, p**e, q**e * factorial(m) * factorial(m + order)))
        m += 1
    return _from_raw(raw, window)


def disk_potential_by_product(window: TruncationWindow) -> FormalSeries:
    """The disk potential as a sum of series products, one per winding.

    Each winding mu is exp(mu*t0/v) times (v/mu^2) * I_mu(2*mu*sqrt(q)/v) *
    X^mu, each factor a truncated series, and the windings are summed over
    the lcm of their denominators.  The program writes every coefficient
    down directly instead (``disk_potential_bessel``).  The factors are built
    in a window with one more V-step below the floor and a V ceiling of at
    least 0, since the Bessel series comes before its V-shift by v.
    """
    work = replace(window, min_v=window.min_v - 1, max_v=max(window.max_v, 0))

    def winding(mu: int) -> FormalSeries:
        bessel = bessel_first_kind(mu, 2 * mu, Monomial(Q=1, V=-1), work)
        scaled = scale(bessel, Fraction(1, mu * mu), Monomial(X=mu, V=1))
        return series_exp(mu, mono(T=1, V=-1), work) * scaled

    windings = range(-window.max_abs_x, window.max_abs_x + 1)
    return series_sum((winding(mu) for mu in windings if mu != 0), window)


def fraction_bessel_first_kind(
    order: int, arg_coeff, arg_mono: Monomial, window: TruncationWindow
) -> FormalSeries:
    """I_order on ``arg_coeff * arg_mono``, each (x/2)^e/(m!(m+order)!) a Fraction."""
    half = Fraction(arg_coeff) / 2
    pairs: Pairs = []
    m = 0
    while True:
        e = 2 * m + order
        if e * bounded_mass(arg_mono) > window.mass_budget:
            break
        if m + order >= 0:
            power = monomial_power(arg_mono, e)
            pairs.append((power, half**e / (factorial(m) * factorial(m + order))))
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


# ---------------------------------------------------------------------------
# the toric surface: polynomials in the torus weights u1, u2
# ---------------------------------------------------------------------------


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
        return FormalSeries(
            [(mono(V=i + j), c * (-1) ** i) for (i, j), c in self.terms.items()], WIDE
        )

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
        out = zero_series(WIDE)
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
            out = out + scale(ns, 1 / dc, mono(V=-dm.V))
        return out


# ---------------------------------------------------------------------------
# the toric surface: rays, cones, charges and fixed-point restrictions
# ---------------------------------------------------------------------------
#
# A smooth toric surface with rays (0,1), (1,0), (-1,1), (1,-1) and three
# torus-fixed points, acted on by a two-torus with weight lattice generated
# by u1, u2.  The circle embedding u1 -> -V, u2 -> V kills the Euler classes
# of two of the three fixed points.  Specializing a pairing is legal exactly
# when every addend with a vanishing specialized denominator already has a
# vanishing specialized numerator, which is what happens for the
# distinguished pairing: the origin point class restricts to zero at the two
# bad points before specialization.

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


def distinguished_pairing_prefactor() -> FormalSeries:
    """The scalar ⟨-, u1 * (origin point-basis class)⟩ applied to a class
    restricting to 1 at the origin point and arbitrary elsewhere.

    The origin basis class kills the two singular points symbolically, so the
    specialization is regular; the result is the overall 1/V of the
    correspondence, computed through the pairing machinery.
    """
    unit: SurfaceClass = (UPoly.term(1), UPoly.term(1), UPoly.term(1))
    weighted = tuple(_U1 * r for r in point_basis_class(0))
    return pairing_surface(unit, weighted).specialize()


# ---------------------------------------------------------------------------
# the general substitution
# ---------------------------------------------------------------------------

Images = Mapping[str, Tuple[Fraction | int, Monomial]]

#: the Kaehler parameters in winding/area variables
KAEHLER: Images = {"q1": (Fraction(-1), mono(Q=1, X=-1)), "q2": (Fraction(-1), mono(Q=1, X=1))}


def substitute(s: FormalSeries, images: Images) -> FormalSeries:
    """Replace each variable in ``images`` by a rational multiple of a monomial.

    ``images`` maps a variable name to ``(c, m)``, read as var ↦ c·m.  A
    variable raised to a negative power needs c != 0.  Variables not listed
    are left alone.  Each term of ``s`` is mapped exactly, and the result is
    re-truncated to the window of ``s``.  That makes ``substitute`` a ring
    homomorphism only where truncation cannot drop a term the map would
    bring back into the window, i.e. in Q, T, q1 and q2: with |X| <= 3,
    ``substitute(X^2*X^2, {X: (-1, Q)})`` is 0 but the square of
    ``substitute(X^2, ...)`` is Q^4.  To map the terms of an expansion before
    expanding, use :func:`substitute_terms`.
    """
    image = _monomial_image(images)
    pairs: Pairs = []
    for m, c in s.items():
        mm, ic = image(m)
        if ic:
            pairs.append((mm, c * ic))
    return FormalSeries(pairs, s.window)


def substitute_terms(
    terms: Iterable[LinearFactorTerm], images: Images
) -> List[LinearFactorTerm]:
    """Each term with ``images`` applied to its coefficient·monomial, untruncated.

    The map is :func:`substitute`'s, term by term; a term whose image is zero
    is dropped.  The factor v/(v - slope·z) is kept as it is, so V and Z
    cannot be replaced.
    """
    if {"V", "Z"} & set(images):
        raise ValueError("V and Z occur in the linear factor; they cannot be substituted")
    image = _monomial_image(images)
    out: List[LinearFactorTerm] = []
    for t in terms:
        mm, ic = image(t.monomial)
        if ic:
            out.append(LinearFactorTerm(t.coefficient * ic, mm, t.slope))
    return out


def _rational(c: object) -> Fraction:
    """An image coefficient as a ``Fraction``; inexact ones are refused."""
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__} {c!r}")
    return Fraction(c)


def _monomial_image(images: Images) -> Callable[[Monomial], Tuple[Monomial, Fraction]]:
    """m ↦ its image as (monomial, coefficient); coefficient 0 if the image is 0."""
    bad = set(images) - set(VARIABLES)
    if bad:
        raise ValueError(f"unknown variables: {sorted(bad)}")
    # (variable index, name, image coefficient, image monomial, cache of the
    # image powers by exponent)
    subs = [
        (VARIABLES.index(name), name, _rational(ic), im, {})
        for name, (ic, im) in images.items()
    ]

    def image(m: Monomial) -> Tuple[Monomial, Fraction]:
        mm, c = m, Fraction(1)
        for i, name, ic, im, powers in subs:
            e = m[i]
            if e == 0:
                continue
            power = powers.get(e)
            if power is None:
                power = powers[e] = _image_power(i, name, ic, im, e)
            shift, pc = power
            if not pc:
                return Monomial(), pc  # a zero image kills the term
            mm, c = mm * shift, c * pc
        return mm, c

    return image


def _image_power(
    i: int, name: str, ic: Fraction, im: Monomial, e: int
) -> Tuple[Monomial, Fraction]:
    """var_i^e ↦ (ic·im)^e as (monomial shift consuming var_i^e, coefficient)."""
    if ic == 0:
        if e < 0:
            raise ValueError(f"cannot raise zero image of {name} to power {e}")
        return Monomial(), ic
    shift = list(monomial_power(im, e))
    shift[i] -= e
    return Monomial(*shift), ic**e


# ---------------------------------------------------------------------------
# the general surface resolver: one curve class from the divisor tables
# ---------------------------------------------------------------------------


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
    num = [(_specialized_r(p), j) for p, j in data.numerator]
    den = [(_specialized_r(p), j) for p, j in data.denominator]

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


# ---------------------------------------------------------------------------
# the reduced curve series J~ of the projective line
# ---------------------------------------------------------------------------


def _sign(alpha: int) -> int:
    """Sign of the tangent weight at a fixed point of the line: -v at 1, +v at 2."""
    if alpha == 1:
        return -1
    if alpha == 2:
        return 1
    raise ValueError(f"no fixed point {alpha}")


def j_reduced_component(alpha: int, window: TruncationWindow) -> FormalSeries:
    """Reduced curve series at a fixed point, as a Laurent series in v/z.

    J~(alpha) = e^(t0/z) * sum_d q^d / (d! z^d * prod_{m=1..d} (D + m z)),
    with D = -v at point 1 and +v at point 2.  (The extra monomial
    prefactor q^(D/2z) of the unreduced series is not a Laurent series in
    the carried variables.)  Degree d carries Q^(2d); each factor
    1/(D + m z) is expanded in the v/z direction, so the output involves
    V^(j-1) Z^(-j) ladders and the window's V-ceiling controls the retained
    depth.
    """
    eps = _sign(alpha)
    prefactor = series_exp(1, mono(T=1, Z=-1), window)
    total = zero_series(window)
    d_max = window.max_q // 2
    for d in range(d_max + 1):
        part = FormalSeries({mono(Q=2 * d, Z=-d): Fraction(1, factorial(d))}, window)
        for m in range(1, d + 1):
            # 1/(eps*v + m*z) = eps * v^-1 * [v / (v - (-eps*m) z)]
            factor = LinearFactorTerm(Fraction(eps), mono(V=-1), Fraction(-eps * m))
            part = part * fraction_expand_factor(factor, window, v_over_z=True)
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
    total = zero_series(window)
    for d in range(d_max + 1):
        denom = Fraction(factorial(d)) * c**d
        for m in range(1, d + 1):
            denom *= eps + m * c
        total = total + FormalSeries({mono(Q=2 * d, V=-2 * d): 1 / denom}, window)
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
    pairs: Pairs = []
    m = 0
    while 2 * m + mu <= window.max_q:
        pairs.append(
            (
                mono(Q=2 * m + mu, V=-2 * m),
                Fraction(mu ** (2 * m) * factorial(mu), factorial(m) * factorial(m + mu)),
            )
        )
        m += 1
    return prefactor * FormalSeries(pairs, window)


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
    c = Fraction(eps, mu) ** mu * factorial(mu)
    bess = bessel_first_kind(mu, 2 * eps * mu, mono(Q=1, V=-1), window)
    return scale(prefactor * bess, c, mono(V=mu))


def closed_descendant(insertions: Sequence[Tuple[P1Class, int]], d: int) -> FormalSeries:
    """Equivariant genus-zero descendant invariant of degree d >= 1.

    ``insertions`` lists (restriction pair, psi exponent) per marking; the
    result is an exact V-Laurent polynomial, the sum of each class's summand.
    """
    graphs = _with_factors(enumerate_graph_classes(len(insertions), d))
    summands = (_graph_contribution(g, insertions, factors) for g, factors in graphs)
    return v_series((Fraction(num, den), k) for num, den, k in summands)


def j_degree_part_from_graphs(alpha: int, d: int, window: TruncationWindow) -> FormalSeries:
    """Degree-d part of the reduced curve series rebuilt from graph sums:

        Q^(2d) * (Euler weight at alpha) * sum_a <1, phi_alpha psi^a> z^(-a-1),

    the a-range bounded by the window's z-floor.  Matches the t0-free part of
    :func:`j_reduced_component` degree by degree.
    """
    sign = _sign(alpha)
    parts = (
        scale(
            closed_descendant([(unit_p1(), 0), (phi_p1(alpha), a)], d),
            Fraction(sign),
            mono(Q=2 * d, V=1, Z=-a - 1),
        )
        for a in range(-window.min_z)
    )
    return series_sum((truncated(p, window) for p in parts), window)


# ---------------------------------------------------------------------------
# decorated trees and the vertex integrals by their ladder
# ---------------------------------------------------------------------------


def validate_graph(g: DecoratedGraph) -> None:
    """Raise ``ValueError`` unless g is a decorated tree of the line."""
    V = len(g.labels)
    if any(l not in P1_POINTS for l in g.labels):
        raise ValueError("labels must be fixed points 1 or 2")
    if len(g.edges) != V - 1:
        raise ValueError("a tree on V vertices has V-1 edges")
    for u, v, de in g.edges:
        if not 0 <= u < v < V:
            raise ValueError("edge endpoints must be ordered vertex indices")
        if de < 1:
            raise ValueError("edge degrees are positive")
        if g.labels[u] == g.labels[v]:
            raise ValueError("adjacent vertices map to the same fixed point")
    neighbours: Dict[int, List[int]] = {v: [] for v in range(V)}
    for u, v, _ in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = {0} if V else set()
    frontier = [0]
    while frontier:
        for u in neighbours[frontier.pop()]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    if len(seen) != V:
        raise ValueError("graph is not connected")
    if any(not 0 <= m < V for m in g.markings):
        raise ValueError("marking on a missing vertex")


def canonical_key(g: DecoratedGraph) -> tuple:
    """Isomorphism-class invariant of a decorated tree, complete: the key
    ``_rooted_key`` gives the tree rooted as ``_rooted_order`` roots it,
    at its center."""
    V = len(g.labels)
    order = _rooted_order(g.labels, _edge_adjacency(V, g.edges))
    degrees = [de for *_, de in g.edges]
    return _rooted_key(g.labels, order, degrees, _markings_by_vertex(V, g.markings))[0]


def _pruefer_to_edges(seq: Sequence[int], V: int) -> List[Tuple[int, int]]:
    degree = [1] * V
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(V) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(tuple(sorted(leaves)))  # the two vertices left
    return edges


def _labeled_trees(V: int) -> Iterator[List[Tuple[int, int]]]:
    """Every labeled tree on V >= 2 vertices, in the order of its Pruefer
    sequence, its edges in the order the sequence decodes them."""
    return (_pruefer_to_edges(seq, V) for seq in itertools.product(range(V), repeat=V - 2))


def _bipartition_labels(V: int, edges: Sequence[Tuple[int, int]], root_label: int) -> tuple:
    """The 2-colouring of a tree with vertex 0 at ``root_label``."""
    labels = [0] * V
    labels[0] = root_label
    adj = _edge_adjacency(V, edges)
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u, _ in adj[v]:
            if labels[u] == 0:
                labels[u] = 3 - labels[v]
                frontier.append(u)
    return tuple(labels)


def walk_blocks(V: int) -> Iterator[Tuple[List[Tuple[int, int]], tuple]]:
    """The Pruefer walk: every labeled tree with vertex 0 at point 1 and then
    at point 2, as (tree, labels) blocks."""
    for tree in _labeled_trees(V):
        for root_label in P1_POINTS:
            yield tree, _bipartition_labels(V, tree, root_label)


def shape_key(tree: Sequence[Tuple[int, int]], labels: tuple) -> tuple:
    """The :func:`canonical_key` of a 2-coloured tree with unit degrees."""
    return canonical_key(DecoratedGraph(labels, tuple((u, v, 1) for u, v in tree)))


def walk_shapes(V: int) -> Tuple[Tuple[tuple, tuple], ...]:
    """The first block (tree, labels) of each bare shape in the whole Pruefer
    walk, in walk order, with no early stop."""
    shapes: Dict[tuple, Tuple[tuple, tuple]] = {}
    for tree, labels in walk_blocks(V):
        shapes.setdefault(shape_key(tree, labels), (tuple(tree), labels))
    return tuple(shapes.values())


def _inverse(weight: Rational) -> Fraction:
    """1/weight, refused at zero as the ladder refuses it."""
    if not weight:
        raise ValueError("zero flag weight")
    return 1 / Fraction(weight)


def vertex_integral(
    flag_weights: Sequence[Fraction],
    marking_exponents: Sequence[int] = (),
    open_weight: Fraction | None = None,
) -> FormalSeries:
    """The program's closed-form vertex integral, in the ladder's signature:
    each weight inverted, as the graph sums carry their flags."""
    weights = list(flag_weights) + ([open_weight] if open_weight is not None else [])
    num, den, k = _vertex_scalar([_inverse(w) for w in weights], list(marking_exponents))
    return v_term(Fraction(num, den), k)


def vertex_integral_by_ladder(
    flag_weights: Sequence[Fraction],
    marking_exponents: Sequence[int] = (),
    open_weight: Fraction | None = None,
) -> FormalSeries:
    """Moduli integral at one vertex, every 1/(w - psi) expanded in its ladder.

    Stable case: the sum over weak compositions k of the budget
    B = N-3 - sum a of (N-3)!/(prod a! prod k!) * prod w_f^-(k_f+1), one
    Fraction per term, against :func:`vertex_integral`'s multinomial closed
    form.  Unstable cases take the conventions of the
    ``ocmirror.localization`` docstring, written in the weights themselves.
    """
    ladder = [Fraction(w) for w in flag_weights]
    if open_weight is not None:
        ladder.append(Fraction(open_weight))
    if any(w == 0 for w in ladder):
        raise ValueError("zero flag weight")
    exps = list(marking_exponents)
    n_special = len(ladder) + len(exps)
    if n_special >= 3:
        budget = n_special - 3 - sum(exps)
        if budget < 0:
            return v_term(0)
        norm = Fraction(factorial(n_special - 3))
        for a in exps:
            norm /= factorial(a)
        scalar = Fraction(0)
        for ks in itertools.product(range(budget + 1), repeat=len(ladder)):
            if sum(ks) == budget:
                c = norm
                for k, w in zip(ks, ladder):
                    c /= factorial(k) * w ** (k + 1)
                scalar += c
        return v_term(scalar, -(budget + len(ladder)))
    if n_special == 1 and len(ladder) == 1:
        return v_term(ladder[0], 1)
    if n_special == 2:
        if len(ladder) == 2:
            return v_term(1 / (ladder[0] + ladder[1]), -1)
        if len(ladder) == 1 and len(exps) == 1:
            return v_term((-ladder[0]) ** exps[0], exps[0])
    raise ValueError(
        f"no convention for a vertex with {len(ladder)} flags and {len(exps)} markings"
    )


# ---------------------------------------------------------------------------
# the string recursion and the pairing on the line
# ---------------------------------------------------------------------------


def euler_p1(point: int) -> Restriction:
    """Euler weight of the tangent line at a fixed point: -V at 1, +V at 2."""
    return _sign(point), 1


def hyperplane_p1() -> P1Class:
    """Equivariant hyperplane class, restrictions -V/2 and +V/2."""
    return (Fraction(-1, 2), 1), (Fraction(1, 2), 1)


def phi_dual_p1(alpha: int) -> P1Class:
    """Pairing-dual of phi: the Euler weight concentrated at the point."""
    e = euler_p1(alpha)
    zero = (0, 0)
    return (e, zero) if alpha == 1 else (zero, e)


def psi_integral_by_string(exponents: Sequence[int]) -> Fraction:
    """Independent oracle: pull marked points off with the string equation."""
    n = len(exponents)
    if n < 3:
        raise ValueError("need at least three marked points")
    if sum(exponents) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)  # dimension zero forces all exponents to vanish
    exps = list(exponents)
    i = exps.index(0)  # exists: sum < n
    rest = exps[:i] + exps[i + 1 :]
    total = Fraction(0)
    for j, a in enumerate(rest):
        if a >= 1:
            total += psi_integral_by_string(rest[:j] + [a - 1] + rest[j + 1 :])
    return total


def pairing_p1(a: P1Class, b: P1Class) -> FormalSeries:
    """Equivariant intersection pairing: sum over fixed points of a*b/Euler."""
    return v_series(
        (ca * cb * _sign(alpha), ka + kb - 1)  # 1/(+-v) = +-v^-1
        for alpha, (ca, ka), (cb, kb) in zip(P1_POINTS, a, b)
    )


def integral_p1(a: P1Class) -> FormalSeries:
    """Equivariant pushforward to a point (pairing against the unit)."""
    return pairing_p1(a, unit_p1())
