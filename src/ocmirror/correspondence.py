"""Both sides of the winding/descendant coefficient identity, compared exactly.

Left side: the multiple-cover disk potential of the equivariant line —

    F = sum_{mu != 0} exp(mu*t0/v) * (v/mu^2) * I_mu(2*mu*sqrt(q)/v) * X^mu,

whose coefficient of T^l Q^(2m+|mu|) X^mu V^(1-l-2m-|mu|) is
mu^(l+2m+|mu|-2) / (l! m! (m+|mu|)!).  Written down term by term from that
closed form (fast route) or resummed from one-boundary graph sums
(independent route).

Right side: the z^-2 slice of the origin-restricted surface series, paired
against the distinguished origin class and written in winding/area
variables, plus a finite exceptional correction.  The surface series has one
term per curve class, coefficient * q1^d1 q2^d2 * z^-(d1+d2) * v/(v - mu z)
with mu = d2 - d1.  The pairing is the constant 1/v (the tests recompute it
through the surface's fixed-point pairing), and the Kaehler parameters are
traded for winding/area variables by

    q1 -> -Q * X^-1,      q2 -> -Q * X,

which sends the term to the single winding X^mu.  So only the terms with
|mu| <= max_abs_x are built, the two maps act on these few terms as one
fixed monomial map rather than on their expansion, and the z^-2 slice
(factors expanded in z/v) is extracted directly in the final variables.
Then

    Exc = -Q*X^-1 + Q*X - T^2/(2v) - Q^2/v

is added.

Both sides are lists of raw integer terms (monomial, num, den), each
written down by a loop over only the exponents the window admits.  The two
lists match term for term.  The left side's monomial
T^l Q^e X^mu V^(1-l-e), e = 2m + |mu|, comes from exactly one surface
class, (d1, d2) = ((e-mu)/2, (e+mu)/2), at expansion index k = l + e - 2,
with the same value mu^k / (l! m! (m+|mu|)!): the surface sign (-1)^|mu|
and the map's sign (-1)^(d1+d2) cancel.  Only the correction's four
monomials have no partner: Q*X^-1 and Q*X (k = -1) are on the left alone,
and the winding-0 slice T^2/(2v) + Q^2/v on the right alone, where the
correction cancels it.

``run_check`` compares the two lists term by term: identical terms cancel,
and whatever is left is summed per monomial by exact cross-multiplication,
so the check does not rely on the two builders writing a value the same
way.  The report's difference is built from the leftover terms only; the
headline assertion is that it is identically zero on every finite window.
The tables ``disk`` and ``rhs`` print the same lists, one row per monomial
in lowest terms, with no common denominator; only the left side that a
report carries is built as a series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from .closed import FactorTerm, _factorials, surface_series_terms, z_coeff_terms
from .localization import _open_classes, _open_sum
from .series import (
    MAX_MASS_BUDGET,
    FormalSeries,
    Monomial,
    RawTerm,
    TruncationWindow,
    _from_raw,
    _tuple_new,
    lowest_terms,
    mono,
)


def _disk_winding_terms(mu: int, window: TruncationWindow, facts: List[int]) -> Iterator[RawTerm]:
    """Raw terms of the disk potential at winding ``mu`` inside ``window``.

    T^l Q^e X^mu V^(1-l-e), with e = 2m + |mu|, has the coefficient
    mu^(l+e-2) / (l! m! (m+|mu|)!).  e runs from where l <= max_t can reach
    the V ceiling to where l = 0 meets the V floor or e passes max_q; for
    each e, l runs from the V ceiling to the V floor or max_t.  So every
    step emits a term.  ``facts`` holds the factorials up to the largest
    l and m + |mu| met.
    """
    a = abs(mu)
    start = max(a, 1 - window.max_v - window.max_t)
    start += (start - a) % 2  # e has the parity of |mu|
    for e in range(start, min(window.max_q, 1 - window.min_v) + 1, 2):
        m = (e - a) // 2
        lo = max(0, 1 - e - window.max_v)
        den = facts[m] * facts[m + a]
        num = mu ** abs(lo + e - 2)  # the exponent is -1 only where mu^-1 = mu
        for l in range(lo, min(window.max_t, 1 - e - window.min_v) + 1):
            yield _tuple_new(Monomial, (e, l, mu, 1 - l - e, 0, 0, 0)), num, den * facts[l]
            num *= mu


def disk_terms(window: TruncationWindow) -> List[RawTerm]:
    """Raw terms of the disk potential in closed Bessel form inside ``window``.

    Every coefficient is written down directly, winding by winding, one term
    per monomial.  Every monomial has V-exponent 1 - l - 2m - |mu| <= 0.  A
    window of mass budget 2*max_q + max_t beyond ``MAX_MASS_BUDGET`` is
    refused, as every expansion refuses it.
    """
    if window.max_abs_x and window.mass_budget > MAX_MASS_BUDGET:
        raise ValueError(
            f"window too large: 2*max_q + max_t = {window.mass_budget} exceeds {MAX_MASS_BUDGET}"
        )
    if not window.min_z <= 0 <= window.max_z:
        return []
    e_top = min(window.max_q, 1 - window.min_v)  # |mu| <= e <= e_top
    facts = _factorials(max(e_top, min(window.max_t, -window.min_v)))
    top = min(window.max_abs_x, e_top)
    windings = (mu for mu in range(-top, top + 1) if mu)
    return list(chain.from_iterable(_disk_winding_terms(mu, window, facts) for mu in windings))


def disk_potential_bessel(window: TruncationWindow) -> FormalSeries:
    """Disk potential in closed Bessel form, truncated to ``window``."""
    return _from_raw(disk_terms(window), window)


def disk_potential_localized(window: TruncationWindow) -> FormalSeries:
    """Disk potential resummed from one-boundary fixed-point graph sums.

    Each winding mu and sphere degree d give one exact graph-sum value
    c * v^k.  The dressing exp(mu*t0/v) carries the degree-zero insertions,
    exactly as in the closed form, so the value gives the raw terms
    c * mu^l / l! * T^l Q^(2d+|mu|) X^mu V^(k-l) inside ``window``, made
    into a series by one ``_from_raw``.  Each sphere degree's graph classes
    are enumerated once and shared by every winding.  Exponentially slower than
    :func:`disk_potential_bessel` — this is the independent oracle route,
    not the workhorse.
    """
    classes = [_open_classes(0, d) for d in range((window.max_q - 1) // 2 + 1)]
    # every value has V-power k = 1 - 2d - |mu| <= 0, so l <= -min_v
    facts = _factorials(min(window.max_t, -window.min_v))
    raw: List[RawTerm] = []
    windings = (mu for mu in range(-window.max_abs_x, window.max_abs_x + 1) if mu)
    for mu in windings:
        e = abs(mu)
        for d in range((window.max_q - e) // 2 + 1):
            for m, c in _open_sum(mu, classes[d]).items():
                for l in range(min(window.max_t, m.V - window.min_v) + 1):
                    term = Monomial(Q=2 * d + e, T=l, X=mu, V=m.V - l)
                    if window.contains(term):
                        raw.append((term, c.numerator * mu**l, c.denominator * facts[l]))
    return _from_raw(raw, window)


#: Exc = -Q*X^-1 + Q*X - T^2/(2v) - Q^2/v, as raw (monomial, num, den) terms
_CORRECTION: Tuple[RawTerm, ...] = (
    (mono(Q=1, X=-1), -1, 1),
    (mono(Q=1, X=1), 1, 1),
    (mono(T=2, V=-1), -1, 2),
    (mono(Q=2, V=-1), -1, 1),
)


def correction_terms(window: TruncationWindow, corrupt: bool = False) -> List[RawTerm]:
    """Raw terms of the four-monomial correction inside ``window``.

    ``corrupt`` negates the V^-1 terms only (the deliberate-corruption knob).
    """
    return [
        (m, -n if corrupt and m.V == -1 else n, d) for m, n, d in _CORRECTION if window.contains(m)
    ]


def _paired_in_winding_variables(t: FactorTerm) -> FactorTerm:
    """The pairing's 1/v times ``t``, with q1 -> -Q*X^-1 and q2 -> -Q*X.

    q1^d1 q2^d2 Z^e goes to (-1)^(d1+d2) Q^(d1+d2) X^(d2-d1) V^-1 Z^e; the
    factor v/(v - slope*z) involves neither map.  Since d1 + d2 and
    |d2 - d1| have the same parity, the sign cancels the closed form's.
    """
    m, num, den, slope = t
    d1, d2 = m.q1, m.q2
    mapped = _tuple_new(Monomial, (d1 + d2, 0, d2 - d1, -1, m.Z, 0, 0))
    return _tuple_new(FactorTerm, (mapped, -num if (d1 + d2) % 2 else num, den, slope))


def rhs_terms(window: TruncationWindow, corrupt_correction: bool = False) -> List[RawTerm]:
    """Raw terms of the descendant-slice side of the identity inside ``window``.

    Order: take the surface terms whose slope, their winding after the
    Kaehler map, fits the window's winding bound and whose degree
    d1 + d2 <= 1 - min_v lets them reach the V floor (the pairing's 1/v
    and the z^-2 slice put the term at V^(1-(d1+d2)-l) at best) -> pair
    each with the distinguished class and write it in winding/area
    variables, one monomial map per term -> extract the z^-2 coefficient in
    ``window`` -> append the exceptional correction.  The map sends a term
    to one term, so nothing is truncated before the extraction.  The zeroth
    flat coordinate is carried by the same T variable on both sides, so the
    log-area identification is the identity map here.
    """
    terms = surface_series_terms(window, window.max_abs_x, 1 - window.min_v)
    mapped = [_paired_in_winding_variables(t) for t in terms]
    return z_coeff_terms(mapped, 2, window) + correction_terms(window, corrupt_correction)


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------


def rational_str(c: Fraction) -> str:
    """Explicit num/den rendering used by every serialized report."""
    return f"{c.numerator}/{c.denominator}"


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one window comparison; ``passed`` iff ``diff`` is empty."""

    window: TruncationWindow
    lhs: FormalSeries
    diff: FormalSeries
    passed: bool

    def diff_rows(self) -> List[Dict[str, object]]:
        return [
            {"X": m.X, "Q": m.Q, "T": m.T, "V": m.V, "value": rational_str(c)}
            for m, c in self.diff.items()
        ]

    def to_json_dict(self) -> Dict[str, object]:
        w = self.window
        return {
            "window": {
                "maxQ": w.max_q,
                "maxT": w.max_t,
                "maxAbsMu": w.max_abs_x,
                "minV": w.min_v,
                "maxV": w.max_v,
            },
            "pass": self.passed,
            "diff": self.diff_rows(),
        }


def raw_difference(left: List[RawTerm], right: List[RawTerm]) -> List[RawTerm]:
    """left - right per monomial in lowest terms, zeros dropped, in ``items()`` order.

    Identical terms cancel; the terms left over, the right side's negated,
    are summed per monomial by exact cross-multiplication.
    """
    unmatched = Counter(left)
    unmatched.subtract(right)
    return lowest_terms([(m, n * c, d) for (m, n, d), c in unmatched.items() if c])


def run_check(
    window: TruncationWindow, corrupt_correction: bool = False
) -> CorrespondenceReport:
    """Build both sides and compare them term by term; see the module docstring."""
    lhs = disk_terms(window)
    rhs = rhs_terms(window, corrupt_correction)
    diff = _from_raw(raw_difference(lhs, rhs), window)
    return CorrespondenceReport(window, _from_raw(lhs, window), diff, diff.is_zero())
