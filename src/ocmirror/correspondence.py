"""Both sides of the winding/descendant coefficient identity, compared exactly.

Left side: the multiple-cover disk potential of the equivariant line —

    F = sum_{mu != 0} exp(mu*t0/v) * (v/mu^2) * I_mu(2*mu*sqrt(q)/v) * X^mu,

whose coefficient of T^l Q^(2m+|mu|) X^mu V^(1-l-2m-|mu|) is
mu^(l+2m+|mu|-2) / (l! m! (m+|mu|)!).  One slice walk writes it down, the
dressing exp(mu*t0/v) giving mu^l / l! and each (mu, m) the rest: from that
closed form (fast route) or from the one-boundary fixed-point graph sums,
by a recursion over trees rooted at the disk vertex (independent route).

Right side: the z^-2 slice of the origin-restricted surface series, paired
against the distinguished origin class and written in winding/area
variables, plus a finite exceptional correction.  The surface series has one
term per curve class, coefficient * q1^d1 q2^d2 * z^-(d1+d2) * v/(v - mu z)
with mu = d2 - d1.  The pairing is the constant 1/v (the tests recompute it
through the surface's fixed-point pairing), and the Kaehler parameters are
traded for winding/area variables by

    q1 -> -Q * X^-1,      q2 -> -Q * X,

which sends the term to the single winding X^mu.  So the pairing and the
map fold into each class's z^-2 ladder (factors expanded in z/v), written
straight in the final variables from (d1, d2) alone: at each Q-power only
the classes with |mu| <= max_abs_x, when the walk reaches that slice, and
no class ahead of it.  Then

    Exc = -Q*X^-1 + Q*X - T^2/(2v) - Q^2/v

is added.

On both sides the T-dependence is a pure exponential dressing:
exp(mu*t0/v) on the left, and e^(t0/z) against v/(v - mu z) in the z^-2
slice on the right.  So each (Q-power, winding) pair is one T-ladder per
side (``closed.Ladder``): the geometric run mu^l / l! over the T-powers the
window admits, times one value.  Both sides are written as ladders, one
list per Q-power slice e, by winding upwards, and one expansion
(``closed.expand_ladders``) turns a list into raw integer terms (monomial,
num, den) in the kernel's order: T, then X, with V = 1 - T - e.  The two
sides match ladder for ladder.  The left side's monomial T^l Q^e X^mu
V^(1-l-e), e = 2m + |mu|, comes from exactly one surface class,
(d1, d2) = ((e-mu)/2, (e+mu)/2), at expansion index k = l + e - 2, with the
same value mu^k / (l! m! (m+|mu|)!): the surface sign (-1)^|mu| and the
map's sign (-1)^(d1+d2) cancel.  Only the correction's four monomials have
no partner: Q*X^-1 and Q*X (k = -1) are on the left alone, and the
winding-0 slice T^2/(2v) + Q^2/v on the right alone, where the correction
cancels it.

``run_check`` walks the two sides' ladders slice by slice.  A slice with no
correction term whose two ladder lists are equal agrees outright: equal
ladders, written by one expansion, give equal terms.  Every other slice
(Q^0..Q^2, where the correction lies, or any unequal one) is expanded on
both sides; identical terms cancel and the rest is summed per monomial by
exact cross-multiplication, so there the check does not rely on the two
builders writing a value the same way.  The report holds the window and
the difference, built from the leftover terms only; the headline assertion
is that it is identically zero on every finite window.  The tables ``disk``
and ``rhs`` write each slice's rows straight from its ladders, each rung
reduced from the one before; only the slices the correction joins are
expanded and summed per monomial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Tuple

from .closed import Ladder, _factorials, expand_ladders
from .localization import _rooted_forests, _rooted_sum
from .series import (
    MAX_MASS_BUDGET,
    FormalSeries,
    RawTerm,
    TruncationWindow,
    _from_raw,
    lowest_terms,
    mono,
)


def _degrees(window: TruncationWindow) -> range:
    """The Q-powers e of both sides' slices: each term has V = 1 - T - e and no Z."""
    top = min(window.max_q, 1 - window.min_v) if window.min_z <= 0 <= window.max_z else -1
    return range(top + 1)


def _bessel_value(mu: int, m: int, facts: List[int]) -> Tuple[int, int]:
    """mu^(2m+|mu|-2) / (m! (m+|mu|)!) as (num, den); the power is -1 only at mu^-1 = mu."""
    return mu ** abs(2 * m + abs(mu) - 2), facts[m] * facts[m + abs(mu)]


def _refuse_over_budget(window: TruncationWindow) -> None:
    """Refuse a window with windings beyond the mass budget, as every expansion does."""
    if window.max_abs_x and window.mass_budget > MAX_MASS_BUDGET:
        raise ValueError(
            f"window too large: 2*max_q + max_t = {window.mass_budget} exceeds {MAX_MASS_BUDGET}"
        )


def _disk_walk(window: TruncationWindow, value: Callable) -> Iterator[List[Ladder]]:
    """The disk potential's ladders inside ``window``, by Q-power, one per winding.

    ``value(mu, m, facts)`` is the (num, den) of the T^0 coefficient of Q^e
    X^mu V^(1-e), m = (e - |mu|)/2, and exp(mu*t0/v) dresses it: a ladder
    of ratio mu, l running from the V ceiling to the V floor or max_t.  The
    windings come upwards, over those of the parity of e, so each slice
    expands in the kernel's order.  A window beyond the mass budget is
    refused before any slice is."""
    _refuse_over_budget(window)
    degrees = _degrees(window)
    # a value reads factorials to e; with no winding, none
    facts = _factorials(degrees[-1]) if window.max_abs_x and len(degrees) > 1 else []

    def slice_at(e: int) -> List[Ladder]:
        top = min(window.max_abs_x, e)
        top -= (e - top) % 2  # |mu| has the parity of e
        lo, hi = max(0, 1 - e - window.max_v), min(window.max_t, 1 - e - window.min_v)
        if lo > hi:
            return []
        ladders = []
        for mu in range(-top, top + 1, 2):
            if mu:
                num, den = value(mu, (e - abs(mu)) // 2, facts)
                ladders.append((e, 0, mu, 1 - e, 0, 0, num * mu**lo, den, lo, hi, mu))
        return ladders

    return map(slice_at, degrees)


def disk_slices(window: TruncationWindow) -> Iterator[List[RawTerm]]:
    """The disk potential's raw terms in closed Bessel form inside ``window``, by Q-power.

    Every monomial has V-exponent 1 - l - 2m - |mu| <= 0.  A window of mass
    budget 2*max_q + max_t beyond ``MAX_MASS_BUDGET`` is refused."""
    return map(expand_ladders, _disk_walk(window, _bessel_value))


def disk_potential_bessel(window: TruncationWindow) -> FormalSeries:
    """Disk potential in closed Bessel form, truncated to ``window``."""
    return _from_raw([t for s in disk_slices(window) for t in s], window)


def disk_potential_localized(window: TruncationWindow) -> FormalSeries:
    """Disk potential resummed from one-boundary fixed-point graph sums.

    The closed form's slice walk with each value from the graph sum of
    winding mu at sphere degree m, which must be one term at V^(1-2m-|mu|).
    The sum runs over trees rooted at the disk vertex, by recursion on their
    child tuples, whose tables grow once per call to the largest degree the
    walk reads.  The independent route: it shares only the walk.
    """
    forests = _rooted_forests()
    by_degree: List[dict] = []  # each sphere degree's child tuples at both points

    def graph_value(mu: int, m: int, facts: List[int]) -> Tuple[int, int]:
        while len(by_degree) <= m:
            by_degree.append(next(forests))
        terms = _rooted_sum(mu, m, by_degree[m])
        if list(terms) != [1 - 2 * m - abs(mu)]:
            raise ArithmeticError(f"graph sum at winding {mu}, degree {m} off its grading: {terms}")
        return next(iter(terms.values()))

    raw = [t for s in _disk_walk(window, graph_value) for t in expand_ladders(s)]
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


def _rhs_walk(
    window: TruncationWindow, corrupt_correction: bool = False
) -> Iterator[Tuple[List[Ladder], List[RawTerm]]]:
    """The right side by Q-power: the slice's ladders and the correction's terms there.

    At Q^e each winding mu of the parity of e with |mu| <= max_abs_x is one
    class (d1, d2) = ((e-mu)/2, (e+mu)/2), whose z^-2 ladder is written when
    the slice is reached: at T^l X^mu V^(1-e-l), the pairing's 1/v in the V
    power, the value (-1)^|mu| (-1)^(d1+d2) mu^k / (l! d1! d2!) at expansion
    index k = l + e - 2 >= 0 (k = 0 alone for mu = 0, whose factor is 1),
    with l <= max_t and V in [min_v, max_v].  The windings come upwards, so
    each slice expands in the kernel's order; the factorials grow only as
    far as a ladder reads.  T is the same variable on both sides.  The
    window is refused as :func:`_disk_walk` refuses it, before any slice is."""
    _refuse_over_budget(window)
    correction = correction_terms(window, corrupt_correction)
    facts = _factorials(0)

    def slice_at(e: int) -> Tuple[List[Ladder], List[RawTerm]]:
        extra = [c for c in correction if c[0].Q == e]
        top = min(window.max_abs_x, e)
        top -= (e - top) % 2  # |mu| has the parity of e
        lo = max(0, 2 - e, 1 - e - window.max_v)
        hi = min(window.max_t, 1 - e - window.min_v)
        if top < 0 or lo > (hi if top else min(hi, 2 - e)):  # no winding, or its widest one empty
            return [], extra
        while len(facts) <= (e + top) // 2:  # its class reads the largest factorial
            facts.append(facts[-1] * len(facts))
        kaehler = -1 if e % 2 else 1  # (-Q)^(d1+d2)
        ladders = []
        for mu in range(-top, top + 1, 2):
            hi_mu = hi if mu else min(hi, 2 - e)
            if lo <= hi_mu:
                num = (-1 if mu % 2 else 1) * kaehler * mu ** (lo + e - 2)  # the class's (-1)^|mu|
                den = facts[(e - mu) // 2] * facts[(e + mu) // 2]
                ladders.append((e, 0, mu, 1 - e, 0, 0, num, den, lo, hi_mu, mu))
        return ladders, extra

    return map(slice_at, _degrees(window))


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one window comparison: the window and the sides' difference."""

    window: TruncationWindow
    diff: FormalSeries

    @property
    def passed(self) -> bool:
        """Whether the two sides agree: the difference is empty."""
        return self.diff.is_zero()

    @cached_property
    def lhs(self) -> FormalSeries:
        """The left side, the disk potential inside the window, built when first read."""
        return disk_potential_bessel(self.window)


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
    """Walk both sides one Q-power slice at a time and compare; see the module docstring."""
    left_side = _disk_walk(window, _bessel_value)
    leftover: List[RawTerm] = []
    rhs = _rhs_walk(window, corrupt_correction)
    for left, (right, extra) in zip(left_side, rhs, strict=True):
        if extra or left != right:
            leftover += raw_difference(expand_ladders(left), expand_ladders(right) + extra)
    return CorrespondenceReport(window, _from_raw(leftover, window))
