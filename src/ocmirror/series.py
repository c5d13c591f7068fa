"""Sparse Laurent series over the rationals in a fixed tuple of variables.

Everything downstream (disk potentials, hypergeometric series, localization
sums) is carried by one container, ``FormalSeries``: a mapping from exponent
vectors to exact rational coefficients together with a rectangular
truncation window.  Conventions:

* Variables, in storage order::

      Q   square root of the curve-counting parameter q (so q^d is Q^(2d))
      T   the unit-direction coordinate t0 = log(q0)
      X   boundary-winding variable
      V   generator of the circle's equivariant coefficient ring
      Z   descendant variable z
      q1  first surface Kaehler parameter   (mapped to -Q*X^-1)
      q2  second surface Kaehler parameter  (mapped to -Q*X)

* Coefficients are exact rationals, stored the way FLINT's ``fmpq_poly``
  stores them: ``{Monomial: int}`` numerators over one positive ``int``
  denominator per series.  Every series is kept in one canonical form — no
  numerator is zero, and the gcd of the denominator and all numerators is
  1 — so two series are equal exactly when their numerator dicts and
  denominators are.  ``items()`` and ``coeff()`` hand out reduced
  ``Fraction`` values, so callers never see the storage.
* Sums rescale every operand to the lcm of the denominators, products
  multiply numerators and denominators, and each result is reduced with one
  ``math.gcd`` over its denominator and numerators.  Series written down
  term by term (the disk potential by either route, the difference a check
  reports and its left side when read, the one-boundary graph sums)
  collect raw ``(monomial, numerator, denominator)`` terms; a series is
  made of them by a single lcm (``_from_raw``).  A table or a comparison
  needs none: the two sides of the correspondence come one Q-power slice
  at a time as T-ladders, already in the order of ``items()`` with one
  term per monomial, and a table reduces each rung from the one before.
  Where terms can repeat a monomial or come out of order, ``lowest_terms``
  sums and sorts them per monomial, with no common denominator.
* A series remembers the window it was truncated to.  Arithmetic re-truncates
  to the intersection of the operand windows.  In Q, T, q1 and q2, whose
  exponents are nonnegative everywhere, operations only raise exponents, so
  a monomial the window dropped never re-enters it.  In the two-sided X, V
  and Z it can: with |X| <= 3, (X^-2*X^-2)*X is 0 but X^-2*(X^-2*X) is X^-3,
  and a truncation before a monomial shift loses what the shift would bring
  in.  (The right side of the correspondence once lost its 1/V prefactor so
  at max_v <= -3, pairing in a window of V ceiling max_v + 1.)  Monomial maps
  therefore go on the inputs of an expansion, as the right side's Kaehler
  map does in ``correspondence._rhs_walk``.
* Iteration over terms is in lexicographic exponent order, which makes every
  report byte-reproducible.
* Kernel results are built once.  The public constructor
  ``FormalSeries(terms, window)`` validates input from outside the kernel:
  it accepts only exact coefficients (``int`` and ``Fraction``, any
  ``numbers.Rational``; floats, strings and decimals raise ``TypeError``),
  merges repeated monomials, drops zeros and drops monomials outside the
  window.  Every result the kernel computes itself (ring operations,
  ``_from_raw``) is assembled in one numerator dict that already satisfies
  that contract — canonical, every monomial inside the window — and is
  wrapped without a second pass.  Each operation tests ``window.contains``
  only where its output can leave the window: a sum whose window is smaller
  than an operand's, a product, a monomial shift.  A series written down
  term by term reads its loop ranges off the window instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Tuple, Union

__all__ = [
    "VARIABLES",
    "Monomial",
    "TruncationWindow",
    "FormalSeries",
    "mono",
    "lowest_terms",
]

VARIABLES: Tuple[str, ...] = ("Q", "T", "X", "V", "Z", "q1", "q2")

RationalLike = Union[Fraction, int]

#: bound used by :meth:`TruncationWindow.wide` — large enough that no
#: enumerated computation ever reaches it, small enough to catch runaway loops.
_WIDE = 1 << 20

#: the largest mass budget (2*max_q + max_t) a window may have for an
#: expansion; beyond it a request is refused, not run for minutes
MAX_MASS_BUDGET = 4096


class Monomial(NamedTuple):
    """Exponent vector; multiplication is componentwise addition."""

    Q: int = 0
    T: int = 0
    X: int = 0
    V: int = 0
    Z: int = 0
    q1: int = 0
    q2: int = 0

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        a, b, c, d, e, f, g = self
        A, B, C, D, E, F, G = other
        return _tuple_new(Monomial, (a + A, b + B, c + C, d + D, e + E, f + F, g + G))

    def __str__(self) -> str:
        parts = []
        for name, e in zip(VARIABLES, self):
            if e == 1:
                parts.append(name)
            elif e != 0:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


_tuple_new = tuple.__new__
ONE = Monomial()


def mono(**exps: int) -> Monomial:
    """Keyword constructor: ``mono(Q=1, V=-1)`` is Q·V⁻¹."""
    bad = set(exps) - set(VARIABLES)
    if bad:
        raise ValueError(f"unknown variables: {sorted(bad)}")
    return Monomial(**exps)


@dataclass(frozen=True)
class TruncationWindow:
    """Rectangular truncation region for exponent vectors.

    Q, T and the pair (q1, q2) are bounded above only (their exponents are
    nonnegative by construction); X is bounded in absolute value; V and Z are
    bounded on both sides.  ``max_q`` also bounds q1-exp + q2-exp jointly,
    since the Kaehler substitution turns that total into a Q-power.
    """

    max_q: int
    max_t: int
    max_abs_x: int
    min_v: int
    max_v: int = 1
    min_z: int = 0
    max_z: int = 0

    def __post_init__(self) -> None:
        if min(self.max_q, self.max_t, self.max_abs_x) < 0:
            raise ValueError("upper truncation bounds must be nonnegative")
        if self.min_v > self.max_v or self.min_z > self.max_z:
            raise ValueError("empty window: min bound exceeds max bound")

    @classmethod
    def wide(cls) -> "TruncationWindow":
        """Window so large that truncation is unreachable in practice.

        Used to carry exact Laurent polynomials (localization values in V)
        through the same container as honestly truncated series.
        """
        return cls(
            max_q=_WIDE,
            max_t=_WIDE,
            max_abs_x=_WIDE,
            min_v=-_WIDE,
            max_v=_WIDE,
            min_z=-_WIDE,
            max_z=_WIDE,
        )

    def contains(self, m: Monomial) -> bool:
        q, t, x, v, z, q1, q2 = m
        return (
            0 <= q <= self.max_q
            and 0 <= t <= self.max_t
            and -self.max_abs_x <= x <= self.max_abs_x
            and self.min_v <= v <= self.max_v
            and self.min_z <= z <= self.max_z
            and q1 >= 0
            and q2 >= 0
            and q1 + q2 <= self.max_q
        )

    def intersect(self, other: "TruncationWindow") -> "TruncationWindow":
        """Common part of two windows; it is empty if their V or Z ranges are disjoint.

        Built past ``__post_init__``, whose min <= max check guards outside
        input: a window with a min above its max contains no monomial.
        """
        if other == self:
            return self
        w = object.__new__(TruncationWindow)
        w.__dict__.update(
            max_q=min(self.max_q, other.max_q),
            max_t=min(self.max_t, other.max_t),
            max_abs_x=min(self.max_abs_x, other.max_abs_x),
            min_v=max(self.min_v, other.min_v),
            max_v=min(self.max_v, other.max_v),
            min_z=max(self.min_z, other.min_z),
            max_z=min(self.max_z, other.max_z),
        )
        return w

    @property
    def mass_budget(self) -> int:
        """Upper bound of Q + T + q1 + q2 inside the window: the exponents
        every window bounds from above."""
        return 2 * self.max_q + self.max_t


class FormalSeries:
    """Truncated sparse Laurent series: ``{Monomial: int}`` / ``int`` + window.

    Instances are value-like: no method mutates ``self``.  Equality compares
    coefficients only (two series that agree as maps are equal even if their
    windows differ; windows are bookkeeping for *future* operations).
    """

    __slots__ = ("_nums", "_den", "window")

    def __init__(
        self,
        terms: Mapping[Monomial, RationalLike] | Iterable[Tuple[Monomial, RationalLike]],
        window: TruncationWindow,
        *,
        _den: int = 0,
    ) -> None:
        if _den:  # numerators the kernel built itself; see ``_built``
            self._nums = terms
            self._den = _den
            self.window = window
            return
        items = terms.items() if isinstance(terms, Mapping) else terms
        contains = window.contains
        raw = []
        for m, c in items:
            c = _exact(c)
            if contains(m):
                raw.append((m, c.numerator, c.denominator))
        self._nums, self._den = _over_lcm(raw)
        self.window = window

    # -- inspection -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[Monomial, Fraction]]:
        """Terms in lexicographic exponent order (deterministic)."""
        nums, den = self._nums, self._den
        for m in sorted(nums):
            yield m, Fraction(nums[m], den)

    def coeff(self, m: Monomial) -> Fraction:
        n = self._nums.get(m)
        return _ZERO if n is None else Fraction(n, self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FormalSeries):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self._nums
            return self._den == other.denominator and self._nums == {ONE: other.numerator}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*{m}" for m, c in itertools.islice(self.items(), 8))
        more = "" if len(self) <= 8 else f" ... [{len(self)} terms]"
        return f"FormalSeries({body or '0'}{more})"

    # -- ring structure -------------------------------------------------------

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        return self._combine(other, False)

    def __neg__(self) -> "FormalSeries":
        return _built({m: -n for m, n in self._nums.items()}, self._den, self.window)

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self._combine(other, True)

    def _combine(self, other: "FormalSeries", negate: bool) -> "FormalSeries":
        """self + other, or self - other; filters only an operand whose window shrank."""
        w = self.window.intersect(other.window)
        a = self._nums if self.window == w else _clip(self._nums, w)
        b = other._nums if other.window == w else _clip(other._nums, w)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        acc = dict(a) if fa == 1 else {m: n * fa for m, n in a.items()}
        get = acc.get
        if negate:
            fb = -fb
        for m, n in b.items():
            acc[m] = get(m, 0) + n * fb
        return _reduced(acc, den, w)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        w = self.window.intersect(other.window)
        contains = w.contains
        acc: Dict[Monomial, int] = {}
        get = acc.get
        right = list(other._nums.items())
        for m1, n1 in self._nums.items():
            for m2, n2 in right:
                m = m1 * m2
                if contains(m):
                    acc[m] = get(m, 0) + n1 * n2
        return _reduced(acc, self._den * other._den, w)


_ZERO = Fraction(0)


def _exact(c: object) -> Fraction:
    """A coefficient from outside the kernel as a ``Fraction``; inexact ones are refused."""
    if type(c) is Fraction:
        return c  # immutable, so shared as it is
    if not isinstance(c, Rational):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__} {c!r}")
    return Fraction(c)


def _built(nums: Dict[Monomial, int], den: int, window: TruncationWindow) -> FormalSeries:
    """Wrap numerators the kernel built itself, without copying or re-checking.

    The caller guarantees the contract: ``den`` positive, every numerator a
    nonzero ``int``, their gcd with ``den`` 1, every key inside ``window``;
    and it hands the dict over (nothing mutates it afterwards).
    """
    return FormalSeries(nums, window, _den=den)


def _canonical(acc: Dict[Monomial, int], den: int) -> Tuple[Dict[Monomial, int], int]:
    """Drop zero numerators and divide out the content: the canonical form."""
    if not all(acc.values()):
        acc = {m: n for m, n in acc.items() if n}
    g = gcd(den, *acc.values())
    if g == 1:
        return acc, den
    return {m: n // g for m, n in acc.items()}, den // g


def _reduced(acc: Dict[Monomial, int], den: int, window: TruncationWindow) -> FormalSeries:
    """``acc / den`` inside ``window``, in canonical form."""
    nums, den = _canonical(acc, den)
    return _built(nums, den, window)


def _clip(nums: Mapping[Monomial, int], window: TruncationWindow) -> Dict[Monomial, int]:
    contains = window.contains
    return {m: n for m, n in nums.items() if contains(m)}


RawTerm = Tuple[Monomial, int, int]
_monomial_of = itemgetter(0)


def _over_lcm(raw: List[RawTerm]) -> Tuple[Dict[Monomial, int], int]:
    """Sum of the terms num/den over one canonical denominator.

    The lcm of the raw denominators (each positive) is taken once; repeated
    monomials merge and terms that cancel drop out.
    """
    dens = {d for _, _, d in raw}
    den = lcm(*dens)
    factor = {d: den // d for d in dens}
    acc: Dict[Monomial, int] = {}
    get = acc.get
    for m, n, d in raw:
        acc[m] = get(m, 0) + n * factor[d]
    return _canonical(acc, den)


def _from_raw(raw: List[RawTerm], window: TruncationWindow) -> FormalSeries:
    """A series from raw ``(monomial, num, den)`` terms inside ``window``."""
    nums, den = _over_lcm(raw)
    return _built(nums, den, window)


def lowest_terms(raw: Iterable[RawTerm]) -> List[RawTerm]:
    """Each monomial's total of the raw terms as ``(monomial, num, den)`` in lowest terms.

    The terms are sorted by monomial, so the result is in the lexicographic
    order of ``items()``; repeated monomials merge by exact
    cross-multiplication and totals that cancel drop out.  Every
    denominator is positive; no common denominator is formed.
    """
    out: List[RawTerm] = []
    for m, group in itertools.groupby(sorted(raw, key=_monomial_of), _monomial_of):
        _, n, d = next(group)
        for _, n1, d1 in group:
            n, d = (n + n1, d) if d == d1 else (n * d1 + n1 * d, d * d1)
        if n:
            g = gcd(n, d)
            out.append((m, n // g, d // g))
    return out
