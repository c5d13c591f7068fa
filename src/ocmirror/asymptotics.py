"""Floating-point validation of the descendant slice's large-weight behavior.

The second Kaehler-excess component of the origin-restricted surface series,

    I2(v) = q0^(1/z) * sum_{mu >= 1, d >= 0}
            (-1)^mu q1^d q2^(d+mu) / (d! (d+mu)! z^(2d+mu)) * v / (v - mu*z),

is an absolutely convergent double sum away from the excluded weights
{mu*z : mu >= 1}.  Along the half-shifted sequence v_l = (l + 1/2) z the pole
factors obey |v_l / (v_l - mu z)| <= 2 mu + 1, which dominates the tail by a
factorially convergent series; the implementation tracks the positive term
envelope directly and stops once it falls below a fixed tolerance
(past that point consecutive terms shrink by better than a factor of two, so
the discarded tail is at most twice the tolerance).

The asymptotic scale coefficients are

    phi_k = q0^(1/z) * sum_{mu >= 1, d >= 0}
            (-1)^mu mu^k q1^d q2^(d+mu) / (d! (d+mu)! z^(2d+mu)) * z^k,

and the headline ratio

    (I2(v_l) - sum_{k<N} phi_k v_l^-k) / (phi_N v_l^-N)

tends to 1 along the sequence, with |ratio - 1| = O(1/v_l).  Everything here
is double precision; the exact modules cross-check the small-parameter
regime to 1e-10 in the tests.  The first-excess component is the same sum
under q1 <-> q2, with pole factor v/(v + mu z) and scale weight (-mu z)^k.
As v/(v + mu z) = (-v)/((-v) - mu z) and rounding commutes with negation,
it is the second component of the swapped parameters at weight -v, exactly
in floating point; the evaluators compute it that way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

# tail controls of every double sum: the envelope a sum stops below, and the
# most terms it may take before it is declared divergent
_TAIL_TOLERANCE = 1e-14
_MAX_TERMS = 10000

Walk = Iterator[Tuple[int, float]]  # the (mu, inner_mu) of :func:`_mu_walk`


@dataclass(frozen=True)
class NumericParams:
    """Positive evaluation point of the double sums."""

    q0: float = 1.0
    q1: float = 0.25
    q2: float = 0.25
    z: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.q0, self.q1, self.q2, self.z))):
            raise ValueError("q0, q1, q2 and z must be finite")
        if self.q0 <= 0:
            raise ValueError("q0 must be positive (its logarithm is a coordinate)")
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("q1 and q2 must be nonnegative")
        if self.z <= 0:
            raise ValueError("z must be positive")
        if not 2.0**-1022 <= self.z * self.z < math.inf:  # the degree sums divide by z^2
            raise ValueError(f"z = {self.z!r} is out of range: z^2 is not a normal double")
        try:  # the sums' prefactor: cancels in the ratio, but a subnormal one rounds both
            prefactor = self.q0 ** (1.0 / self.z)
        except OverflowError:
            prefactor = math.inf
        if not 2.0**-1022 <= prefactor < math.inf:  # the normal doubles
            raise ValueError(f"q0^(1/z) = {self.q0!r}^(1/{self.z!r}) is not a normal double")


def _mirror(params: NumericParams, component: int) -> Tuple[NumericParams, int]:
    """(p, sign): the component at weight v is p's second at sign * v."""
    if component == 2:
        return params, 1
    if component == 1:
        return replace(params, q1=params.q2, q2=params.q1), -1
    raise ValueError("component must be 1 or 2")


def _mu_walk(params: NumericParams) -> Walk:
    """(mu, inner_mu) for mu = 1, 2, ... of the second component, where
    inner_mu = sum_d q1^d q2^(d+mu) / (d! (d+mu)! z^(2d+mu)).

    Terms are nonnegative and updated by running ratios, so nothing large is
    ever materialized; past the break point consecutive terms shrink by much
    better than a factor of two at any admissible parameters.
    """
    q1, q2, z = params.q1, params.q2, params.z
    lead = 1.0
    for mu in range(1, _MAX_TERMS + 1):
        lead *= q2 / (mu * z)
        inner = 0.0
        term = lead
        for d in range(_MAX_TERMS + 1):
            inner += term
            if d >= 1 and term < _TAIL_TOLERANCE * 1e-3:
                break
            term *= q1 * q2 / ((d + 1) * (d + mu + 1) * z**2)
        else:
            if not math.isfinite(inner):  # an inf term never falls below the tolerance
                raise ValueError(
                    f"z = {z!r} is out of range: the terms of the sums overflow a double"
                )
            raise ArithmeticError("inner degree sum did not converge within max_terms")
        yield mu, inner


def eval_I2(
    params: NumericParams, v: float, component: int = 2, walk: Optional[Walk] = None
) -> float:
    """Direct float value of the excess component at weight ``v``.

    Raises ValueError within a machine guard of the excluded pole set
    (component 2: {mu z, mu >= 1}; component 1 mirrors it at negative
    weights).  Every pole factor in the tail is bounded by |v| / gap with
    gap the distance to the whole excluded set, so the stopping rule needs
    only the factorial envelope.  ``walk``, when given, is :func:`_mu_walk`
    of the component's mirrored parameters, shared with other evaluators.
    """
    p, sign = _mirror(params, component)
    w = sign * v
    # the excluded weight nearest to w is mu z at an integer mu next to w / z
    near = int(w / p.z)
    gap = min(abs(w - mu * p.z) for mu in {1, max(1, near), max(1, near + 1)})
    if gap < 1e-9 * max(abs(w), p.z):
        raise ValueError(
            f"weight {v} lies within the machine guard of the excluded pole set"
        )
    pole_bound = abs(w) / gap
    total = 0.0
    for mu, inner in _mu_walk(p) if walk is None else walk:
        pole = w / (w - mu * p.z)
        total += (-1) ** mu * pole * inner
        if inner * pole_bound < _TAIL_TOLERANCE and (mu + 1) * p.z > 2 * p.q2:
            return p.q0 ** (1.0 / p.z) * total
    raise ArithmeticError("excess sum did not meet the tail tolerance within max_terms")


def eval_phi_k(
    params: NumericParams, k: int, component: int = 2, walk: Optional[Walk] = None
) -> float:
    """Float value of the k-th asymptotic scale coefficient; ``walk`` as for
    :func:`eval_I2`."""
    p, sign = _mirror(params, component)
    if k < 0:
        raise ValueError("scale index must be nonnegative")
    total = 0.0
    for mu, inner in _mu_walk(p) if walk is None else walk:
        weight = float(sign * mu * p.z) ** k
        total += (-1) ** mu * weight * inner
        # beyond mu >= k the polynomial growth of the weight is dominated;
        # require the envelope small and the factorial ratio safely below 1
        if (
            abs(weight) * inner < _TAIL_TOLERANCE
            and mu >= k + 2
            and (mu + 1) * p.z > 6 * p.q2
        ):
            return p.q0 ** (1.0 / p.z) * total
    raise ArithmeticError("scale sum did not meet the tail tolerance within max_terms")


RatioRow = Tuple[int, float, int, float, float]


def ratio_table(
    params: NumericParams, N: int, ls: Sequence[int], component: int = 2
) -> List[RatioRow]:
    """Rows (l, v_l, N, ratio, abs_error) for each requested l, in order, with
    ratio = (I2(v_l) - sum_{k<N} phi_k v_l^-k) / (phi_N v_l^-N) at v_l = (l+1/2) z
    and abs_error = |ratio - 1|; phi_0 .. phi_N are summed once per table, all
    sums read one walk over mu, and q0^(1/z) cancels, so they are taken at q0 = 1.
    A ratio that is not finite (nan or an infinity) is refused naming its l.
    """
    if N < 0 or any(l < 0 for l in ls):
        raise ValueError("N and l must be nonnegative")
    if any(l >= 2**52 for l in ls):
        raise ValueError("l must be below 2**52: v_l = (l + 1/2) z loses its half in a double")
    if not ls:
        return []
    unit = replace(params, q0=1.0)
    walks = iter(itertools.tee(_mu_walk(_mirror(unit, component)[0]), N + 1 + len(ls)))
    rows = []
    try:  # z^2 is a normal double, so only the powers of order N can overflow
        phis = [eval_phi_k(unit, k, component, next(walks)) for k in range(N + 1)]
        for l in ls:
            v_l = (l + 0.5) * params.z
            value = eval_I2(unit, v_l, component, next(walks))
            for k in range(N):
                value -= phis[k] * v_l**-k
            scale = phis[N] * v_l**-N
            if scale == 0.0:
                raise ZeroDivisionError(
                    "the order-N scale coefficient vanishes at these parameters; "
                    "choose a different N or nonzero q1, q2"
                )
            ratio = value / scale
            if not math.isfinite(ratio):
                raise ValueError(
                    f"the ratio at l = {l} is {ratio!r}: a sum or the quotient overflows a double"
                )
            rows.append((l, v_l, N, ratio, abs(ratio - 1.0)))
    except OverflowError:
        raise ValueError(
            f"N = {N} is out of range: a scale weight (mu z)^N or a power v_l^-N overflows a double"
        ) from None
    return rows


def asym_ratio(params: NumericParams, N: int, l: int, component: int = 2) -> float:
    """The ratio of the one-row table at l."""
    return ratio_table(params, N, [l], component)[0][3]


def fitted_error_constant(
    params: NumericParams, N: int, fit_ls: Sequence[int], component: int = 2
) -> float:
    """C = max over the fit points of |ratio - 1| * v_l.

    The decay claim |ratio - 1| <= C / v_l is then checked on larger l.
    """
    if not fit_ls:
        raise ValueError("need at least one fit point")
    return max(
        abs(ratio - 1.0) * (l + 0.5) * params.z
        for l, _, _, ratio, _ in ratio_table(params, N, fit_ls, component)
    )
