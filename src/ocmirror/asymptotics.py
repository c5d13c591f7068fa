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
regime to 1e-10 in the tests.  The first-excess component is the mirror
story under q1 <-> q2 and v/(v + mu z); it is exposed through the
``component`` flag and validated by the same ratio property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

# tail controls of every double sum: the envelope a sum stops below, and the
# most terms it may take before it is declared divergent
_TAIL_TOLERANCE = 1e-14
_MAX_TERMS = 10000


@dataclass(frozen=True)
class NumericParams:
    """Positive evaluation point of the double sums."""

    q0: float = 1.0
    q1: float = 0.25
    q2: float = 0.25
    z: float = 1.0

    def __post_init__(self) -> None:
        if self.q0 <= 0:
            raise ValueError("q0 must be positive (its logarithm is a coordinate)")
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError("q1 and q2 must be nonnegative")
        if self.z <= 0:
            raise ValueError("z must be positive")


def _check_component(component: int) -> None:
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")


def _sides(params: NumericParams, component: int) -> Tuple[float, float]:
    """(heavy, light) area parameters: heavy carries the excess exponent."""
    return (params.q2, params.q1) if component == 2 else (params.q1, params.q2)


def _inner_sum_from(lead: float, params: NumericParams, mu: int, component: int) -> float:
    """sum_d light^d heavy^(d+mu) / (d! (d+mu)! z^(2d+mu)) given the d=0 term.

    Terms are nonnegative and updated by running ratios, so nothing large is
    ever materialized; past the break point consecutive terms shrink by much
    better than a factor of two at any admissible parameters.
    """
    heavy, light = _sides(params, component)
    total = 0.0
    term = lead
    d = 0
    while d <= _MAX_TERMS:
        total += term
        if d >= 1 and term < _TAIL_TOLERANCE * 1e-3:
            return total
        term *= light * heavy / ((d + 1) * (d + mu + 1) * params.z**2)
        d += 1
    raise ArithmeticError("inner degree sum did not converge within max_terms")


def _pole_gap(params: NumericParams, v: float, component: int) -> float:
    """Distance from ``v`` to the excluded weight set of the component."""
    target = v / params.z if component == 2 else -v / params.z
    candidates = {1, max(1, int(target)), max(1, int(target) + 1)}
    if component == 2:
        return min(abs(v - mu * params.z) for mu in candidates)
    return min(abs(v + mu * params.z) for mu in candidates)


def _prefactor(params: NumericParams) -> float:
    return params.q0 ** (1.0 / params.z)


def eval_I2(params: NumericParams, v: float, component: int = 2) -> float:
    """Direct float value of the excess component at weight ``v``.

    Raises ValueError within a machine guard of the excluded pole set
    (component 2: {mu z, mu >= 1}; component 1 mirrors it at negative
    weights).  Every pole factor in the tail is bounded by |v| / gap with
    gap the distance to the whole excluded set, so the stopping rule needs
    only the factorial envelope.
    """
    _check_component(component)
    gap = _pole_gap(params, v, component)
    if gap < 1e-9 * max(abs(v), params.z):
        raise ValueError(
            f"weight {v} lies within the machine guard of the excluded pole set"
        )
    pole_bound = abs(v) / gap
    heavy, _ = _sides(params, component)
    total = 0.0
    lead = 1.0
    mu = 1
    while mu <= _MAX_TERMS:
        lead *= heavy / (mu * params.z)
        denom = v - mu * params.z if component == 2 else v + mu * params.z
        pole = v / denom
        inner = _inner_sum_from(lead, params, mu, component)
        total += (-1) ** mu * pole * inner
        if inner * pole_bound < _TAIL_TOLERANCE and (mu + 1) * params.z > 2 * heavy:
            return _prefactor(params) * total
        mu += 1
    raise ArithmeticError("excess sum did not meet the tail tolerance within max_terms")


def eval_phi_k(params: NumericParams, k: int, component: int = 2) -> float:
    """Float value of the k-th asymptotic scale coefficient."""
    _check_component(component)
    if k < 0:
        raise ValueError("scale index must be nonnegative")
    eps = 1 if component == 2 else -1
    heavy, _ = _sides(params, component)
    total = 0.0
    lead = 1.0
    mu = 1
    while mu <= _MAX_TERMS:
        lead *= heavy / (mu * params.z)
        weight = float(eps * mu * params.z) ** k
        inner = _inner_sum_from(lead, params, mu, component)
        total += (-1) ** mu * weight * inner
        # beyond mu >= k the polynomial growth of the weight is dominated;
        # require the envelope small and the factorial ratio safely below 1
        if (
            abs(weight) * inner < _TAIL_TOLERANCE
            and mu >= k + 2
            and (mu + 1) * params.z > 6 * heavy
        ):
            return _prefactor(params) * total
        mu += 1
    raise ArithmeticError("scale sum did not meet the tail tolerance within max_terms")


def asym_ratio(params: NumericParams, N: int, l: int, component: int = 2) -> float:
    """(I2(v_l) - sum_{k<N} phi_k v_l^-k) / (phi_N v_l^-N) at v_l = (l+1/2) z."""
    if N < 0 or l < 0:
        raise ValueError("N and l must be nonnegative")
    v_l = (l + 0.5) * params.z
    value = eval_I2(params, v_l, component)
    for k in range(N):
        value -= eval_phi_k(params, k, component) * v_l**-k
    scale = eval_phi_k(params, N, component) * v_l**-N
    if scale == 0.0:
        raise ZeroDivisionError(
            "the order-N scale coefficient vanishes at these parameters; "
            "choose a different N or nonzero q1, q2"
        )
    return value / scale


RatioRow = Tuple[int, float, int, float, float]


def ratio_table(
    params: NumericParams, N: int, ls: Sequence[int], component: int = 2
) -> List[RatioRow]:
    """Rows (l, v_l, N, ratio, abs_error) for each requested l, in order.

    abs_error is |ratio - 1|.
    """

    def row(l: int) -> RatioRow:
        ratio = asym_ratio(params, N, l, component)
        return (l, (l + 0.5) * params.z, N, ratio, abs(ratio - 1.0))

    return [row(l) for l in ls]


def fitted_error_constant(
    params: NumericParams, N: int, fit_ls: Sequence[int], component: int = 2
) -> float:
    """C = max over the fit points of |ratio - 1| * v_l.

    The decay claim |ratio - 1| <= C / v_l is then checked on larger l.
    """
    if not fit_ls:
        raise ValueError("need at least one fit point")
    return max(
        abs(asym_ratio(params, N, l, component) - 1.0) * (l + 0.5) * params.z
        for l in fit_ls
    )
