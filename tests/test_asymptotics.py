"""Floating-point large-weight validation: evaluators, ratios, cross-checks."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ocmirror.asymptotics import (
    NumericParams,
    asym_ratio,
    eval_I2,
    eval_phi_k,
    fitted_error_constant,
    ratio_table,
)
from ocmirror.closed import surface_series_terms
from ocmirror.series import TruncationWindow

from families import by_slope_sign
from second_routes import phi_k_coeff

F = Fraction

# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_default_parameters():
    p = NumericParams()
    assert (p.q0, p.q1, p.q2, p.z) == (1.0, 0.25, 0.25, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q0": 0.0},
        {"q0": -1.0},
        {"q1": -0.1},
        {"q2": -0.1},
        {"z": 0.0},
        {"z": -1.0},
        {"q0": math.nan},
        {"q0": math.inf},
        {"q1": math.nan},
        {"q2": math.inf},
        {"z": math.nan},
        {"z": math.inf},
        # q0^(1/z) subnormal, zero, overflowing, infinite
        {"q0": 1e-320},
        {"q0": 1e-300, "z": 0.5},
        {"q0": 1e300, "z": 0.01},
        {"q0": 2.0, "z": 1e-320},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        NumericParams(**kwargs)


def test_invalid_call_arguments_rejected():
    p = NumericParams()
    with pytest.raises(ValueError):
        eval_I2(p, 3.5, component=3)
    with pytest.raises(ValueError):
        eval_phi_k(p, -1)
    with pytest.raises(ValueError):
        asym_ratio(p, -1, 5)
    with pytest.raises(ValueError):
        asym_ratio(p, 0, -1)
    with pytest.raises(ValueError):
        fitted_error_constant(p, 1, [])


# ---------------------------------------------------------------------------
# evaluators: degenerate and excluded inputs
# ---------------------------------------------------------------------------


def test_zero_area_parameters_give_zero():
    p = NumericParams(q1=0.0, q2=0.0)
    assert eval_I2(p, 3.5) == 0.0
    assert eval_phi_k(p, 1) == 0.0
    with pytest.raises(ZeroDivisionError):
        asym_ratio(p, 1, 50)


def test_pole_set_is_guarded():
    p = NumericParams()
    # second component excludes the positive weight lattice {mu z : mu >= 1}
    with pytest.raises(ValueError):
        eval_I2(p, 1.0)
    with pytest.raises(ValueError):
        eval_I2(p, 3.0)
    # the first component's excluded set sits at negative weights instead
    eval_I2(p, 3.0, component=1)
    with pytest.raises(ValueError, match="-3.0"):  # the weight the caller passed
        eval_I2(p, -3.0, component=1)


# ---------------------------------------------------------------------------
# evaluators: cross-checks against the exact modules
# ---------------------------------------------------------------------------

_XW = TruncationWindow(max_q=16, max_t=0, max_abs_x=0, min_v=0, max_v=0, min_z=-40, max_z=0)
_PW = TruncationWindow(max_q=16, max_t=4, max_abs_x=0, min_v=0, max_v=0, min_z=0, max_z=0)


def _exact_I2(q: Fraction, v: Fraction) -> Fraction:
    """Exact rational value of the second excess component at z = 1, q0 = 1."""
    total = F(0)
    for term in by_slope_sign(surface_series_terms(_XW, _XW.max_q, _XW.max_q), 1):
        m = term.monomial
        if m.T != 0:  # q0 = 1 kills the logarithm direction
            continue
        total += F(term.num, term.den) * q ** (m.q1 + m.q2) * v / (v - term.slope)
    return total


def _exact_phi(k: int, q: Fraction) -> Fraction:
    """Exact rational scale coefficient at z = 1, q0 = 1: all slices summed."""
    total = F(0)
    for m in range(1 - k, _PW.max_q + 1):
        for mono_, c in phi_k_coeff(k, m, _PW).items():
            if mono_.T != 0:
                continue
            total += c * q ** (mono_.q1 + mono_.q2)
    return total


def test_float_matches_exact_excess_component():
    # tail beyond the q-power cutoff is below (1/16)^17 / 17!; far under 1e-10
    q = F(1, 16)
    p = NumericParams(q1=1 / 16, q2=1 / 16)
    assert math.isclose(eval_I2(p, 3.5), float(_exact_I2(q, F(7, 2))), abs_tol=1e-10)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_float_matches_exact_scale_coefficients(k):
    q = F(1, 16)
    p = NumericParams(q1=1 / 16, q2=1 / 16)
    assert math.isclose(eval_phi_k(p, k), float(_exact_phi(k, q)), abs_tol=1e-10)


def test_component_mirror_is_exact():
    # swapping the area parameters and negating the weight flips the sign of
    # both numerator and denominator of every pole factor: identical floats
    for a, b, v in [(0.25, 0.25, 3.5), (0.1, 0.4, 7.5), (0.5, 0.0, 12.5)]:
        lhs = eval_I2(NumericParams(q1=a, q2=b), v, component=1)
        rhs = eval_I2(NumericParams(q1=b, q2=a), -v, component=2)
        assert lhs == rhs
    for k in range(4):
        lhs = eval_phi_k(NumericParams(q1=0.1, q2=0.4), k, component=1)
        rhs = (-1) ** k * eval_phi_k(NumericParams(q1=0.4, q2=0.1), k, component=2)
        assert lhs == rhs


@pytest.mark.parametrize("k", [1, 3, 5])
def test_vanishing_first_component_scale_is_positive_zero(k):
    # the sign of (-mu z)^k sits inside the sum: a sum of zero terms is +0.0,
    # where negating a finished sum would give -0.0 at odd k
    assert math.copysign(1.0, eval_phi_k(NumericParams(q1=0.0), k, component=1)) == 1.0


# ---------------------------------------------------------------------------
# the large-weight ratio
# ---------------------------------------------------------------------------


def test_first_order_ratio_approaches_one():
    p = NumericParams()
    errs = [abs(asym_ratio(p, 1, l) - 1.0) for l in (50, 100, 200, 400)]
    assert errs[0] < 0.05
    assert errs == sorted(errs, reverse=True)  # strictly improving along l
    assert abs(asym_ratio(p, 1, 200) - 1.0) < 0.05


def test_first_order_decay_rate_bound():
    # fit the constant on small l; the 1/v_l decay must then bound larger l
    p = NumericParams()
    C = fitted_error_constant(p, 1, [50, 100])
    assert math.isclose(C, abs(asym_ratio(p, 1, 50) - 1.0) * 50.5)
    for l in (200, 400):
        v_l = (l + 0.5) * p.z
        assert abs(asym_ratio(p, 1, l) - 1.0) <= C / v_l


def test_zeroth_order_ratio_also_converges():
    p = NumericParams()
    assert abs(asym_ratio(p, 0, 50) - 1.0) < 0.05
    assert abs(asym_ratio(p, 0, 200) - 1.0) < abs(asym_ratio(p, 0, 50) - 1.0)


def test_first_component_ratio_property():
    p = NumericParams()
    e50 = abs(asym_ratio(p, 1, 50, component=1) - 1.0)
    e200 = abs(asym_ratio(p, 1, 200, component=1) - 1.0)
    assert e50 < 0.05 and e200 < e50


def test_frozen_ratio_values():
    # double-precision values pinned from independent reruns of the evaluator
    p = NumericParams()
    assert math.isclose(asym_ratio(p, 1, 50), 1.0150313731115521, rel_tol=1e-12)
    assert math.isclose(asym_ratio(p, 1, 200), 1.0037630445289020, rel_tol=1e-12)
    assert math.isclose(
        fitted_error_constant(p, 1, [50, 100]), 0.7590843421333818, rel_tol=1e-12
    )


# ---------------------------------------------------------------------------
# the tabulated form
# ---------------------------------------------------------------------------


def test_ratio_table_rows_and_order():
    p = NumericParams()
    ls = [100, 50, 200]
    rows = ratio_table(p, 1, ls)
    assert [r[0] for r in rows] == ls  # input order preserved
    for l, v_l, n, ratio, abs_err in rows:
        assert v_l == (l + 0.5) * p.z
        assert n == 1
        assert ratio == asym_ratio(p, 1, l)
        assert abs_err == abs(ratio - 1.0)


def test_ratio_table_empty_input():
    assert ratio_table(NumericParams(), 1, []) == []


@pytest.mark.parametrize("component", [1, 2])
def test_shared_walk_matches_independent_sums(component):
    # a table reads all its sums off one walk over mu; each evaluator walking
    # on its own must give the same floats.  q1 != q2 tells the mirror apart
    p = NumericParams(q1=0.1, q2=0.4, z=0.75)
    ls = [3, 40, 1000]
    for N in range(4):
        phis = [eval_phi_k(p, k, component) for k in range(N + 1)]
        for l, v_l, _, ratio, _ in ratio_table(p, N, ls, component):
            value = eval_I2(p, v_l, component)
            for k in range(N):
                value -= phis[k] * v_l**-k
            assert ratio == value / (phis[N] * v_l**-N), (N, l)
