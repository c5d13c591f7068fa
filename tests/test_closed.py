"""Closed-string series: Bessel forms, curve J-components, surface terms."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmirror.closed import FactorTerm, expand_ladders, surface_series_terms
from ocmirror.series import FormalSeries, Monomial, TruncationWindow, mono

from families import by_slope_sign
from second_routes import (
    UPoly,
    bessel_first_kind,
    expand_terms,
    fraction_expand_factor,
    j_bessel_form,
    j_gamma_form,
    j_reduced_at,
    j_reduced_component,
    linear_terms,
    phi_k_coeff,
    scale,
    series_exp,
    surface_term_specialized,
    surface_term_symbolic,
    z_coeff,
    z_coeff_split,
    z_coeff_terms,
    z_slice,
    zero_series,
)

F = Fraction

# window for z-extraction work (output lives in q1, q2, T, V)
WQ = TruncationWindow(max_q=8, max_t=4, max_abs_x=8, min_v=-8, max_v=1, min_z=-24, max_z=2)
# window for curve-side series (deep v/z ladders)
WJ = TruncationWindow(max_q=8, max_t=2, max_abs_x=0, min_v=-12, max_v=10, min_z=-14, max_z=0)


# ---------------------------------------------------------------------------
# Bessel series
# ---------------------------------------------------------------------------


def test_bessel_order_zero_coefficients():
    s = bessel_first_kind(0, 2, mono(Q=1, V=-1), WJ)
    for m in range(4):
        assert s.coeff(mono(Q=2 * m, V=-2 * m)) == F(1, _f(m) ** 2)


def test_bessel_symmetry_under_order_negation():
    for n in range(7):
        plus = bessel_first_kind(n, 2, mono(Q=1, V=-1), WJ)
        minus = bessel_first_kind(-n, 2, mono(Q=1, V=-1), WJ)
        assert plus == minus


def test_bessel_parity_in_the_argument():
    for n in range(1, 5):
        direct = bessel_first_kind(n, -2, mono(Q=1, V=-1), WJ)
        flipped = scale(bessel_first_kind(n, 2, mono(Q=1, V=-1), WJ), F((-1) ** n))
        assert direct == flipped


def test_bessel_rejects_massless_argument():
    with pytest.raises(ValueError):
        bessel_first_kind(0, 1, mono(V=-1), WJ)


# ---------------------------------------------------------------------------
# curve side
# ---------------------------------------------------------------------------


def test_j_component_leading_terms():
    s = j_reduced_component(2, WJ)
    assert s.coeff(mono()) == 1
    assert s.coeff(mono(T=1, Z=-1)) == 1  # unit-direction exponential
    # degree 1: 1/(z(v+z)) = z^-2 - v z^-3 + v^2 z^-4 - ...
    assert s.coeff(mono(Q=2, Z=-2)) == 1
    assert s.coeff(mono(Q=2, V=1, Z=-3)) == -1
    assert s.coeff(mono(Q=2, V=2, Z=-4)) == 1
    # degree 2: 1/(2 z^2 (v+z)(v+2z)) = (1/4) z^-4 - (3/8) v z^-5 + ...
    assert s.coeff(mono(Q=4, Z=-4)) == F(1, 4)
    assert s.coeff(mono(Q=4, V=1, Z=-5)) == F(-3, 8)


def test_j_component_other_point_mirrors_signs():
    s1 = j_reduced_component(1, WJ)
    s2 = j_reduced_component(2, WJ)
    # the two fixed points differ by v -> -v
    for m, c in s2.items():
        assert s1.coeff(m) == (-1) ** m.V * c


def test_j_at_rational_multiple_of_weight():
    s = j_reduced_at(2, F(1), WJ)  # z = v
    # degree d scalar: 1/(d! (d+1)!) at Q^2d V^-2d
    for d in range(4):
        assert s.coeff(mono(Q=2 * d, V=-2 * d)) == F(1, _f(d) * _f(d + 1))


def test_j_at_pole_is_rejected():
    with pytest.raises(ValueError):
        j_reduced_at(1, F(1, 3), WJ)  # z = v/3 pole: -v + 3*(v/3) = 0
    with pytest.raises(ValueError):
        j_reduced_at(2, F(0), WJ)
    # but the mirror point is regular there
    j_reduced_at(2, F(1, 3), WJ)


def test_bessel_identity_for_both_components():
    # Q^mu * J~(alpha) at z = (eps/mu) v equals the Bessel closed form
    for alpha, eps in ((1, -1), (2, 1)):
        for mu in range(1, 5):
            lhs = scale(j_reduced_at(alpha, F(eps, mu), WJ), 1, mono(Q=mu))
            rhs = j_bessel_form(alpha, mu, WJ)
            assert lhs == rhs, (alpha, mu)


def test_j_bessel_form_rejects_nonpositive_winding():
    with pytest.raises(ValueError):
        j_bessel_form(2, 0, WJ)
    with pytest.raises(ValueError):
        j_gamma_form(2, 0, WJ)


def test_three_evaluation_routes_agree():
    # per-degree rational products, factorial-quotient form, Bessel machinery
    for alpha, eps in ((1, -1), (2, 1)):
        for mu in range(1, 5):
            products = scale(j_reduced_at(alpha, F(eps, mu), WJ), 1, mono(Q=mu))
            quotients = j_gamma_form(alpha, mu, WJ)
            bessel = j_bessel_form(alpha, mu, WJ)
            assert products == quotients == bessel, (alpha, mu)


# ---------------------------------------------------------------------------
# surface side: term resolution
# ---------------------------------------------------------------------------


def test_symbolic_factors_for_unit_class():
    t = surface_term_symbolic(1, 0, 0)
    u1, u2 = UPoly.u1(), UPoly.u2()
    assert t.numerator == ((-u2, 0),)
    assert t.denominator == ((-u1, 1), (UPoly(), 1))


def test_symbolic_rejects_ineffective_classes():
    with pytest.raises(ValueError):
        surface_term_symbolic(-1, 0, 0)


def test_specialized_zero_degree_is_unit():
    (t,) = surface_term_specialized(0, 0, 0)
    assert t.coefficient == 1 and t.monomial == mono() and t.slope == 0


def test_specialized_term_vanishes_off_origin_when_numerator_dies():
    # at the outer points the first divisor restricts to -(u1+u2) -> 0,
    # and excess classes put it in the numerator at j = 0
    assert surface_term_specialized(1, 0, 1) == ()
    assert surface_term_specialized(0, 1, 2) == ()


def test_specialized_matches_closed_family_forms():
    by_class = {}
    for t in linear_terms(surface_series_terms(WQ, WQ.max_q, WQ.max_q)):
        by_class.setdefault((t.monomial.q1, t.monomial.q2), []).append(t)
    for d1 in range(5):
        for d2 in range(5):
            if d1 + d2 > WQ.max_q or (d1, d2) == (0, 0):
                continue
            general = surface_term_specialized(d1, d2, 0)
            closed = by_class.get((d1, d2), [])
            lhs = expand_terms(general, WQ)
            rhs = expand_terms(closed, WQ)
            assert lhs == rhs, (d1, d2)


def test_slope_bound_keeps_exactly_the_terms_within_it():
    every = surface_series_terms(WQ, WQ.max_q, WQ.max_q)
    assert len(every) == (WQ.max_q + 1) * (WQ.max_q + 2) // 2
    for bound in range(WQ.max_q + 2):
        kept = tuple(t for t in every if abs(t.slope) <= bound)
        assert surface_series_terms(WQ, bound, WQ.max_q) == kept, bound


# --- truncated-product oracle for the factor-ratio resolution --------------


def _truncated_ratio(r: F, a: int, M: int):
    """Literal truncation of prod_{j<=0}(A+jz)/prod_{j<=a}(A+jz) at j >= -M+1,
    after exact multiset cancellation; factors as (r, j) pairs."""
    num = Counter((r, j) for j in range(-M + 1, 1))
    den = Counter((r, j) for j in range(-M + 1, a + 1))
    common = num & den
    return num - common, den - common


def _closed_ratio(r: F, a: int):
    if a >= 0:
        return Counter(), Counter((r, j) for j in range(1, a + 1))
    return Counter((r, j) for j in range(a + 1, 1)), Counter()


@pytest.mark.parametrize("a", [-3, -2, -1, 0, 1, 2, 4])
def test_truncated_ratio_stabilizes(a):
    r = F(-1)
    stable_from = max(-a, 0)
    for M in range(stable_from, stable_from + 4):
        assert _truncated_ratio(r, a, M) == _closed_ratio(r, a), (a, M)
    if stable_from > 0:
        assert _truncated_ratio(r, a, stable_from - 1) != _closed_ratio(r, a)


# ---------------------------------------------------------------------------
# z-coefficient extraction
# ---------------------------------------------------------------------------


def test_balanced_family_z2():
    s = z_coeff(by_slope_sign(surface_series_terms(WQ, WQ.max_q, WQ.max_q), 0), 2, WQ)
    expected = FormalSeries({mono(T=2): F(1, 2), mono(q1=1, q2=1): F(1)}, WQ)
    assert s == expected


def test_excess_family_z2_spot_values():
    terms = surface_series_terms(WQ, WQ.max_q, WQ.max_q)
    s1 = z_coeff(by_slope_sign(terms, -1), 2, WQ)
    # the would-be (l,d,mu) = (0,0,1) monomial q1*V needs expansion index -1:
    # absent from the honest extraction
    assert s1.coeff(mono(q1=1, V=1)) == 0
    assert s1.coeff(mono(q1=2)) == F(1, 2)
    assert s1.coeff(mono(T=1, q1=1)) == -1
    assert s1.coeff(mono(q1=2, q2=1, V=-1)) == F(1, 2)
    s2 = z_coeff(by_slope_sign(terms, 1), 2, WQ)
    assert s2.coeff(mono(q2=1, V=1)) == 0
    assert s2.coeff(mono(q2=2)) == F(1, 2)
    assert s2.coeff(mono(T=1, q2=1)) == -1


def test_excess1_z2_closed_formula():
    # coefficient of q1^(d+mu) q2^d T^l V^(2-l-2d-mu) is
    # (-1)^l mu^(l+2d+mu-2) / (l! d! (d+mu)!)  once l+2d+mu >= 2
    s = z_coeff(by_slope_sign(surface_series_terms(WQ, WQ.max_q, WQ.max_q), -1), 2, WQ)
    for l in range(3):
        for d in range(3):
            for mu in range(1, 4):
                if l + 2 * d + mu < 2 or 2 * d + mu > WQ.max_q:
                    continue
                want = F((-1) ** l * mu ** (l + 2 * d + mu - 2), _f(l) * _f(d) * _f(d + mu))
                got = s.coeff(mono(T=l, q1=d + mu, q2=d, V=2 - l - 2 * d - mu))
                assert got == want, (l, d, mu)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),  # Q, T0, X, V0, q1, q2: a position; T0 + l >= 0
            st.integers(0, 2),
            st.integers(-3, 3),
            st.integers(-4, 2),
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(-9, 9),  # num, den
            st.integers(1, 9),
            st.integers(0, 4),  # lo, and hi as lo + extra - 1
            st.integers(0, 4),
            st.integers(-4, 4),  # a, b
            st.integers(1, 4),
        ),
        max_size=4,
    )
)
@settings(max_examples=150, deadline=None)
def test_ladder_expansion_writes_each_rung(rows):
    # for each l in [lo, hi], num*a^(l-lo) / (den*b^(l-lo)*l!) at
    # T^(T0+l) V^(V0-l); l outer, the ladders inside it in list order
    ladders = [(*row[:9], row[8] + row[9] - 1, *row[10:]) for row in rows]
    want = [
        (
            Monomial(Q, t0 + l, x, v - l, 0, q1, q2),
            num * a ** (l - lo),
            den * b ** (l - lo) * factorial(l),
        )
        for l in range(9)
        for Q, t0, x, v, q1, q2, num, den, lo, hi, a, b in ladders
        if lo <= l <= hi
    ]
    assert expand_ladders(ladders) == want


@pytest.mark.parametrize("slope", [F(3, 2), F(-2, 3), F(1, 4)])
def test_rational_slope_expands_with_its_denominator(slope):
    # e^(t0/z) * c*M*z^Z * v/(v - slope*z) at z^-m: T^l V^(V(M)-k) with
    # k = l - m - Z, value c * slope^k / l!
    window = TruncationWindow(max_q=4, max_t=5, max_abs_x=2, min_v=-8, max_v=3)
    monomial, m = mono(Q=1, X=1, V=1, Z=-1, q1=1), 2
    terms = z_coeff_terms([FactorTerm(monomial, 5, 7, slope)], m, window)
    got = {mt: F(n, d) for mt, n, d in terms}
    want = {}
    for l in range(window.max_t + 1):
        k = l - m + 1
        if k >= 0 and window.min_v <= 1 - k:
            want[mono(Q=1, T=l, X=1, V=1 - k, q1=1)] = F(5, 7) * slope**k / factorial(l)
    assert len(want) == 5 and got == want


def test_split_presentation_boundary_and_identity():
    terms = surface_series_terms(WQ, WQ.max_q, WQ.max_q)
    excess1, excess2, balanced = (by_slope_sign(terms, sign) for sign in (-1, 1, 0))
    b1, r1 = z_coeff_split(linear_terms(excess1), 2, WQ)
    assert b1 == FormalSeries({mono(q1=1, V=1): F(-1)}, WQ)
    assert b1 + r1 == z_coeff(excess1, 2, WQ)
    b2, r2 = z_coeff_split(linear_terms(excess2), 2, WQ)
    assert b2 == FormalSeries({mono(q2=1, V=1): F(1)}, WQ)
    assert b2 + r2 == z_coeff(excess2, 2, WQ)
    b3, r3 = z_coeff_split(linear_terms(balanced), 2, WQ)
    assert b3 == 0
    assert r3 == z_coeff(balanced, 2, WQ)


def test_large_z_direction_leading_behavior():
    # in the v/z direction the full restricted series starts 1 + t0/z + ...
    series = zero_series(WQ)
    for t in linear_terms(surface_series_terms(WQ, WQ.max_q, WQ.max_q)):
        if t.slope:
            series = series + fraction_expand_factor(t, WQ, v_over_z=True)
        else:  # the factor is 1
            series = series + FormalSeries({t.monomial: t.coefficient}, WQ)
    series = series * series_exp(1, mono(T=1, Z=-1), WQ)
    assert z_slice(series, 0) == 1
    assert z_slice(series, 1) == 0  # no positive powers
    assert z_slice(series, -1) == FormalSeries({mono(T=1): F(1)}, WQ)
    # the first sloped terms arrive at z^-2, where their sign shows
    want = {
        mono(T=2): F(1, 2),
        mono(q1=1, q2=1): F(1),
        mono(V=1, q1=1): F(-1),
        mono(V=1, q2=1): F(1),
    }
    assert z_slice(series, -2) == FormalSeries(want, WQ)


# ---------------------------------------------------------------------------
# inverse-weight expansion coefficients
# ---------------------------------------------------------------------------


def test_phi_k_small_values():
    assert phi_k_coeff(0, 0, WQ) == 0
    assert phi_k_coeff(0, 1, WQ) == FormalSeries({mono(q2=1): F(-1)}, WQ)
    want = FormalSeries({mono(q2=2): F(2), mono(T=1, q2=1): F(-1)}, WQ)
    assert phi_k_coeff(2, 0, WQ) == want
    with pytest.raises(ValueError):
        phi_k_coeff(-1, 0, WQ)


def test_phi_k_negative_slice_indices():
    # for k >= 2 the inverse-weight coefficient carries positive z-powers
    # (d = 0, mu < k), i.e. slices at m down to 1 - k; below that it is zero
    assert phi_k_coeff(2, -1, WQ) == FormalSeries({mono(q2=1): F(-1)}, WQ)
    assert phi_k_coeff(3, -2, WQ) == FormalSeries({mono(q2=1): F(-1)}, WQ)
    want = FormalSeries({mono(q2=2): F(4), mono(T=1, q2=1): F(-1)}, WQ)
    assert phi_k_coeff(3, -1, WQ) == want
    assert phi_k_coeff(2, -2, WQ) == 0
    assert phi_k_coeff(0, -1, WQ) == 0


@pytest.mark.parametrize("m", [0, 1, 2])
def test_phi_sum_reassembles_excess2_extraction(m):
    target = z_coeff(by_slope_sign(surface_series_terms(WQ, WQ.max_q, WQ.max_q), 1), m, WQ)
    acc = zero_series(WQ)
    for k in range(-WQ.min_v + 1):
        acc = acc + scale(phi_k_coeff(k, m, WQ), 1, mono(V=-k))
    assert acc == target


def _f(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
