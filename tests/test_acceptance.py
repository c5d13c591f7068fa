"""Acceptance gate: the eight headline checks, one pass/fail line each.

Run under pytest (eight tests, one per criterion) or directly with
``python3 tests/test_acceptance.py`` for the line-per-criterion summary.
Every comparison below is exact rational arithmetic except criterion 7,
which is the floating-point large-weight validation.
"""

from __future__ import annotations

from fractions import Fraction

from ocmirror.asymptotics import NumericParams, asym_ratio, fitted_error_constant
from ocmirror.closed import surface_series_terms
from ocmirror.correspondence import disk_potential_bessel, run_check
from ocmirror.localization import _vertex_scalar, open_invariant, open_via_closed
from ocmirror.series import FormalSeries, TruncationWindow, mono

from second_routes import (
    bessel_first_kind,
    exceptional_correction,
    expand_terms,
    j_bessel_form,
    j_degree_part_from_graphs,
    j_gamma_form,
    j_reduced_at,
    j_reduced_component,
    linear_terms,
    psi_integral_by_string,
    rhs_assemble,
    scale,
    surface_term_specialized,
)

F = Fraction

# the headline window: all windings to 4, area order 10, log order 4,
# weight-Laurent exponents in [-8, 1]
MAIN_WINDOW = TruncationWindow(max_q=10, max_t=4, max_abs_x=4, min_v=-8, max_v=1)


def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. the correspondence identity itself
# ---------------------------------------------------------------------------


def test_criterion_1_main_identity():
    report = run_check(MAIN_WINDOW)
    assert report.passed
    assert report.diff.is_zero()
    n_terms = sum(1 for _ in report.lhs.items())
    assert n_terms > 0  # not vacuous
    assert report.lhs == rhs_assemble(MAIN_WINDOW)
    _report(1, f"disk potential == assembled sphere side, {n_terms} terms, diff 0")


# ---------------------------------------------------------------------------
# 2. general surface term == the closed form at the origin fixed point
# ---------------------------------------------------------------------------


def test_criterion_2_surface_term_closed_forms():
    window = TruncationWindow(
        max_q=6, max_t=4, max_abs_x=0, min_v=-8, max_v=1, min_z=-24, max_z=2
    )
    by_class = {}
    for t in linear_terms(surface_series_terms(window, window.max_q, window.max_q)):
        by_class.setdefault((t.monomial.q1, t.monomial.q2), []).append(t)
    checked = 0
    for d1 in range(7):
        for d2 in range(7 - d1):
            general = surface_term_specialized(d1, d2, 0)
            closed = by_class.get((d1, d2), [])
            assert expand_terms(general, window) == expand_terms(closed, window), (
                d1,
                d2,
            )
            checked += 1
    _report(2, f"general term == closed-form term on all {checked} classes with d1+d2 <= 6")


# ---------------------------------------------------------------------------
# 3. graph-sum oracle rebuilds the curve series degree parts
# ---------------------------------------------------------------------------


def test_criterion_3_graph_sums_rebuild_curve_series():
    window = TruncationWindow(
        max_q=4, max_t=2, max_abs_x=0, min_v=-8, max_v=8, min_z=-10, max_z=0
    )
    for alpha in (1, 2):
        component = j_reduced_component(alpha, window)
        for d in (1, 2):
            expected = FormalSeries(
                {m: c for m, c in component.items() if m.T == 0 and m.Q == 2 * d},
                window,
            )
            assert j_degree_part_from_graphs(alpha, d, window) == expected, (alpha, d)
    _report(3, "one-point descendant graph sums match both curve components, d <= 2")


# ---------------------------------------------------------------------------
# 4. the two open-invariant routes agree
# ---------------------------------------------------------------------------


def test_criterion_4_open_factorization():
    pairs = [
        (dm, dp)
        for dm in range(6)
        for dp in range(6)
        if dp != dm and abs(dp - dm) <= 3 and min(dm, dp) <= 2
    ]
    for dm, dp in pairs:
        assert open_invariant(dm, dp) == open_via_closed(dm, dp), (dm, dp)
    _report(4, f"direct sum == factorized route on all {len(pairs)} degree pairs")


# ---------------------------------------------------------------------------
# 5. Bessel symmetry and the three series forms
# ---------------------------------------------------------------------------


def test_criterion_5_bessel_symmetry_and_three_forms():
    window = TruncationWindow(
        max_q=12, max_t=2, max_abs_x=0, min_v=-30, max_v=30, min_z=-30, max_z=0
    )
    for mu in range(7):
        plus = bessel_first_kind(mu, 2, mono(Q=1, V=-1), window)
        minus = bessel_first_kind(-mu, 2, mono(Q=1, V=-1), window)
        assert (plus - minus).is_zero(), mu
    forms = 0
    for alpha, eps in ((1, -1), (2, 1)):
        for mu in range(1, 7):
            products = scale(j_reduced_at(alpha, F(eps, mu), window), 1, mono(Q=mu))
            quotients = j_gamma_form(alpha, mu, window)
            bessel = j_bessel_form(alpha, mu, window)
            assert products == quotients == bessel, (alpha, mu)
            forms += 1
    _report(5, f"order symmetry to 6 and {forms} three-way form agreements")


# ---------------------------------------------------------------------------
# 6. cotangent-power integrals: closed form == string recursion
# ---------------------------------------------------------------------------


def _exponent_vectors(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponent_vectors(total - first, parts - 1):
            yield (first,) + rest


def test_criterion_6_psi_closed_form_vs_string_recursion():
    checked = 0
    for n in range(3, 9):
        for a in _exponent_vectors(n - 3, n):
            assert _vertex_scalar([], list(a)) == (psi_integral_by_string(a), 1, 0), a
            checked += 1
    _report(6, f"multinomial closed form == recursion on all {checked} vectors, n <= 8")


# ---------------------------------------------------------------------------
# 7. floating-point large-weight ratio
# ---------------------------------------------------------------------------


def test_criterion_7_asymptotic_ratio():
    params = NumericParams()  # q0=1, q1=q2=1/4, z=1
    r200 = asym_ratio(params, 1, 200)
    assert abs(r200 - 1.0) < 0.05
    constant = fitted_error_constant(params, 1, [50, 100])
    for l in (200, 400):
        v_l = (l + 0.5) * params.z
        assert abs(asym_ratio(params, 1, l) - 1.0) <= constant / v_l, l
    _report(
        7,
        f"|ratio-1| = {abs(r200 - 1.0):.2e} at l=200; decay bound holds to l=400",
    )


# ---------------------------------------------------------------------------
# 8. the exceptional correction is forced, not tuned
# ---------------------------------------------------------------------------


def test_criterion_8_correction_is_forced():
    lhs = disk_potential_bessel(MAIN_WINDOW)
    bare = rhs_assemble(MAIN_WINDOW) - exceptional_correction(MAIN_WINDOW)
    forced = lhs - bare
    assert forced == exceptional_correction(MAIN_WINDOW)
    monomials = list(forced.items())
    assert len(monomials) == 4
    assert {m for m, _ in monomials} == {
        mono(Q=1, X=-1),
        mono(Q=1, X=1),
        mono(T=2, V=-1),
        mono(Q=2, V=-1),
    }
    _report(8, "sphere side without the correction misses exactly the 4 monomials")


# ---------------------------------------------------------------------------


def main() -> int:
    criteria = [
        test_criterion_1_main_identity,
        test_criterion_2_surface_term_closed_forms,
        test_criterion_3_graph_sums_rebuild_curve_series,
        test_criterion_4_open_factorization,
        test_criterion_5_bessel_symmetry_and_three_forms,
        test_criterion_6_psi_closed_form_vs_string_recursion,
        test_criterion_7_asymptotic_ratio,
        test_criterion_8_correction_is_forced,
    ]
    failures = 0
    for number, criterion in enumerate(criteria, start=1):
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"criterion {number}: FAIL — {exc!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
