"""Disk potential vs descendant slice: routes, correction, and the check."""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocmirror.closed import expand_ladders, surface_series_terms
from ocmirror.correspondence import (
    CorrespondenceReport,
    _rhs_walk,
    correction_terms,
    disk_potential_bessel,
    disk_slices,
    disk_potential_localized,
    raw_difference,
    run_check,
)
from ocmirror import cli, closed, correspondence, localization
from ocmirror.localization import open_invariant
from ocmirror.series import FormalSeries, TruncationWindow, _from_raw, mono

from families import sweep_window
from second_routes import (
    KAEHLER,
    _paired_in_winding_variables,
    disk_potential_by_product,
    disk_terms,
    distinguished_pairing_prefactor,
    exceptional_correction,
    rhs_assemble,
    rhs_slices,
    rhs_terms,
    substitute,
    truncated,
    z_coeff,
    z_coeff_terms,
)

F = Fraction

WM = TruncationWindow(max_q=6, max_t=3, max_abs_x=3, min_v=-6, max_v=1)
WS = TruncationWindow(max_q=5, max_t=2, max_abs_x=2, min_v=-5, max_v=1)


# ---------------------------------------------------------------------------
# left side
# ---------------------------------------------------------------------------


def test_disk_leading_coefficients():
    f = disk_potential_bessel(WM)
    assert f.coeff(mono(Q=1, X=1)) == 1
    # negative-winding mirror picks up the odd sign; pinned against the
    # independent graph-sum value below
    assert f.coeff(mono(Q=1, X=-1)) == -1
    assert open_invariant(1, 0) == FormalSeries({mono(): -1}, TruncationWindow.wide())
    assert f.coeff(mono(Q=2, X=2, V=-1)) == F(1, 2)


def test_disk_has_no_winding_zero_part():
    f = disk_potential_bessel(WM)
    assert all(m.X != 0 for m, _ in f.items())


def test_disk_v_exponents_nonpositive():
    f = disk_potential_bessel(WM)
    assert all(m.V <= 0 for m, _ in f.items())


def test_disk_coefficient_formula():
    f = disk_potential_bessel(WM)
    for mu in [-3, -2, -1, 1, 2, 3]:
        for l in range(3):
            for m in range(2):
                mm = mono(
                    Q=2 * m + abs(mu), T=l, X=mu, V=1 - l - 2 * m - abs(mu)
                )
                if not WM.contains(mm):
                    continue
                want = F(mu) ** (l + 2 * m + abs(mu) - 2) / (
                    factorial(l) * factorial(m) * factorial(m + abs(mu))
                )
                assert f.coeff(mm) == want, mm


def test_disk_antisymmetry_under_winding_and_weight_flip():
    f = disk_potential_bessel(WM)
    for m, c in f.items():
        mirrored = mono(Q=m.Q, T=m.T, X=-m.X, V=m.V)
        # F(-1)**V stays exact for negative V (int**negative would go float)
        assert c == -f.coeff(mirrored) * F(-1) ** m.V, m


def test_disk_slices_build_only_the_factorials_a_term_reads(monkeypatch):
    # the walk's values and the ladders' expansion each build their own
    # factorials; record both
    sizes = []
    factorials = correspondence._factorials

    def recorded(n):
        sizes.append(n)
        return factorials(n)

    monkeypatch.setattr(correspondence, "_factorials", recorded)
    monkeypatch.setattr(closed, "_factorials", recorded)
    # no slice holds a winding: no factorial, however far max_t and min_v reach
    far = TruncationWindow(max_q=0, max_t=8000, max_abs_x=0, min_v=-8000, max_v=1)
    for window in (
        far,
        replace(far, max_abs_x=3, max_t=4096),  # at the mass budget
        replace(far, max_q=5),
        replace(far, max_q=5, max_abs_x=3, max_t=4, min_z=1, max_z=2),
    ):
        assert not any(disk_slices(window))
    assert sizes == []
    # Q^1 reaches l = min(max_t, -min_v); the slices reach e = max_q
    for window, top in [
        (TruncationWindow(max_q=3, max_t=9, max_abs_x=2, min_v=-5, max_v=1), 5),
        (TruncationWindow(max_q=7, max_t=2, max_abs_x=1, min_v=-9, max_v=1), 7),
    ]:
        slices = list(disk_slices(window))  # every slice, so every expansion runs
        assert any(slices)
        assert max(sizes) == top
        sizes.clear()


def test_rhs_slices_build_only_the_factorials_a_ladder_reads(monkeypatch):
    # the walk grows one factorial list as far as its ladders' classes read
    # it, d1! and d2!; 0! alone when no ladder is written
    built = []
    factorials = correspondence._factorials

    def recorded(n):
        built.append(factorials(n))
        return built[-1]

    monkeypatch.setattr(correspondence, "_factorials", recorded)
    far = TruncationWindow(max_q=8000, max_t=8000, max_abs_x=0, min_v=-8000, max_v=1)
    for window, top in [
        (far, 1),  # no winding: the balanced classes (0, 0) and (1, 1), at k = 0 only
        (replace(far, max_t=0), 1),  # (1, 1) alone
        (replace(far, min_v=0), 0),  # no V floor below -1: no slice holds a ladder
        (replace(far, max_q=5, max_abs_x=3, max_t=4, min_z=1, max_z=2), 0),  # no slice
        (TruncationWindow(max_q=7, max_t=2, max_abs_x=1, min_v=-9, max_v=1), 4),  # (3, 4)
        (TruncationWindow(max_q=9, max_t=3, max_abs_x=9, min_v=-5, max_v=1), 6),  # (0, 6)
    ]:
        ladders = [ladder for s, _ in _rhs_walk(window) for ladder in s]
        read = max((max(e - mu, e + mu) // 2 for e, _, mu, *_ in ladders), default=0)
        assert read == top, window
        assert [len(facts) - 1 for facts in built] == [top], window
        built.clear()


def test_first_rhs_slice_is_read_before_the_window_is_built():
    # 80,241 classes reach this window's slices, and held 105 MB when they
    # were all built before the first slice
    window = TruncationWindow(max_q=2000, max_t=20, max_abs_x=40, min_v=-2000, max_v=1)
    tracemalloc.start()
    try:
        first = next(_rhs_walk(window))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == ([(0, 0, 0, 1, 0, 0, 1, 1, 2, 2, 0, 1)], [(mono(T=2, V=-1), -1, 2)])
    assert peak < 5_000_000, peak


@st.composite
def _rhs_oracle_window(draw):
    """V ceilings -3..3, Z ranges with and without 0, winding bounds from 0
    to past max_q, max_t from 0, and V floors above 1 - max_q."""
    max_q, max_v, min_z = draw(st.integers(0, 10)), draw(st.integers(-3, 3)), draw(st.integers(-2, 1))
    return TruncationWindow(
        max_q=max_q,
        max_t=draw(st.integers(0, 5)),
        max_abs_x=draw(st.integers(0, max_q + 3)),
        min_v=draw(st.integers(-12, max_v)),
        max_v=max_v,
        min_z=min_z,
        max_z=draw(st.integers(min_z, 2)),
    )


@given(_rhs_oracle_window(), st.booleans())
@example(WM, False)
@example(WM, True)
@example(replace(WM, max_abs_x=9, max_v=-3), False)
@example(replace(WM, max_abs_x=0), False)
@example(replace(WM, max_t=0), True)
@example(replace(WM, max_q=8, min_v=-3), False)
@example(replace(WM, min_z=1, max_z=2), True)
@settings(max_examples=150, deadline=None)
def test_rhs_walk_matches_the_three_stage_route(window, corrupt):
    # each class's ladder written straight from (d1, d2), against the classes
    # built whole, paired and mapped, then read off the window, slice for
    # slice with the correction's terms
    assert list(_rhs_walk(window, corrupt)) == list(rhs_slices(window, corrupt))


def test_localized_route_matches_bessel_route():
    assert disk_potential_localized(WS) == disk_potential_bessel(WS)


def test_localized_route_matches_bessel_route_to_winding_five():
    # sphere degrees up to 5 and windings up to 5, beyond the windows above
    window = TruncationWindow(max_q=12, max_t=3, max_abs_x=5, min_v=-12, max_v=1)
    assert disk_potential_localized(window) == disk_potential_bessel(window)


def test_localized_route_refuses_what_the_closed_form_refuses(monkeypatch):
    # 2*max_q + max_t = 4097: refused with the closed form's message before
    # any graph class is built
    built = []
    monkeypatch.setattr(correspondence, "_open_classes", lambda n, d: built.append(d))
    window = TruncationWindow(max_q=2048, max_t=1, max_abs_x=1, min_v=-8, max_v=1)
    with pytest.raises(ValueError) as closed:
        disk_slices(window)
    with pytest.raises(ValueError) as graphs:
        disk_potential_localized(window)
    assert str(graphs.value) == str(closed.value)
    assert str(closed.value) == "window too large: 2*max_q + max_t = 4097 exceeds 4096"
    assert built == []


@pytest.mark.parametrize(
    "off_grading",
    [
        lambda terms: [(mono(V=m.V - 1), n, d) for m, n, d in terms],  # one V-step low
        lambda terms: terms + [(mono(V=m.V - 1), n, d) for m, n, d in terms],  # two terms
        lambda terms: [],  # no term
    ],
)
def test_localized_route_certifies_the_grading_of_each_graph_sum(monkeypatch, off_grading):
    # the walk places a value at V^(1-2m-|mu|); a graph sum elsewhere, or of
    # more or fewer than one term, raises instead of being re-placed there
    open_sum = correspondence._open_sum
    monkeypatch.setattr(correspondence, "_open_sum", lambda mu, c: off_grading(open_sum(mu, c)))
    with pytest.raises(ArithmeticError, match="off its grading"):
        disk_potential_localized(WS)


def test_localized_route_enumerates_each_degree_once(monkeypatch):
    # windings share the classes of a sphere degree, and their trees'
    # factors: degrees 1-3 are enumerated, degree 0 is the lone vertex at
    # either point, and each tree's factors are computed once, not once per
    # winding
    calls, factored = [], []
    enumerate_classes = localization.enumerate_graph_classes
    block_factors = localization._block_factors

    def counted(n, d):
        calls.append((n, d))
        return enumerate_classes(n, d)

    def counted_factors(labels, edges):
        factored.append((labels, edges))
        return block_factors(labels, edges)

    monkeypatch.setattr(localization, "enumerate_graph_classes", counted)
    monkeypatch.setattr(localization, "_block_factors", counted_factors)
    window = TruncationWindow(max_q=8, max_t=3, max_abs_x=3, min_v=-8, max_v=1)
    assert disk_potential_localized(window) == disk_potential_bessel(window)
    assert calls == [(1, 1), (1, 2), (1, 3)]
    trees = [
        (g.labels, g.edges)
        for d in range(4)
        for g in localization._open_classes(0, d)
    ]
    once_per_tree = list(dict.fromkeys(trees))
    assert len(once_per_tree) == 2 + 1 + 3 + 6
    assert factored == once_per_tree


# ---------------------------------------------------------------------------
# right side
# ---------------------------------------------------------------------------


def test_rhs_kills_area_free_terms():
    rhs = rhs_assemble(WM)
    assert all(m.Q > 0 for m, _ in rhs.items())


def test_rhs_zero_on_area_free_window():
    w = TruncationWindow(max_q=0, max_t=3, max_abs_x=2, min_v=-4, max_v=1)
    assert rhs_assemble(w).is_zero()


def test_correction_is_the_four_stated_monomials():
    corr = exceptional_correction(WM)
    assert dict(corr.items()) == {
        mono(Q=1, X=-1): F(-1),
        mono(Q=1, X=1): F(1),
        mono(T=2, V=-1): F(-1, 2),
        mono(Q=2, V=-1): F(-1),
    }


def test_correction_is_forced_not_tuned():
    # without the correction the two sides differ by exactly it
    lhs = disk_potential_bessel(WM)
    bare = rhs_assemble(WM) - exceptional_correction(WM)
    assert lhs - bare == exceptional_correction(WM)


# ---------------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------------


def test_check_passes_on_medium_window():
    report = run_check(WM)
    assert report.passed
    assert report.diff.is_zero()
    assert report.lhs == rhs_assemble(WM)


def test_check_passes_vacuously_on_empty_window():
    w = TruncationWindow(max_q=0, max_t=0, max_abs_x=0, min_v=0, max_v=0)
    report = run_check(w)
    assert report.passed
    assert report.lhs.is_zero() and rhs_assemble(w).is_zero()


def test_corrupted_correction_fails_at_v_floor():
    report = run_check(WM, corrupt_correction=True)
    assert not report.passed
    assert len(report.diff) > 0
    assert all(m.V == -1 for m, _ in report.diff.items())


def test_raw_difference_settles_unequal_terms_by_their_values():
    q, t = mono(Q=1), mono(T=1)
    # the same value written two ways cancels
    assert raw_difference([(q, 1, 2)], [(q, 2, 4)]) == []
    assert raw_difference([(q, 1, 2), (q, 1, 2)], [(q, 1, 1)]) == []
    # equal numerators over different denominators do not
    assert raw_difference([(q, 1, 2)], [(q, 1, 3)]) == [(q, 1, 6)]
    # a term on one side only keeps its value, negated on the right
    assert raw_difference([(q, 1, 2)], [(q, 1, 2), (t, 3, 9)]) == [(t, -1, 3)]
    # a term repeated on the right counts twice
    assert raw_difference([(t, 1, 2)], [(t, 1, 2), (t, 1, 2)]) == [(t, -1, 2)]


def test_check_settles_each_slice_by_value(monkeypatch):
    # equal ladder lists agree outright; any other slice, or one with
    # correction terms, is expanded on both sides and settled by the values
    # of its terms, whatever their lengths or representations.  A ladder is
    # (Q, T0, X, V0, q1, q2, num, den, lo, hi, a, b)
    left = [
        [],
        [(1, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1, 1)],
        [(2, 0, 1, -1, 0, 0, 1, 2, 0, 1, 1, 1)],
        [(3, 0, 1, -2, 0, 0, 1, 1, 0, 1, 2, 1)],
        [(4, 0, 1, -3, 0, 0, 1, 1, 0, 0, 1, 1)],
        [(5, 0, 1, -4, 0, 0, 1, 1, 0, 1, 2, 3)],
    ]
    right = [
        ([], []),
        ([(1, 0, 1, 0, 0, 0, 2, 4, 0, 0, 1, 1)], []),  # the same values written twice as large
        ([(2, 0, 1, -1, 0, 0, 1, 2, 0, 1, 3, 1)], []),  # another ratio: l = 1 differs
        ([(3, 0, 1, -2, 0, 0, 1, 1, 0, 2, 2, 1)], []),  # one rung longer
        (left[4], [(mono(Q=4, X=1, V=-3), 1, 5)]),  # equal ladders and a correction term
        (left[5], []),  # equal: agrees outright
    ]
    monkeypatch.setattr(correspondence, "_disk_walk", lambda window, value: iter(left))
    monkeypatch.setattr(correspondence, "_rhs_walk", lambda window, corrupt: iter(right))
    report = run_check(WS)
    assert not report.passed
    assert list(report.diff.items()) == [
        (mono(Q=2, T=1, X=1, V=-2), F(-1)),
        (mono(Q=3, T=2, X=1, V=-4), F(-2)),
        (mono(Q=4, X=1, V=-3), F(-1, 5)),
    ]
    assert dict(report.lhs.items()) == {
        mono(Q=1, X=1): F(1, 2),
        mono(Q=2, X=1, V=-1): F(1, 2),
        mono(Q=2, T=1, X=1, V=-2): F(1, 2),
        mono(Q=3, X=1, V=-2): F(1),
        mono(Q=3, T=1, X=1, V=-3): F(2),
        mono(Q=4, X=1, V=-3): F(1),
        mono(Q=5, X=1, V=-4): F(1),
        mono(Q=5, T=1, X=1, V=-5): F(2, 3),
    }


@given(sweep_window(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_check_expands_no_slice_above_the_correction(window, corrupt):
    # the two sides' ladders agree outright from Q^3 on: only the slices the
    # correction joins, Q^0..Q^2, are expanded, each side once
    expanded = []

    def recorded(ladders):
        expanded.append({ladder[0] for ladder in ladders})
        return expand_ladders(ladders)

    with mock.patch.object(correspondence, "expand_ladders", recorded):
        run_check(window, corrupt)
    assert len(expanded) <= 6
    assert all(q <= 2 for qs in expanded for q in qs), expanded


@given(sweep_window())
@settings(max_examples=40, deadline=None)
def test_report_builds_its_left_side_when_read(window):
    report = run_check(window)
    assert "lhs" not in vars(report)
    lhs = report.lhs
    assert lhs == _from_raw(disk_terms(window), window)
    assert report.lhs is lhs


def test_cli_check_never_builds_the_left_side():
    def unread(report):
        raise AssertionError("report.lhs built")

    flags = ["--max-q", "6", "--max-t", "3", "--max-mu", "3", "--min-v", "-6"]
    with mock.patch.object(CorrespondenceReport, "lhs", property(unread)):
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt, corrupt, code in [
                ("json", [], 0),
                ("csv", [], 0),
                ("json", ["--corrupt-exc"], 1),
                ("csv", ["--corrupt-exc"], 1),
            ]:
                assert cli.main(["check", *flags, "--format", fmt, *corrupt]) == code


@given(sweep_window(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_slice_walk_diff_is_the_whole_sides_difference(window, corrupt):
    # the check walks Q-power slices; its difference is the one of the two
    # sides taken whole, the right side built in one extraction
    whole = raw_difference(disk_terms(window), rhs_terms(window, corrupt))
    report = run_check(window, corrupt)
    assert list(report.diff.items()) == [(m, F(n, d)) for m, n, d in whole]
    assert report.passed == (not whole)


WS_FLAGS = ["--max-q", "5", "--max-t", "2", "--max-mu", "2", "--min-v", "-5"]


def _corrupted_check_json() -> str:
    """What ``check --corrupt-exc --format json`` prints on the small window."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", "--corrupt-exc", *WS_FLAGS, "--format", "json"]) == 1
    return out.getvalue()


def test_report_json_schema_and_determinism():
    text = _corrupted_check_json()
    payload = json.loads(text)
    assert set(payload) == {"window", "pass", "diff"}
    assert payload["pass"] is False
    assert payload["window"] == {
        "maxQ": 5,
        "maxT": 2,
        "maxAbsMu": 2,
        "minV": -5,
        "maxV": 1,
    }
    for row in payload["diff"]:
        assert set(row) == {"X", "Q", "T", "V", "value"}
        num, den = row["value"].split("/")
        assert int(den) > 0 and int(num) != 0
    assert _corrupted_check_json() == text


def test_rational_rendering():
    # each leftover as num/den in lowest terms, an integral one over 1
    rows = json.loads(_corrupted_check_json())["diff"]
    assert [(r["X"], r["Q"], r["T"], r["V"], r["value"]) for r in rows] == [
        (0, 0, 2, -1, "-1/1"),
        (0, 2, 0, -1, "-2/1"),
    ]


def test_report_holds_only_its_window_and_difference():
    # passed is read off the difference, the left side rebuilt from the window
    assert [f.name for f in fields(CorrespondenceReport)] == ["window", "diff"]
    for corrupt in (False, True):
        report = run_check(WS, corrupt)
        assert report.passed == report.diff.is_zero() == (not corrupt)
        assert report.lhs == disk_potential_bessel(WS)


def _rhs_all_windings(window: TruncationWindow) -> FormalSeries:
    """Oracle for ``rhs_assemble``: the expanded slice, mapped afterwards.

    Every excess up to max_q goes through ``z_coeff`` in a window shifted one
    V-step up, then the pairing and the Kaehler substitution, whose window
    then drops the windings beyond max_abs_x.  The pairing window keeps a V
    ceiling of at least 0, so the 1/v prefactor itself is never clipped.
    """
    pre = TruncationWindow(
        max_q=window.max_q,
        max_t=window.max_t,
        max_abs_x=window.max_abs_x,
        min_v=window.min_v + 1,
        max_v=window.max_v + 1,
    )
    slice2 = z_coeff(surface_series_terms(pre, pre.max_q, pre.max_q), 2, pre)
    mid = replace(pre, min_v=window.min_v, max_v=max(pre.max_v, 0))
    paired = truncated(slice2, mid) * truncated(distinguished_pairing_prefactor(), mid)
    result = truncated(substitute(paired, KAEHLER), window)
    return result + exceptional_correction(window)


def test_surface_terms_land_at_their_slope():
    # q1^d1 q2^d2 -> (-Q)^(d1+d2) X^(d2-d1): a term's slope is its winding
    window = TruncationWindow(max_q=6, max_t=2, max_abs_x=6, min_v=-6, max_v=3)
    for t in surface_series_terms(window, window.max_q, window.max_q):
        assert t.slope == t.monomial.q2 - t.monomial.q1
        # the slice z^Z(term), where every term has its leading coefficient
        landed = substitute(z_coeff([t], -t.monomial.Z, window), KAEHLER)
        assert not landed.is_zero(), t
        assert all(m.X == t.slope for m, _ in landed.items()), t


@given(sweep_window())
@settings(max_examples=80, deadline=None)
def test_check_passes_on_random_windows(window):
    assert run_check(window).passed
    rhs = rhs_assemble(window)
    # the substitution trades every Kaehler variable for winding/area ones
    assert all(m.q1 == 0 and m.q2 == 0 for m, _ in rhs.items())
    # building only the window's windings and degrees loses nothing
    assert rhs == _rhs_all_windings(window)


@given(sweep_window())
@settings(max_examples=80, deadline=None)
def test_each_disk_term_has_one_source_class(window):
    # T^l Q^e X^mu V^(1-l-e) comes from the class ((e-mu)/2, (e+mu)/2) alone
    # (at expansion index k = l + e - 2, since the slice term has V = -1 - k),
    # with the same value; every class is expanded, whatever its winding or
    # degree
    sources = {}
    for t in surface_series_terms(window, window.max_q, window.max_q):
        d1, d2 = t.monomial.q1, t.monomial.q2
        for m, n, d in z_coeff_terms([_paired_in_winding_variables(t)], 2, window):
            sources.setdefault(m, []).append((d1, d2, F(n, d)))
    correction = {m for m, _, _ in correction_terms(window)}
    left = disk_terms(window)
    for m, n, d in left:
        e, mu = m.Q, m.X
        if m in correction:  # Q*X^-1 and Q*X, at k = -1
            assert m not in sources
        else:
            assert sources[m] == [((e - mu) // 2, (e + mu) // 2, F(n, d))], m
    # the slice terms without a partner: T^2/(2v) and Q^2/v, at winding 0
    assert set(sources) - {m for m, _, _ in left} <= correction


@given(sweep_window(top_v=3))
@example(TruncationWindow(max_q=2, max_t=1, max_abs_x=2, min_v=-10, max_v=-3))
@example(TruncationWindow(max_q=8, max_t=4, max_abs_x=4, min_v=1, max_v=3))
@settings(max_examples=80, deadline=None)
def test_disk_terms_match_the_series_products(window):
    # the coefficients written down directly against exp * Bessel per
    # winding summed over one lcm; the examples hold no term in their V range
    assert disk_potential_bessel(window) == disk_potential_by_product(window)


@given(sweep_window(top_v=3))
@example(TruncationWindow(max_q=6, max_t=3, max_abs_x=3, min_v=-8, max_v=1, min_z=1, max_z=2))
@settings(max_examples=80, deadline=None)
def test_localized_route_matches_bessel_route_on_random_windows(window):
    # V ceilings from -4 to 3: the dressing lowers V, so a graph-sum value
    # above a negative ceiling still reaches the window; the example's Z
    # range leaves both routes empty
    assert disk_potential_localized(window) == disk_potential_bessel(window)


def _off_grading(s: FormalSeries):
    """The monomials of s off the grading V + T + Q = 1."""
    return [m for m, _ in s.items() if m.V + m.T + m.Q != 1]


@given(sweep_window())
@settings(max_examples=80, deadline=None)
def test_every_monomial_has_grading_one(window):
    # weight exponent, log order and area order add up to 1 in every term
    for build in (disk_potential_bessel, rhs_assemble, exceptional_correction):
        assert _off_grading(build(window)) == [], build.__name__


def test_grading_one_holds_on_nonempty_series():
    # the property above is not vacuous: each side has terms on WM
    for build in (disk_potential_bessel, rhs_assemble, exceptional_correction):
        s = build(WM)
        assert len(s) > 0 and _off_grading(s) == [], build.__name__


@pytest.mark.parametrize("max_v", [-3, -5])
def test_check_passes_below_a_v_ceiling_of_minus_two(max_v):
    # pairing in a window of V ceiling max_v + 1 once clipped the 1/v
    # prefactor itself, which left the right side empty
    window = TruncationWindow(max_q=6, max_t=3, max_abs_x=3, min_v=-8, max_v=max_v)
    assert run_check(window).passed
    rhs = rhs_assemble(window)
    assert not rhs.is_zero()
    assert rhs == _rhs_all_windings(window)


@pytest.mark.parametrize("max_v", [-1, 2])
def test_rhs_matches_the_oracle_on_a_large_window(max_v):
    window = TruncationWindow(max_q=32, max_t=10, max_abs_x=14, min_v=-29, max_v=max_v)
    assert rhs_assemble(window) == _rhs_all_windings(window)
