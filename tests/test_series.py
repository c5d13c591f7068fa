"""Kernel tests: exact sparse Laurent series and unexpanded linear factors."""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocmirror.closed import surface_series_terms
from ocmirror.series import (
    VARIABLES,
    FormalSeries,
    Monomial,
    TruncationWindow,
    _from_raw,
    lowest_terms,
    mono,
)

from second_routes import (
    LinearFactorTerm,
    bessel_first_kind,
    bounded_mass,
    expand_terms,
    factor_terms,
    fraction_bessel_first_kind,
    fraction_expand_factor,
    fraction_series_exp,
    fraction_z_coeff,
    linear_terms,
    monomial_power,
    one_series,
    scale,
    series_exp,
    series_sum,
    substitute,
    substitute_terms,
    truncated,
    z_coeff,
    z_slice,
    zero_series,
)

W = TruncationWindow(max_q=6, max_t=4, max_abs_x=3, min_v=-6, max_v=1, min_z=-6, max_z=2)


def s_of(*terms, window=W):
    return FormalSeries(dict(terms), window)


# ---------------------------------------------------------------------------
# monomials and windows
# ---------------------------------------------------------------------------


def test_monomial_algebra():
    a = mono(Q=2, V=-1)
    b = mono(Q=1, T=3, V=2, Z=-1)
    assert a * b == mono(Q=3, T=3, V=1, Z=-1)
    assert monomial_power(a, 3) == mono(Q=6, V=-3)
    assert monomial_power(a, 0) == Monomial()
    assert str(mono(Q=1, V=-2)) == "Q*V^-2"
    assert str(Monomial()) == "1"


def test_mono_rejects_unknown_variable():
    with pytest.raises(ValueError):
        mono(W=1)


def test_window_contains():
    assert W.contains(mono(Q=6, T=4, X=-3, V=-6, Z=2))
    assert not W.contains(mono(Q=7))
    assert not W.contains(mono(Q=-1))  # negative Q-powers never admitted
    assert not W.contains(mono(V=2))
    assert not W.contains(mono(Z=-7))
    assert not W.contains(mono(q1=4, q2=3))  # joint bound: 4 + 3 > max_q = 6
    assert W.contains(mono(q1=4, q2=2))


def test_window_intersect_and_validation():
    w2 = TruncationWindow(max_q=3, max_t=9, max_abs_x=1, min_v=-2, max_v=0, min_z=-1, max_z=5)
    i = W.intersect(w2)
    assert (i.max_q, i.max_t, i.max_abs_x) == (3, 4, 1)
    assert (i.min_v, i.max_v, i.min_z, i.max_z) == (-2, 0, -1, 2)
    with pytest.raises(ValueError):
        TruncationWindow(max_q=-1, max_t=0, max_abs_x=0, min_v=0)
    with pytest.raises(ValueError):
        TruncationWindow(max_q=1, max_t=1, max_abs_x=1, min_v=1, max_v=0)


# ---------------------------------------------------------------------------
# series container
# ---------------------------------------------------------------------------


def test_construction_purges_zeros_and_out_of_window():
    s = s_of((mono(Q=1), Fraction(0)), (mono(Q=9), 5), (mono(T=1), Fraction(2, 3)))
    assert len(s) == 1
    assert s.coeff(mono(T=1)) == Fraction(2, 3)
    assert s.coeff(mono(Q=1)) == 0


def test_equality_ignores_window_but_not_terms():
    a = s_of((mono(Q=1), 2))
    b = FormalSeries({mono(Q=1): 2}, TruncationWindow.wide())
    assert a == b
    assert a != s_of((mono(Q=1), 3))
    assert zero_series(W) == 0
    assert one_series(W) == 1


def test_items_sorted_lexicographically():
    s = s_of((mono(T=1), 1), (mono(Q=1), 1), (mono(Q=1, T=1), 1))
    assert [m for m, _ in s.items()] == [mono(T=1), mono(Q=1), mono(Q=1, T=1)]


def test_mul_truncates_to_intersection():
    a = s_of((mono(Q=4), 1))
    b = s_of((mono(Q=3), 1))
    assert (a * b).is_zero()  # Q^7 falls outside
    assert a * s_of((mono(Q=2), 3)) == s_of((mono(Q=6), 3))


def test_scale_matches_singleton_mul():
    s = s_of((mono(Q=1, V=-1), Fraction(5, 7)), (mono(T=2), -3))
    assert scale(s, Fraction(2, 3), mono(V=1)) == s * s_of((mono(V=1), Fraction(2, 3)))


def test_z_slice():
    s = s_of((mono(Q=2, Z=-1), 4), (mono(Z=-1, V=1), 1), (mono(Q=1), 7))
    sl = z_slice(s, -1)
    assert sl == s_of((mono(Q=2), 4), (mono(V=1), 1))


# ---------------------------------------------------------------------------
# hypothesis: ring axioms and substitution homomorphism
# ---------------------------------------------------------------------------

# denominators up to 30, so that sums rescale to an lcm larger than either
# denominator and results reduce by a nontrivial gcd
small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=30
)
# every field is named, since builds() fills an unnamed int field with any
# integer and the series would almost always be empty; the two-sided X, V and
# Z are so narrow that a triple product stays inside W, where truncation
# cannot drop a monomial that a later factor would bring back (outside that
# range it can: test_truncation_breaks_associativity_in_two_sided_variables)
small_monomial = st.builds(
    Monomial,
    Q=st.integers(0, 3),
    T=st.integers(0, 2),
    X=st.integers(-1, 1),
    V=st.integers(-2, 0),
    Z=st.integers(-2, 0),
    q1=st.integers(0, 1),
    q2=st.integers(0, 1),
)
small_series = st.dictionaries(small_monomial, small_fraction, max_size=4).map(
    lambda d: FormalSeries(d, W)
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert a * one_series(W) == a


def test_truncation_breaks_associativity_in_two_sided_variables():
    # the counterexample of the series module docstring, on |X| <= 3
    x_inv2, x = s_of((mono(X=-2), 1)), s_of((mono(X=1), 1))
    assert (x_inv2 * x_inv2) * x == 0
    assert x_inv2 * (x_inv2 * x) == s_of((mono(X=-3), 1))


@given(small_series, small_series)
@settings(max_examples=40, deadline=None)
def test_substitute_is_ring_homomorphism(a, b):
    images = {"Z": (Fraction(1, 2), mono(V=1)), "X": (Fraction(-1), mono(Q=1))}
    # X ↦ -Q can push negative X-powers to negative Q-powers, outside every
    # window; restrict to nonnegative X so both sides stay representable.
    a = FormalSeries({m: c for m, c in a.items() if m.X >= 0}, W)
    b = FormalSeries({m: c for m, c in b.items() if m.X >= 0}, W)
    assert substitute(a + b, images) == substitute(a, images) + substitute(b, images)
    assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)


# ---------------------------------------------------------------------------
# hypothesis: kernel results against the validated constructor, on two
# different windows (a missing window filter shows only when they differ)
# ---------------------------------------------------------------------------

# every window admits V = Z = 0, so any two of them intersect
random_window = st.builds(
    TruncationWindow,
    max_q=st.integers(0, 4),
    max_t=st.integers(0, 3),
    max_abs_x=st.integers(0, 2),
    min_v=st.integers(-4, 0),
    max_v=st.integers(0, 2),
    min_z=st.integers(-3, 0),
    max_z=st.integers(0, 2),
)


def monomials_near(w: TruncationWindow):
    """Monomials inside ``w`` or one step outside it in some direction."""
    return st.builds(
        Monomial,
        Q=st.integers(0, w.max_q + 1),
        T=st.integers(0, w.max_t + 1),
        X=st.integers(-w.max_abs_x - 1, w.max_abs_x + 1),
        V=st.integers(w.min_v - 1, w.max_v + 1),
        Z=st.integers(w.min_z - 1, w.max_z + 1),
        q1=st.integers(0, w.max_q),
        q2=st.integers(0, 1),
    )


def monomials_inside(w: TruncationWindow):
    """Monomials inside ``w``, except where q1 + q2 = 2 exceeds a max_q below 2."""
    return st.builds(
        Monomial,
        Q=st.integers(0, w.max_q),
        T=st.integers(0, w.max_t),
        X=st.integers(-w.max_abs_x, w.max_abs_x),
        V=st.integers(w.min_v, w.max_v),
        Z=st.integers(w.min_z, w.max_z),
        q1=st.integers(0, 1),
        q2=st.integers(0, 1),
    )


# the same windows moved along V and Z, so two of them may not intersect
shifted_window = st.builds(
    lambda w, dv, dz: replace(
        w, min_v=w.min_v + dv, max_v=w.max_v + dv, min_z=w.min_z + dz, max_z=w.max_z + dz
    ),
    random_window,
    st.integers(-6, 6),
    st.integers(-5, 5),
)

# half the monomials drawn inside the window (only one in thirteen of those
# drawn near it falls inside), and two windows in three holding V^0 and Z^0,
# so that products of two drawn series are not almost always empty
windowed_series = st.one_of(random_window, random_window, shifted_window).flatmap(
    lambda w: st.dictionaries(
        st.one_of(monomials_inside(w), monomials_near(w)), small_fraction, max_size=6
    ).map(lambda d: FormalSeries(d, w))
)
scalar = st.one_of(st.integers(-3, 3), small_fraction)


def _validated(pairs, window):
    """The same operation, term by term, through the public constructor."""
    return FormalSeries(list(pairs), window)


def _assert_contract(result, expected, window):
    assert result == expected
    assert result.window == window
    # the canonical form: positive denominator, nonzero int numerators, content 1
    nums, den = result._nums, result._den
    assert type(den) is int and den > 0
    assert gcd(den, *nums.values()) == 1
    for m, n in nums.items():
        assert window.contains(m), m
        assert type(n) is int and n != 0
    for m, c in result.items():
        assert type(c) is Fraction and c != 0


def _substitute_by_hand(s, images):
    pairs = []
    for m, c in s.items():
        new_m = Monomial(*(0 if name in images else e for name, e in zip(VARIABLES, m)))
        for name, (ic, im) in images.items():
            e = m[VARIABLES.index(name)]
            new_m = new_m * monomial_power(im, e)
            c = c * Fraction(ic) ** e
        pairs.append((new_m, c))
    return _validated(pairs, s.window)


# raw material of the expansions: unexpanded linear factors and Bessel arguments
factor_monomial = st.builds(
    Monomial,
    Q=st.integers(0, 1),
    T=st.just(0),
    X=st.integers(-1, 1),
    V=st.integers(-3, 1),
    Z=st.integers(-3, 0),
    q1=st.integers(0, 1),
    q2=st.integers(0, 1),
)
linear_factor = st.builds(LinearFactorTerm, small_fraction, factor_monomial, st.integers(-4, 4))
massive_monomial = st.builds(
    Monomial,
    Q=st.integers(0, 1),
    T=st.integers(0, 1),
    X=st.integers(-1, 1),
    V=st.integers(-1, 0),
    Z=st.integers(-1, 0),
    q1=st.just(0),
    q2=st.just(0),
).filter(lambda m: bounded_mass(m) > 0)


@given(
    windowed_series,
    windowed_series,
    scalar,
    st.builds(
        Monomial,
        Q=st.integers(0, 1),
        T=st.just(0),
        X=st.integers(-1, 1),
        V=st.integers(-1, 1),
        Z=st.just(0),
        q1=st.just(0),
        q2=st.just(0),
    ),
    random_window,
    st.integers(-3, 2),
    st.integers(1, 2),
    st.lists(linear_factor, max_size=4),
    massive_monomial,
    st.integers(-3, 3),
    st.integers(-1, 3),
)
@settings(max_examples=200, deadline=None)
def test_kernel_results_match_validated_constructor(
    a, b, c, shift, other_window, z_exp, z_span, factors, arg, order, z_index
):
    w = a.window.intersect(b.window)
    a_terms, b_terms = list(a.items()), list(b.items())
    _assert_contract(a + b, _validated(a_terms + b_terms, w), w)
    _assert_contract(a - b, _validated(a_terms + [(m, -k) for m, k in b_terms], w), w)
    _assert_contract(
        a * b, _validated([(m1 * m2, k1 * k2) for m1, k1 in a_terms for m2, k2 in b_terms], w), w
    )
    _assert_contract(-a, _validated([(m, -k) for m, k in a_terms], a.window), a.window)
    for m in (Monomial(), shift):
        _assert_contract(
            scale(a, c, m), _validated([(mm * m, k * c) for mm, k in a_terms], a.window), a.window
        )
    # re-truncation through the validated constructor keeps the canonical form
    _assert_contract(truncated(a, other_window), _validated(a_terms, other_window), other_window)
    # a Z-range that may exclude 0
    zw = replace(a.window, min_z=z_exp, max_z=z_exp + z_span)
    _assert_contract(truncated(a, zw), _validated(a_terms, zw), zw)
    _assert_contract(
        series_sum([a, b], other_window),
        _validated(a_terms + b_terms, other_window.intersect(w)),
        other_window.intersect(w),
    )
    images = {
        "q1": (Fraction(-1), mono(Q=1, X=-1)),
        "Z": (Fraction(1, 2), mono(V=1)),
        "X": (3, mono(T=1, X=1)),
    }
    _assert_contract(substitute(a, images), _substitute_by_hand(a, images), a.window)
    # the expansions, against their one-Fraction-per-coefficient routes, in a
    # window that holds V^0 and Z^0
    e = other_window
    _assert_contract(series_exp(c, arg, e), fraction_series_exp(c, arg, e), e)
    _assert_contract(
        bessel_first_kind(order, c, arg, e), fraction_bessel_first_kind(order, c, arg, e), e
    )
    _assert_contract(
        z_coeff(factor_terms(factors), z_index, e), fraction_z_coeff(factors, z_index, e), e
    )


@given(random_window, st.lists(linear_factor, max_size=4), st.integers(-2, 4))
@settings(max_examples=300, deadline=None)
def test_z_coeff_is_the_z_slice_of_the_expanded_product(w, extra, m):
    # the surface terms and a few with other slopes: z_coeff reads one
    # z-power off e^(t0/z) * sum(terms) without building the z/v ladders;
    # here they are built, in a window deep enough in Z for every rung and
    # every power of 1/z that reaches z^-m
    terms = linear_terms(surface_series_terms(w, w.max_q, w.max_q)) + tuple(extra)
    zs = [t.monomial.Z for t in terms]
    deep = replace(w, min_z=min(-w.max_t, -m, *zs), max_z=max(0, w.max_t - m, *zs))
    product = series_exp(1, mono(T=1, Z=-1), deep) * expand_terms(terms, deep)
    assert truncated(z_slice(product, -m), w) == z_coeff(factor_terms(terms), m, w)


def test_equal_values_reached_through_different_denominators():
    a = s_of((mono(Q=1), Fraction(1, 6)), (mono(T=1), Fraction(-3, 10)))
    b = s_of((mono(Q=1), Fraction(3, 4)), (mono(V=-1), Fraction(5, 9)), (mono(T=1), Fraction(3, 10)))
    c = s_of((mono(T=1), Fraction(7, 15)), (Monomial(), Fraction(2, 21)))
    assert (a * b) * c == a * (b * c)
    assert a + b - b == a
    assert (a + b).coeff(mono(T=1)) == 0  # -3/10 + 3/10 cancels and is dropped
    assert (a + b).coeff(mono(Q=1)) == Fraction(11, 12)
    # 1/6 + 5/6 reduces to 1 over denominator 1
    assert s_of((Monomial(), Fraction(1, 6))) + s_of((Monomial(), Fraction(5, 6))) == 1
    # clipping the only term over 4 leaves 2/4, which reduces to 1/2
    halves = s_of((mono(Q=1), Fraction(1, 2)), (mono(T=1), Fraction(1, 4)))
    assert truncated(halves, replace(W, max_t=0)) == s_of((mono(Q=1), Fraction(1, 2)))


# raw (monomial, num, den) lists over a few monomials, so that monomials
# repeat; numerators of either sign, zero among them, and denominators built
# from the primes 2, 3, 5, so that they share factors and terms can cancel
raw_monomial = st.sampled_from([Monomial(), mono(Q=1), mono(T=2, V=-1), mono(X=-1, V=-3)])
raw_denominator = st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c, st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)
)
raw_term = st.tuples(raw_monomial, st.integers(-12, 12), raw_denominator)


@st.composite
def raw_lists(draw):
    raw = draw(st.lists(raw_term, max_size=10))
    # some terms again, negated over a tripled denominator, so that whole
    # monomials cancel through different representations
    again = draw(st.lists(st.sampled_from(raw), max_size=len(raw))) if raw else []
    return raw + [(m, -3 * n, 3 * d) for m, n, d in again]


@given(raw_lists())
@example([(mono(Q=1), 1, 2), (mono(Q=1), -2, 4), (Monomial(), 3, 6), (Monomial(), 1, 3)])
@settings(max_examples=300, deadline=None)
def test_lowest_terms_are_the_series_built_from_the_same_terms(raw):
    wide = TruncationWindow.wide()
    expected = [(m, c.numerator, c.denominator) for m, c in _from_raw(raw, wide).items()]
    assert lowest_terms(raw) == expected
    assert lowest_terms(raw[::-1]) == expected


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", Decimal("0.1")], ids=repr)
def test_inexact_coefficients_are_refused(bad):
    with pytest.raises(TypeError):
        FormalSeries({mono(Q=1): bad}, W)
    with pytest.raises(TypeError):
        FormalSeries([(mono(Q=1), bad)], W)
    with pytest.raises(TypeError):
        FormalSeries({mono(Q=1): bad}, W)
    with pytest.raises(TypeError):
        scale(one_series(W), bad)
    with pytest.raises(TypeError):
        series_exp(bad, mono(T=1), W)
    with pytest.raises(TypeError):
        LinearFactorTerm(bad, Monomial(), 1)
    with pytest.raises(TypeError):
        LinearFactorTerm(1, Monomial(), bad)
    with pytest.raises(TypeError):
        substitute(one_series(W), {"T": (bad, Monomial())})
    with pytest.raises(TypeError):
        substitute_terms([LinearFactorTerm(1, mono(T=1), 0)], {"T": (bad, Monomial())})


def test_substitute_examples():
    s = s_of((mono(q1=2, Z=-1), 1), window=W)
    out = substitute(s, {"q1": (Fraction(-1), mono(Q=1, X=-1))})
    assert out == s_of((mono(Q=2, X=-2, Z=-1), 1))  # (-1)^2 = +1
    t = s_of((mono(q2=1), 1))
    assert substitute(t, {"q2": (Fraction(-1), mono(Q=1, X=1))}) == s_of((mono(Q=1, X=1), -1))


def test_substitute_zero_image():
    s = s_of((mono(T=2), 5), (mono(Q=1), 1))
    assert substitute(s, {"T": (0, Monomial())}) == s_of((mono(Q=1), 1))
    with pytest.raises(ValueError):
        substitute(s_of((mono(Z=-1), 1)), {"Z": (0, Monomial())})


def test_substitute_rejects_unknown_variable():
    with pytest.raises(ValueError):
        substitute(one_series(W), {"R": (1, Monomial())})


def test_substitute_terms_maps_each_term_as_substitute_does():
    terms = [
        LinearFactorTerm(Fraction(2, 3), mono(q1=2, q2=1, Z=-3), 1),
        LinearFactorTerm(-1, mono(T=1, q2=2, V=-1), -2),
        LinearFactorTerm(5, mono(X=-1, q1=1, Z=-1), 0),
    ]
    images = {
        "q1": (Fraction(-1), mono(Q=1, X=-1)),
        "q2": (Fraction(-1, 2), mono(Q=1, X=1)),
        "T": (0, Monomial()),
    }
    wide = TruncationWindow.wide()
    out = substitute_terms(terms, images)
    # the zero image of T kills the second term; the others keep their slope
    assert [t.slope for t in out] == [1, 0]
    for t, image in zip((terms[0], terms[2]), out):
        assert FormalSeries({image.monomial: image.coefficient}, wide) == substitute(
            FormalSeries({t.monomial: t.coefficient}, wide), images
        )
    for variable in ("V", "Z"):
        with pytest.raises(ValueError):
            substitute_terms(terms, {variable: (1, mono(Q=1))})


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------


def _exp_by_products(s: FormalSeries) -> FormalSeries:
    """Oracle for ``series_exp``: 1 + sum_n s^n/n!, each power a truncated product."""
    for m, _ in s.items():
        assert bounded_mass(m) > 0, m
    result = one_series(s.window)
    power = one_series(s.window)
    fact = 1
    for n in range(1, s.window.mass_budget + 1):
        power = power * s
        if power.is_zero():
            break
        fact *= n
        result = result + scale(power, Fraction(1, fact))
    return result


def test_exp_of_unit_direction():
    s = series_exp(1, mono(T=1, Z=-1), W)
    for l in range(W.max_t + 1):
        assert s.coeff(mono(T=l, Z=-l)) == Fraction(1, _fact(l))
    assert len(s) == W.max_t + 1


def test_exp_group_law():
    a, b = Fraction(2), Fraction(-1, 3)
    for m in (mono(T=1, V=-1), mono(Q=1, X=1), mono(T=1, Z=-1), mono(q1=1, q2=1, Z=-2)):
        assert series_exp(a, m, W) * series_exp(b, m, W) == series_exp(a + b, m, W), m


def exp_monomials(w: TruncationWindow):
    """Monomials of positive bounded mass, mostly inside ``w``."""
    inside = monomials_inside(w)
    return st.one_of(inside, inside, monomials_near(w)).map(
        lambda m: m if bounded_mass(m) > 0 else m * mono(T=1)
    )


# two draws in three keep V^0 and Z^0 inside the window
exp_arguments = st.one_of(random_window, random_window, shifted_window).flatmap(
    lambda w: st.tuples(st.just(w), exp_monomials(w), scalar)
)


@given(exp_arguments)
@settings(max_examples=300, deadline=None)
def test_exp_matches_repeated_products(args):
    # shifted windows may exclude V^0 or Z^0, where both routes give zero
    window, m, c = args
    got = series_exp(c, m, window)
    _assert_contract(got, _exp_by_products(FormalSeries({m: c}, window)), window)


def test_exp_rejects_constant_and_massless_terms():
    with pytest.raises(ValueError):
        series_exp(1, Monomial(), W)
    with pytest.raises(ValueError):
        series_exp(1, mono(V=-1), W)  # pure V-monomial: mass 0
    with pytest.raises(ValueError):
        series_exp(1, mono(T=1), TruncationWindow.wide())


# ---------------------------------------------------------------------------
# linear factors: expansion directions and telescoping sign pins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("slope", [Fraction(1), Fraction(-2), Fraction(3, 2)])
def test_z_over_v_telescopes(slope):
    t = LinearFactorTerm(Fraction(1), Monomial(), slope)
    s = fraction_expand_factor(t, W)
    # multiply back by (1 - slope * z/v): boundary monomial exits through the
    # V-floor/Z-ceiling, so the product is exactly 1 inside the window
    back = s * s_of((Monomial(), 1), (mono(V=-1, Z=1), -slope))
    assert back == one_series(W)
    assert s.coeff(Monomial()) == 1
    assert s.coeff(mono(V=-1, Z=1)) == slope
    assert s.coeff(mono(V=-2, Z=2)) == slope**2


@pytest.mark.parametrize("slope", [Fraction(1), Fraction(-1), Fraction(5, 3)])
def test_v_over_z_telescopes(slope):
    # window shape matters: with max_v <= -min_z the boundary monomial of the
    # telescope exits through the V-ceiling and the product is exactly v
    t = LinearFactorTerm(Fraction(1), Monomial(), slope)
    s = fraction_expand_factor(t, W, v_over_z=True)
    assert W.max_v <= -W.min_z
    back = s * s_of((mono(V=1), 1), (mono(Z=1), -slope))
    assert back == s_of((mono(V=1), 1))
    assert s.coeff(mono(V=1, Z=-1)) == -1 / slope


def test_z_over_v_slope_zero_is_bare_monomial():
    t = LinearFactorTerm(Fraction(7), mono(Q=2), Fraction(0))
    assert fraction_expand_factor(t, W) == s_of((mono(Q=2), 7))


def test_v_over_z_rejects_slope_zero():
    with pytest.raises(ValueError):
        fraction_expand_factor(
            LinearFactorTerm(Fraction(1), Monomial(), Fraction(0)), W, v_over_z=True
        )


def test_expansion_respects_window_depth():
    w = TruncationWindow(max_q=0, max_t=0, max_abs_x=0, min_v=-3, max_v=1, min_z=-2, max_z=8)
    t = LinearFactorTerm(Fraction(1), Monomial(), Fraction(2))
    s = fraction_expand_factor(t, w)
    assert len(s) == 4  # k = 0..3, stopped by the V-floor
    assert s.coeff(mono(V=-3, Z=3)) == 8


def test_factor_carries_coefficient_and_monomial():
    t = LinearFactorTerm(Fraction(-1, 2), mono(q1=1, Z=-1), Fraction(3))
    s = fraction_expand_factor(t, W)
    assert s.coeff(mono(q1=1, Z=-1)) == Fraction(-1, 2)
    assert s.coeff(mono(q1=1, V=-1)) == Fraction(-3, 2)


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
