"""Fixed-point tables and pairings for both target geometries."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ocmirror.geometry import phi_p1

from second_routes import (
    CHARGES,
    CONES,
    RAYS,
    SURFACE_POINTS,
    SymbolicPairing,
    UPoly,
    distinguished_pairing_prefactor,
    divisor_restriction,
    euler_p1,
    euler_surface,
    flag_weight,
    hyperplane_p1,
    hyperplane_restriction,
    integral_p1,
    pairing_p1,
    pairing_surface,
    phi_dual_p1,
    point_basis_class,
    unit_p1,
    v_term,
)

# ---------------------------------------------------------------------------
# projective line
# ---------------------------------------------------------------------------


def test_p1_pairing_table():
    one, h = unit_p1(), hyperplane_p1()
    assert pairing_p1(one, h) == v_term(1)  # degree of the hyperplane
    assert pairing_p1(one, one) == 0  # dim reasons: no equivariant lift
    assert pairing_p1(h, h) == 0  # (-v/2)^2/(-v) + (v/2)^2/v = 0
    assert pairing_p1(phi_p1(1), phi_p1(1)) == v_term(-1, -1)
    assert pairing_p1(phi_p1(2), phi_p1(2)) == v_term(1, -1)
    assert pairing_p1(phi_p1(1), phi_p1(2)) == 0


def test_p1_basis_resolves_hyperplane():
    # H = (-v/2) phi_1 + (v/2) phi_2, checked restriction-wise
    h = hyperplane_p1()
    (c1, k1), (c2, k2) = phi_p1(1)[0], phi_p1(2)[1]
    assert (c1 * Fraction(-1, 2), k1 + 1) == h[0]
    assert (c2 * Fraction(1, 2), k2 + 1) == h[1]


def test_p1_duals_pair_to_identity():
    for a in (1, 2):
        for b in (1, 2):
            expected = v_term(1) if a == b else v_term(0)
            assert pairing_p1(phi_p1(a), phi_dual_p1(b)) == expected


def test_p1_integral_localizes():
    # pushforward of phi_alpha is 1/Euler-weight at its own point
    assert integral_p1(phi_p1(1)) == v_term(-1, -1)
    assert integral_p1(phi_p1(2)) == v_term(1, -1)
    assert euler_p1(1) == (-1, 1)
    assert euler_p1(2) == (1, 1)


# ---------------------------------------------------------------------------
# surface combinatorics
# ---------------------------------------------------------------------------


def test_charges_are_relations_among_rays():
    # for each curve class, sum_i (D_i . beta) * ray_i = 0 in the lattice
    for k in range(2):
        total = (0, 0)
        for chg, ray in zip(CHARGES, RAYS):
            total = (total[0] + chg[k] * ray[0], total[1] + chg[k] * ray[1])
        assert total == (0, 0)


def test_cones_are_smooth():
    # each maximal cone is a lattice basis: |det| = 1
    for r1, r2 in CONES:
        a, b = RAYS[r1 - 1], RAYS[r2 - 1]
        assert abs(a[0] * b[1] - a[1] * b[0]) == 1


def test_flag_weights_negate_along_curves():
    # an invariant curve joins two cones through a shared ray; the tangent
    # weights at its two ends are negatives of each other
    assert flag_weight(1, 1) == -flag_weight(1, 0)
    assert flag_weight(2, 2) == -flag_weight(2, 0)


def test_flag_weight_rejects_non_face():
    with pytest.raises(ValueError):
        flag_weight(3, 0)


def test_euler_classes():
    u1, u2 = UPoly.u1(), UPoly.u2()
    s = -(u1 + u2)
    assert euler_surface(0) == u1 * u2
    assert euler_surface(1) == u1 * s
    assert euler_surface(2) == u2 * s


def test_divisor_restriction_table():
    u1, u2 = UPoly.u1(), UPoly.u2()
    s = -(u1 + u2)
    assert [divisor_restriction(1, p) for p in SURFACE_POINTS] == [-u2, s, UPoly()]
    assert [divisor_restriction(2, p) for p in SURFACE_POINTS] == [-u1, UPoly(), s]
    assert [divisor_restriction(3, p) for p in SURFACE_POINTS] == [UPoly(), u1, UPoly()]
    assert [divisor_restriction(4, p) for p in SURFACE_POINTS] == [UPoly(), UPoly(), u2]


def test_hyperplane_restrictions_vanish_at_origin_cone():
    assert hyperplane_restriction(1, 0).is_zero()
    assert hyperplane_restriction(2, 0).is_zero()
    assert hyperplane_restriction(1, 1) == UPoly.u1()
    assert hyperplane_restriction(2, 2) == UPoly.u2()


# the two compact invariant curves, as (point, tangent weight) end pairs
_CURVES = {
    1: ((1, UPoly.u1()), (0, -UPoly.u1())),
    2: ((0, -UPoly.u2()), (2, UPoly.u2())),
}


def _curve_degree(restrictions):
    """Localize a divisor class to an invariant curve: sum of ends of f/weight."""
    return {
        k: SymbolicPairing(tuple((restrictions[p], w) for p, w in ends))
        for k, ends in _CURVES.items()
    }


def test_divisors_restrict_consistently_with_charges():
    # localizing each divisor class over the two compact invariant curves
    # recovers its row of the charge matrix
    for i in range(1, 5):
        d = tuple(divisor_restriction(i, p) for p in SURFACE_POINTS)
        degs = _curve_degree(d)
        for k in (1, 2):
            want = SymbolicPairing(((UPoly.term(CHARGES[i - 1][k - 1]), UPoly.term(1)),))
            assert degs[k].equals(want)


def test_hyperplanes_are_dual_to_curve_classes():
    for k in (1, 2):
        h = tuple(hyperplane_restriction(k, p) for p in SURFACE_POINTS)
        degs = _curve_degree(h)
        for l in (1, 2):
            want = SymbolicPairing(((UPoly.term(1 if k == l else 0), UPoly.term(1)),))
            assert degs[l].equals(want)


# ---------------------------------------------------------------------------
# surface pairing: symbolic first, specialization second
# ---------------------------------------------------------------------------


def test_point_basis_restrictions():
    assert point_basis_class(0) == (UPoly.term(1), UPoly(), UPoly())
    assert point_basis_class(1) == (UPoly(), UPoly.u1(), UPoly())
    assert point_basis_class(2) == (UPoly(), UPoly(), UPoly.u2())


def test_origin_point_class_pairings():
    phi0 = point_basis_class(0)
    phi1 = point_basis_class(1)
    unit = (UPoly.term(1), UPoly.term(1), UPoly.term(1))
    zero = SymbolicPairing(((UPoly(), UPoly.term(1)),))
    # distinct point classes never meet
    assert pairing_surface(phi0, phi1).equals(zero)
    # <1, phi0> = 1/(u1 u2) symbolically
    want = SymbolicPairing(((UPoly.term(1), UPoly.u1() * UPoly.u2()),))
    assert pairing_surface(unit, phi0).equals(want)


def test_specialization_is_singular_only_off_origin():
    phi1 = point_basis_class(1)
    with pytest.raises(ZeroDivisionError):
        pairing_surface(phi1, phi1).specialize()


def test_distinguished_prefactor_is_inverse_weight():
    # <1, u1*phi0> = u1/(u1 u2) = 1/u2, and u2 -> V under the embedding
    assert distinguished_pairing_prefactor() == v_term(1, -1)


def test_specialized_weights_lie_in_zero_plus_minus_v():
    allowed = [v_term(0), v_term(1, 1), v_term(-1, 1)]
    for i in range(1, 5):
        for p in SURFACE_POINTS:
            s = divisor_restriction(i, p).specialize()
            assert any(s == a for a in allowed)


def test_symbolic_equality_is_cross_multiplied():
    half = SymbolicPairing(((UPoly.u1(), UPoly.u1() * UPoly.term(2)),))
    also_half = SymbolicPairing(((UPoly.term(1), UPoly.term(2)),))
    assert half.equals(also_half)
    assert not half.equals(SymbolicPairing(((UPoly.term(1), UPoly.term(3)),)))
