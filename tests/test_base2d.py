"""Angle-cube region classification and the curvature parameter."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seifertgeo import kernel
from seifertgeo.arith import PiRational
from seifertgeo.base2d import (
    BasePoint,
    RegionClass,
    classify_triangle,
    curvature_parameter,
)
from seifertgeo.cone3d import sphericity_limits


def pt(*coeffs):
    return BasePoint(*(PiRational(Fraction(c)) for c in coeffs))


class TestClassify:
    def test_equilateral_euclidean(self):
        assert classify_triangle(pt("1/3", "1/3", "1/3")) is RegionClass.EUCLIDEAN_FACE

    def test_right_angled_spherical(self):
        assert classify_triangle(pt("1/2", "1/2", "1/2")) is RegionClass.SPHERICAL_INTERIOR
        # the same point unreduced, with products of three inputs above 2**63
        big = 3 * 2**20
        args = (big, 2 * big, big, 2 * big, big, 2 * big)
        assert kernel.classify_region(*args) is RegionClass.SPHERICAL_INTERIOR

    def test_edge_point(self):
        assert classify_triangle(pt(1, "1/4", "1/4")) is RegionClass.SPHERICAL_EDGE

    def test_small_hyperbolic(self):
        assert classify_triangle(pt("1/7", "1/7", "1/7")) is RegionClass.HYPERBOLIC

    def test_cusped_corner_is_hyperbolic(self):
        # zero angles with sum < pi count as (ideal) hyperbolic triangles
        assert classify_triangle(pt(0, 0, 0)) is RegionClass.HYPERBOLIC
        assert classify_triangle(pt(0, "1/4", "1/4")) is RegionClass.HYPERBOLIC

    def test_beyond_wall_interior(self):
        # sum > pi but t1 = a1 - a2 + a3 > pi: inside the cube, no structure
        assert classify_triangle(pt("9/10", "1/10", "9/10")) is RegionClass.NO_STRUCTURE_FACE

    def test_on_wall_interior(self):
        # t1 = pi exactly, interior point
        assert classify_triangle(pt("9/10", "1/2", "3/5")) is RegionClass.NO_STRUCTURE_FACE

    def test_cube_vertices(self):
        assert classify_triangle(pt(1, 1, 1)) is RegionClass.SPHERICAL_EDGE
        assert classify_triangle(pt(1, 0, 0)) is RegionClass.DEGENERATE_BOUNDARY
        assert classify_triangle(pt(1, 1, 0)) is RegionClass.DEGENERATE_BOUNDARY
        assert classify_triangle(pt(0, 0, 0)) is RegionClass.HYPERBOLIC

    def test_face_sum_pi_with_zero(self):
        assert classify_triangle(pt(0, "1/2", "1/2")) is RegionClass.DEGENERATE_BOUNDARY

    def test_boundary_beyond_wall_degenerate(self):
        # boundary point (a3 = pi) failing the edge pattern
        assert classify_triangle(pt("1/3", "1/4", 1)) is RegionClass.DEGENERATE_BOUNDARY

    def test_edge_includes_full_range(self):
        assert classify_triangle(pt(1, 1, 1)) is RegionClass.SPHERICAL_EDGE
        assert classify_triangle(pt("1/5", "1/5", 1)) is RegionClass.SPHERICAL_EDGE

    def test_outside_cube_rejected(self):
        with pytest.raises(ValueError):
            pt("3/2", "1/2", "1/2")

    def test_kernel_gives_none_outside_the_cube(self):
        assert kernel.classify_region(3, 2, 1, 2, 1, 2) is None
        assert kernel.classify_region(-1, 2, 1, 2, 1, 2) is None
        assert kernel.classify_region(1, 0, 1, 2, 1, 2) is None

    def test_one_region_vocabulary(self):
        assert RegionClass is kernel.RegionClass
        assert [str(region) for region in RegionClass] == [
            "Hyperbolic", "EuclideanFace", "SphericalInterior",
            "SphericalEdge", "NoStructureFace", "DegenerateBoundary",
        ]


angles = st.fractions(min_value=0, max_value=1, max_denominator=40)


class TestPartition:
    @given(angles, angles, angles)
    @settings(max_examples=800)
    def test_total_and_single_valued(self, f1, f2, f3):
        cls = classify_triangle(pt(f1, f2, f3))
        assert isinstance(cls, RegionClass)

    @given(angles, angles, angles)
    @settings(max_examples=400)
    def test_cyclic_symmetry(self, f1, f2, f3):
        a = classify_triangle(pt(f1, f2, f3))
        b = classify_triangle(pt(f2, f3, f1))
        c = classify_triangle(pt(f3, f1, f2))
        assert a is b is c

    @given(angles, angles, angles)
    @settings(max_examples=400)
    def test_classes_match_defining_inequalities(self, f1, f2, f3):
        cls = classify_triangle(pt(f1, f2, f3))
        total = f1 + f2 + f3
        if total < 1:
            assert cls is RegionClass.HYPERBOLIC
        elif total == 1:
            expected = (
                RegionClass.EUCLIDEAN_FACE
                if min(f1, f2, f3) > 0
                else RegionClass.DEGENERATE_BOUNDARY
            )
            assert cls is expected
        else:
            interior = all(0 < f < 1 for f in (f1, f2, f3))
            walls = (
                f1 - f2 + f3 < 1 and -f1 + f2 + f3 < 1 and f1 + f2 - f3 < 1
            )
            if interior:
                assert cls is (
                    RegionClass.SPHERICAL_INTERIOR
                    if walls
                    else RegionClass.NO_STRUCTURE_FACE
                )
            else:
                edge = (
                    (f1 == 1 and f2 == f3 and f2 > 0)
                    or (f2 == 1 and f1 == f3 and f1 > 0)
                    or (f3 == 1 and f1 == f2 and f1 > 0)
                )
                assert cls is (
                    RegionClass.SPHERICAL_EDGE
                    if edge
                    else RegionClass.DEGENERATE_BOUNDARY
                )


# Cube points with the faces, edges and vertices drawn often.
special_or_any = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
    angles,
)


class TestScaleInvariance:
    @given(
        special_or_any, special_or_any, special_or_any,
        st.tuples(*[st.integers(min_value=1, max_value=10**9)] * 3),
    )
    @settings(max_examples=800)
    def test_unreduced_pairs_give_the_reduced_code(self, f1, f2, f3, ks):
        # cone3d.classify_cone passes unreduced pairs (num, 2*a*den).
        point = (f1, f2, f3)
        reduced = [part for f in point for part in (f.numerator, f.denominator)]
        scaled = [
            k * part for k, f in zip(ks, point) for part in (f.numerator, f.denominator)
        ]
        assert kernel.classify_region(*scaled) == kernel.classify_region(*reduced)


class TestCurvature:
    def test_euclidean_zero_exact(self):
        assert curvature_parameter(pt("1/3", "1/3", "1/3")) == 0.0

    def test_unit_sphere(self):
        assert curvature_parameter(pt("1/2", "1/2", "1/2")) == pytest.approx(-1.0, abs=1e-12)

    def test_hyperbolic_in_unit_interval(self):
        s = curvature_parameter(pt("1/7", "1/7", "1/7"))
        assert 0 < s <= 1

    def test_degenerate_lines_give_one(self):
        assert curvature_parameter(pt(1, "1/4", "1/4")) == 1.0
        assert curvature_parameter(pt("1/4", "1/4", 0)) == 1.0

    def test_wall_denominator_vanishes(self):
        # -a1 + a2 + a3 = pi makes the denominator zero away from the
        # documented degenerate lines
        with pytest.raises(ValueError):
            curvature_parameter(pt("1/2", "3/4", "3/4"))

    def test_numeric_against_float_formula(self):
        rng = random.Random(3)
        for _ in range(300):
            f1 = Fraction(rng.randint(1, 39), 40)
            f2 = Fraction(rng.randint(1, 39), 40)
            f3 = Fraction(rng.randint(1, 39), 40)
            try:
                s = curvature_parameter(pt(f1, f2, f3))
            except ValueError:
                continue
            if f1 + f2 + f3 == 1:
                continue
            a1, a2, a3 = (math.pi * float(f) for f in (f1, f2, f3))
            want = (math.cos(a2) + math.cos(a1 + a3)) / (math.cos(a2) + math.cos(a1 - a3))
            assert s == pytest.approx(want, abs=1e-9)

    def test_sign_matches_region(self):
        rng = random.Random(17)
        seen = {RegionClass.HYPERBOLIC: 0, RegionClass.EUCLIDEAN_FACE: 0, RegionClass.SPHERICAL_INTERIOR: 0}
        for _ in range(10_000):
            f1 = Fraction(rng.randint(0, 120), 120)
            f2 = Fraction(rng.randint(0, 120), 120)
            f3 = Fraction(rng.randint(0, 120), 120)
            point = pt(f1, f2, f3)
            cls = classify_triangle(point)
            if cls not in seen:
                continue
            try:
                s = curvature_parameter(point)
            except ValueError:
                continue
            if cls is RegionClass.HYPERBOLIC:
                if 0 in (f1, f3):
                    continue
                assert s > -1e-9
                seen[cls] += 1
            elif cls is RegionClass.EUCLIDEAN_FACE:
                assert abs(s) < 1e-12
                seen[cls] += 1
            else:
                assert s < 1e-9
                seen[cls] += 1
        assert all(count > 50 for count in seen.values())


def alpha_limits(a1, a2):
    """The band (alpha_L, alpha_U) of the third base angle: alpha = beta/2
    on a singular fibre of multiplicity 1."""
    lower, upper = sphericity_limits(a1, a2, 1)
    return lower.coeff / 2, upper.coeff / 2


class TestBaseLimits:
    def test_2_3(self):
        assert alpha_limits(2, 3) == (Fraction(1, 6), Fraction(5, 6))

    def test_2_2(self):
        assert alpha_limits(2, 2) == (0, 1)

    def test_3_3(self):
        assert alpha_limits(3, 3) == (Fraction(1, 3), 1)

    def test_amplitude(self):
        for a1 in range(2, 9):
            for a2 in range(a1, 12):
                lo, hi = alpha_limits(a1, a2)
                assert hi - lo == Fraction(2, a2)

    def test_sweep_matches_classifier(self):
        # the class along (pi/a1, pi/a2, t) changes exactly at the limits
        for a1, a2 in ((2, 3), (2, 2), (3, 3), (3, 4), (2, 7), (4, 5)):
            lo_c, hi_c = alpha_limits(a1, a2)
            f1, f2 = Fraction(1, a1), Fraction(1, a2)
            den = 2 * a1 * a2 * 7
            for k in range(0, den + 1):
                t = Fraction(k, den)
                cls = classify_triangle(pt(f1, f2, t))
                if t == 0:
                    # cusped corner when the sum stays under pi, else the
                    # degenerate sum = pi point of the (2,2) pair
                    expected = (
                        RegionClass.HYPERBOLIC
                        if lo_c > 0
                        else RegionClass.DEGENERATE_BOUNDARY
                    )
                    assert cls is expected
                    continue
                if t < lo_c:
                    assert cls is RegionClass.HYPERBOLIC
                elif t == lo_c:
                    assert cls is RegionClass.EUCLIDEAN_FACE
                elif t < hi_c:
                    assert cls is RegionClass.SPHERICAL_INTERIOR
                elif t == hi_c:
                    expected = (
                        RegionClass.SPHERICAL_EDGE
                        if a1 == a2
                        else RegionClass.NO_STRUCTURE_FACE
                    )
                    assert cls is expected
                else:
                    assert cls not in kernel.CURVATURE_SIGN
