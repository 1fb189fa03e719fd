"""Conemanifold classification, sphericity limits, family dimensions."""

import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from seifertgeo import kernel
from seifertgeo.arith import PiRational, TWO_PI
from seifertgeo.base2d import BasePoint, RegionClass, classify_triangle
from seifertgeo.cone3d import (
    ConeStructure,
    _NO_ROW,
    _ROWS,
    Dim,
    FamilyDimension,
    NO_FAMILY,
    ORBIFOLD_ONLY,
    NO_STRUCTURE,
    classify_cone,
    family_dimension,
    sphericity_limits,
)
from seifertgeo.seifert import (
    GeometryType,
    SeifertSignature,
    euler_number,
    manifold_geometry,
    normalize,
)

S = SeifertSignature


def angles(*coeffs):
    return tuple(PiRational(Fraction(c)) for c in coeffs)


class TestConeStructure:
    def test_base_point(self):
        cs = ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), (TWO_PI, TWO_PI, TWO_PI))
        assert cs.base_point().coeffs() == (
            Fraction(1, 5),
            Fraction(1, 3),
            Fraction(1, 2),
        )

    def test_angle_follows_fibre_through_normalization(self):
        # the pi/5 angle stays attached to the 5-fibre wherever it sorts
        cs = ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), angles(2, 2, "1/5"))
        assert cs.sig.fibers == ((5, 1), (3, 1), (2, 1))
        assert cs.angles[0] == PiRational(1, 5)

    def test_angle_bound(self):
        with pytest.raises(ValueError):
            ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), angles(2, 2, 11))

    def test_singular_set(self):
        cs = ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), angles(2, 2, "1/5"))
        assert [beta != TWO_PI for beta in cs.angles] == [True, False, False]

    def test_tied_fibres_order_their_angles(self):
        # (3, 1) and (3, -2) tie once reduced; tied fibres take their angles in increasing order
        for given in (angles(1, "1/3", "2/3"), angles(1, "2/3", "1/3")):
            cs = ConeStructure(S(0, ((2, 1), (3, 1), (3, -2))), given)
            assert cs.sig == S(-1, ((3, 1), (3, 1), (2, 1)))
            assert cs.angles == angles("1/3", "2/3", 1)
        for given in permutations((3, 2, 1)):
            cs = ConeStructure(S(0, ((3, 4), (3, 1), (3, 1))), angles(*given))
            assert cs.sig == S(1, ((3, 1), (3, 1), (3, 1)))
            assert cs.angles == angles(1, 2, 3)
        # the same cone manifold, its tied angles given in either order
        one = ConeStructure(S(-1, ((3, 1), (2, 1), (2, 1))), angles(2, 1, 2))
        other = ConeStructure(S(-1, ((3, 1), (2, 1), (2, 1))), angles(2, 2, 1))
        assert one == other and hash(one) == hash(other)
        assert one.angles == angles(2, 1, 2)

    def test_takes_an_angle_subclass_an_int_and_a_fraction(self):
        class Angle(PiRational):
            pass

        beta = Angle(Fraction(1, 2))
        cs = ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), (2, beta, Fraction(3, 2)))
        # the subclass passes through as it is; the others become PiRationals
        assert cs.angles[1] is beta
        assert cs.angles[0] == PiRational(Fraction(3, 2)) and cs.angles[2] == TWO_PI
        assert type(cs.angles[0]) is PiRational and type(cs.angles[2]) is PiRational

    @pytest.mark.parametrize(
        "given, message",
        [
            (angles(2, 2), "expected 3 cone angles, got 2"),
            (angles(5, 2, 2), "cone angle 5pi exceeds 2*pi*2 on a fibre of multiplicity 2"),
            (angles(2, "13/2", 2), "cone angle 13/2pi exceeds 2*pi*3 on a fibre of multiplicity 3"),
        ],
        ids=["count", "bound-first", "bound-middle"],
    )
    def test_error_messages(self, given, message):
        with pytest.raises(ValueError) as exc:
            ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), given)
        assert str(exc.value) == message


class TestClassifyCone:
    def test_poincare_manifold(self):
        cs = ConeStructure(S(-1, ((2, 1), (3, 1), (5, 1))), (TWO_PI, TWO_PI, TWO_PI))
        result = classify_cone(cs)
        assert result.geometry is not None
        assert result.geometry is GeometryType.SPHERICAL

    def test_hopf_one_singular_fibre(self):
        hopf = S(-1, ((1, 0), (1, 0), (1, 0)))
        cs = ConeStructure(hopf, angles(2, 2, "1/2"))
        assert classify_cone(cs) == NO_STRUCTURE
        assert str(classify_cone(cs)) == "NoStructure"

    def test_euclidean_tessellation(self):
        cs = ConeStructure(S(-1, ((2, 1), (3, 1), (6, 1))), (TWO_PI, TWO_PI, TWO_PI))
        assert classify_cone(cs).geometry is GeometryType.EUCLIDEAN

    def test_e_zero_spherical_pair(self):
        # RP3 # RP3 carries S2xR; its base point is a spherical edge point
        cs = ConeStructure(S(-1, ((2, 1), (2, 1))), (TWO_PI, TWO_PI, TWO_PI))
        assert classify_cone(cs).geometry is GeometryType.S2XR

    def test_permutation_equivariance(self):
        rng = random.Random(23)
        for _ in range(200):
            pairs, ang = [], []
            for _ in range(3):
                a = rng.randint(1, 6)
                b = rng.choice([k for k in range(-5, 6) if math.gcd(a, abs(k)) == 1])
                pairs.append((a, b))
                ang.append(PiRational(rng.randint(0, 2 * a), a))
            b0 = rng.randint(-2, 2)
            base = classify_cone(ConeStructure(S(b0, tuple(pairs)), tuple(ang)))
            for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
                cs = ConeStructure(
                    S(b0, tuple(pairs[i] for i in perm)),
                    tuple(ang[i] for i in perm),
                )
                assert classify_cone(cs) == base

    @given(
        st.integers(-3, 3),
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(-12, 12), st.integers(1, 3), st.integers(0, 36))
            .filter(lambda f: math.gcd(f[0], f[1]) == 1)
            .map(lambda f: (*f[:3], f[3] % (2 * f[0] * f[2] + 1))),
            min_size=3,
            max_size=3,
        ),
        st.permutations(range(3)),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_fibre_moves_and_permutations_carry_the_angles(self, b, fibres, perm, moves):
        # Fibre i is (a, b_i) with cone angle num/den*pi.
        sig = S(b, tuple((a, bi) for a, bi, _, _ in fibres))
        ang = tuple(PiRational(num, den) for _, _, den, num in fibres)
        cs = ConeStructure(sig, ang)
        norm = cs.sig
        assert norm == normalize(sig)
        assert all(0 <= bi < a for a, bi in norm.fibers)
        assert list(norm.fibers) == sorted(norm.fibers, key=lambda f: (-f[0], f[1]))
        residues = [(a, bi % a) for a, bi in sig.fibers]
        assert sorted(zip(norm.fibers, cs.angles)) == sorted(zip(residues, ang))
        # Every signature of the manifold is the normal form permuted, with
        # b_i + k*a_i and b - k; the angle goes with its fibre.
        permuted = [norm.fibers[i] for i in perm]
        for ks in (moves, (0, 0, 0)):
            moved = S(norm.b - sum(ks), tuple((a, bi + k * a) for (a, bi), k in zip(permuted, ks)))
            moved_cs = ConeStructure(moved, tuple(cs.angles[i] for i in perm))
            assert moved_cs.sig == norm
            assert sorted(zip(norm.fibers, moved_cs.angles)) == sorted(zip(norm.fibers, cs.angles))
            assert moved_cs == cs
            assert classify_cone(moved_cs) == classify_cone(cs)


# Reference decision through the Fraction API: the region of the
# BasePoint, then the sign of the Euler number as a Fraction sum.
OLD_GEOMETRY = {
    RegionClass.HYPERBOLIC: (GeometryType.SL2R, GeometryType.H2XR),
    RegionClass.EUCLIDEAN_FACE: (GeometryType.NIL, GeometryType.EUCLIDEAN),
    RegionClass.SPHERICAL_INTERIOR: (GeometryType.SPHERICAL, GeometryType.S2XR),
    RegionClass.SPHERICAL_EDGE: (GeometryType.SPHERICAL, GeometryType.S2XR),
}


class TestIntegerPath:
    def test_matches_base_point_and_euler_fraction(self):
        # every fibre triple of the criterion-6 pool (a <= 12), b in -3..3
        pool = [
            (a, b) for a in range(12, 0, -1) for b in range(a if a > 1 else 1)
            if math.gcd(a, b) == 1
        ]
        checked = 0
        for i, fibers in enumerate(combinations_with_replacement(pool, 3)):
            at = i % 3  # fibre that gets the special angle
            top = PiRational(2 * fibers[at][0])
            angle_sets = [
                (TWO_PI,) * 3,
                tuple(PiRational(0) if k == at else TWO_PI for k in range(3)),
                tuple(top if k == at else TWO_PI for k in range(3)),
                tuple(PiRational(Fraction(1, 2)) for _ in range(3)),
            ]
            regions = [
                classify_triangle(ConeStructure(S(0, fibers), ang).base_point())
                for ang in angle_sets
            ]
            for b in range(-3, 4):
                sig = S(b, fibers)
                twisted = -b - sum(Fraction(bi, a) for a, bi in fibers) != 0
                for ang, region in zip(angle_sets, regions):
                    pair = OLD_GEOMETRY.get(region)
                    expected = (pair[0] if twisted else pair[1]) if pair else None
                    assert classify_cone(ConeStructure(sig, ang)).geometry is expected
                    checked += 1
        assert checked == 4 * 7 * 17296


class TestSphericityLimits:
    def test_t_family_3_fibre(self):
        iv = sphericity_limits(2, 3, 3)
        assert (iv.beta_lower, iv.beta_upper) == (PiRational(1), PiRational(5))

    def test_prism_n_fibre(self):
        for n in range(2, 11):
            iv = sphericity_limits(2, 2, n)
            assert iv.beta_lower == PiRational(0)
            assert iv.beta_upper == PiRational(2 * n)

    def test_i_family_5_fibre(self):
        iv = sphericity_limits(2, 3, 5)
        assert (iv.beta_lower, iv.beta_upper) == (PiRational(5, 3), PiRational(25, 3))

    def test_unsorted_pair_accepted(self):
        assert sphericity_limits(3, 2, 5) == sphericity_limits(2, 3, 5)

    def test_rejects_degenerate_pair(self):
        with pytest.raises(ValueError):
            sphericity_limits(1, 3, 5)
        with pytest.raises(ValueError, match=r"^singular multiplicity must be >= 1, got 0$"):
            sphericity_limits(2, 3, 0)

    def test_amplitude_identity(self):
        for a1 in range(2, 8):
            for a2 in range(a1, 10):
                for a3 in range(1, 8):
                    iv = sphericity_limits(a1, a2, a3)
                    assert iv.beta_upper - iv.beta_lower == PiRational(4 * a3, a2)

    def test_ratio_examples(self):
        assert sphericity_limits(2, 3, 1).ratio() == Fraction(5)
        assert sphericity_limits(3, 4, 1).ratio() == Fraction(11, 5)
        assert sphericity_limits(2, 5, 1).ratio() == Fraction(7, 3)

    def test_ratio_prism_undefined(self):
        with pytest.raises(ValueError):
            sphericity_limits(2, 2, 1).ratio()

    def test_ratio_matches_the_written_out_band_formula(self):
        for a1 in range(2, 41):
            for a2 in range(max(a1, 3), 41):
                want = Fraction(a1 * a2 - a2 + a1, a1 * a2 - a2 - a1)
                assert sphericity_limits(a1, a2, 1).ratio() == want, (a1, a2)
                assert sphericity_limits(a2, a1, 1).ratio() == want, (a2, a1)
        with pytest.raises(ValueError) as exc:
            sphericity_limits(2, 2, 1).ratio()
        assert str(exc.value) == "sphericity ratio undefined when beta_L = 0"
        with pytest.raises(ValueError) as exc:
            sphericity_limits(5, 1, 1)
        assert str(exc.value) == "sphericity limits need both non-singular multiplicities > 1"

    def test_ratio_independent_of_singular_multiplicity(self):
        for a1, a2 in ((2, 3), (3, 4), (2, 5), (3, 5), (4, 5)):
            want = Fraction(a1 * a2 - a2 + a1, a1 * a2 - a2 - a1)
            for a3 in range(1, 51):
                assert sphericity_limits(a1, a2, a3).ratio() == want


def sweep_class(a1, a2, a3, beta):
    """Region class of the one-singular-fibre family at angle beta."""
    from seifertgeo.base2d import BasePoint

    point = BasePoint(
        PiRational(Fraction(1, a1)),
        PiRational(Fraction(1, a2)),
        PiRational(beta.coeff / (2 * a3)),
    )
    return classify_triangle(point)


class TestSweepOracle:
    # the classifier transitions exactly at the formula endpoints
    def assert_transitions(self, a1, a2, a3):
        iv = sphericity_limits(a1, a2, a3)
        lo, hi = iv.beta_lower.coeff, iv.beta_upper.coeff
        step = Fraction(1, 7 * a1 * a2)
        beta = step
        top = Fraction(2 * a3)
        while beta <= top:
            cls = sweep_class(a1, a2, a3, PiRational(beta))
            if beta < lo:
                assert cls is RegionClass.HYPERBOLIC, (a1, a2, a3, beta)
            elif beta == lo:
                assert cls is RegionClass.EUCLIDEAN_FACE
            elif beta < hi:
                assert cls is RegionClass.SPHERICAL_INTERIOR
            elif beta == hi:
                assert cls is (
                    RegionClass.SPHERICAL_EDGE
                    if a1 == a2
                    else RegionClass.NO_STRUCTURE_FACE
                )
            elif beta < top:
                assert cls is RegionClass.NO_STRUCTURE_FACE
            else:
                # alpha3 = pi with unequal companions: cube boundary
                assert cls is RegionClass.DEGENERATE_BOUNDARY
            beta += step

    def test_all_small_families(self):
        for a1, a2 in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 6), (4, 4), (3, 6)):
            for a3 in (1, 2, 3, 5):
                self.assert_transitions(a1, a2, a3)


# Scott's table as the paper states it: the sign of the base curvature
# picks the row, e != 0 the entry.
SCOTT = {
    -1: (GeometryType.H2XR, GeometryType.SL2R),
    0: (GeometryType.EUCLIDEAN, GeometryType.NIL),
    1: (GeometryType.S2XR, GeometryType.SPHERICAL),
}


def geometry_from_limits(a1, a2, a3, euler_zero):
    """Manifold geometry read off the position of 2*pi against beta_L.

    The base curvature has the sign of 2*pi - beta_L: below beta_L the
    manifold is SL2R (H2xR when e = 0), at it Nil (Euclidean), above it
    spherical (S2xR).  2*pi is above beta_U only when a3 = 1 and a1 < a2,
    the unequal spindle, spherical too.
    """
    beta_lower = sphericity_limits(a1, a2, a3).beta_lower
    return SCOTT[(TWO_PI > beta_lower) - (TWO_PI < beta_lower)][not euler_zero]


class TestManifoldFromLimits:
    # each row pairs the limits oracle with a signature of the same multiplicities
    def test_spherical(self):
        assert geometry_from_limits(2, 3, 5, False) is GeometryType.SPHERICAL
        assert manifold_geometry(S(-1, ((2, 1), (3, 1), (5, 1)))) is GeometryType.SPHERICAL
        # the unequal spindle (-1; (2,1),(3,1)) is S^3, with 2*pi above beta_U = 5*pi/3
        assert geometry_from_limits(2, 3, 1, False) is GeometryType.SPHERICAL
        assert manifold_geometry(S(-1, ((2, 1), (3, 1)))) is GeometryType.SPHERICAL

    def test_boundary_is_flat(self):
        assert geometry_from_limits(3, 3, 3, False) is GeometryType.NIL
        assert manifold_geometry(S(-1, ((3, 1), (3, 1), (3, 2)))) is GeometryType.NIL
        assert geometry_from_limits(3, 3, 3, True) is GeometryType.EUCLIDEAN
        assert manifold_geometry(S(-1, ((3, 1), (3, 1), (3, 1)))) is GeometryType.EUCLIDEAN

    def test_sl2r(self):
        assert geometry_from_limits(2, 3, 7, False) is GeometryType.SL2R
        assert manifold_geometry(S(-1, ((2, 1), (3, 1), (7, 1)))) is GeometryType.SL2R

    def test_euler_zero_variants(self):
        assert geometry_from_limits(2, 3, 5, True) is GeometryType.S2XR
        assert geometry_from_limits(2, 3, 1, True) is GeometryType.S2XR
        assert geometry_from_limits(2, 3, 7, True) is GeometryType.H2XR
        # multiplicities that admit e = 0: the prism spindle and (3, 6, 6)
        assert geometry_from_limits(2, 2, 1, True) is GeometryType.S2XR
        assert manifold_geometry(S(-1, ((2, 1), (2, 1)))) is GeometryType.S2XR
        assert geometry_from_limits(6, 6, 3, True) is GeometryType.H2XR
        assert manifold_geometry(S(-2, ((3, 1), (6, 5), (6, 5)))) is GeometryType.H2XR

    def test_agrees_with_manifold_geometry(self):
        rng = random.Random(31)
        for _ in range(300):
            a = sorted((rng.randint(2, 9), rng.randint(2, 9)))
            a3 = rng.randint(1, 9)
            pairs = []
            for ai in (a3, a[0], a[1]):
                # a3 = 1 is the unequal or equal spindle, fibre (1, 0)
                bi = rng.choice([k for k in range(1, ai) if math.gcd(ai, k) == 1] or [0])
                pairs.append((ai, bi))
            sig = S(rng.randint(-3, 3), tuple(pairs))
            want = geometry_from_limits(a[0], a[1], a3, euler_number(sig) == 0)
            assert manifold_geometry(sig) is want, str(sig)


class TestFamilyDimension:
    def test_three_singular(self):
        sig = normalize(S(-1, ((2, 1), (3, 1), (5, 1))))
        assert family_dimension(sig, (1, 2, 3)) is Dim(3)

    def test_general_fibre_of_lens(self):
        sig = normalize(S(0, ((3, 1), (4, 3))))
        assert family_dimension(sig, (3,)) is Dim(1)

    def test_hopf_single_fibre(self):
        hopf = normalize(S(-1, ((1, 0),)))
        assert family_dimension(hopf, (3,)) is NO_FAMILY

    def test_exceptional_fibre_orbifold_only(self):
        sig = normalize(S(0, ((3, 1), (4, 3))))
        assert family_dimension(sig, (1,)) is ORBIFOLD_ONLY

    def test_one_exceptional_fibre_at_the_cube_vertex(self):
        # the others pinned at pi: beta = 2*pi*a puts the base point on the
        # vertex (pi, pi, pi), the end of the spherical edges
        for a in range(2, 13):
            sig = normalize(S(-1, ((a, 1),)))
            cone = classify_cone(ConeStructure(sig, (PiRational(2 * a), TWO_PI, TWO_PI)))
            assert cone.geometry is GeometryType.SPHERICAL
            assert family_dimension(sig, (1,)) is ORBIFOLD_ONLY, a

    def test_equal_pair_exceptional_fibre_none(self):
        sig = normalize(S(-1, ((3, 1), (3, 2))))
        assert family_dimension(sig, (1,)) is NO_FAMILY

    def test_both_exceptional_fibres_singular(self):
        # general fibre pinned on the alpha3 = pi face: one-parameter
        # family beta_i = 2 alpha a_i
        sig = normalize(S(0, ((3, 1), (4, 3))))
        assert family_dimension(sig, (1, 2)) is Dim(1)

    def test_exceptional_plus_general_singular(self):
        # remaining exceptional fibre pinned in the cube interior
        sig = normalize(S(0, ((3, 1), (4, 3))))
        assert family_dimension(sig, (1, 3)) is Dim(2)

    def test_manifold_point(self):
        poincare = normalize(S(-1, ((2, 1), (3, 1), (5, 1))))
        assert family_dimension(poincare, ()) is Dim(0)
        teardrop = normalize(S(-1, ((3, 1),)))
        assert family_dimension(teardrop, ()) is NO_FAMILY

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            family_dimension(S(0, ((2, 1), (3, 1), (5, -4))), (1,))

    def test_rejects_a_position_outside_the_three_fibres(self):
        sig = normalize(S(-1, ((2, 1), (3, 1), (5, 1))))
        with pytest.raises(ValueError, match=r"^singular set must be a subset of \{1, 2, 3\}$"):
            family_dimension(sig, {4})

    def test_str(self):
        assert [str(d) for d in (Dim(2), ORBIFOLD_ONLY, NO_FAMILY)] == ["Dim(2)", "OrbifoldOnly", "None"]
        assert [str(d) for d in FamilyDimension] == ["Dim(0)", "Dim(1)", "Dim(2)", "Dim(3)", "OrbifoldOnly", "None"]

    def test_dim_is_a_member(self):
        for k, member in enumerate(list(FamilyDimension)[:4]):
            assert Dim(k) is member
        with pytest.raises(ValueError, match=r"^k must be an integer, got True$"):
            Dim(True)

    def test_pickle_and_copy_give_the_same_member(self):
        for member in FamilyDimension:
            for clone in (pickle.loads(pickle.dumps(member)), copy.copy(member), copy.deepcopy(member)):
                assert clone is member

    def test_manifold_point_matches_the_base_point_region(self):
        # structure at the base point (pi/a1, pi/a2, pi/a3), as a region class
        pool = [(a, b) for a in range(12, 0, -1) for b in range(a) if math.gcd(a, b) == 1]
        for fibers in combinations_with_replacement(pool, 3):
            sig = normalize(S(0, fibers))
            point = BasePoint(*(PiRational(Fraction(1, a)) for a in sig.multiplicities()))
            want = Dim(0) if classify_triangle(point) in kernel.CURVATURE_SIGN else NO_FAMILY
            assert family_dimension(sig, ()) is want, sig

    def test_answers_on_the_grid(self):
        # (size of the singular set, answer) -> count over every singular set
        # of the signatures of test_manifold_point_matches_the_base_point_region
        pool = [(a, b) for a in range(12, 0, -1) for b in range(a) if math.gcd(a, b) == 1]
        subsets = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        counts = Counter()
        for fibers in combinations_with_replacement(pool, 3):
            sig = normalize(S(0, fibers))
            counts.update((len(singular), str(family_dimension(sig, singular))) for singular in subsets)
        assert counts == {
            (0, "Dim(0)"): 16363, (0, "None"): 933,
            (1, "Dim(1)"): 49680, (1, "OrbifoldOnly"): 1911, (1, "None"): 297,
            (2, "Dim(1)"): 1128, (2, "Dim(2)"): 50760,
            (3, "Dim(3)"): 17296,
        }


class TestGeometryOfRegionCode:
    # kernel region (None outside the cube) -> (geometry when e = 0, geometry when e != 0)
    TABLE = {
        RegionClass.HYPERBOLIC: ("H2xR", "SL2R"),
        RegionClass.EUCLIDEAN_FACE: ("Euclidean", "Nil"),
        RegionClass.SPHERICAL_INTERIOR: ("S2xR", "Spherical"),
        RegionClass.SPHERICAL_EDGE: ("S2xR", "Spherical"),
        RegionClass.NO_STRUCTURE_FACE: ("NoStructure", "NoStructure"),
        RegionClass.DEGENERATE_BOUNDARY: ("NoStructure", "NoStructure"),
        None: ("NoStructure", "NoStructure"),
    }
    # Parametrized by position in (*RegionClass, None), so -1 is None.
    REGIONS = (*RegionClass, None)

    @pytest.mark.parametrize("twisted", [False, True])
    @pytest.mark.parametrize("code", range(-1, len(RegionClass)))
    def test_matches_the_written_out_table(self, code, twisted):
        region = self.REGIONS[code]
        result = _ROWS.get(region, _NO_ROW)[twisted]
        assert str(result) == self.TABLE[region][twisted]
        assert (result.geometry is not None) == (self.TABLE[region][twisted] != "NoStructure")


class TestGeometryTableConsistency:
    def test_small_scan(self):
        # spot an agreeing sample here; the full sweep lives in acceptance
        rng = random.Random(41)
        for _ in range(400):
            pairs = []
            for _ in range(3):
                a = rng.randint(1, 8)
                b = rng.choice([k for k in range(0, a) if math.gcd(a, max(k, 1)) == 1 or (a == 1 and k == 0)])
                if a > 1 and math.gcd(a, b) != 1:
                    continue
                pairs.append((a, b if a > 1 else 0))
            if len(pairs) != 3:
                continue
            sig = normalize(S(rng.randint(-3, 3), tuple(pairs)))
            cs = ConeStructure(sig, (TWO_PI, TWO_PI, TWO_PI))
            cls = classify_triangle(cs.base_point())
            result = classify_cone(cs)
            if cls is RegionClass.DEGENERATE_BOUNDARY:
                assert result == NO_STRUCTURE
                mult = sig.multiplicities()
                assert mult[2] == 1 and mult[0] != mult[1]
            else:
                assert result.geometry is manifold_geometry(sig)
