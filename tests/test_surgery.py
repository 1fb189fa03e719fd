"""Dehn surgery on torus knots and the line model."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from seifertgeo.arith import Handedness, PiRational, TWO_PI, fiber_coeffs
from seifertgeo.cone3d import ConeStructure, classify_cone
from seifertgeo.plot import PlotWindow, build_plot
from seifertgeo.seifert import (
    GeometryType,
    SeifertSignature,
    euler_number,
    homology_order,
    identify_family,
)
from seifertgeo.surgery import (
    SurgerySpec,
    TorusKnot,
    atlas,
    brieskorn_surgery,
    classify_surgery_cone,
    line_of_surgery,
    nil_admissible,
    spherical_orbifold_angles,
    surgery_of_line,
    surgery_signature,
    x_limits,
)

L, R = Handedness.LEFT, Handedness.RIGHT
S = SeifertSignature


def coprime_knots(r_max):
    for r in range(3, r_max + 1):
        for s in range(2, r):
            if math.gcd(r, s) == 1:
                yield r, s


class TestTorusKnot:
    def test_validation(self):
        for args, text in (
            ((4, 2, L), "torus knot parameters must be coprime, got (4, 2)"),
            ((2, 3, L), "torus knot needs r > s > 1, got (2, 3)"),
            ((3, 1, L), "torus knot needs r > s > 1, got (3, 1)"),
            ((3, 2, "left"), "hand must be a Handedness, got 'left'"),
        ):
            with pytest.raises(ValueError) as exc:
                TorusKnot(*args)
            assert str(exc.value) == text

    def test_str(self):
        assert str(TorusKnot(3, 2, L)) == "K(3,2) left"

    def test_coeffs_are_the_fiber_coeffs(self):
        # the surgery reads the knot's exceptional fibres from fiber_coeffs
        for r, s in coprime_knots(13):
            for hand in (L, R):
                b1, b2 = fiber_coeffs(r, s, hand)
                sig = surgery_signature(SurgerySpec(TorusKnot(r, s, hand), 1, 0))
                assert sig.fibers[:2] == ((s, b1), (r, b2))


class TestSurgerySignature:
    def test_poincare(self):
        spec = SurgerySpec(TorusKnot(3, 2, L), 1, -1)
        assert surgery_signature(spec) == S(-1, ((2, 1), (3, 1), (5, 1)))

    def test_left_zero_slope(self):
        spec = SurgerySpec(TorusKnot(3, 2, L), 0, 1)
        assert surgery_signature(spec) == S(-1, ((2, 1), (3, 1), (6, 1)))

    def test_right_zero_slope(self):
        spec = SurgerySpec(TorusKnot(3, 2, R), 0, 1)
        assert surgery_signature(spec) == S(-1, ((2, 1), (3, 2), (6, -1)))

    def test_infinity_gives_sphere(self):
        spec = SurgerySpec(TorusKnot(3, 2, L), 1, 0)
        sig = surgery_signature(spec)
        assert homology_order(sig) == 1
        assert sig.fibers[2] == (1, 0)

    def test_exceptional_slope_rejected(self):
        with pytest.raises(ValueError):
            surgery_signature(SurgerySpec(TorusKnot(3, 2, L), 6, -1))
        with pytest.raises(ValueError):
            surgery_signature(SurgerySpec(TorusKnot(3, 2, R), 6, 1))

    def test_spec_validation(self):
        # a negative numerator moves its sign to q before the checks read it
        for p, q, message in ((2, 4, "2/4 is not reduced"), (-2, -4, "2/4 is not reduced"),
                              (-2, 4, "2/-4 is not reduced"), (0, 0, "0/0 is not a surgery")):
            with pytest.raises(ValueError) as exc:
                SurgerySpec(TorusKnot(3, 2, L), p, q)
            assert str(exc.value) == "slope " + message
        with pytest.raises(ValueError) as exc:
            SurgerySpec(None, 1, 2)
        assert str(exc.value) == "knot must be a TorusKnot, got None"

    def test_homology_is_p(self):
        rng = random.Random(61)
        for r, s in coprime_knots(12):
            for hand in (L, R):
                knot = TorusKnot(r, s, hand)
                for _ in range(40):
                    q = rng.choice([k for k in range(-9, 10) if k != 0])
                    p = rng.choice(
                        [k for k in range(0, 40) if math.gcd(k, abs(q)) == 1]
                    )
                    spec = SurgerySpec(knot, p, q)
                    try:
                        sig = surgery_signature(spec)
                    except ValueError:
                        continue
                    if p == 0:
                        assert homology_order(sig) is None
                    else:
                        assert homology_order(sig) == p

    def test_homology_is_p_on_every_slope(self):
        # |H1| = p (Moser), the identity behind the ray twist p != 0: every
        # reduced slope p/q with 0 <= p <= 60 and 1 <= |q| <= 8 on every knot
        # with r <= 13, except the fibre slope -+r*s where m = 0.
        checked = 0
        for r, s in coprime_knots(13):
            for hand, fibre_q in ((L, -1), (R, 1)):
                knot = TorusKnot(r, s, hand)
                for q in [k for k in range(-8, 9) if k != 0]:
                    for p in range(0, 61):
                        if math.gcd(p, abs(q)) != 1 or (p, q) == (r * s, fibre_q):
                            continue
                        sig = surgery_signature(SurgerySpec(knot, p, q))
                        assert homology_order(sig) == (p or None), (r, s, hand, p, q)
                        checked += 1
        assert checked == 55928

    def test_euler_formula(self):
        rng = random.Random(67)
        for r, s in coprime_knots(12):
            rs = r * s
            for hand in (L, R):
                knot = TorusKnot(r, s, hand)
                for _ in range(25):
                    q = rng.choice([k for k in range(-9, 10) if k != 0])
                    p = rng.choice(
                        [k for k in range(0, 40) if math.gcd(k, abs(q)) == 1]
                    )
                    spec = SurgerySpec(knot, p, q)
                    try:
                        sig = surgery_signature(spec)
                    except ValueError:
                        continue
                    m, n = line_of_surgery(spec)
                    if hand is L:
                        want = Fraction(m - n * rs, rs * m)
                    else:
                        want = Fraction(-(m + n * rs), rs * m)
                    assert euler_number(sig) == want


class TestLineModel:
    def test_poincare_point(self):
        assert line_of_surgery(SurgerySpec(TorusKnot(3, 2, L), 1, -1)) == (5, 1)

    def test_euler_zero_point_back_to_slope(self):
        spec = surgery_of_line(TorusKnot(3, 2, L), 6, 1)
        assert (spec.p, spec.q) == (0, 1)

    def test_43_point(self):
        spec = surgery_of_line(TorusKnot(4, 3, L), 1, 1)
        assert (spec.p, spec.q) == (11, -1)

    def test_infinity(self):
        assert line_of_surgery(SurgerySpec(TorusKnot(3, 2, L), 1, 0)) == (1, 0)
        spec = surgery_of_line(TorusKnot(3, 2, L), 1, 0)
        assert (spec.p, spec.q) == (1, 0)

    def test_round_trip(self):
        # every reduced slope p/q with 0 <= p <= 60 and |q| <= 8, both signs
        # of q at p = 0 included, except the fibre slope -+r*s where m = 0
        checked = 0
        for r, s in coprime_knots(7):
            for hand, fibre_q in ((L, -1), (R, 1)):
                knot = TorusKnot(r, s, hand)
                for q in range(-8, 9):
                    for p in range(0, 61):
                        if math.gcd(p, abs(q)) != 1 or (p, q) == (r * s, fibre_q):
                            continue
                        spec = SurgerySpec(knot, p, q)
                        point = line_of_surgery(spec)
                        assert surgery_of_line(knot, *point) == spec, (r, s, hand, p, q)
                        assert surgery_signature(spec).fibers[2] == point, (r, s, hand, p, q)
                        checked += 1
        assert checked == 13684

    def test_zero_slope_has_one_form(self):
        knot = TorusKnot(3, 2, L)
        spec = SurgerySpec(knot, 0, -1)
        assert spec == SurgerySpec(knot, 0, 1)
        assert (spec.q, spec.slope_text()) == (1, "0/1")

    @given(
        st.sampled_from([TorusKnot(3, 2, L), TorusKnot(5, 3, R)]),
        st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(lambda pq: math.gcd(*pq) == 1),
    )
    def test_negated_slope_is_the_same_spec(self, knot, pq):
        # every reduced p/q: stored with p >= 0, the sign in q, the same slope
        p, q = pq
        spec = SurgerySpec(knot, p, q)
        assert spec == SurgerySpec(knot, -p, -q)
        assert spec.p >= 0 and spec.p * q == spec.q * p

    def test_primitive_validation(self):
        knot = TorusKnot(3, 2, L)
        with pytest.raises(ValueError, match=r"^line point \(4, 2\) is not primitive$"):
            surgery_of_line(knot, 4, 2)
        for m, n in ((-1, 1), (0, 1), (0, -1)):
            with pytest.raises(ValueError, match="^line point needs m >= 1$"):
                surgery_of_line(knot, m, n)


class TestXLimits:
    def test_trefoil(self):
        assert x_limits(TorusKnot(3, 2, L)) == (Fraction(6, 5), Fraction(6))

    def test_43(self):
        assert x_limits(TorusKnot(4, 3, L)) == (Fraction(12, 11), Fraction(12, 5))

    def test_54(self):
        assert x_limits(TorusKnot(5, 4, L)) == (Fraction(20, 19), Fraction(20, 11))

    def test_hand_independent(self):
        assert x_limits(TorusKnot(5, 2, L)) == x_limits(TorusKnot(5, 2, R))

    def test_matches_the_written_out_band_formula(self):
        for r, s in coprime_knots(60):
            rs = r * s
            want = (Fraction(rs, rs - r + s), Fraction(rs, rs - r - s))
            for hand in (L, R):
                assert x_limits(TorusKnot(r, s, hand)) == want, (r, s, hand)

    def test_low_limit_below_two_iff(self):
        for r, s in coprime_knots(100):
            _, x_low = x_limits(TorusKnot(r, s, L))
            flagged = (r - 2) * (s - 2) > 4 or (r, s) == (5, 4)
            assert (x_low < 2) == flagged, (r, s)


class TestSphericalOrbifolds:
    def test_trefoil(self):
        got = spherical_orbifold_angles(TorusKnot(3, 2, L))
        assert [x for x, _ in got] == [2, 3, 4, 5]
        assert [a.text() for _, a in got] == ["1pi", "2/3pi", "1/2pi", "2/5pi"]

    def test_52(self):
        got = spherical_orbifold_angles(TorusKnot(5, 2, L))
        assert [(x, a.text()) for x, a in got] == [(2, "1pi"), (3, "2/3pi")]

    def test_73_empty(self):
        assert spherical_orbifold_angles(TorusKnot(7, 3, L)) == []

    def test_labels_match_the_cross_multiplied_band(self):
        # x_U < x < x_L with x_U = rs/(rs - r + s), x_L = rs/(rs - r - s),
        # cross-multiplied; rs - r - s >= 1, so every label is below rs.
        for r, s in coprime_knots(40):
            rs = r * s
            want = [
                (x, PiRational(Fraction(2, x))) for x in range(2, rs)
                if x * (rs - r + s) > rs and x * (rs - r - s) < rs
            ]
            for hand in (L, R):
                assert spherical_orbifold_angles(TorusKnot(r, s, hand)) == want, (r, s, hand)

    def test_admissible_sets_to_100(self):
        admissible = set()
        for r, s in coprime_knots(100):
            knot = TorusKnot(r, s, L)
            if spherical_orbifold_angles(knot):
                admissible.add((r, s))
            if s == 2 and r >= 6:
                assert [x for x, _ in spherical_orbifold_angles(knot)] == [2]
        want = {(r, 2) for r in range(3, 101, 2)} | {(4, 3), (5, 3)}
        assert admissible == want

    def test_nil_admissible(self):
        nil = {
            (r, s)
            for r, s in coprime_knots(100)
            if nil_admissible(TorusKnot(r, s, L))
        }
        assert nil == {(3, 2)}


class TestClassify:
    def test_nil_orbifold_on_trefoil(self):
        spec = SurgerySpec(TorusKnot(3, 2, L), 4, -1)
        result = classify_surgery_cone(spec, PiRational(Fraction(2, 3)))
        assert result is GeometryType.NIL

    def test_spherical_on_43(self):
        spec = SurgerySpec(TorusKnot(4, 3, L), 11, -1)
        assert classify_surgery_cone(spec, PiRational(1)) is GeometryType.SPHERICAL

    def test_poincare_manifold(self):
        spec = SurgerySpec(TorusKnot(3, 2, L), 1, -1)
        assert classify_surgery_cone(spec, TWO_PI) is GeometryType.SPHERICAL

    def test_depends_only_on_x_and_euler_sign(self):
        # same abscissa and e-sign, same class, across slopes and knots
        rng = random.Random(83)
        for _ in range(250):
            r, s = rng.choice(list(coprime_knots(8)))
            hand = rng.choice((L, R))
            knot = TorusKnot(r, s, hand)
            m = rng.randint(1, 30)
            candidates = [n for n in range(-4, 5) if n and math.gcd(m, abs(n)) == 1]
            if len(candidates) < 2:
                continue
            n1, n2 = rng.sample(candidates, 2)
            k = rng.randint(1, 4)
            beta = PiRational(Fraction(2, k))
            results, signs = [], []
            for n in (n1, n2):
                spec = surgery_of_line(knot, m, n)
                results.append(classify_surgery_cone(spec, beta))
                signs.append(_sign(euler_number(surgery_signature(spec))))
            if signs[0] == signs[1]:
                assert results[0] == results[1]

    def test_angle_bound(self):
        spec = SurgerySpec(TorusKnot(3, 2, L), 1, -1)
        with pytest.raises(ValueError) as exc:
            classify_surgery_cone(spec, PiRational(2 * 5 + 1))
        assert str(exc.value) == "cone angle 11pi exceeds 2*pi*5 on a fibre of multiplicity 5"


def _sign(f):
    return (f > 0) - (f < 0)


class TestColumnRayPath:
    def test_atlas_and_plot_match_cone_structure_path(self):
        # atlas and build_plot run the kernel once per (m, beta) column and
        # read only each ray's twist.  On every knot with r <= 13, both
        # hands and every primitive ray with m <= 12 and |n| <= 16, every
        # record at beta = 2*pi/k (k <= 6) and every point at 2*pi must
        # still name the geometry of the object path (signature, cone
        # structure, classify_cone).
        betas = [PiRational(Fraction(2, k)) for k in range(1, 7)]
        records = points = 0
        for r, s in coprime_knots(13):
            for hand in (L, R):
                knot = TorusKnot(r, s, hand)
                want = {}
                for m in range(1, 13):
                    for n in range(-16, 17):
                        if math.gcd(m, n) == 1:
                            sig = surgery_signature(surgery_of_line(knot, m, n))
                            want[m, n] = [
                                str(classify_cone(ConeStructure(sig, (TWO_PI, TWO_PI, beta))))
                                for beta in betas
                            ]
                got = atlas(knot, 12, (-16, 16), 6)
                assert [(rec["m"], rec["n"]) for rec in got[::6]] == list(want)
                for rec in got:
                    k = rec["x"] // rec["m"]
                    assert rec["beta"] == betas[k - 1].text()
                    assert rec["geometry"] == want[rec["m"], rec["n"]][k - 1], (r, s, hand, rec)
                    records += 1
                model = build_plot(knot, PlotWindow(Fraction(12), -16, 16))
                assert [(pt.m, pt.n) for pt in model.points] == list(want)
                for pt in model.points:
                    assert pt.geometry == want[pt.m, pt.n][0], (r, s, hand, pt)
                    points += 1
        assert (records, points) == (6 * 21690, 21690)


def oracle_rays(r, s, hand, m_max, n_lo, n_hi):
    """(m, n, p, q) of every primitive ray in range, in (m, n) order, from
    the line model alone: p/q = (m - r*s*n)/n on the left handle and
    (m + r*s*n)/n on the right, with p >= 0, and q = |n| when p = 0."""
    rs = r * s
    rays = []
    for m in range(1, m_max + 1):
        for n in range(n_lo, n_hi + 1):
            if math.gcd(m, n) != 1:
                continue
            p = m - rs * n if hand is L else m + rs * n
            q = n
            if p < 0:
                p, q = -p, -n
            elif p == 0:
                q = abs(n)
            rays.append((m, n, p, q))
    return rays


# Geometry names on the e = 0 ray (slope 0) and off it.
UNTWISTED = {"S2xR", "Euclidean", "H2xR", "NoStructure"}
TWISTED = {"Spherical", "Nil", "SL2R", "NoStructure"}


class TestRayOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        knot=st.sampled_from(list(coprime_knots(13))),
        hand=st.sampled_from((L, R)),
        m_max=st.integers(1, 30),
        n_lo=st.integers(-30, 30),
        width=st.integers(-2, 40),
        k_max=st.integers(1, 3),
    )
    @example(knot=(3, 2), hand=L, m_max=30, n_lo=-5, width=11, k_max=2)
    @example(knot=(3, 2), hand=R, m_max=30, n_lo=-5, width=5, k_max=2)
    @example(knot=(5, 4), hand=R, m_max=20, n_lo=-3, width=3, k_max=1)
    @example(knot=(7, 2), hand=L, m_max=14, n_lo=1, width=0, k_max=3)
    def test_rays_match_the_slope_formula(self, knot, hand, m_max, n_lo, width, k_max):
        # Empty n ranges, ranges across 0 and wholly negative ones; the
        # slope-0 ray (r*s, +-1) lies in range when r*s <= m_max.
        r, s = knot
        n_hi = n_lo + width - 1
        torus = TorusKnot(r, s, hand)
        want = oracle_rays(r, s, hand, m_max, n_lo, n_hi)
        records = atlas(torus, m_max, (n_lo, n_hi), k_max)
        assert [(rec["m"], rec["n"], rec["p"], rec["q"], rec["x"]) for rec in records] == [
            ray + (k * ray[0],) for ray in want for k in range(1, k_max + 1)
        ]
        named = [(rec["p"], rec["geometry"]) for rec in records]
        if n_lo <= n_hi:
            model = build_plot(torus, PlotWindow(Fraction(m_max), n_lo, n_hi))
            assert [pt[:4] for pt in model.points] == want
            named += [(pt.p, pt.geometry) for pt in model.points]
        for p, geometry in named:
            assert geometry in (TWISTED if p else UNTWISTED), (p, geometry)
        for m, n, p, q in want:
            spec = surgery_of_line(torus, m, n)
            assert (spec.p, spec.q) == (p, q)


class TestKnotMirror:
    # S^3_{p/q}(K_L(r,s)) = -S^3_{-p/q}(K_R(r,s)), and no geometry depends
    # on orientation.  The mirror of the slope p/q is p/-q; 0/-1 is 0/1.
    @settings(max_examples=150, deadline=None)
    @given(
        knot=st.sampled_from(list(coprime_knots(9))),
        slope=st.tuples(st.integers(0, 80), st.integers(-12, 12)).filter(lambda pq: math.gcd(*pq) == 1),
        beta=st.fractions(0, 2, max_denominator=12).map(PiRational),
        m_max=st.integers(1, 25),
        n_lo=st.integers(-15, 15),
        width=st.integers(-1, 20),
        k_max=st.integers(1, 3),
    )
    @example(knot=(3, 2), slope=(6, -1), beta=TWO_PI, m_max=7, n_lo=-2, width=5, k_max=2)
    @example(knot=(5, 2), slope=(0, 1), beta=PiRational(Fraction(2, 3)), m_max=11, n_lo=-1, width=3, k_max=3)
    def test_mirror_negates_q_and_n(self, knot, slope, beta, m_max, n_lo, width, k_max):
        r, s = knot
        p, q = slope
        left = SurgerySpec(TorusKnot(r, s, L), p, q)
        right = SurgerySpec(TorusKnot(r, s, R), p, -q)
        if p + r * s * q == 0:  # -r*s, the left hand's fibre slope, mirrors the right hand's r*s
            for spec in (left, right):
                with pytest.raises(ValueError, match="exceptional fibre slope"):
                    classify_surgery_cone(spec, beta)
        else:
            assert classify_surgery_cone(left, beta) == classify_surgery_cone(right, beta)

        n_hi = n_lo + width - 1
        mirrored = [
            dict(rec, knot=dict(rec["knot"], hand="right"), n=-rec["n"], q=-rec["q"] if rec["p"] else rec["q"])
            for rec in atlas(TorusKnot(r, s, L), m_max, (n_lo, n_hi), k_max)
        ]
        key = lambda rec: (rec["m"], rec["n"], rec["x"])
        right_records = atlas(TorusKnot(r, s, R), m_max, (-n_hi, -n_lo), k_max)
        assert sorted(right_records, key=key) == sorted(mirrored, key=key)


class TestBrieskorn:
    def test_poincare(self):
        knot, q = brieskorn_surgery(2, 3, 5)
        assert (knot.r, knot.s, knot.hand) == (3, 2, R)
        assert q == 1

    def test_237(self):
        knot, q = brieskorn_surgery(2, 3, 7)
        assert (knot.r, knot.s, knot.hand) == (3, 2, R)
        assert q == -1

    def test_345_absent(self):
        assert brieskorn_surgery(3, 4, 5) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            brieskorn_surgery(2, 4, 5)
        with pytest.raises(ValueError):
            brieskorn_surgery(3, 2, 5)

    def test_witness_is_consistent(self):
        # the 1/q surgery on the witness knot has |H1| = 1 and the
        # prescribed multiplicities
        for a1, a2, a3 in ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 3, 13), (3, 4, 11), (3, 4, 13), (2, 5, 9), (2, 5, 11)):
            found = brieskorn_surgery(a1, a2, a3)
            if found is None:
                assert not any(
                    abs(q * a1 * a2 - 1) == a3 for q in range(-a3 - 1, a3 + 2)
                )
                continue
            knot, q = found
            spec = SurgerySpec(knot, 1, q)
            sig = surgery_signature(spec)
            assert homology_order(sig) == 1
            assert sorted(a for a, _ in sig.fibers) == [a1, a2, a3]


class TestAtlas:
    def test_trefoil_records(self):
        records = atlas(TorusKnot(3, 2, L), 6, (1, 1), 1)
        by_point = {(rec["m"], rec["n"], rec["x"]): rec for rec in records}
        euclid = by_point[(6, 1, 6)]
        assert (euclid["p"], euclid["q"]) == (0, 1)
        assert euclid["beta"] == "2pi"
        assert euclid["geometry"] == "Euclidean"
        poincare = by_point[(5, 1, 5)]
        assert poincare["geometry"] == "Spherical"
        assert poincare["knot"] == {"r": 3, "s": 2, "hand": "left"}

    def test_72_orbifold_records(self):
        records = atlas(TorusKnot(7, 2, L), 1, (1, 3), 2)
        twos = [rec for rec in records if rec["x"] == 2]
        assert twos and all(rec["geometry"] == "Spherical" for rec in twos)
        assert all(rec["beta"] == "1pi" for rec in twos)

    def test_deterministic_order(self):
        records = atlas(TorusKnot(3, 2, L), 4, (-2, 2), 2)
        keys = [(rec["m"], rec["n"], rec["x"]) for rec in records]
        assert keys == sorted(keys)
        assert records == atlas(TorusKnot(3, 2, L), 4, (-2, 2), 2)

    def test_skips_non_primitive(self):
        records = atlas(TorusKnot(3, 2, L), 4, (2, 2), 1)
        assert all(math.gcd(rec["m"], abs(rec["n"])) == 1 for rec in records)
        assert all(rec["m"] % 2 == 1 for rec in records)

    @pytest.mark.parametrize("m_max, k_max, message", [(0, 1, "m_max"), (1, 0, "k_max")])
    def test_rejects_a_bound_below_one(self, m_max, k_max, message):
        with pytest.raises(ValueError) as exc:
            atlas(TorusKnot(3, 2, L), m_max, (0, 1), k_max)
        assert str(exc.value) == message + " must be >= 1"


class TestMoserLensSpaces:
    def test_moser_lens_slopes(self):
        # Moser (Pacific J. Math. 38, 1971): p/q surgery on the (r, s)
        # torus knot with p = eps*q*r*s +- 1 is the lens space L(p, q*s^2),
        # eps = +1 for the right hand and -1 for the left.  Its one label
        # is Lens(p, min(k, k^-1 mod p)) for k = q*s^2 mod p.
        checked = 0
        for r, s in coprime_knots(11):
            for hand, eps in ((R, 1), (L, -1)):
                for q in range(-6, 7):
                    for p in (eps * q * r * s - 1, eps * q * r * s + 1):
                        if q == 0 or p < 2 or math.gcd(p, abs(q)) != 1:
                            continue
                        k = q * s * s % p
                        spec = SurgerySpec(TorusKnot(r, s, hand), p, q)
                        family = identify_family(surgery_signature(spec))
                        assert str(family) == "Lens(%d,%d)" % (p, min(k, pow(k, -1, p))), (r, s, hand, p, q)
                        checked += 1
        assert checked == 744
