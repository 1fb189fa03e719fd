"""End-to-end acceptance checks of the headline results.

One test per claim, each ending in a single printed summary line, so a
verbose run reads as a checklist.  Everything is exact arithmetic
except the curvature parameter (1e-12 on pinned values, 1e-9 on signs)
and the SVG coordinate text (1e-9).
"""

import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import combinations_with_replacement

from seifertgeo.arith import Handedness, PiRational, TWO_PI
from seifertgeo.base2d import BasePoint, RegionClass, classify_triangle, curvature_parameter
from seifertgeo.cone3d import ConeStructure, classify_cone, sphericity_limits
from seifertgeo.plot import PlotWindow, build_plot, export_csv, render_svg
from seifertgeo.seifert import NO_STRUCTURE, SeifertSignature, manifold_geometry, normalize
from seifertgeo.seifert import euler_number, homology_order
from seifertgeo.surgery import (
    SurgerySpec,
    TorusKnot,
    atlas,
    classify_surgery_cone,
    line_of_surgery,
    nil_admissible,
    spherical_orbifold_angles,
    surgery_of_line,
    surgery_signature,
    x_limits,
)

L, R = Handedness.LEFT, Handedness.RIGHT


def ok(num, text):
    print("criterion %d: PASS - %s" % (num, text))


def pi(*frac):
    return PiRational(Fraction(*frac))


def region_at(a1, a2, a3, beta):
    """Region of the base point when the (a3)-fibre carries angle beta."""
    point = BasePoint(pi(1, a1), pi(1, a2), PiRational(beta.coeff / (2 * a3)))
    return classify_triangle(point)


def coprime_knots(r_max):
    for r in range(3, r_max + 1):
        for s in range(2, r):
            if math.gcd(r, s) == 1:
                yield r, s


def test_criterion_1_sphericity_tables():
    # prism bases: the spherical range of the (n, b)-fibre is (0, 2n*pi)
    for n in range(2, 11):
        lower, upper = sphericity_limits(2, 2, n)
        assert lower == pi(0)
        assert upper == pi(2 * n)

    # tetrahedral base (2,3,3), octahedral (2,3,4), icosahedral (2,3,5)
    table = [
        ((2, 3), 3, pi(1), pi(5)),
        ((2, 3), 4, pi(4, 3), pi(20, 3)),
        ((3, 4), 2, pi(5, 3), pi(11, 3)),
        ((2, 3), 5, pi(5, 3), pi(25, 3)),
        ((2, 5), 3, pi(9, 5), pi(21, 5)),
        ((3, 5), 2, pi(28, 15), pi(52, 15)),
    ]
    for (a1, a2), a3, lower, upper in table:
        assert sphericity_limits(a1, a2, a3) == (lower, upper)

    # Euclidean bases (3,3,3), (2,4,4), (2,3,6): every fibre enters the
    # spherical regime exactly at 2*pi
    for others, a3 in (
        ((3, 3), 3),
        ((4, 4), 2), ((2, 4), 4),
        ((3, 6), 2), ((2, 6), 3), ((2, 3), 6),
    ):
        assert sphericity_limits(others[0], others[1], a3)[0] == TWO_PI

    # five table entries where older tabulations disagree with the
    # closed form; the sweep oracle sides with the formula each time
    errata = [
        ("tetrahedral (2,b)-fibre lower", (3, 3), 2, "lower", pi(4, 3), pi(8, 3)),
        ("octahedral (3,b)-fibre upper", (2, 4), 3, "upper", pi(9, 2), pi(3)),
        ("(3,3,3)-base fibre upper", (3, 3), 3, "upper", pi(6), pi(4)),
        ("(2,4,4)-base (4,b)-fibre upper", (2, 4), 4, "upper", pi(6), pi(3)),
        ("(2,3,6)-base (2,b)-fibre upper", (3, 6), 2, "upper", pi(10, 3), pi(8, 3)),
    ]
    step = Fraction(1, 100)
    for label, (a1, a2), a3, side, formula, tabulated in errata:
        lower, upper = sphericity_limits(a1, a2, a3)
        want = lower if side == "lower" else upper
        assert want == formula, label

        below = region_at(a1, a2, a3, PiRational(formula.coeff - step))
        at = region_at(a1, a2, a3, formula)
        if side == "lower":
            above = region_at(a1, a2, a3, PiRational(formula.coeff + step))
            assert below is RegionClass.HYPERBOLIC, label
            assert at is RegionClass.EUCLIDEAN_FACE, label
            assert above is RegionClass.SPHERICAL_INTERIOR, label
        else:
            assert below is RegionClass.SPHERICAL_INTERIOR, label
            if a1 == a2:
                assert at is RegionClass.SPHERICAL_EDGE, label
            else:
                assert at is RegionClass.NO_STRUCTURE_FACE, label
            if formula.coeff + step <= 2 * a3:
                above = region_at(a1, a2, a3, PiRational(formula.coeff + step))
                assert above is not RegionClass.SPHERICAL_INTERIOR, label

        # the tabulated value sits strictly inside the spherical range,
        # so no transition happens there
        assert lower.coeff < tabulated.coeff < upper.coeff
        for offset in (-step, Fraction(0), step):
            cls = region_at(a1, a2, a3, PiRational(tabulated.coeff + offset))
            assert cls is RegionClass.SPHERICAL_INTERIOR, label
        print(
            "  discrepancy: %s is %s by the formula and the sweep; "
            "tabulated %s is interior to the spherical range"
            % (label, formula.text(), tabulated.text())
        )
    ok(1, "sphericity tables reproduced exactly; 5 tabulated entries corrected")


def test_criterion_2_ratio_corollary():
    want = {
        (2, 3): Fraction(5),
        (3, 4): Fraction(11, 5),
        (2, 5): Fraction(7, 3),
        (3, 5): Fraction(13, 7),
        (4, 5): Fraction(19, 11),
    }
    for (a1, a2), ratio in want.items():
        for a3 in range(1, 51):
            lower, upper = sphericity_limits(a1, a2, a3)
            assert upper / lower == ratio
    ok(2, "beta_U/beta_L = 5, 11/5, 7/3, 13/7, 19/11, independent of the singular fibre")


def test_criterion_3_trefoil_conclusions():
    trefoil = TorusKnot(3, 2, L)
    labels = [x for x, _ in spherical_orbifold_angles(trefoil)]
    assert labels == [2, 3, 4, 5]

    # one-parameter Nil families on the left-handed trefoil: slopes
    # (2-6y)/y with cone angle 2pi/3 and (3-6y)/y with cone angle pi
    for y in (1, 5, 7, 11):
        spec = SurgerySpec(trefoil, 6 * y - 2, -y)
        assert str(classify_surgery_cone(spec, pi(2, 3))) == "Nil"
        assert line_of_surgery(spec).m == 2
        spec = SurgerySpec(trefoil, 6 * y - 3, -y)
        assert str(classify_surgery_cone(spec, pi(1))) == "Nil"
        assert line_of_surgery(spec).m == 3

    # non-singular family (6-6y)/y: Nil manifolds, except that y = 1 is
    # the slope 0/1 with e = 0, which is the flat manifold
    for y in (5, 7, 11):
        spec = SurgerySpec(trefoil, 6 * y - 6, -y)
        assert str(classify_surgery_cone(spec, TWO_PI)) == "Nil"
        assert line_of_surgery(spec).m == 6
    flat = SurgerySpec(trefoil, 0, 1)
    assert str(classify_surgery_cone(flat, TWO_PI)) == "Euclidean"

    # right-handed mirror family (6+6y)/y is Nil for every y
    mirror = TorusKnot(3, 2, R)
    for y in (1, 5, 7, 11):
        spec = SurgerySpec(mirror, 6 + 6 * y, y)
        assert str(classify_surgery_cone(spec, TWO_PI)) == "Nil"
        assert line_of_surgery(spec).m == 6

    # x = 6 is the unique integer abscissa carrying Nil structures
    assert x_limits(trefoil)[1] == 6
    for knot in (trefoil, mirror):
        records = atlas(knot, 12, (-6, 6), 4)
        nil_xs = {rec["x"] for rec in records if rec["geometry"] == "Nil"}
        assert nil_xs == {6}
    ok(3, "trefoil: labels {2,3,4,5}, Nil families at x = 6, y = 1 flat exception")


def test_criterion_4_admissibility():
    spherical = set()
    nil = set()
    low = set()
    for r, s in coprime_knots(100):
        knot = TorusKnot(r, s, L)
        if spherical_orbifold_angles(knot):
            spherical.add((r, s))
        if nil_admissible(knot):
            nil.add((r, s))
        if x_limits(knot)[1] < 2:
            low.add((r, s))
    assert spherical == {(r, 2) for r in range(3, 101, 2)} | {(4, 3), (5, 3)}
    assert nil == {(3, 2)}
    assert low == {
        (r, s)
        for r, s in coprime_knots(100)
        if (r - 2) * (s - 2) > 4 or (r, s) == (5, 4)
    }
    ok(4, "admissible sets over r <= 100: {(r,2)} u {(4,3),(5,3)} spherical, {(3,2)} Nil")


def test_criterion_5_surgery_identities():
    rng = random.Random(95)
    checked = 0
    for r, s in coprime_knots(12):
        rs = r * s
        for hand in (L, R):
            knot = TorusKnot(r, s, hand)
            done = 0
            while done < 1000:
                q = rng.randint(-12, 12)
                p = rng.randint(0, 60)
                if (p, q) == (0, 0) or math.gcd(p, abs(q)) != 1:
                    continue
                spec = SurgerySpec(knot, p, q)
                try:
                    sig = surgery_signature(spec)
                except ValueError:
                    assert p == rs * abs(q)
                    continue
                done += 1
                if p == 0:
                    assert homology_order(sig) is None
                else:
                    assert homology_order(sig) == p
                point = line_of_surgery(spec)
                m, n = point.m, point.n
                if hand is L:
                    assert euler_number(sig) == Fraction(m - n * rs, rs * m)
                else:
                    assert euler_number(sig) == Fraction(-(m + n * rs), rs * m)
                back = surgery_of_line(knot, point)
                if p == 0:
                    assert (back.p, back.q) == (0, 1)
                else:
                    assert (back.p, back.q) == (p, q)
            checked += done
    poincare = normalize(surgery_signature(SurgerySpec(TorusKnot(3, 2, L), 1, -1)))
    assert poincare == SeifertSignature(-1, ((5, 1), (3, 1), (2, 1)))
    ok(5, "homology, Euler number and line chart verified on %d random surgeries" % checked)


def test_criterion_6_geometry_table_consistency():
    pool = [
        (a, b)
        for a in range(12, 0, -1)
        for b in range(a if a > 1 else 1)
        if math.gcd(a, b) == 1
    ]
    angles = (TWO_PI, TWO_PI, TWO_PI)
    total = boundary = 0
    for fibers in combinations_with_replacement(pool, 3):
        mult = tuple(a for a, _ in fibers)
        hopf_like = mult[2] == 1 and mult[0] != mult[1]
        for b in range(-3, 4):
            sig = SeifertSignature(b, fibers)
            cs = ConeStructure(sig, angles)
            region = classify_triangle(cs.base_point())
            assert (region is RegionClass.DEGENERATE_BOUNDARY) == hopf_like
            if hopf_like:
                assert classify_cone(cs) is NO_STRUCTURE
                boundary += 1
            else:
                assert classify_cone(cs) is manifold_geometry(sig)
            total += 1
    assert boundary > 0
    ok(
        6,
        "cone classification at 2pi matches the manifold table on %d signatures "
        "(%d degenerate-boundary cases are exactly the one-general-fibre, "
        "unequal-pair ones)" % (total, boundary),
    )


def test_criterion_7_curvature_parameter():
    euclidean = curvature_parameter(BasePoint(pi(1, 3), pi(1, 3), pi(1, 3)))
    spherical = curvature_parameter(BasePoint(pi(1, 2), pi(1, 2), pi(1, 2)))
    assert abs(euclidean - 0.0) <= 1e-12
    assert abs(spherical - (-1.0)) <= 1e-12

    rng = random.Random(17)
    seen = {
        RegionClass.HYPERBOLIC: 0,
        RegionClass.EUCLIDEAN_FACE: 0,
        RegionClass.SPHERICAL_INTERIOR: 0,
    }
    for _ in range(10_000):
        coeffs = [Fraction(rng.randint(0, 120), 120) for _ in range(3)]
        point = BasePoint(*(PiRational(c) for c in coeffs))
        cls = classify_triangle(point)
        if cls not in seen:
            continue
        try:
            value = curvature_parameter(point)
        except ValueError:
            continue
        if cls is RegionClass.HYPERBOLIC:
            if 0 in coeffs:
                continue
            assert value > -1e-9
        elif cls is RegionClass.EUCLIDEAN_FACE:
            assert abs(value) <= 1e-9
        else:
            assert value < 1e-9
        seen[cls] += 1
    assert all(count > 50 for count in seen.values())
    ok(7, "S pinned at 0 and -1 to 1e-12; sign agrees with the region on 10^4 points")


def test_criterion_8_plot_and_csv():
    def build(knot, window):
        model = build_plot(knot, window)
        return render_svg(model), export_csv(model)

    trefoil = TorusKnot(3, 2, L)
    window = PlotWindow(Fraction(8), -3, 3)
    svg, csv = build(trefoil, window)
    rows = csv.strip().split("\n")
    assert "5,1,1,-1,5,Spherical" in rows
    assert "6,1,0,1,6,Euclidean" in rows

    _, csv43 = build(TorusKnot(4, 3, L), window)
    assert not any(row.endswith(",Nil") for row in csv43.strip().split("\n"))

    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring(svg)
    found = {}
    for el in root.iter(ns + "line"):
        cls = el.get("class")
        if cls in ("boundary upper", "boundary lower"):
            found[cls] = float(el.get("x1"))
    x_u, x_l = x_limits(trefoil)
    assert abs(found["boundary upper"] - float(x_u)) <= 1e-9
    assert abs(found["boundary lower"] - float(x_l)) <= 1e-9

    again = build(trefoil, window)
    assert (svg.encode(), csv.encode()) == (again[0].encode(), again[1].encode())
    ok(8, "CSV rows, SVG boundary abscissas to 1e-9, byte-identical re-render")
