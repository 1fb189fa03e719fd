"""The region kernel against the existence theorems for cone metrics on S^2.

A base point alpha (angles in units of pi) is the double of a triangle:
a sphere with cone angles 2*pi*alpha_i.  Gauss-Bonnet gives its
curvature the sign of sum(alpha) - 1.  Then

- sum < 1: a hyperbolic triangle exists for any angles, an angle 0
  being an ideal vertex;
- sum = 1: a Euclidean triangle exists exactly when every angle is
  positive;
- sum > 1: no angle may be 0 (a cusp), and an angle 1 is a smooth point,
  not a cone point.  No cone point is the round sphere.  One cone point
  (a teardrop) carries no metric.  Two carry one only when their angles
  are equal (Troyanov, "Metrics of constant curvature on a sphere with
  two conical singularities", LNM 1410, 1989).  Three carry one exactly
  when 1 - alpha_i < sum over j != i of (1 - alpha_j) for every i (Luo
  and Tian, "Liouville equation and spherical convex polytopes",
  Proc. AMS 116, 1992).

The oracle below reads these statements in Fraction arithmetic and
shares no code with the kernel, whose answers it names by their text.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from seifertgeo.kernel import classify_region


def oracle(a1, a2, a3):
    """Region name of the cube point (a1, a2, a3), angles as Fractions of pi."""
    angles = (a1, a2, a3)
    total = a1 + a2 + a3
    if total < 1:
        return "Hyperbolic"
    if total == 1:
        return "EuclideanFace" if all(angles) else "DegenerateBoundary"
    if not all(angles):
        return "DegenerateBoundary"  # a cusp
    cones = [a for a in angles if a < 1]
    if len(cones) == 0:
        return "SphericalEdge"  # the round sphere
    if len(cones) == 1:
        return "DegenerateBoundary"  # a teardrop
    if len(cones) == 2:
        return "SphericalEdge" if cones[0] == cones[1] else "DegenerateBoundary"
    # 1 - a_i < sum over j != i of (1 - a_j), where the 1 - a_j sum to 3 - total
    defects = 3 - total
    if all(2 * (1 - a) < defects for a in angles):
        return "SphericalInterior"
    return "NoStructureFace"


def kernel(a1, a2, a3):
    region = classify_region(
        a1.numerator, a1.denominator, a2.numerator, a2.denominator, a3.numerator, a3.denominator
    )
    return str(region)


# Every angle in [0, 1] with denominator at most 12: 47 values, 103,823 points.
GRID = sorted({F(n, d) for d in range(1, 13) for n in range(d + 1)})


def test_grid():
    assert len(GRID) == 47
    counts = Counter()
    for point in product(GRID, repeat=3):
        expected = oracle(*point)
        assert kernel(*point) == expected, point
        counts[expected] += 1
    assert counts == {
        "Hyperbolic": 16323,
        "DegenerateBoundary": 9456,
        "EuclideanFace": 196,
        "SphericalInterior": 37473,
        "SphericalEdge": 136,
        "NoStructureFace": 40239,
    }


# Named points, each with the answer the theorems give by hand.
NAMED = {
    # the vertices of the cube
    (0, 0, 0): "Hyperbolic",
    (1, 0, 0): "DegenerateBoundary",
    (0, 1, 0): "DegenerateBoundary",
    (0, 0, 1): "DegenerateBoundary",
    (1, 1, 0): "DegenerateBoundary",
    (1, 0, 1): "DegenerateBoundary",
    (0, 1, 1): "DegenerateBoundary",
    (1, 1, 1): "SphericalEdge",
    # the three edges from (1, 0, 0)-type vertices to (1, 1, 1): footballs
    (1, "1/4", "1/4"): "SphericalEdge",
    ("2/3", 1, "2/3"): "SphericalEdge",
    ("5/7", "5/7", 1): "SphericalEdge",
    # unequal footballs, teardrops and cusps
    (1, "1/4", "1/3"): "DegenerateBoundary",
    ("1/2", "2/3", 1): "DegenerateBoundary",
    (1, 1, "1/2"): "DegenerateBoundary",
    ("1/5", 1, 1): "DegenerateBoundary",
    (0, "2/3", "2/3"): "DegenerateBoundary",
    ("1/2", 0, 1): "DegenerateBoundary",
    # Euclidean triangles, and the Euclidean face's boundary
    ("1/3", "1/3", "1/3"): "EuclideanFace",
    ("1/2", "1/3", "1/6"): "EuclideanFace",
    ("1/4", "1/2", "1/4"): "EuclideanFace",
    ("1/2", "1/2", 0): "DegenerateBoundary",
    (0, "1/3", "2/3"): "DegenerateBoundary",
    # hyperbolic triangles, ideal vertices included
    ("1/2", "1/3", "1/7"): "Hyperbolic",
    (0, "1/4", "1/4"): "Hyperbolic",
    (0, 0, "99/100"): "Hyperbolic",
    # three cone points: Luo-Tian inside, on and beyond its planes
    ("1/2", "1/3", "1/5"): "SphericalInterior",
    ("1/2", "1/2", "1/2"): "SphericalInterior",
    ("99/100", "99/100", "99/100"): "SphericalInterior",
    ("1/4", "3/4", "1/2"): "NoStructureFace",
    ("9/10", "1/10", "9/10"): "NoStructureFace",
    ("1/10", "9/10", "9/10"): "NoStructureFace",
    ("9/10", "9/10", "1/10"): "NoStructureFace",
}


@pytest.mark.parametrize("point, expected", NAMED.items(), ids=[",".join(map(str, p)) for p in NAMED])
def test_named_point(point, expected):
    point = tuple(F(a) for a in point)
    assert oracle(*point) == expected
    assert kernel(*point) == expected


@st.composite
def unreduced_points(draw):
    """A cube point, often with an angle 0 or 1, two equal angles or a point
    on a Luo-Tian plane, and a scale k for each of its pairs (n, d)."""
    angle = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=10 ** 6)
    point = [draw(angle) for _ in range(3)]
    i, j, k = draw(st.permutations(range(3)))
    tie = draw(st.sampled_from(["none", "equal", "plane"]))
    if tie == "equal":
        point[i] = point[j]
    elif tie == "plane" and 0 <= 1 + point[i] - point[j] <= 1:
        point[k] = 1 + point[i] - point[j]  # a_j + a_k - a_i = 1
    scales = [draw(st.integers(1, 10 ** 9)) for _ in range(3)]
    return point, scales


@settings(max_examples=500)
@given(unreduced_points())
def test_unreduced_pairs(drawn):
    point, scales = drawn
    args = [k * part for a, k in zip(point, scales) for part in (a.numerator, a.denominator)]
    assert str(classify_region(*args)) == oracle(*point)
