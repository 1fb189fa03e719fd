"""Exact region classifier for rational points of the angle cube.

A base cone point is a triple of angles (alpha1, alpha2, alpha3) in
[0, pi], given here as fractions of pi: alpha_i = (n_i / d_i) * pi.
The cube splits along four planes,

    sum  = a1 + a2 + a3        (Euclidean face at sum == pi)
    t1   = a1 - a2 + a3        (upper sphericity face at t1 == pi)
    t2   = -a1 + a2 + a3       (upper sphericity face at t2 == pi)
    t3   = a1 + a2 - a3        (upper sphericity face at t3 == pi)

into the hyperbolic tetrahedron (sum < pi), the Euclidean face, the
open spherical tetrahedron (sum > pi, all t_i < pi), its three edges
from (pi,0,0)-type vertices to (pi,pi,pi) where one angle equals pi
and the other two agree, and the remainder, which carries no structure.
Points of the cube boundary that fall in that remainder are kept apart
as degenerate: they are exactly the base points of fibrations whose
base orbifold is a teardrop or an unequal spindle.

All comparisons are exact integer arithmetic over the common
denominator d1*d2*d3, so the module works for arbitrary precision.
Each test compares terms of the same degree in every pair (n_i, d_i),
so the pairs need not be reduced: (k*n_i, k*d_i) with k >= 1 gives the
same region as (n_i, d_i).
"""

from __future__ import annotations

from enum import Enum


class RegionClass(Enum):
    """Region of the angle cube; str() is its name in the package's output."""

    HYPERBOLIC = "Hyperbolic"
    EUCLIDEAN_FACE = "EuclideanFace"
    SPHERICAL_INTERIOR = "SphericalInterior"
    SPHERICAL_EDGE = "SphericalEdge"
    NO_STRUCTURE_FACE = "NoStructureFace"
    DEGENERATE_BOUNDARY = "DegenerateBoundary"

    # Members are singletons, so identity hashing agrees with equality and,
    # unlike Enum's own __hash__, is no Python call per dict lookup.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


# Module globals, in definition order: the kernel reads a global about ten
# times faster than RegionClass.X.
(
    HYPERBOLIC, EUCLIDEAN_FACE, SPHERICAL_INTERIOR, SPHERICAL_EDGE,
    NO_STRUCTURE_FACE, DEGENERATE_BOUNDARY,
) = RegionClass

# Sign of the base curvature on the four regions that carry a structure.
CURVATURE_SIGN = {HYPERBOLIC: -1, EUCLIDEAN_FACE: 0, SPHERICAL_INTERIOR: 1, SPHERICAL_EDGE: 1}


def classify_region(n1: int, d1: int, n2: int, d2: int, n3: int, d3: int) -> RegionClass | None:
    """Region of the point (n1/d1, n2/d2, n3/d3) in units of pi; None outside the cube."""
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        return None
    if n1 < 0 or n2 < 0 or n3 < 0 or n1 > d1 or n2 > d2 or n3 > d3:
        return None

    unit = d1 * d2 * d3
    s1 = n1 * d2 * d3
    s2 = n2 * d1 * d3
    s3 = n3 * d1 * d2
    total = s1 + s2 + s3

    if total < unit:
        return HYPERBOLIC
    if total == unit:
        if n1 > 0 and n2 > 0 and n3 > 0:
            return EUCLIDEAN_FACE
        return DEGENERATE_BOUNDARY

    # total > unit from here on.
    if n1 == d1 and s2 == s3 and n2 > 0:
        return SPHERICAL_EDGE
    if n2 == d2 and s1 == s3 and n1 > 0:
        return SPHERICAL_EDGE
    if n3 == d3 and s1 == s2 and n1 > 0:
        return SPHERICAL_EDGE
    if n1 == 0 or n2 == 0 or n3 == 0 or n1 == d1 or n2 == d2 or n3 == d3:
        return DEGENERATE_BOUNDARY
    if s1 - s2 + s3 < unit and -s1 + s2 + s3 < unit and s1 + s2 - s3 < unit:
        return SPHERICAL_INTERIOR
    return NO_STRUCTURE_FACE
