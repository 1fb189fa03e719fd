"""Cone points on the base sphere: triangle regions and curvature.

A point of the angle cube [0, pi]^3 prescribes the three cone angles
(2*alpha1, 2*alpha2, 2*alpha3) of a cone metric on the sphere built
from two copies of a triangle with vertex angles alpha_i.  The region
of the cube decides the geometry of that triangle; kernel defines the
regions (RegionClass) and the curvature sign of those that carry a
structure.

The curvature parameter S of a triangle with angles (alpha1, alpha2,
alpha3), alpha2 read at the apex, is

    S = (cos alpha2 + cos(alpha1 + alpha3))
        / (cos alpha2 + cos(alpha1 - alpha3))

with S < 0 spherical of radius 1/sqrt(-S), S = 0 Euclidean and
0 < S <= 1 hyperbolic.  This is the one deliberately floating-point
value in the package; degenerate lines are resolved exactly first.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import kernel
from .arith import PiRational, _Value, _angle, _require
from .kernel import RegionClass


class BasePoint(_Value):
    __slots__ = ("alpha1", "alpha2", "alpha3")
    _KINDS = ((PiRational, int, Fraction),) * 3

    def __init__(self, alpha1, alpha2, alpha3):
        for name, alpha in zip(self.__slots__, (alpha1, alpha2, alpha3)):
            alpha = _angle(alpha, name)
            if alpha.coeff > 1:
                raise ValueError("base angle %s exceeds pi" % alpha)
            object.__setattr__(self, name, alpha)

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alpha1.coeff, self.alpha2.coeff, self.alpha3.coeff)

    def __str__(self):
        return "(%s, %s, %s)" % (self.alpha1, self.alpha2, self.alpha3)


def classify_triangle(point: BasePoint) -> RegionClass:
    """Region of the cube containing the point, decided exactly."""
    c1, c2, c3 = point.coeffs()
    # A BasePoint lies in the cube, so the kernel never returns None for one.
    return kernel.classify_region(
        c1.numerator, c1.denominator,
        c2.numerator, c2.denominator,
        c3.numerator, c3.denominator,
    )


def curvature_parameter(point: BasePoint) -> float:
    """Curvature parameter S of the triangle with these vertex angles.

    Exact cases are resolved before any floating point: S = 0 on the
    Euclidean face, and S = 1 on the degenerate lines where alpha1 or
    alpha3 is 0 or pi (there numerator and denominator agree or vanish
    together).  The denominator also vanishes, with nonzero numerator,
    exactly on the two upper faces alpha2 +- (alpha3 - alpha1) = pi;
    those points have no triangle and raise ValueError.
    """
    c1, c2, c3 = point.coeffs()
    if c1 + c2 + c3 == 1 and c1 > 0 and c2 > 0 and c3 > 0:
        return 0.0
    if c1 in (0, 1) or c3 in (0, 1):
        return 1.0
    if -c1 + c2 + c3 == 1 or c1 + c2 - c3 == 1:
        raise ValueError(
            "curvature parameter undefined at %s: denominator vanishes" % point
        )
    a1, a2, a3 = (float(point.alpha1), float(point.alpha2), float(point.alpha3))
    num = math.cos(a2) + math.cos(a1 + a3)
    den = math.cos(a2) + math.cos(a1 - a3)
    return num / den


def base_limits(a1: int, a2: int) -> tuple[PiRational, PiRational]:
    """Sphericity interval (alpha_L, alpha_U) of the third base angle.

    For fixed cone points of orders 1 < a1 <= a2 and a free third angle
    alpha, the double triangle is spherical exactly for

        (a1*a2 - a2 - a1)/(a1*a2) * pi < alpha < (a1*a2 - a2 + a1)/(a1*a2) * pi

    (the upper bound capped by the cube at pi, where the edge point is
    still spherical).
    """
    _require(a1, "a1")
    _require(a2, "a2")
    if not 1 < a1 <= a2:
        raise ValueError("base limits need 1 < a1 <= a2, got (%d, %d)" % (a1, a2))
    lower = PiRational(Fraction(a1 * a2 - a2 - a1, a1 * a2))
    upper = PiRational(Fraction(a1 * a2 - a2 + a1, a1 * a2))
    return lower, upper
