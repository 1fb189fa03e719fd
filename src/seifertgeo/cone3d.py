"""Seifert conemanifold structures: geometry from cone angles.

A cone structure assigns each fibre (a_i, b_i) a cone angle beta_i in
[0, 2*pi*a_i].  The induced base cone point has angles

    alpha_i = beta_i / (2 * a_i),

and the region kernel places it in the angle cube.  A cone structure
keeps the kernel's six integers (num_i, 2*a_i*den_i) for beta_i =
num_i/den_i * pi, and its signature keeps e*a1*a2*a3.  kernel.CURVATURE_SIGN
gives the sign (-1, 0, +1) of the base curvature on a region that
carries a structure, and seifert's geometry table, read at that sign
and at e != 0, gives the geometry.  Every other region carries no
geometric Seifert conemanifold structure, and the answer is NO_STRUCTURE.

When one fibre of multiplicity a3 is singular and the other two, of
multiplicities 1 < a1 <= a2, stay at 2*pi, the singular fibre's base
angle has the band lower/A * pi < alpha < upper/A * pi of
(A, lower, upper) = base2d._band(a1, a2), so the structure is
spherical exactly between the sphericity limits

    beta_L = 2*a3*lower/A * pi,      beta_U = 2*a3*upper/A * pi.

The base curvature has the sign of beta - beta_L below beta_U, so the
geometry is Nil (Euclidean when e = 0) at beta_L and SL2R (H2xR) below
it.  The ratio beta_U / beta_L = upper/lower is free of a3; the width
is 4*pi*a3/a2.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import kernel
from .arith import PiRational, _Value, _require
from .base2d import BasePoint, _band
from .seifert import (
    _GEOMETRIES, NO_STRUCTURE, GeometryType, SeifertSignature, normalize, normalize_with_order,
)

# Region -> its row of _GEOMETRIES, read at e != 0; other regions and None carry no structure.
_ROWS = {region: _GEOMETRIES[sign] for region, sign in kernel.CURVATURE_SIGN.items()}
_NO_ROW = (NO_STRUCTURE, NO_STRUCTURE)


class ConeStructure(_Value):
    """A normalized signature with one cone angle per fibre.

    The constructor accepts a raw signature and a tuple or list of three
    PiRational angles; any other angle is refused, named angles[i] as
    the caller numbers it.  Normalization carries the angles through the
    fibre permutation, so angle k always belongs to fibre k of the
    stored signature.
    """

    __slots__ = ("sig", "angles", "_ints")  # _ints: the kernel's (n1, 2*a1*d1, n2, 2*a2*d2, n3, 2*a3*d3)
    _KINDS = (SeifertSignature, (tuple, list))

    def __init__(self, sig: SeifertSignature, angles):
        # exact classes skip the calls, as in SeifertSignature's ints
        if sig.__class__ is not SeifertSignature or angles.__class__ is not tuple:
            self._check(sig, angles)
        if len(angles) != 3:
            raise ValueError("expected 3 cone angles, got %d" % len(angles))
        if not (angles[0].__class__ is angles[1].__class__ is angles[2].__class__ is PiRational):
            for i, beta in enumerate(angles):
                _require(beta, "angles[%d]" % i, PiRational)
        norm, (i, j, k) = normalize_with_order(sig)
        x1, x2, x3 = angles[i], angles[j], angles[k]
        (a1, _), (a2, _), (a3, _) = f1, f2, f3 = norm.fibers
        (n1, d1), (n2, d2), (n3, d3) = x1._ratio, x2._ratio, x3._ratio
        if n1 > 2 * a1 * d1 or n2 > 2 * a2 * d2 or n3 > 2 * a3 * d3:
            a, beta = next((a, beta) for a, beta in ((a1, x1), (a2, x2), (a3, x3)) if beta.coeff > 2 * a)
            raise ValueError("cone angle %s exceeds 2*pi*%d on a fibre of multiplicity %d" % (beta, a, a))
        # Equal fibres take their angles in increasing order, so the value is canonical.
        if f1 == f2 and n1 * d2 > n2 * d1:
            x1, n1, d1, x2, n2, d2 = x2, n2, d2, x1, n1, d1
        if f2 == f3 and n2 * d3 > n3 * d2:
            x2, n2, d2, x3, n3, d3 = x3, n3, d3, x2, n2, d2
            if f1 == f2 and n1 * d2 > n2 * d1:
                x1, n1, d1, x2, n2, d2 = x2, n2, d2, x1, n1, d1
        object.__setattr__(self, "sig", norm)
        object.__setattr__(self, "angles", (x1, x2, x3))
        object.__setattr__(self, "_ints", (n1, 2 * a1 * d1, n2, 2 * a2 * d2, n3, 2 * a3 * d3))

    def base_point(self) -> BasePoint:
        """The base angles beta_i / (2*a_i), read from the kernel's integers."""
        n1, d1, n2, d2, n3, d3 = self._ints
        return BasePoint(PiRational(Fraction(n1, d1)), PiRational(Fraction(n2, d2)), PiRational(Fraction(n3, d3)))


def classify_cone(cs: ConeStructure) -> GeometryType:
    """Geometry of the cone structure: one of the six, or NO_STRUCTURE.

    Decided on integers: base angle i is the unreduced num/(2*a_i*den)
    for beta_i = num/den * pi, and the twist is the sign of e*a1*a2*a3;
    the structure and its signature keep both.
    """
    if cs.__class__ is not ConeStructure:
        _require(cs, "cs", ConeStructure)
    return _ROWS.get(kernel.classify_region(*cs._ints), _NO_ROW)[cs.sig._e != 0]


def sphericity_limits(a1: int, a2: int, a3: int) -> tuple[PiRational, PiRational]:
    """(beta_L, beta_U): the sphericity interval of the angle on the
    singular fibre.  Their ratio is beta_U / beta_L, an exact Fraction;
    it raises ZeroDivisionError when beta_L = 0 (a1 = a2 = 2).

    a3 is the multiplicity of the singular fibre (a3 >= 1); a1 and a2
    are the multiplicities of the two fibres kept at angle 2*pi, sorted
    internally, both > 1.
    """
    _require(a1, "a1")
    _require(a2, "a2")
    _require(a3, "a3")
    a1, a2 = sorted((a1, a2))
    if a1 <= 1:
        raise ValueError(
            "sphericity limits need both non-singular multiplicities > 1"
        )
    if a3 < 1:
        raise ValueError("singular multiplicity must be >= 1, got %d" % a3)
    a12, lower, upper = _band(a1, a2)
    return PiRational(Fraction(2 * a3 * lower, a12)), PiRational(Fraction(2 * a3 * upper, a12))


class FamilyDimension(Enum):
    """Dimension of the cone structures with a fixed singular set: a family
    of 0 to 3 parameters, an isolated orbifold-like structure, or none."""

    DIM_0 = "Dim(0)"
    DIM_1 = "Dim(1)"
    DIM_2 = "Dim(2)"
    DIM_3 = "Dim(3)"
    ORBIFOLD_ONLY = "OrbifoldOnly"
    NO_FAMILY = "None"

    def __str__(self):
        return self.value


def Dim(k: int) -> FamilyDimension:
    _require(k, "k")
    return FamilyDimension("Dim(%d)" % k)


ORBIFOLD_ONLY = FamilyDimension.ORBIFOLD_ONLY
NO_FAMILY = FamilyDimension.NO_FAMILY


def family_dimension(sig: SeifertSignature, singular) -> FamilyDimension:
    """Dimension of the family of structures with exactly this singular set.

    singular is a set of 1-based fibre positions that are allowed cone
    angles other than 2*pi; the remaining fibres are pinned at
    alpha_j = pi/a_j.  The constraint subspace of the cube is an
    axis-parallel k-plane; its position decides the answer:

      * all pinned angles interior (a_j > 1): a k-dimensional family
        (k = 0 means the manifold structure itself, if its base point
        carries a structure);
      * one pinned angle at pi, two free: the face meets the spherical
        edge in a one-parameter family;
      * one free, the others pinned at pi and at pi/a_j (a_j >= 1):
        the only structure is the isolated point alpha_free = pi/a_j,
        on the spherical edge, or its end (pi, pi, pi) when a_j = 1;
        an orbifold-like structure unless it degenerates to the
        manifold point (a_free = a_j).
    """
    _require(sig, "sig", SeifertSignature)
    try:
        singular = frozenset(singular)
    except TypeError:
        raise ValueError("singular must be a set of fibre positions, got %r" % (singular,)) from None
    for position in singular:
        _require(position, "singular position")
    if not singular <= {1, 2, 3}:
        raise ValueError("singular set must be a subset of {1, 2, 3}")
    if normalize(sig) != sig:
        raise ValueError("family_dimension expects a normalized signature")

    free = sorted(singular)
    pinned = [sig.fibers[j - 1][0] for j in (1, 2, 3) if j not in singular]
    k = len(free)

    if k == 0:
        a1, a2, a3 = sig.multiplicities()
        if kernel.classify_region(1, a1, 1, a2, 1, a3) in kernel.CURVATURE_SIGN:
            return Dim(0)
        return NO_FAMILY
    if 1 not in pinned:
        return Dim(k)
    if k == 2:
        # One coordinate pinned at pi: the face meets the structure set
        # in the diagonal where the two free angles agree.
        return Dim(1)
    # k == 1 with at least one coordinate pinned at pi.
    a_free, a_fixed = sig.fibers[free[0] - 1][0], max(pinned)
    if a_free == a_fixed:
        # The isolated point is the all-2*pi manifold structure, so no
        # structure has exactly this singular set.
        return NO_FAMILY
    return ORBIFOLD_ONLY
