"""Dehn surgery on torus knots as small Seifert fibrations.

p/q surgery on the (r, s) torus knot (r > s > 1 coprime, handedness
explicit) yields the Seifert manifold

    (-1; (s, b1), (r, b2), (m, eps*q))

where (b1, b2) are the knot's fibre coefficients, m = |q*r*s + p| for
the left handle and |p - q*r*s| for the right, and eps is the sign of
the expression inside the absolute value.  m = 0 (the fibre slope
p/q = -+ r*s, whose surgery is the reducible L(r,s)#L(s,r)) is
excluded.  Surgeries are charted on the line model: the surgery lives
on the ray l_{m/n} through the origin and the primitive point (m, n)
with n = eps*q; the structure with cone angle beta around the core
sits at abscissa x = 2*pi*m/beta.

On each ray the core's base angle is pi/x, so the structure is
spherical for x_U < x < x_L, where x_U and x_L are pi over the base
limits alpha_U and alpha_L of base2d.base_limits(s, r).  It is Nil at
the integer-or-not abscissa x_L (when the Euler number is nonzero) and
SL2R beyond it.  Integer abscissas x in (x_U, x_L) are the spherical
orbifold labels; the cone angle there is 2*pi/x.

atlas and plot.build_plot decide each ray from integers alone.  The
region kernel gets the base angles (1, s), (1, r) and (num, 2*m*den)
for beta = num/den*pi.  None of them holds n, so the kernel runs once
per (m, beta) column.  Each ray's twist is p != 0: |e*r*s*m| = |H1| = p
(Moser), so e vanishes only on the ray (r*s, +-1), which is slope 0.
No signature or cone structure is built; SurgerySpec, SeifertSignature
and PiRational are the types of the public functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import kernel
from .arith import Handedness, PiRational, _Value, fiber_coeffs
from .base2d import base_limits
from .cone3d import GeometryResult, _base_angle, _geometry
from .seifert import SeifertSignature, _euler_numerator


class TorusKnot(_Value):
    __slots__ = ("r", "s", "hand")

    def __init__(self, r: int, s: int, hand: Handedness):
        if not (r > s > 1):
            raise ValueError("torus knot needs r > s > 1, got (%d, %d)" % (r, s))
        if gcd(r, s) != 1:
            raise ValueError(
                "torus knot parameters must be coprime, got (%d, %d)" % (r, s)
            )
        if not isinstance(hand, Handedness):
            raise ValueError("hand must be a Handedness value")
        self._set(r, s, hand)

    def coeffs(self) -> tuple[int, int]:
        return fiber_coeffs(self.r, self.s, self.hand)

    def to_json(self) -> dict:
        return {"r": self.r, "s": self.s, "hand": self.hand.value}

    def __str__(self):
        return "K(%d,%d) %s" % (self.r, self.s, self.hand.value)


class SurgerySpec(_Value):
    """Slope p/q with p >= 0 and the sign carried by q; (1, 0) is infinity
    and (0, 1) is zero, which (0, -1) also names."""

    __slots__ = ("knot", "p", "q")

    def __init__(self, knot: TorusKnot, p: int, q: int):
        if p < 0:
            raise ValueError("slope numerator must be >= 0 (sign lives in q)")
        if (p, q) == (0, 0):
            raise ValueError("slope 0/0 is not a surgery")
        if gcd(p, abs(q)) != 1:
            raise ValueError("slope %d/%d is not reduced" % (p, q))
        self._set(knot, p, q if p else 1)

    def slope_text(self) -> str:
        return "%d/%d" % (self.p, self.q)


class LinePoint(_Value):
    """Primitive lattice point (m, n) naming the ray l_{m/n}."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 0:
            raise ValueError("line point needs m >= 0")
        if gcd(m, abs(n)) != 1:
            raise ValueError("line point (%d, %d) is not primitive" % (m, n))
        self._set(m, n)


def _core(spec: SurgerySpec) -> tuple[int, int]:
    """(m, eps): multiplicity of the core fibre and the sign that n = eps*q carries.

    Raises ValueError on the fibre slope -+r*s, where m = 0 and the
    surgery is reducible.
    """
    rs = spec.knot.r * spec.knot.s
    if spec.knot.hand is Handedness.LEFT:
        t = spec.q * rs + spec.p
    else:
        t = -spec.q * rs + spec.p
    if t == 0:
        raise ValueError(
            "slope %s is the exceptional fibre slope (m = 0): the surgery is reducible"
            % spec.slope_text()
        )
    return abs(t), (1 if t > 0 else -1)


def surgery_signature(spec: SurgerySpec) -> SeifertSignature:
    """Raw signature of the surgered manifold, core fibre last."""
    m, eps = _core(spec)
    b1, b2 = spec.knot.coeffs()
    return SeifertSignature(
        -1, ((spec.knot.s, b1), (spec.knot.r, b2), (m, eps * spec.q))
    )


def line_of_surgery(spec: SurgerySpec) -> LinePoint:
    m, eps = _core(spec)
    return LinePoint(m, eps * spec.q)


def primitive_rays(m_max: int, n_range: tuple[int, int]):
    """Primitive points (m, n) with 1 <= m <= m_max, n in n_range, by (m, n).

    gcd(m, 0) == m, so n = 0 appears only as (1, 0), the ray at infinity.
    """
    n_lo, n_hi = n_range
    for m in range(1, m_max + 1):
        for n in range(n_lo, n_hi + 1):
            if gcd(m, n) == 1:
                yield m, n


def surgery_of_line(knot: TorusKnot, point: LinePoint) -> SurgerySpec:
    """Inverse chart: the slope whose surgery sits on the ray l_{m/n}."""
    return SurgerySpec(knot, *_slope(knot, point.m, point.n))


def _slope(knot: TorusKnot, m: int, n: int) -> tuple[int, int]:
    """(p, q) of the surgery on the ray l_{m/n}.

    n = 0 is the surgery at infinity (slope 1/0, only m = 1 is
    primitive); otherwise p/q = (m - r*s*n)/n for the left handle and
    (m + r*s*n)/n for the right, normalized to p >= 0.
    """
    if n == 0:
        if m != 1:
            raise ValueError("(m, 0) is primitive only for m = 1")
        return 1, 0
    rs = knot.r * knot.s
    p = m - rs * n if knot.hand is Handedness.LEFT else m + rs * n
    if p < 0:
        return -p, -n
    return p, (abs(n) if p == 0 else n)


def x_limits(knot: TorusKnot) -> tuple[Fraction, Fraction]:
    """(x_U, x_L): abscissas of the sphericity limits on every ray."""
    alpha_lower, alpha_upper = base_limits(knot.s, knot.r)
    return 1 / alpha_upper.coeff, 1 / alpha_lower.coeff


def classify_surgery_cone(spec: SurgerySpec, beta: PiRational) -> GeometryResult:
    """Geometry of the surgered manifold with cone angle beta on the core."""
    m, eps = _core(spec)
    if not isinstance(beta, PiRational):
        beta = PiRational(beta)
    return _cone_geometry(spec.knot, spec.knot.coeffs(), m, eps * spec.q, beta)


def _cone_geometry(knot: TorusKnot, coeffs, m: int, n: int, beta: PiRational) -> GeometryResult:
    """Geometry on the ray l_{m/n} with cone angle beta on the core.

    The fibres (s, b1) and (r, b2) keep angle 2*pi, base angles pi/s and
    pi/r; the kernel is symmetric in its pairs, so no sort is needed.
    The twist is the sign of e*s*r*m of (-1; (s, b1), (r, b2), (m, n)).
    """
    num, den = _base_angle(beta, m)
    code = kernel.classify_region(1, knot.s, 1, knot.r, num, den)
    b1, b2 = coeffs
    e_a = _euler_numerator(-1, ((knot.s, b1), (knot.r, b2), (m, n)))
    return _geometry(code, e_a != 0)


def _ray_geometries(knot: TorusKnot, m_max: int, n_range: tuple[int, int], betas):
    """(m, n, p, q, geometry name at each core angle in betas) per primitive ray.

    No base angle holds n, so the kernel runs once per (m, beta) column,
    at the column's first primitive ray, and gives that column's names
    untwisted and twisted.  The twist is p != 0: |e*r*s*m| = |H1| = p,
    so e vanishes only on the ray (r*s, +-1), which is slope 0.
    """
    s, r = knot.s, knot.r
    column, names = None, ()
    for m, n in primitive_rays(m_max, n_range):
        if m != column:
            column = m
            codes = [kernel.classify_region(1, s, 1, r, *_base_angle(beta, m)) for beta in betas]
            names = [[str(_geometry(code, twisted)) for code in codes] for twisted in (False, True)]
        p, q = _slope(knot, m, n)
        yield m, n, p, q, names[p != 0]


def spherical_orbifold_angles(knot: TorusKnot) -> list[tuple[int, PiRational]]:
    """Integer abscissas in the open spherical band, with their angles.

    These are the orbifold labels admitting spherical structures on
    some surgery line: x with x_U < x < x_L, cone angle 2*pi/x.
    """
    x_upper, x_lower = x_limits(knot)
    labels = []
    x = 2
    while x < x_lower:
        if x > x_upper:
            labels.append((x, PiRational(Fraction(2, x))))
        x += 1
    return labels


def nil_admissible(knot: TorusKnot) -> bool:
    """Whether x_L is an integer, i.e. Nil orbifold labels exist."""
    _, x_lower = x_limits(knot)
    return x_lower.denominator == 1


def brieskorn_surgery(a1: int, a2: int, a3: int):
    """Surgery description of the Brieskorn sphere with these multiplicities.

    For pairwise coprime 1 < a1 < a2 < a3, returns (knot, q) with
    a3 = |q*a1*a2 - 1|: the sphere is 1/q surgery on the right-handed
    (a2, a1) torus knot (equivalently 1/(-q) on the left-handed one).
    Returns None when a3 is not of that form.
    """
    if not (1 < a1 < a2 < a3):
        raise ValueError("need 1 < a1 < a2 < a3")
    if not (gcd(a1, a2) == gcd(a1, a3) == gcd(a2, a3) == 1):
        raise ValueError("multiplicities must be pairwise coprime")
    for q_num in (1 + a3, 1 - a3):
        if q_num % (a1 * a2) == 0:
            q = q_num // (a1 * a2)
            knot = TorusKnot(a2, a1, Handedness.RIGHT)
            assert abs(q * a1 * a2 - 1) == a3
            return knot, q
    return None


def atlas(knot: TorusKnot, m_max: int, n_range: tuple[int, int], k_max: int) -> list[dict]:
    """Records for every primitive ray in range and orbifold label k <= k_max.

    Each record fixes the ray (m, n), its surgery slope p/q, the
    abscissa x = k*m with cone angle beta = 2*pi/k on the core, and the
    resulting geometry.  Ordering is by (m, n, k).
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    betas = [PiRational(Fraction(2, k)) for k in range(1, k_max + 1)]
    texts = [beta.text() for beta in betas]
    knot_json = knot.to_json()
    records = []
    for m, n, p, q, geometries in _ray_geometries(knot, m_max, n_range, betas):
        for k, (text, geometry) in enumerate(zip(texts, geometries), start=1):
            records.append(
                {
                    "knot": dict(knot_json),
                    "m": m,
                    "n": n,
                    "p": p,
                    "q": q,
                    "x": k * m,
                    "beta": text,
                    "geometry": geometry,
                }
            )
    return records
