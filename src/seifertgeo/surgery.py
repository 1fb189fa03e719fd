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
with n = eps*q.  That point is the core fibre (m, eps*q) (Moser), so a
ray is a plain (m, n) pair: line_of_surgery computes it and
surgery_signature takes it as its third fibre.  The structure with
cone angle beta around the core sits at abscissa x = 2*pi*m/beta.
classify_surgery_cone reads that structure as any other cone
structure: it is classify_cone of the surgered signature with the
angles (2*pi, 2*pi, beta).

On each ray the core's base angle is pi/x.  The band
lower/A * pi < pi/x < upper/A * pi of (A, lower, upper) =
base2d._band(s, r) makes the structure spherical for x_U < x < x_L,
with x_U = A/upper and x_L = A/lower.  It is Nil at the integer-or-not
abscissa x_L (when the Euler number is nonzero) and SL2R beyond it.
Integer abscissas x in (x_U, x_L) are the spherical orbifold labels,
the range floor(x_U) + 1 .. ceil(x_L) - 1; the cone angle there is
2*pi/x.

atlas and plot.build_plot decide each ray from integers alone, one
column (m fixed) at a time, in two steps.  The kernel step,
_column_names, gives the region kernel the base angles (1, s), (1, r)
and (1, k*m) for beta = 2*pi/k.  None of them holds n, so the kernel
runs once per (m, k) column.  One lookup in _NAMES, the region ->
(untwisted, twisted) table read once from cone3d's geometry rows,
gives the column's two names.  The ray step, _column, is the one
ray enumeration: the slope numerator m - z*n (z = +-r*s, the e = 0
slope) is affine in n, and one pass gives each ray its slope p/q and
its twist p != 0: |e*r*s*m| = |H1| = p (Moser), so e vanishes only on
the ray (r*s, +-1), which is slope 0.  Each ray is a plain tuple; no
signature or cone structure is built per ray.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd

from . import kernel
from .arith import TWO_PI, Handedness, PiRational, _Value, _check_knot, _require, fiber_coeffs
from .base2d import _band
from .cone3d import _NO_ROW, _ROWS, ConeStructure, classify_cone
from .seifert import GeometryType, SeifertSignature

# Kernel region (None outside the cube) -> its geometry names, untwisted
# and twisted, read once from cone3d's rows.
_NAMES = {region: tuple(map(str, _ROWS.get(region, _NO_ROW))) for region in (*kernel.RegionClass, None)}


class TorusKnot(_Value):
    __slots__ = ("r", "s", "hand")
    _KINDS = (int, int, Handedness)

    def __init__(self, r: int, s: int, hand: Handedness):
        self._set(r, s, hand)
        _check_knot(r, s)

    def to_json(self) -> dict:
        return {"r": self.r, "s": self.s, "hand": self.hand.value}

    def __str__(self):
        return "K(%d,%d) %s" % (self.r, self.s, self.hand.value)


class SurgerySpec(_Value):
    """Slope p/q of a surgery on knot, for any reduced p/q other than 0/0.

    It is stored with p >= 0 and the sign in q, so -p/-q is p/q; (1, 0)
    is infinity and (0, 1) is zero, which (0, -1) also names.
    """

    __slots__ = ("knot", "p", "q")
    _KINDS = (TorusKnot, int, int)

    def __init__(self, knot: TorusKnot, p: int, q: int):
        self._set(knot, p, q)
        if p < 0:  # the sign lives in q
            p, q = -p, -q
        if (p, q) == (0, 0):
            raise ValueError("slope 0/0 is not a surgery")
        if gcd(p, abs(q)) != 1:
            raise ValueError("slope %d/%d is not reduced" % (p, q))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q if p else 1)  # 0/-1 is stored as 0/1

    def slope_text(self) -> str:
        return "%d/%d" % (self.p, self.q)


def surgery_signature(spec: SurgerySpec) -> SeifertSignature:
    """Raw signature of the surgered manifold, core fibre last."""
    core = line_of_surgery(spec)
    knot = spec.knot
    b1, b2 = fiber_coeffs(knot.r, knot.s, knot.hand)
    return SeifertSignature(-1, ((knot.s, b1), (knot.r, b2), core))


def line_of_surgery(spec: SurgerySpec) -> tuple[int, int]:
    """(m, n): the primitive point of the ray l_{m/n} that carries the
    surgery, which is its core fibre (m, eps*q).

    Raises ValueError on the fibre slope -+r*s, where m = 0 and the
    surgery is reducible.
    """
    _require(spec, "spec", SurgerySpec)
    t = spec.p + _euler_zero_slope(spec.knot) * spec.q
    if t == 0:
        raise ValueError(
            "slope %s is the exceptional fibre slope (m = 0): the surgery is reducible"
            % spec.slope_text()
        )
    return (t, spec.q) if t > 0 else (-t, -spec.q)


def surgery_of_line(knot: TorusKnot, m: int, n: int) -> SurgerySpec:
    """Inverse chart: the slope whose surgery sits on the ray l_{m/n}.

    (m, n) must be primitive with m >= 1; (0, +-1) would name the
    reducible fibre slope.
    """
    _require(knot, "knot", TorusKnot)
    _require(m, "m")
    _require(n, "n")
    if m < 1:
        raise ValueError("line point needs m >= 1")
    if gcd(m, n) != 1:
        raise ValueError("line point (%d, %d) is not primitive" % (m, n))
    [(_, _, p, q, _)] = _column(_euler_zero_slope(knot), m, n, n, None, None)
    return SurgerySpec(knot, p, q)


def _euler_zero_slope(knot: TorusKnot) -> int:
    """m/n of the ray where e = 0: r*s for the left handle, -r*s for the right."""
    rs = knot.r * knot.s
    return rs if knot.hand is Handedness.LEFT else -rs


def _column(z: int, m: int, n_lo: int, n_hi: int, flat, twisted) -> list[tuple]:
    """(m, n, p, q, name) of each primitive ray (m, n), n_lo <= n <= n_hi.

    Its slope is p/q = (m - z*n)/n, z = _euler_zero_slope, normalized to
    p >= 0 and to q = |n| when p = 0; n = 0 is primitive only as (1, 0),
    slope 1/0.  The name is twisted unless p = 0, where e = 0 (Moser).
    """
    return [
        (m, n, p, n, twisted) if (p := m - z * n) > 0 else (m, n, -p, -n, twisted) if p else (m, n, 0, abs(n), flat)
        for n in range(n_lo, n_hi + 1) if gcd(m, n) == 1
    ]


def x_limits(knot: TorusKnot) -> tuple[Fraction, Fraction]:
    """(x_U, x_L): abscissas of the sphericity limits on every ray."""
    _require(knot, "knot", TorusKnot)
    a12, lower, upper = _band(knot.s, knot.r)
    return Fraction(a12, upper), Fraction(a12, lower)


def classify_surgery_cone(spec: SurgerySpec, beta: PiRational) -> GeometryType:
    """Geometry of the surgered manifold with cone angle beta, a PiRational,
    on the core, or NO_STRUCTURE."""
    sig = surgery_signature(spec)
    _require(beta, "beta", PiRational)
    return classify_cone(ConeStructure(sig, (TWO_PI, TWO_PI, beta)))


def _column_names(knot: TorusKnot, m_max: int, ks):
    """The kernel step: (m, flat, twisted) for each column m = 1..m_max,
    the geometry names at each core angle 2*pi/k for k in ks, untwisted
    and twisted.

    The orbifold point at x = k*m has base angles pi/s, pi/r and pi/x.
    None holds n, so the kernel runs once per (m, k) column, and one
    lookup in _NAMES names its region; _column then gives each of the
    column's rays one of the two names.
    """
    s, r = knot.s, knot.r
    for m in range(1, m_max + 1):
        flat, twisted = zip(*[_NAMES[kernel.classify_region(1, s, 1, r, 1, k * m)] for k in ks])
        yield m, flat, twisted


def _orbifold_xs(x_upper: Fraction, x_lower: Fraction) -> range:
    """The integers x with x_U < x < x_L: floor(x_U) + 1 .. ceil(x_L) - 1."""
    return range(floor(x_upper) + 1, ceil(x_lower))


def spherical_orbifold_angles(knot: TorusKnot) -> list[tuple[int, PiRational]]:
    """Integer abscissas in the open spherical band, with their angles.

    These are the orbifold labels admitting spherical structures on
    some surgery line: x with x_U < x < x_L, cone angle 2*pi/x.  Every
    label is at least 2, since x_U > 1.
    """
    return [(x, PiRational(Fraction(2, x))) for x in _orbifold_xs(*x_limits(knot))]


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
    _require(a1, "a1")
    _require(a2, "a2")
    _require(a3, "a3")
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
    _require(knot, "knot", TorusKnot)
    _require(m_max, "m_max")
    _require(k_max, "k_max")
    try:
        n_lo, n_hi = n_range
    except (TypeError, ValueError):
        raise ValueError("n_range must be a pair (n_lo, n_hi), got %r" % (n_range,)) from None
    _require(n_lo, "n_range[0]")
    _require(n_hi, "n_range[1]")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n_lo > n_hi:
        return []
    ks = range(1, k_max + 1)
    texts = [PiRational(Fraction(2, k)).text() for k in ks]
    knot_json, z = knot.to_json(), _euler_zero_slope(knot)
    return [
        {"knot": dict(knot_json), "m": m, "n": n, "p": p, "q": q,
         "x": k * m, "beta": text, "geometry": geometry}
        for m, flat, twisted in _column_names(knot, m_max, ks)
        for _, n, p, q, geometries in _column(z, m, n_lo, n_hi, flat, twisted)
        for k, text, geometry in zip(ks, texts, geometries)
    ]
