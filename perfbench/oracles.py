"""Independent oracles for the benchmark's answers.

Nothing here imports seifertgeo: every expected answer is recomputed
from integers, so a defect in the package cannot hide itself by also
being present in the check.

* Scott's (e, chi) sign table (Bull. LMS 15, 1983), read from the
  integer signs of e*A and chi*A with A = a1*a2*a3.
* The line-model band x_U < x < x_L of a torus knot, decided by integer
  cross-multiplication: x_U = rs/(rs - r + s), x_L = rs/(rs - r - s).
"""

from __future__ import annotations

from math import gcd

NO_STRUCTURE = "NoStructure"


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def euler_chi_times_a(b: int, fibers) -> tuple[int, int]:
    """(e*A, chi*A) of the signature (b; fibers), both integers.

    e = -b - sum(b_i/a_i) and chi = 2 - sum over a_i > 1 of (1 - 1/a_i).
    """
    a1, a2, a3 = (a for a, _ in fibers)
    big_a = a1 * a2 * a3
    e_a = -b * big_a
    chi_a = 2 * big_a
    for a, bi in fibers:
        e_a -= bi * (big_a // a)
        if a > 1:
            chi_a -= big_a - big_a // a
    return e_a, chi_a


def scott_geometry(e_a: int, chi_a: int) -> str:
    """Geometry from the signs of e and chi (Scott's table)."""
    chi = _sign(chi_a)
    if e_a != 0:
        return ("SL2R", "Nil", "Spherical")[chi + 1]
    return ("H2xR", "Euclidean", "S2xR")[chi + 1]


def is_degenerate_base(fibers) -> bool:
    """One general fibre and an unequal pair: a teardrop or unequal
    spindle base, which carries no structure at cone angles 2*pi."""
    hi, mid, lo = sorted((a for a, _ in fibers), reverse=True)
    return lo == 1 and hi != mid


def expected_answers(b: int, fibers) -> dict:
    """Expected sweep answers for the signature (b; fibers).

    The cone structure at 2*pi agrees with the manifold except on a
    degenerate base.  |H1| = |e*A|, infinite when e = 0.  A lens space
    L(m, n) arises exactly for <= 2 exceptional fibres with e != 0, and
    then |m| = |H1|.
    """
    e_a, chi_a = euler_chi_times_a(b, fibers)
    geometry = scott_geometry(e_a, chi_a)
    exceptional = sum(1 for a, _ in fibers if a > 1)
    return {
        "geometry": geometry,
        "cone": NO_STRUCTURE if is_degenerate_base(fibers) else geometry,
        "homology_order": abs(e_a) if e_a != 0 else None,
        "lens_order": abs(e_a) if exceptional <= 2 and e_a != 0 else None,
    }


def lens_order(family: str):
    """|m| of a family label "Lens(m,n)"; None for any other family."""
    if not family.startswith("Lens("):
        return None
    return abs(int(family[len("Lens("):-1].split(",")[0]))


def mismatches(actual: dict, expected: dict) -> list[str]:
    """One line per key whose actual value differs from the expected one."""
    return [
        "%s %r, expected %r" % (key, actual.get(key), value)
        for key, value in expected.items()
        if actual.get(key) != value
    ]


def band_geometry(r: int, s: int, hand: str, m: int, n: int, k: int) -> str:
    """Geometry on ray (m, n) of the (r, s) torus knot with cone angle
    2*pi/k on the core, from the position of x = k*m in the band."""
    rs = r * s
    x = k * m
    euler_zero = m == (rs * n if hand == "left" else -rs * n)
    if x * (rs - r + s) <= rs:
        return NO_STRUCTURE
    lower = _sign(x * (rs - r - s) - rs)
    if euler_zero:
        return ("S2xR", "Euclidean", "H2xR")[lower + 1]
    return ("Spherical", "Nil", "SL2R")[lower + 1]


def primitive_rays(m_max: int, n_lo: int, n_hi: int):
    """(m, n) with 1 <= m <= m_max, n_lo <= n <= n_hi, gcd(m, n) = 1,
    in (m, n) order; n = 0 only for m = 1."""
    for m in range(1, m_max + 1):
        for n in range(n_lo, n_hi + 1):
            if gcd(m, n) == 1:
                yield m, n


def slope_of_ray(r: int, s: int, hand: str, m: int, n: int) -> tuple[int, int]:
    """Surgery slope p/q (p >= 0) whose manifold sits on ray (m, n)."""
    if n == 0:
        return 1, 0
    rs = r * s
    p = m - rs * n if hand == "left" else m + rs * n
    q = n
    if p < 0:
        p, q = -p, -q
    elif p == 0:
        q = abs(q)
    return p, q
