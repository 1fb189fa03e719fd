"""Seifert signatures of small Seifert manifolds and their invariants.

A manifold here is an orientable Seifert fibration over the sphere with
at most three exceptional fibres, written

    (b; (a1, b1), (a2, b2), (a3, b3))

with a_i >= 1 and gcd(a_i, b_i) = 1.  The move that pushes a multiple
of a_i from b into b_i leaves the manifold unchanged, so every
signature has a normal form with 0 <= b_i < a_i (hence (1, 0) for
general fibres) and fibres sorted by decreasing multiplicity, ties by
increasing b_i.

From the signature we compute the Euler number of the fibration, the
orbifold Euler characteristic of the base, the geometry of the
manifold, the order of its first homology, lens parameters when at
most two fibres are exceptional, and membership in the standard
families (prism, tetrahedral, octahedral, icosahedral, the three
Euclidean-base families, Brieskorn homology spheres).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .arith import bezout


def _json_int(value, field: str) -> int:
    """value if it is a JSON integer; bools and floats are not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (field, value))
    return value


@dataclass(frozen=True)
class SeifertSignature:
    b: int
    fibers: tuple[tuple[int, int], ...]

    def __init__(self, b: int, fibers):
        fibers = tuple((int(a), int(bi)) for a, bi in fibers)
        if not 1 <= len(fibers) <= 3:
            raise ValueError("signature needs 1 to 3 fibre pairs, got %d" % len(fibers))
        fibers = fibers + ((1, 0),) * (3 - len(fibers))
        for a, bi in fibers:
            if a < 1:
                raise ValueError("fibre multiplicity must be >= 1, got %d" % a)
            if gcd(a, bi) != 1:
                raise ValueError("fibre pair (%d, %d) is not coprime" % (a, bi))
        object.__setattr__(self, "b", int(b))
        object.__setattr__(self, "fibers", fibers)

    def multiplicities(self) -> tuple[int, int, int]:
        return tuple(a for a, _ in self.fibers)

    def exceptional_count(self) -> int:
        return sum(1 for a, _ in self.fibers if a > 1)

    def is_normalized(self) -> bool:
        return self == normalize(self)

    def to_json(self) -> dict:
        return {"b": self.b, "fibers": [[a, bi] for a, bi in self.fibers]}

    @classmethod
    def from_json(cls, data) -> "SeifertSignature":
        if isinstance(data, str):
            data = json.loads(data)
        b = _json_int(data["b"], "b")
        fibers = []
        for i, pair in enumerate(data["fibers"]):
            a, bi = pair
            fibers.append(
                (_json_int(a, "fibers[%d][0]" % i), _json_int(bi, "fibers[%d][1]" % i))
            )
        return cls(b, fibers)

    def __str__(self):
        pairs = ",".join("(%d,%d)" % f for f in self.fibers)
        return "<%d; %s>" % (self.b, pairs)


class GeometryType(Enum):
    SPHERICAL = "Spherical"
    NIL = "Nil"
    SL2R = "SL2R"
    S2XR = "S2xR"
    EUCLIDEAN = "Euclidean"
    H2XR = "H2xR"

    def __str__(self):
        return self.value


def normalize_with_order(sig: SeifertSignature) -> tuple[SeifertSignature, tuple[int, ...]]:
    """Normal form together with the fibre permutation that produced it.

    order[k] is the index in sig.fibers of the k-th normalized fibre, so
    per-fibre data (cone angles) can be carried through the sort.
    """
    b = sig.b
    moved = []
    for a, bi in sig.fibers:
        b += bi // a
        moved.append((a, bi % a))
    order = sorted(range(3), key=lambda i: (-moved[i][0], moved[i][1]))
    fibers = tuple(moved[i] for i in order)
    return SeifertSignature(b, fibers), tuple(order)


def normalize(sig: SeifertSignature) -> SeifertSignature:
    return normalize_with_order(sig)[0]


def _euler_numerator(b: int, fibers) -> int:
    """e*a1*a2*a3 of (b; fibers), unreduced; normalization leaves it unchanged."""
    (a1, b1), (a2, b2), (a3, b3) = fibers
    return -(b * a1 * a2 * a3 + b1 * a2 * a3 + b2 * a1 * a3 + b3 * a1 * a2)


def euler_number(sig: SeifertSignature) -> Fraction:
    """Euler number e = -b - sum(b_i / a_i) of the fibration."""
    (a1, _), (a2, _), (a3, _) = sig.fibers
    return Fraction(_euler_numerator(sig.b, sig.fibers), a1 * a2 * a3)


def orbifold_euler_char(sig: SeifertSignature) -> Fraction:
    """Orbifold Euler characteristic of the base sphere with cone points."""
    return 2 - sum(1 - Fraction(1, a) for a, _ in sig.fibers if a > 1)


def manifold_geometry(sig: SeifertSignature) -> GeometryType:
    """Geometry of the manifold by the sign table (e, chi) -> geometry."""
    e = euler_number(sig)
    chi = orbifold_euler_char(sig)
    if e != 0:
        if chi > 0:
            return GeometryType.SPHERICAL
        if chi == 0:
            return GeometryType.NIL
        return GeometryType.SL2R
    if chi > 0:
        return GeometryType.S2XR
    if chi == 0:
        return GeometryType.EUCLIDEAN
    return GeometryType.H2XR


def homology_order(sig: SeifertSignature):
    """Order of H1, which is |e| * a1 * a2 * a3; None means infinite (e == 0)."""
    e = euler_number(sig)
    if e == 0:
        return None
    a1, a2, a3 = sig.multiplicities()
    order = abs(e) * a1 * a2 * a3
    assert order.denominator == 1
    return int(order)


def lens_params(sig: SeifertSignature) -> tuple[int, int]:
    """Lens space parameters (m, n) of a signature with <= 2 exceptional fibres.

    With fibres (a1, b1), (a2, b2) taken in the order given,

        m = b*a1*a2 + a1*b2 + a2*b1,      n = rho*a2 + sigma*b2

    where -rho*a1 + sigma*(b*a1 + b1) = 1.  n is reported modulo m in
    [0, |m|).  Swapping the fibres replaces n by its inverse mod m,
    which is the same lens space.  m = 0 (that is e = 0) is an error.
    """
    exceptional = [f for f in sig.fibers if f[0] > 1]
    if len(exceptional) > 2:
        raise ValueError("lens parameters need at most two exceptional fibres")
    exceptional += [(1, 0)] * (2 - len(exceptional))
    (a1, b1), (a2, b2) = exceptional
    m = sig.b * a1 * a2 + a1 * b2 + a2 * b1
    if m == 0:
        raise ValueError("m = 0: the Euler number vanishes, not a lens space")
    g, rho, sigma = bezout(-a1, sig.b * a1 + b1)
    assert g == 1
    n = (rho * a2 + sigma * b2) % abs(m)
    return m, n


class FamilyKind(Enum):
    LENS = "Lens"
    PRISM = "Prism"
    TETRAHEDRAL = "T"
    OCTAHEDRAL = "O"
    ICOSAHEDRAL = "I"
    N333 = "N333"
    N244 = "N244"
    N236 = "N236"
    BRIESKORN = "Brieskorn"
    GENERIC = "Generic"


@dataclass(frozen=True)
class FamilyId:
    kind: FamilyKind
    params: tuple[int, ...] = ()

    def __str__(self):
        if not self.params:
            return self.kind.value
        return "%s(%s)" % (self.kind.value, ",".join(str(p) for p in self.params))


GENERIC = FamilyId(FamilyKind.GENERIC)


def _coeff_by_multiplicity(fibers, a):
    return [bi for ai, bi in fibers if ai == a]


def identify_family(sig: SeifertSignature) -> FamilyId:
    """Most specific standard family containing the manifold.

    Order of recognition: lens spaces (at most two exceptional fibres
    and nonzero Euler number), Brieskorn homology spheres (|H1| = 1 and
    pairwise coprime multiplicities), then the congruence families of
    named_family.  Anything else is Generic.
    """
    sig = normalize(sig)

    if sig.exceptional_count() <= 2:
        if euler_number(sig) == 0:
            return GENERIC
        m, n = lens_params(sig)
        return FamilyId(FamilyKind.LENS, (m, n))

    a1, a2, a3 = sorted(sig.multiplicities())
    if gcd(a1, a2) == gcd(a1, a3) == gcd(a2, a3) == 1:
        if homology_order(sig) == 1:
            return FamilyId(FamilyKind.BRIESKORN, (a1, a2, a3))
    return named_family(sig)


def named_family(sig: SeifertSignature) -> FamilyId:
    """Family given by the multiplicity set alone (no homology check).

    Recognizes the spherical-base sets {2,2,n}, {2,3,3}, {2,3,4},
    {2,3,5} and the Euclidean-base sets {3,3,3}, {2,4,4}, {2,3,6}
    with their position parameters; Generic otherwise.
    """
    sig = normalize(sig)
    b = sig.b
    fibers = sig.fibers
    mult = sorted(sig.multiplicities())
    a1, a2, _ = mult

    if a1 == 2 and a2 == 2:
        n = mult[2]
        b3 = _coeff_by_multiplicity(fibers, n)[0] if n > 2 else 1
        return FamilyId(FamilyKind.PRISM, (n, (b + 1) * n + b3))
    if mult == [2, 3, 3]:
        b2, b3 = _coeff_by_multiplicity(fibers, 3)
        return FamilyId(FamilyKind.TETRAHEDRAL, (6 * b + 3 + 2 * (b2 + b3),))
    if mult == [2, 3, 4]:
        (b2,) = _coeff_by_multiplicity(fibers, 3)
        (b3,) = _coeff_by_multiplicity(fibers, 4)
        return FamilyId(FamilyKind.OCTAHEDRAL, (12 * b + 6 + 4 * b2 + 3 * b3,))
    if mult == [2, 3, 5]:
        (b2,) = _coeff_by_multiplicity(fibers, 3)
        (b3,) = _coeff_by_multiplicity(fibers, 5)
        return FamilyId(FamilyKind.ICOSAHEDRAL, (30 * b + 15 + 10 * b2 + 6 * b3,))
    if mult == [3, 3, 3]:
        bs = _coeff_by_multiplicity(fibers, 3)
        return FamilyId(FamilyKind.N333, (3 * b + sum(bs), min(bs)))
    if mult == [2, 4, 4]:
        b2, b3 = _coeff_by_multiplicity(fibers, 4)
        return FamilyId(FamilyKind.N244, (4 * b + 2 + b2 + b3, min(b2, b3)))
    if mult == [2, 3, 6]:
        (b2,) = _coeff_by_multiplicity(fibers, 3)
        (b3,) = _coeff_by_multiplicity(fibers, 6)
        return FamilyId(FamilyKind.N236, (6 * b + 3 + 2 * b2 + b3, min(b2, b3)))
    return GENERIC


def _prism_signature(n, m):
    if n < 2:
        raise ValueError("prism family needs n >= 2")
    if m == 0 or gcd(m, n) != 1:
        raise ValueError("prism parameter m must be nonzero and coprime to n")
    b3 = m % n
    b = (m - b3) // n - 1
    return SeifertSignature(b, ((n, b3), (2, 1), (2, 1)))


def _t_signature(m):
    if m % 2 == 0:
        raise ValueError("tetrahedral parameter m must be odd")
    pairs = {1: (1, 1), 3: (1, 2), 5: (2, 2)}
    b2, b3 = pairs[m % 6]
    b = (m - 3 - 2 * (b2 + b3)) // 6
    return SeifertSignature(b, ((3, b2), (3, b3), (2, 1)))


def _o_signature(m):
    pairs = {1: (1, 1), 5: (2, 1), 7: (1, 3), 11: (2, 3)}
    if m % 12 not in pairs:
        raise ValueError("octahedral parameter m must be a unit modulo 12")
    b2, b3 = pairs[m % 12]
    b = (m - 6 - 4 * b2 - 3 * b3) // 12
    return SeifertSignature(b, ((4, b3), (3, b2), (2, 1)))


def _i_signature(m):
    pairs = {}
    for b2 in (1, 2):
        for b3 in (1, 2, 3, 4):
            pairs[(15 + 10 * b2 + 6 * b3) % 30] = (b2, b3)
    if m % 30 not in pairs:
        raise ValueError("icosahedral parameter m must be a unit modulo 30")
    b2, b3 = pairs[m % 30]
    b = (m - 15 - 10 * b2 - 6 * b3) // 30
    return SeifertSignature(b, ((5, b3), (3, b2), (2, 1)))


def _n333_signature(m, n):
    r = m % 3
    if r == 0:
        if n not in (1, 2):
            raise ValueError("N333 with 3 | m needs n in {1, 2}")
        bs = (1, 1, 1) if n == 1 else (2, 2, 2)
    elif r == 1:
        if n != 1:
            raise ValueError("N333 with m = 3k+1 forces n = 1")
        bs = (1, 1, 2)
    else:
        if n != 1:
            raise ValueError("N333 with m = 3k+2 forces n = 1")
        bs = (1, 2, 2)
    b = (m - sum(bs)) // 3
    return SeifertSignature(b, tuple((3, bi) for bi in bs))


def _n244_signature(m, n):
    if m % 2 != 0:
        raise ValueError("N244 parameter m must be even")
    if m % 4 == 0:
        if n not in (1, 3):
            raise ValueError("N244 with 4 | m needs n in {1, 3}")
        b2, b3 = (1, 1) if n == 1 else (3, 3)
    else:
        if n != 1:
            raise ValueError("N244 with m = 4k+2 forces n = 1")
        b2, b3 = 1, 3
    b = (m - 2 - b2 - b3) // 4
    return SeifertSignature(b, ((4, b2), (4, b3), (2, 1)))


def _n236_signature(m, n):
    if m % 2 != 0:
        raise ValueError("N236 parameter m must be even")
    r = m % 6
    if r == 0:
        if n not in (1, 2):
            raise ValueError("N236 with 6 | m needs n in {1, 2}")
        b2, b3 = (1, 1) if n == 1 else (2, 5)
    elif r == 2:
        if n != 1:
            raise ValueError("N236 with m = 6k+2 forces n = 1")
        b2, b3 = 2, 1
    else:
        if n != 1:
            raise ValueError("N236 with m = 6k+4 forces n = 1")
        b2, b3 = 1, 5
    b = (m - 3 - 2 * b2 - b3) // 6
    return SeifertSignature(b, ((6, b3), (3, b2), (2, 1)))


def family_signature(family: FamilyId) -> SeifertSignature:
    """Normalized signature reconstructed from the family parameters.

    Defined for Prism/T/O/I and the three Euclidean-base families;
    these parameters determine the signature, so identify_family and
    family_signature are mutually inverse on them.
    """
    kind, params = family.kind, family.params
    if kind is FamilyKind.PRISM:
        sig = _prism_signature(*params)
    elif kind is FamilyKind.TETRAHEDRAL:
        sig = _t_signature(*params)
    elif kind is FamilyKind.OCTAHEDRAL:
        sig = _o_signature(*params)
    elif kind is FamilyKind.ICOSAHEDRAL:
        sig = _i_signature(*params)
    elif kind is FamilyKind.N333:
        sig = _n333_signature(*params)
    elif kind is FamilyKind.N244:
        sig = _n244_signature(*params)
    elif kind is FamilyKind.N236:
        sig = _n236_signature(*params)
    else:
        raise ValueError("no signature reconstruction for family %s" % family)
    return normalize(sig)
