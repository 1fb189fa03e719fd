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

The geometry is one lookup in _GEOMETRIES, Scott's table indexed by the
sign of the base curvature (here the sign of chi) and by e != 0; cone3d
and plot read the same table.  Both are signs of integers over the
positive a1*a2*a3: chi*a1*a2*a3 (_chi_numerator) and e*a1*a2*a3, which
a signature computes once and keeps as _e; the homology order, the lens
parameters and the family parameters also come from _e.  euler_number
and orbifold_euler_char build their Fractions only for callers and
output; no decision reads them.  Each named family is fixed by its
multiplicity set, which also fixes a constant L, and its parameter is
m = -e*L, as in Orlik, Seifert Manifolds, LNM 291 (1972).
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from math import gcd

from .arith import _Value, _require


class SeifertSignature(_Value):
    __slots__ = ("b", "fibers", "_e")  # _e = e*a1*a2*a3
    _KINDS = (int, tuple)

    def __init__(self, b: int, fibers):
        if b.__class__ is not int:  # exact ints skip the call, as in the fibres
            self._check(b)
        # Read the caller's iterable and each pair once, so a one-shot iterator acts as a tuple.
        try:
            pairs = tuple(fibers)
            if len(pairs) == 3:
                (a1, b1), (a2, b2), (a3, b3) = pairs
            else:
                pairs = [(a, bi) for a, bi in pairs]
        except (TypeError, ValueError):
            raise ValueError("fibers must be a sequence of pairs (a, b), got %r" % (fibers,)) from None
        if len(pairs) != 3:
            if not 1 <= len(pairs) <= 3:
                raise ValueError("signature needs 1 to 3 fibre pairs, got %d" % len(pairs))
            (a1, b1), (a2, b2), (a3, b3) = pairs + [(1, 0)] * (3 - len(pairs))
        fibers = ((a1, b1), (a2, b2), (a3, b3))
        # Exact ints pass in one test; else the loop raises the first error or accepts int subclasses.
        if not (
            a1.__class__ is b1.__class__ is a2.__class__ is b2.__class__ is a3.__class__ is b3.__class__ is int
            and a1 >= 1 and a2 >= 1 and a3 >= 1 and gcd(a1, b1) == gcd(a2, b2) == gcd(a3, b3) == 1
        ):
            for i, (a, bi) in enumerate(fibers):
                if a.__class__ is not int or bi.__class__ is not int:
                    _require(a, "fibers[%d][0]" % i)
                    _require(bi, "fibers[%d][1]" % i)
                if a < 1:
                    raise ValueError("fibre multiplicity must be >= 1, got %d" % a)
                if gcd(a, bi) != 1:
                    raise ValueError("fibre pair (%d, %d) is not coprime" % (a, bi))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "_e", -(b * a1 * a2 * a3 + b1 * a2 * a3 + b2 * a1 * a3 + b3 * a1 * a2))

    def multiplicities(self) -> tuple[int, int, int]:
        (a1, _), (a2, _), (a3, _) = self.fibers
        return a1, a2, a3

    def to_json(self) -> dict:
        return {"b": self.b, "fibers": [[a, bi] for a, bi in self.fibers]}

    @classmethod
    def from_json(cls, data) -> "SeifertSignature":
        """Signature from its JSON object or text, which has the fields b and
        fibers and no other; ValueError names a missing, unknown, duplicate
        or bad field."""
        if isinstance(data, str):
            try:
                data = json.loads(data, object_pairs_hook=_unique_fields)
            except RecursionError:
                raise ValueError("signature JSON is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("signature must be an object, got %s" % type(data).__name__)
        for field in ("b", "fibers"):
            if field not in data:
                raise ValueError("signature is missing field %r" % field)
        if len(data) != 2:
            unknown = next(field for field in data if field not in ("b", "fibers"))
            raise ValueError("signature has unknown field %r" % unknown)
        if not isinstance(data["fibers"], (list, tuple)):
            raise ValueError("fibers must be a list, got %s" % type(data["fibers"]).__name__)
        for i, pair in enumerate(data["fibers"]):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("fibers[%d] must be a pair [a, b]" % i)
        return cls(data["b"], data["fibers"])

    def __str__(self):
        pairs = ",".join("(%d,%d)" % f for f in self.fibers)
        return "<%d; %s>" % (self.b, pairs)


def _unique_fields(pairs) -> dict:
    """json object_pairs_hook: the object's dict, refusing a repeated key,
    which json.loads would otherwise resolve to its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError("signature has duplicate field %r" % key)
        data[key] = value
    return data


class GeometryType(Enum):
    """One of the six Seifert geometries, or NO_STRUCTURE."""

    SPHERICAL = "Spherical"
    NIL = "Nil"
    SL2R = "SL2R"
    S2XR = "S2xR"
    EUCLIDEAN = "Euclidean"
    H2XR = "H2xR"
    NO_STRUCTURE = "NoStructure"

    def __str__(self):
        return self.value


NO_STRUCTURE = GeometryType.NO_STRUCTURE


# Scott's table: the sign of the base curvature (-1, 0, +1) picks the
# row, e != 0 the entry.  Every geometry decision in the package reads it.
_GEOMETRIES = {
    -1: (GeometryType.H2XR, GeometryType.SL2R),
    0: (GeometryType.EUCLIDEAN, GeometryType.NIL),
    1: (GeometryType.S2XR, GeometryType.SPHERICAL),
}


def normalize_with_order(sig: SeifertSignature) -> tuple[SeifertSignature, tuple[int, ...]]:
    """Normal form together with the fibre permutation that produced it.

    order[k] is the index in sig.fibers of the k-th normalized fibre, so
    per-fibre data (cone angles) can be carried through the sort.  A
    SeifertSignature already in normal form comes back as itself, with
    order (0, 1, 2); a subclass instance comes back as a new
    SeifertSignature.
    """
    (a1, b1), (a2, b2), (a3, b3) = sig.fibers
    if (0 <= b1 < a1 and 0 <= b2 < a2 and 0 <= b3 < a3 and (a1 > a2 or a1 == a2 and b1 <= b2)
            and (a2 > a3 or a2 == a3 and b2 <= b3) and sig.__class__ is SeifertSignature):
        return sig, (0, 1, 2)
    q1, r1 = divmod(b1, a1)
    q2, r2 = divmod(b2, a2)
    q3, r3 = divmod(b3, a3)
    # Sorting the triples (-a, b mod a, i) is the stable sort by (-a, b mod a).
    (n1, s1, i), (n2, s2, j), (n3, s3, k) = sorted(((-a1, r1, 0), (-a2, r2, 1), (-a3, r3, 2)))
    # Valid by construction: gcd(a, b mod a) = gcd(a, b) = 1 and a is unchanged, and so is e.
    norm = SeifertSignature._unchecked(sig.b + q1 + q2 + q3, ((-n1, s1), (-n2, s2), (-n3, s3)), sig._e)
    return norm, (i, j, k)


def normalize(sig: SeifertSignature) -> SeifertSignature:
    """Normal form of sig: each b_i reduced to 0 <= b_i < a_i with b
    taking up the quotients, so e is unchanged, and the fibres sorted by
    decreasing a_i, ties by increasing b_i.  A SeifertSignature already
    in normal form comes back as itself; a subclass instance comes back
    as a new SeifertSignature.
    """
    _require(sig, "sig", SeifertSignature)
    return normalize_with_order(sig)[0]


def _chi_numerator(fibers) -> int:
    """chi*a1*a2*a3 = a1*a2 + a1*a3 + a2*a3 - a1*a2*a3 of the base of fibers."""
    (a1, _), (a2, _), (a3, _) = fibers
    return a1 * a2 + a1 * a3 + a2 * a3 - a1 * a2 * a3


def euler_number(sig: SeifertSignature) -> Fraction:
    """Euler number e = -b - sum(b_i / a_i) of the fibration."""
    _require(sig, "sig", SeifertSignature)
    (a1, _), (a2, _), (a3, _) = sig.fibers
    return Fraction(sig._e, a1 * a2 * a3)


def orbifold_euler_char(sig: SeifertSignature) -> Fraction:
    """chi = 2 - sum(1 - 1/a_i) of the base."""
    _require(sig, "sig", SeifertSignature)
    (a1, _), (a2, _), (a3, _) = sig.fibers
    return Fraction(_chi_numerator(sig.fibers), a1 * a2 * a3)


def manifold_geometry(sig: SeifertSignature) -> GeometryType:
    """Geometry of the manifold: _GEOMETRIES[sign of chi][e != 0].

    Both are signs of integers over the positive a1*a2*a3: chi*a1*a2*a3
    (_chi_numerator) and e*a1*a2*a3 (the signature's _e).
    """
    if sig.__class__ is not SeifertSignature:
        _require(sig, "sig", SeifertSignature)
    chi = _chi_numerator(sig.fibers)
    return _GEOMETRIES[(chi > 0) - (chi < 0)][sig._e != 0]


def homology_order(sig: SeifertSignature):
    """Order of H1, which is |e| * a1 * a2 * a3; None means infinite (e == 0)."""
    if sig.__class__ is not SeifertSignature:
        _require(sig, "sig", SeifertSignature)
    return abs(sig._e) or None


def lens_params(sig: SeifertSignature) -> tuple[int, int]:
    """Lens space parameters (m, n) of a signature with <= 2 exceptional fibres.

    General fibres (1, k) are folded into b.  With the exceptional fibres
    (a1, b1), (a2, b2) taken in the order given (padded with (1, 0)),

        m = -e*a1*a2 = b*a1*a2 + a1*b2 + a2*b1,      n = rho*a2 + sigma*b2

    where sigma is the inverse of c = b*a1 + b1 mod a1 and
    rho = (sigma*c - 1) / a1.  n is reported modulo m in [0, |m|).
    Swapping the fibres replaces n by its inverse mod m, which is the
    same lens space; identify_family prints its one label.  m = 0 (that
    is e = 0) is an error.
    """
    _require(sig, "sig", SeifertSignature)
    b = sig.b
    exceptional = []
    for a, bi in sig.fibers:
        if a > 1:
            exceptional.append((a, bi))
        else:
            b += bi
    if len(exceptional) > 2:
        raise ValueError("lens parameters need at most two exceptional fibres")
    exceptional += [(1, 0)] * (2 - len(exceptional))
    (a1, b1), (a2, b2) = exceptional
    m = -sig._e
    if m == 0:
        raise ValueError("m = 0: the Euler number vanishes, not a lens space")
    c = b * a1 + b1
    sigma = pow(c, -1, a1)
    rho = (sigma * c - 1) // a1
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


class FamilyId(_Value):
    __slots__ = ("kind", "params")
    _KINDS = (FamilyKind, tuple)

    def __init__(self, kind: FamilyKind, params: tuple[int, ...] = ()):
        self._set(kind, params)
        for i, param in enumerate(params):
            _require(param, "params[%d]" % i)

    def __str__(self):
        if not self.params:
            return self.kind.value
        return "%s(%s)" % (self.kind.value, ",".join(str(p) for p in self.params))


GENERIC = FamilyId(FamilyKind.GENERIC)


# Sorted multiplicities -> (family, L).  L is fixed by the multiplicities,
# and the family parameter is the integer m = -e*L.  The prism {2, 2, n}
# has L = n; _family_of adds it.
_FAMILIES = {
    (2, 3, 3): (FamilyKind.TETRAHEDRAL, 6),
    (2, 3, 4): (FamilyKind.OCTAHEDRAL, 12),
    (2, 3, 5): (FamilyKind.ICOSAHEDRAL, 30),
    (3, 3, 3): (FamilyKind.N333, 3),
    (2, 4, 4): (FamilyKind.N244, 4),
    (2, 3, 6): (FamilyKind.N236, 6),
}
# The Euclidean-base families carry a second parameter.
_NIL_KINDS = (FamilyKind.N333, FamilyKind.N244, FamilyKind.N236)


def _family_of(mults):
    """(family, L) of sorted multiplicities, or None outside the table."""
    if mults[0] == mults[1] == 2:
        return FamilyKind.PRISM, mults[2]
    return _FAMILIES.get(mults)


def identify_family(sig: SeifertSignature) -> FamilyId:
    """Most specific standard family containing the manifold.

    Order of recognition: lens spaces (at most two exceptional fibres
    and nonzero Euler number), Brieskorn homology spheres (|H1| = 1 and
    pairwise coprime multiplicities), then the congruence families of
    named_family.  Anything else is Generic.

    Each oriented lens space has one label Lens(p, q): from lens_params'
    (m, n), p = |m| and k = n if m > 0, else -n mod p, and q is the lesser
    of k and its inverse mod p.  S^3 is Lens(1,0).  The mirror is
    Lens(p, -q mod p) in this form, the same label only when q^2 = -1 mod p.
    """
    if sig.__class__ is not SeifertSignature:
        _require(sig, "sig", SeifertSignature)
    (a1, _), (a2, _), (a3, _) = sig.fibers
    if a1 == 1 or a2 == 1 or a3 == 1:  # at most two exceptional fibres
        if sig._e == 0:
            return GENERIC
        m, n = lens_params(sig)
        p = abs(m)
        k = n if m > 0 else -n % p
        # L(p, k) and L(p, k') are orientation-preservingly homeomorphic exactly
        # when k' = k^(+-1) mod p (Reidemeister 1935, Brody 1960).
        return FamilyId._unchecked(FamilyKind.LENS, (p, min(k, pow(k, -1, p))))

    mults = tuple(sorted((a1, a2, a3)))
    # |H1| = 1 makes the a_i pairwise coprime: gcd(a_i, a_j) divides each term of e*a1*a2*a3.
    if abs(sig._e) == 1:
        return FamilyId._unchecked(FamilyKind.BRIESKORN, mults)
    return _named_family(sig, mults)


def named_family(sig: SeifertSignature) -> FamilyId:
    """Family given by the multiplicity set alone (no homology check).

    Recognizes the spherical-base sets {2,2,n}, {2,3,3}, {2,3,4},
    {2,3,5} and the Euclidean-base sets {3,3,3}, {2,4,4}, {2,3,6}.
    The parameter is m = -e*L with L = n, 6, 12, 30, 3, 4, 6 in that
    order; the prism is Prism(n, m), and a Euclidean-base family adds
    the least normalized b_i with a_i > 2.  Generic otherwise.
    """
    _require(sig, "sig", SeifertSignature)
    return _named_family(sig, tuple(sorted(sig.multiplicities())))


def _named_family(sig: SeifertSignature, mults: tuple[int, int, int]) -> FamilyId:
    """named_family of a checked signature with its sorted multiplicities."""
    family = _family_of(mults)
    if family is None:
        return GENERIC
    kind, L = family
    a1, a2, a3 = mults
    m = -sig._e * L // (a1 * a2 * a3)
    if kind is FamilyKind.PRISM:
        return FamilyId._unchecked(kind, (L, m))
    if kind in _NIL_KINDS:
        return FamilyId._unchecked(kind, (m, min(bi % a for a, bi in sig.fibers if a > 2)))
    return FamilyId._unchecked(kind, (m,))
