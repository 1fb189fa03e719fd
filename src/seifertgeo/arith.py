"""Exact integer and rational helpers shared by the whole package.

Every decision downstream is exact.  The cone and surgery path takes
the signs of integers built from numerators over a common denominator;
Fraction and PiRational are the types the API takes and returns.
Floats appear only at the very end, in the curvature parameter and in
plot coordinates.  Angles are handled as rational multiples of pi so
that equalities such as "the cone angle sum equals pi" are decidable.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from operator import attrgetter


class Handedness(Enum):
    """Chirality of a torus knot.  Never defaulted: every entry point
    that depends on it takes it explicitly."""

    LEFT = "left"
    RIGHT = "right"

    @classmethod
    def parse(cls, text):
        try:
            return cls(text.strip().lower())
        except (AttributeError, ValueError):
            raise ValueError("handedness must be 'left' or 'right', got %r" % (text,))


def _require(value, field: str, kinds=int) -> None:
    """ValueError naming the field unless value is of kinds, a type or a
    tuple of types; a bool is refused where an int is taken, never coerced."""
    if value.__class__ is bool or not isinstance(value, kinds):
        kinds = kinds if kinds.__class__ is tuple else (kinds,)
        text = " or ".join("an integer" if kind is int else "a " + kind.__name__ for kind in kinds)
        raise ValueError("%s must be %s, got %r" % (field, text, value))


def fiber_coeffs(r: int, s: int, hand: Handedness) -> tuple[int, int]:
    """Seifert coefficients (b1, b2) of the exceptional fibres of a torus knot.

    The exterior of the (r, s) torus knot fibres over the disc with two
    exceptional fibres (s, b1) and (r, b2).  The coefficients are the
    unique pair with 0 < b1 < s, 0 < b2 < r and

        -r*s + b1*r + b2*s == -1   (left handle)
        -r*s + b1*r + b2*s == +1   (right handle)

    Requires r > s > 1 and gcd(r, s) == 1.
    """
    _require(r, "r")
    _require(s, "s")
    _require(hand, "hand", Handedness)
    _check_knot(r, s)
    eps = -1 if hand is Handedness.LEFT else 1
    # b1*r == r*s + eps (mod s) reduces to b1 == eps * r^{-1} (mod s).
    b1 = eps * pow(r, -1, s) % s
    b2 = (r * s + eps - b1 * r) // s
    assert 0 < b1 < s and 0 < b2 < r
    assert -r * s + b1 * r + b2 * s == eps
    return b1, b2


def _check_knot(r: int, s: int) -> None:
    """ValueError unless the integers r, s satisfy r > s > 1 and gcd(r, s) == 1."""
    if not (r > s > 1):
        raise ValueError("torus knot needs r > s > 1, got (%d, %d)" % (r, s))
    if math.gcd(r, s) != 1:
        raise ValueError("torus knot parameters must be coprime, got (%d, %d)" % (r, s))


class _Value:
    """Immutable value: equality, hash, repr and pickling by its fields, the
    first len(_KINDS) names of __slots__ (_fields); _set checks them against
    _KINDS, a type or tuple of types per field, and sets them.  A later slot
    starts with _, holds integers derived from the fields and takes no part
    in those four.  _setters, the slot descriptors' __set__s, fill the slots
    past the raising __setattr__ at under half the cost of object's."""

    __slots__ = ()
    _KINDS = ()

    def __init_subclass__(cls):
        cls.__slots__ = cls.__slots__ or cls.__mro__[1].__slots__  # __slots__ = () keeps the parent's fields
        cls._fields = cls.__slots__[:len(cls._KINDS)]
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _check(cls, *values):
        """Check the leading fields given against _KINDS."""
        for name, kinds, value in zip(cls._fields, cls._KINDS, values):
            _require(value, name, kinds)

    def _set(self, *values):
        self._check(*values)
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _unchecked(cls, *values):
        """A value whose fields are valid by construction: __init__ and its
        checks are skipped, and values fill every slot, private ones
        included.  Never for fields taken from outside."""
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__name__, ", ".join(fields))

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable: cannot change %r" % (type(self).__name__, name))

    __delattr__ = __setattr__


_PI_RE = re.compile(r"(?:([+-]?[0-9]+)(?:/([0-9]+))?)?pi")


@total_ordering
class PiRational(_Value):
    """A non-negative angle written as an exact rational multiple of pi.

    PiRational(coeff) is the one constructor: the coefficient is an int
    or a Fraction, so 2/3*pi is PiRational(Fraction(2, 3)); a float,
    whose binary value is rarely the rational meant, is refused.  The
    textual form is "<num>/<den>pi"; integer multiples drop the
    denominator ("2pi").  The ratio of two angles is an exact Fraction,
    and angles are ordered by their coefficient; no other arithmetic is
    defined on them.
    """

    __slots__ = ("coeff", "_ratio")
    _KINDS = ((int, Fraction),)

    def __init__(self, coeff):
        self._check(coeff)
        value = Fraction(coeff)
        if value < 0:
            raise ValueError("angle must be non-negative, got %s*pi" % value)
        for setter, slot in zip(self._setters, (value, value.as_integer_ratio())):
            setter(self, slot)

    @classmethod
    def parse(cls, text: str) -> "PiRational":
        if not isinstance(text, str):
            raise ValueError("cannot parse angle %r (expected a string such as '2pi')" % (text,))
        text = text.strip().lower().replace(" ", "")
        m = _PI_RE.fullmatch(text)
        if not m:
            raise ValueError("cannot parse angle %r (expected e.g. '2pi' or '1/3pi')" % text)
        num = int(m.group(1) or 1)
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError("angle %r has a zero denominator" % text)
        return cls(Fraction(num, den))

    def text(self) -> str:
        num, den = self._ratio
        return "%dpi" % num if den == 1 else "%d/%dpi" % (num, den)

    def __str__(self):
        return self.text()

    def __truediv__(self, other):
        if not isinstance(other, PiRational):
            return NotImplemented
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero angle")
        return self.coeff / other.coeff

    def __lt__(self, other):
        return self.coeff < other.coeff if other.__class__ is PiRational else NotImplemented

    def __bool__(self):
        return self.coeff != 0

    def __float__(self):
        return math.pi * self.coeff.numerator / self.coeff.denominator


TWO_PI = PiRational(2)

