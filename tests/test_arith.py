"""Integer and angle arithmetic."""

import math
import re
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from seifertgeo import BasePoint, ConeStructure, SeifertSignature, SurgerySpec, TorusKnot, classify_surgery_cone
from seifertgeo.arith import (
    PiRational,
    TWO_PI,
    Handedness,
    fiber_coeffs,
)


class TestFiberCoeffs:
    def test_trefoil_left(self):
        assert fiber_coeffs(3, 2, Handedness.LEFT) == (1, 1)

    def test_trefoil_right(self):
        assert fiber_coeffs(3, 2, Handedness.RIGHT) == (1, 2)

    def test_43_left(self):
        assert fiber_coeffs(4, 3, Handedness.LEFT) == (2, 1)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            fiber_coeffs(4, 2, Handedness.LEFT)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fiber_coeffs(2, 3, Handedness.LEFT)
        with pytest.raises(ValueError):
            fiber_coeffs(3, 1, Handedness.LEFT)

    def test_identity_and_uniqueness_exhaustive(self):
        # unique solution of -rs + b1*r + b2*s = eps in the open box,
        # checked against brute force for r <= 50
        for r in range(3, 51):
            for s in range(2, r):
                if math.gcd(r, s) != 1:
                    continue
                for hand, eps in ((Handedness.LEFT, -1), (Handedness.RIGHT, 1)):
                    b1, b2 = fiber_coeffs(r, s, hand)
                    assert 0 < b1 < s and 0 < b2 < r
                    assert -r * s + b1 * r + b2 * s == eps
                    brute = [
                        (c1, c2)
                        for c1 in range(1, s)
                        for c2 in range(1, r)
                        if -r * s + c1 * r + c2 * s == eps
                    ]
                    assert brute == [(b1, b2)]


class TestHandedness:
    def test_parse(self):
        assert Handedness.parse("left") is Handedness.LEFT
        assert Handedness.parse("Right") is Handedness.RIGHT

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Handedness.parse("ambidextrous")


class TestPiRational:
    def test_text_integer_multiple(self):
        assert TWO_PI.text() == "2pi"

    def test_text_fraction(self):
        assert PiRational(Fraction(1, 3)).text() == "1/3pi"

    def test_parse_forms(self):
        assert PiRational.parse("2pi") == TWO_PI
        assert PiRational.parse("1/2pi") == PiRational(Fraction(1, 2))
        assert PiRational.parse("pi") == PiRational(1)
        assert PiRational.parse(" Pi ") == PiRational(1)

    def test_parse_rejects_negative(self):
        with pytest.raises(ValueError):
            PiRational.parse("-1/2pi")

    def test_parse_rejects_junk(self):
        # A bare pi takes no sign and "/3pi" no missing numerator; int() would
        # read the Unicode digits of the last three as 2 and 3.
        for text in ("2tau", "1/0pi", "-pi", "+pi", "/3pi", "\u0662pi", "1/\u0663pi", "\uff12pi"):
            with pytest.raises(ValueError):
                PiRational.parse(text)

    def test_float(self):
        assert float(PiRational(Fraction(1, 2))) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_ordering(self):
        assert PiRational(Fraction(1, 3)) < PiRational(Fraction(1, 2)) < PiRational(1) < TWO_PI

    def test_arith(self):
        assert TWO_PI / PiRational(1) == Fraction(2)
        assert not PiRational(0) and PiRational(1)
        with pytest.raises(ZeroDivisionError):
            PiRational(1) / PiRational(0)

    @pytest.mark.parametrize(
        "operation",
        [
            lambda: PiRational(1) + 1,
            lambda: PiRational(1) - 1,
            lambda: PiRational(1) * 1.5,
            lambda: 1.5 * PiRational(1),
            lambda: PiRational(1) * 2,
            lambda: PiRational(1) / "x",
            lambda: TWO_PI / 4,
            lambda: TWO_PI / Fraction(1, 2),
        ],
        ids=["add-int", "sub-int", "mul-float", "rmul-float", "mul-int", "div-str", "div-int", "div-fraction"],
    )
    def test_operand_of_another_kind_is_a_type_error(self, operation):
        # each operator answers NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError):
            operation()

    def test_int_and_fraction_are_exact(self):
        assert PiRational(Fraction(2, 3)) == PiRational(Fraction(4, 6))
        assert PiRational(2) == PiRational(Fraction(2)) == TWO_PI

    def test_takes_one_coefficient(self):
        # no denominator argument: 2/3*pi is PiRational(Fraction(2, 3))
        with pytest.raises(TypeError):
            PiRational(1, 2)

    @pytest.mark.parametrize(
        "args, shown",
        [
            ((2 / 3,), "0.6666666666666666"),
            ((True,), "True"),
            (("2/3",), "'2/3'"),
        ],
    )
    def test_refuses_float_bool_and_str(self, args, shown):
        # 2/3 as a float is 6004799503160661/9007199254740992, not 2/3
        with pytest.raises(ValueError, match=re.escape("got %s" % shown)):
            PiRational(*args)

    @given(st.integers(0, 400), st.integers(1, 400))
    def test_parse_text_round_trip(self, num, den):
        angle = PiRational(Fraction(num, den))
        assert PiRational.parse(angle.text()) == angle


class TestNoFloatAngles:
    """Every angle entry point refuses a float, which would otherwise move
    an exact point off its region."""

    def test_surgery_cone_angle(self):
        spec = SurgerySpec(TorusKnot(3, 2, Handedness.LEFT), 4, -1)
        assert str(classify_surgery_cone(spec, PiRational(Fraction(2, 3)))) == "Nil"
        with pytest.raises(ValueError) as exc:
            classify_surgery_cone(spec, 2 / 3)
        assert str(exc.value) == "beta must be a PiRational, got 0.6666666666666666"

    def test_base_point(self):
        with pytest.raises(ValueError) as exc:
            BasePoint(1 / 3, 1 / 3, 1 / 3)
        assert str(exc.value) == "alpha1 must be a PiRational, got 0.3333333333333333"

    def test_cone_structure(self):
        sig = SeifertSignature(-1, ((2, 1), (3, 1), (5, 1)))
        with pytest.raises(ValueError) as exc:
            ConeStructure(sig, (2.0, TWO_PI, TWO_PI))
        assert str(exc.value) == "angles[0] must be a PiRational, got 2.0"


class _Angle(PiRational):
    __slots__ = ()


# Normalization reverses these fibres, so angles[i] as the caller numbers
# it is angle 2 - i of the stored value.
_REVERSED = SeifertSignature(-1, ((2, 1), (3, 1), (5, 1)))
_NIL_SPEC = SurgerySpec(TorusKnot(3, 2, Handedness.LEFT), 4, -1)
_THIRD = PiRational(Fraction(1, 3))


def _with(beta, i):
    angles = [_THIRD] * 3
    angles[i] = beta
    return angles


# entry point -> (call with beta at angle position i, giving the angles the
# value holds or the geometry's name; the field each position is named by)
ANGLE_ENTRIES = {
    "ConeStructure": (
        lambda beta, i: ConeStructure(_REVERSED, _with(beta, i)).angles,
        ("angles[0]", "angles[1]", "angles[2]"),
    ),
    "BasePoint": (
        lambda beta, i: attrgetter("alpha1", "alpha2", "alpha3")(BasePoint(*_with(beta, i))),
        ("alpha1", "alpha2", "alpha3"),
    ),
    "classify_surgery_cone": (lambda beta, i: str(classify_surgery_cone(_NIL_SPEC, beta)), ("beta",)),
}


@pytest.mark.parametrize("entry", sorted(ANGLE_ENTRIES))
class TestAnglesArePiRationals:
    """An angle is a PiRational: no entry point reads an int or a Fraction
    in units of pi, and each names the field of a value it refuses."""

    @pytest.mark.parametrize(
        "bad", [1, Fraction(1, 2), 0.5, "2pi", True, None], ids=["int", "Fraction", "float", "str", "bool", "None"]
    )
    def test_anything_else_is_refused_naming_the_field(self, entry, bad):
        call, fields = ANGLE_ENTRIES[entry]
        for i, field in enumerate(fields):
            with pytest.raises(ValueError) as exc:
                call(bad, i)
            assert str(exc.value) == "%s must be a PiRational, got %r" % (field, bad)

    def test_a_subclass_passes_through_as_it_is(self, entry):
        call, fields = ANGLE_ENTRIES[entry]
        for i in range(len(fields)):
            beta = _Angle(Fraction(2, 3))
            if entry == "classify_surgery_cone":
                assert call(beta, i) == call(PiRational(Fraction(2, 3)), i) == "Nil"
            else:
                assert any(angle is beta for angle in call(beta, i))


def test_cone_angles_are_named_in_the_callers_order():
    # normalization moves the first angle given to the last fibre, yet a bad one is angles[0]
    assert ConeStructure(_REVERSED, _with(TWO_PI, 0)).angles == (_THIRD, _THIRD, TWO_PI)
    with pytest.raises(ValueError) as exc:
        ConeStructure(_REVERSED, _with(1, 0))
    assert str(exc.value) == "angles[0] must be a PiRational, got 1"


class TestNegativeAngles:
    """A negative angle can only arrive as PiRational(-x), which refuses it
    itself: an angle has no field of its own, so it is called the angle."""

    def test_bare_pi_rational(self):
        with pytest.raises(ValueError) as exc:
            PiRational(-1)
        assert str(exc.value) == "angle must be non-negative, got -1*pi"
