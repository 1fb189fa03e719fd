"""Integer and angle arithmetic."""

import math
import re
from fractions import Fraction

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
        assert PiRational(1, 3).text() == "1/3pi"

    def test_parse_forms(self):
        assert PiRational.parse("2pi") == TWO_PI
        assert PiRational.parse("1/2pi") == PiRational(1, 2)
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
        assert float(PiRational(1, 2)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_ordering(self):
        assert PiRational(1, 3) < PiRational(1, 2) < PiRational(1) < TWO_PI

    def test_arith(self):
        assert PiRational(1, 3) + PiRational(1, 6) == PiRational(1, 2)
        assert TWO_PI - PiRational(1) == PiRational(1)
        assert PiRational(1, 3) * 6 == TWO_PI
        assert TWO_PI / PiRational(1) == Fraction(2)
        assert TWO_PI / 4 == PiRational(1, 2)
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
            lambda: PiRational(1) / "x",
        ],
        ids=["add-int", "sub-int", "mul-float", "rmul-float", "div-str"],
    )
    def test_operand_of_another_kind_is_a_type_error(self, operation):
        # each operator answers NotImplemented, so Python raises TypeError
        with pytest.raises(TypeError):
            operation()

    def test_int_and_fraction_are_exact(self):
        assert PiRational(2, 3) == PiRational(Fraction(2, 3)) == PiRational(Fraction(4), 6)

    @pytest.mark.parametrize(
        "args, shown",
        [
            ((2 / 3,), "0.6666666666666666"),
            ((True,), "True"),
            (("2/3",), "'2/3'"),
            ((2, 3.0), "3.0"),
            ((2, True), "True"),
        ],
    )
    def test_refuses_float_bool_and_str(self, args, shown):
        # 2/3 as a float is 6004799503160661/9007199254740992, not 2/3
        with pytest.raises(ValueError, match=re.escape("got %s" % shown)):
            PiRational(*args)

    def test_zero_denominator_names_den(self):
        with pytest.raises(ValueError) as exc:
            PiRational(1, 0)
        assert str(exc.value) == "den must be nonzero, got 0"

    @given(st.integers(0, 400), st.integers(1, 400))
    def test_parse_text_round_trip(self, num, den):
        angle = PiRational(num, den)
        assert PiRational.parse(angle.text()) == angle

    @given(st.integers(0, 100), st.integers(1, 100), st.integers(0, 100), st.integers(1, 100))
    def test_addition_matches_fractions(self, n1, d1, n2, d2):
        a, b = PiRational(n1, d1), PiRational(n2, d2)
        assert (a + b).coeff == Fraction(n1, d1) + Fraction(n2, d2)


class TestNoFloatAngles:
    """Every type that converts an angle through PiRational refuses a float,
    which would otherwise move an exact point off its region."""

    def test_surgery_cone_angle(self):
        spec = SurgerySpec(TorusKnot(3, 2, Handedness.LEFT), 4, -1)
        assert str(classify_surgery_cone(spec, PiRational(Fraction(2, 3)))) == "Nil"
        with pytest.raises(ValueError) as exc:
            classify_surgery_cone(spec, 2 / 3)
        assert str(exc.value) == (
            "beta must be a PiRational or an integer or a Fraction, got 0.6666666666666666"
        )

    def test_base_point(self):
        with pytest.raises(ValueError) as exc:
            BasePoint(1 / 3, 1 / 3, 1 / 3)
        assert str(exc.value) == (
            "alpha1 must be a PiRational or an integer or a Fraction, got 0.3333333333333333"
        )

    def test_cone_structure(self):
        sig = SeifertSignature(-1, ((2, 1), (3, 1), (5, 1)))
        with pytest.raises(ValueError) as exc:
            ConeStructure(sig, (2.0, 2, 2))
        assert str(exc.value) == "angles[0] must be a PiRational or an integer or a Fraction, got 2.0"
        # counted in the caller's order, not the normalized fibre order
        with pytest.raises(ValueError) as exc:
            ConeStructure(SeifertSignature(-1, ((5, 1), (3, 1), (2, 1))), (2, 2, "2pi"))
        assert str(exc.value) == "angles[2] must be a PiRational or an integer or a Fraction, got '2pi'"


class TestNegativeAngles:
    """A negative angle is reported under the field the caller gave it;
    a bare PiRational has no field and calls it the angle."""

    def test_cone_structure(self):
        sig = SeifertSignature(-1, ((2, 1), (3, 1), (5, 1)))
        with pytest.raises(ValueError) as exc:
            ConeStructure(sig, (2, -1, 2))
        assert str(exc.value) == "angles[1] must be non-negative, got -1*pi"
        # counted in the caller's order, not the normalized fibre order
        with pytest.raises(ValueError) as exc:
            ConeStructure(sig, (2, 2, Fraction(-1, 2)))
        assert str(exc.value) == "angles[2] must be non-negative, got -1/2*pi"

    def test_base_point(self):
        with pytest.raises(ValueError) as exc:
            BasePoint(0, -1, 0)
        assert str(exc.value) == "alpha2 must be non-negative, got -1*pi"

    def test_surgery_cone_angle(self):
        spec = SurgerySpec(TorusKnot(3, 2, Handedness.LEFT), 4, -1)
        with pytest.raises(ValueError) as exc:
            classify_surgery_cone(spec, -2)
        assert str(exc.value) == "beta must be non-negative, got -2*pi"

    def test_bare_pi_rational(self):
        with pytest.raises(ValueError) as exc:
            PiRational(-1)
        assert str(exc.value) == "angle must be non-negative, got -1*pi"
