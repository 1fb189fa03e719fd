"""Value-type contract of every public value class.

Equal values compare and hash equal, fields cannot be assigned or
deleted, construction works positionally and by field name, the repr
reads Name(field=value, ...), and values survive pickle and copy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from seifertgeo.arith import Handedness, PiRational, TWO_PI
from seifertgeo.base2d import BasePoint
from seifertgeo.cone3d import ConeStructure, FamilyDimension, GeometryResult, SphericityInterval
from seifertgeo.plot import PlotModel, PlotPoint, PlotWindow
from seifertgeo.seifert import FamilyId, FamilyKind, GeometryType, SeifertSignature
from seifertgeo.surgery import LinePoint, SurgerySpec, TorusKnot

POINCARE = ((2, 1), (3, 1), (5, 1))
TREFOIL = TorusKnot(3, 2, Handedness.LEFT)


def _model(slope):
    return PlotModel(
        knot=TREFOIL,
        window=PlotWindow(Fraction(4), -2, 2),
        x_upper=Fraction(6, 7),
        x_lower=Fraction(6),
        euler_zero_slope=slope,
        orbifold_xs=(2, 3, 4, 5),
        points=(PlotPoint(1, 0, 1, 0, "Spherical"),),
    )


# name -> (fields, factory of a value from a "variant" flag).  The two
# calls with variant=False build equal values from separate objects;
# variant=True builds a value that differs in at least one field.
VALUES = {
    "PiRational": (("coeff",), lambda v: PiRational(Fraction(2 if v else 1, 3))),
    "BasePoint": (
        ("alpha1", "alpha2", "alpha3"),
        lambda v: BasePoint(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4 if v else 5)),
    ),
    "SeifertSignature": (("b", "fibers"), lambda v: SeifertSignature(0 if v else -1, POINCARE)),
    "FamilyId": (("kind", "params"), lambda v: FamilyId(FamilyKind.LENS, (5, 2 if v else 1))),
    "GeometryResult": (
        ("geometry",),
        lambda v: GeometryResult(GeometryType.NIL if v else GeometryType.SPHERICAL),
    ),
    "ConeStructure": (
        ("sig", "angles"),
        lambda v: ConeStructure(
            SeifertSignature(-1, POINCARE), (TWO_PI, TWO_PI, PiRational(1 if v else 2))
        ),
    ),
    "SphericityInterval": (
        ("beta_lower", "beta_upper"),
        lambda v: SphericityInterval(PiRational(Fraction(5, 3)), PiRational(24 if v else 25, 3)),
    ),
    "FamilyDimension": (("kind", "dim"), lambda v: FamilyDimension("continuous", 1 if v else 2)),
    "TorusKnot": (
        ("r", "s", "hand"),
        lambda v: TorusKnot(3, 2, Handedness.RIGHT if v else Handedness.LEFT),
    ),
    "SurgerySpec": (
        ("knot", "p", "q"),
        lambda v: SurgerySpec(TorusKnot(5, 2, Handedness.LEFT), 1, 2 if v else -1),
    ),
    "LinePoint": (("m", "n"), lambda v: LinePoint(5, 2 if v else 1)),
    "PlotWindow": (
        ("x_max", "y_min", "y_max"), lambda v: PlotWindow(Fraction(4), -2, 3 if v else 2)
    ),
    "PlotPoint": (
        ("m", "n", "p", "q", "geometry"),
        lambda v: PlotPoint(1, 0, 1, 0, "Nil" if v else "Spherical"),
    ),
    "PlotModel": (
        ("knot", "window", "x_upper", "x_lower", "euler_zero_slope", "orbifold_xs", "points"),
        lambda v: _model(-6 if v else 6),
    ),
}

NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
class TestValueContract:
    def test_equal_values_compare_and_hash_equal(self, name):
        _, make = VALUES[name]
        a, b, c = make(False), make(False), make(True)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != c and not a == c
        assert a != object()
        assert len({a, b, c}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        fields, make = VALUES[name]
        value = make(False)
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_construction_by_position_and_by_field_name(self, name):
        fields, make = VALUES[name]
        value = make(False)
        values = [getattr(value, field) for field in fields]
        assert type(value)(*values) == value
        assert type(value)(**dict(zip(fields, values))) == value

    def test_repr_names_every_field(self, name):
        fields, make = VALUES[name]
        value = make(False)
        body = ", ".join("%s=%r" % (field, getattr(value, field)) for field in fields)
        assert repr(value) == "%s(%s)" % (name, body)

    def test_pickle_and_copy_round_trip(self, name):
        _, make = VALUES[name]
        value = make(False)
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(clone) is type(value)
            assert clone == value
            assert hash(clone) == hash(value)


class TestDefaults:
    def test_family_id_params_default_to_empty(self):
        family = FamilyId(FamilyKind.GENERIC)
        assert family.params == ()
        assert family == FamilyId(kind=FamilyKind.GENERIC, params=())
        assert str(family) == "Generic"

    def test_family_dimension_dim_defaults_to_none(self):
        report = FamilyDimension("none")
        assert report.dim is None
        assert report == FamilyDimension(kind="none", dim=None)
        assert str(report) == "None"

    def test_pi_rational_takes_a_denominator(self):
        assert PiRational(1, 3) == PiRational(Fraction(1, 3))
        assert PiRational(coeff=2, den=6) == PiRational(Fraction(1, 3))


class TestPiRationalOrder:
    def test_order_follows_the_coefficient(self):
        third, half = PiRational(1, 3), PiRational(1, 2)
        assert third < half and third <= half and half > third and half >= third
        assert third <= PiRational(2, 6) and third >= PiRational(2, 6)
        assert not third < PiRational(2, 6) and not third > PiRational(2, 6)
        assert sorted([TWO_PI, half, third]) == [third, half, TWO_PI]
        assert max(third, half) is half

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "pi"])
    def test_comparing_with_another_type_raises(self, other):
        angle = PiRational(1, 2)
        for compare in (
            lambda: angle < other,
            lambda: angle <= other,
            lambda: angle > other,
            lambda: angle >= other,
            lambda: other < angle,
        ):
            with pytest.raises(TypeError):
                compare()
        assert angle != other
