"""Value-type contract of every public value class.

Equal values compare and hash equal, fields cannot be assigned or
deleted, construction works positionally and by field name, the repr
reads Name(field=value, ...), and values survive pickle and copy.  The
integers a value derives from its fields and keeps in private slots
match a recomputation and take no part in any of these.
"""

import copy
import importlib
import inspect
import itertools
import math
import pickle
import pkgutil
import types
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seifertgeo
from seifertgeo.arith import Handedness, PiRational, TWO_PI, _Value, fiber_coeffs
from seifertgeo.base2d import BasePoint, classify_triangle, curvature_parameter
from seifertgeo.cone3d import (
    ConeStructure, Dim, classify_cone, family_dimension, sphericity_limits,
)
from seifertgeo.plot import PlotModel, PlotPoint, PlotWindow, build_plot, export_csv, render_svg
from seifertgeo.seifert import (
    FamilyId, FamilyKind, SeifertSignature, euler_number, homology_order,
    identify_family, lens_params, manifold_geometry, named_family, normalize, orbifold_euler_char,
)
from seifertgeo.surgery import (
    SurgerySpec, TorusKnot, atlas, brieskorn_surgery, classify_surgery_cone, line_of_surgery,
    nil_admissible, spherical_orbifold_angles, surgery_of_line, surgery_signature, x_limits,
)

POINCARE = ((2, 1), (3, 1), (5, 1))
POINCARE_SIG = SeifertSignature(-1, POINCARE[::-1])
TREFOIL = TorusKnot(3, 2, Handedness.LEFT)


def _model(**changes):
    fields = dict(
        knot=TREFOIL,
        window=PlotWindow(Fraction(4), -2, 2),
        points=(PlotPoint(1, 0, 1, 0, "Spherical"),),
    )
    return PlotModel(**dict(fields, **changes))


# name -> (fields, factory of a value from a "variant" flag).  The two
# calls with variant=False build equal values from separate objects;
# variant=True builds a value that differs in at least one field.
VALUES = {
    "PiRational": (("coeff",), lambda v: PiRational(Fraction(2 if v else 1, 3))),
    "BasePoint": (
        ("alpha1", "alpha2", "alpha3"),
        lambda v: BasePoint(
            PiRational(Fraction(1, 2)), PiRational(Fraction(1, 3)), PiRational(Fraction(1, 4 if v else 5))
        ),
    ),
    "SeifertSignature": (("b", "fibers"), lambda v: SeifertSignature(0 if v else -1, POINCARE)),
    "FamilyId": (("kind", "params"), lambda v: FamilyId(FamilyKind.LENS, (5, 2 if v else 1))),
    "ConeStructure": (
        ("sig", "angles"),
        lambda v: ConeStructure(
            SeifertSignature(-1, POINCARE), (TWO_PI, TWO_PI, PiRational(1 if v else 2))
        ),
    ),
    "TorusKnot": (
        ("r", "s", "hand"),
        lambda v: TorusKnot(3, 2, Handedness.RIGHT if v else Handedness.LEFT),
    ),
    "SurgerySpec": (
        ("knot", "p", "q"),
        lambda v: SurgerySpec(TorusKnot(5, 2, Handedness.LEFT), 1, 2 if v else -1),
    ),
    "PlotWindow": (
        ("x_max", "y_min", "y_max"), lambda v: PlotWindow(Fraction(4), -2, 3 if v else 2)
    ),
    "PlotPoint": (
        ("m", "n", "p", "q", "geometry"),
        lambda v: PlotPoint(1, 0, 1, 0, "Nil" if v else "Spherical"),
    ),
    "PlotModel": (
        ("knot", "window", "points"),
        lambda v: _model(knot=TorusKnot(3, 2, Handedness.RIGHT if v else Handedness.LEFT)),
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
            assert _private(clone) == _private(value)


def _private(value):
    """The private integers a value keeps in the slots after its fields."""
    cls = type(value)
    return tuple(getattr(value, name) for name in cls.__slots__[len(cls._fields):])


class TestDefaults:
    def test_family_id_params_default_to_empty(self):
        family = FamilyId(FamilyKind.GENERIC)
        assert family.params == ()
        assert family == FamilyId(kind=FamilyKind.GENERIC, params=())
        assert str(family) == "Generic"


def _value_classes():
    """Every _Value subclass of the package, found recursively once every
    module is imported; subclasses that tests define are left out."""
    for module in pkgutil.iter_modules(seifertgeo.__path__):
        if module.name != "__main__":
            importlib.import_module("seifertgeo." + module.name)
    found, todo = set(), [_Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    return {cls for cls in found if cls.__module__.startswith("seifertgeo.")}


# Classes whose values are checked against their _KINDS; PlotPoint is a namedtuple.
CHECKED = sorted(set(VALUES) - {"PlotPoint"})


class TestFieldContract:
    def test_every_value_class_declares_one_kind_per_field(self):
        classes = _value_classes()
        assert sorted(cls.__name__ for cls in classes) == CHECKED
        for cls in classes:
            assert len(cls._KINDS) == len(cls._fields), cls.__name__
            assert cls._fields == cls.__slots__[:len(cls._fields)], cls.__name__
            assert all(name.startswith("_") for name in cls.__slots__[len(cls._fields):]), cls.__name__

    @pytest.mark.parametrize("name", CHECKED)
    def test_private_integers_take_no_part_in_equality_hash_repr_or_pickle(self, name):
        fields, make = VALUES[name]
        value = make(False)
        cls = type(value)
        assert cls._fields == fields
        public = tuple(getattr(value, field) for field in fields)
        twin = cls._unchecked(*public, *[("not", "derived")] * (len(cls.__slots__) - len(fields)))
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        assert twin.__reduce__() == value.__reduce__() == (cls, public)

    @pytest.mark.parametrize("name", CHECKED)
    def test_a_wrong_type_in_any_field_raises_naming_it(self, name):
        fields, make = VALUES[name]
        value = make(False)
        other = FamilyId(FamilyKind.GENERIC)
        for field in fields:
            for bad in (None, True, 1.5, "x", other):
                given = {f: getattr(value, f) for f in fields}
                given[field] = bad
                with pytest.raises(ValueError) as exc:
                    type(value)(**given)
                assert str(exc.value).startswith(field + " must be"), (field, bad, str(exc.value))

    @pytest.mark.parametrize(
        "params, message",
        [
            ((None, "x"), "params[0] must be an integer, got None"),
            (("a", 1), "params[0] must be an integer, got 'a'"),
            ((3, True), "params[1] must be an integer, got True"),
            ((2, 3, 5.0), "params[2] must be an integer, got 5.0"),
        ],
    )
    def test_family_params_are_integers(self, params, message):
        with pytest.raises(ValueError) as exc:
            FamilyId(FamilyKind.PRISM, params)
        assert str(exc.value) == message


# One value of each kind a public function takes; each check below passes
# the ones that are not of the parameter's type.
SAMPLES = (
    POINCARE_SIG,
    ConeStructure(POINCARE_SIG, (TWO_PI,) * 3),
    BasePoint(PiRational(Fraction(1, 2)), PiRational(Fraction(1, 3)), PiRational(Fraction(1, 5))),
    FamilyId(FamilyKind.TETRAHEDRAL, (1,)),
    TREFOIL,
    SurgerySpec(TREFOIL, 1, 1),
    _model(),
)


# (function, parameter, the types it takes, the arguments with None in its place)
ENTRY_CHECKS = [
    (manifold_geometry, "sig", SeifertSignature, (None,)),
    (euler_number, "sig", SeifertSignature, (None,)),
    (orbifold_euler_char, "sig", SeifertSignature, (None,)),
    (homology_order, "sig", SeifertSignature, (None,)),
    (identify_family, "sig", SeifertSignature, (None,)),
    (normalize, "sig", SeifertSignature, (None,)),
    (lens_params, "sig", SeifertSignature, (None,)),
    (named_family, "sig", SeifertSignature, (None,)),
    (family_dimension, "sig", SeifertSignature, (None, ())),
    (classify_cone, "cs", ConeStructure, (None,)),
    (classify_triangle, "point", BasePoint, (None,)),
    (curvature_parameter, "point", BasePoint, (None,)),
    (x_limits, "knot", TorusKnot, (None,)),
    (spherical_orbifold_angles, "knot", TorusKnot, (None,)),
    (nil_admissible, "knot", TorusKnot, (None,)),
    (atlas, "knot", TorusKnot, (None, 1, (0, 1), 1)),
    (surgery_of_line, "knot", TorusKnot, (None, 5, 1)),
    (surgery_signature, "spec", SurgerySpec, (None,)),
    (classify_surgery_cone, "spec", SurgerySpec, (None, TWO_PI)),
    (classify_surgery_cone, "beta", PiRational, (SurgerySpec(TREFOIL, 1, 1), None)),
    (line_of_surgery, "spec", SurgerySpec, (None,)),
    (render_svg, "model", PlotModel, (None,)),
    (export_csv, "model", PlotModel, (None,)),
]


class TestEntryChecks:
    @pytest.mark.parametrize(
        "func, field, kind, args",
        ENTRY_CHECKS,
        ids=["%s-%s" % (func.__name__, field) for func, field, _, _ in ENTRY_CHECKS],
    )
    def test_a_wrong_type_raises_naming_the_parameter(self, func, field, kind, args):
        others = [value for value in (1, *SAMPLES) if not isinstance(value, kind)]
        for bad in (None, True, "x", *others):
            given = [bad if arg is None else arg for arg in args]
            with pytest.raises(ValueError) as exc:
                func(*given)
            assert str(exc.value).startswith(field + " must be a "), (bad, str(exc.value))

    def test_every_value_parameter_of_a_public_function_has_a_row(self):
        # A public function that takes a value type needs a row above, or it
        # could take any object unchecked.
        rows = {(func, field): kind for func, field, kind, _ in ENTRY_CHECKS}
        missing = []
        for name, module in sorted(seifertgeo._HOME.items()):
            func = getattr(importlib.import_module("seifertgeo." + module), name)
            if not inspect.isfunction(func):
                continue
            for param, hint in typing.get_type_hints(func).items():
                union = typing.get_origin(hint) in (typing.Union, types.UnionType)
                values = [t for t in (typing.get_args(hint) if union else (hint,)) if _is_value_type(t)]
                kinds = rows.get((func, param), ())
                kinds = kinds if kinds.__class__ is tuple else (kinds,)
                if param != "return" and any(t not in kinds for t in values):
                    missing.append("%s(%s)" % (name, param))
        assert missing == []


def _is_value_type(hint):
    return isinstance(hint, type) and issubclass(hint, _Value)


class _Signature(SeifertSignature):
    __slots__ = ()


class _Angles(tuple):
    pass


class TestConeStructureInputs:
    """The exact-class fast paths accept what the general path accepts."""

    SIG = SeifertSignature(-1, POINCARE)
    ANGLES = (TWO_PI, PiRational(3), PiRational(5))

    @pytest.mark.parametrize(
        "sig, angles",
        [
            (_Signature(-1, POINCARE), ANGLES),
            (SIG, list(ANGLES)),
            (SIG, _Angles(ANGLES)),
            (_Signature(-1, POINCARE), _Angles(ANGLES)),
        ],
        ids=["signature-subclass", "list", "tuple-subclass", "both-subclasses"],
    )
    def test_other_classes_give_the_plain_value(self, sig, angles):
        cs = ConeStructure(sig, angles)
        plain = ConeStructure(self.SIG, self.ANGLES)
        assert cs == plain and hash(cs) == hash(plain)
        assert cs.sig.__class__ is SeifertSignature and cs.angles.__class__ is tuple

    @pytest.mark.parametrize(
        "angles", [None, "ab", {0: TWO_PI, 1: TWO_PI, 2: TWO_PI}], ids=["None", "str", "dict"]
    )
    def test_angles_that_are_not_a_sequence_are_refused(self, angles):
        with pytest.raises(ValueError) as exc:
            ConeStructure(self.SIG, angles)
        assert str(exc.value).startswith("angles must be a tuple or a list, got ")

    def test_a_subclass_with_empty_slots_keeps_the_fields(self):
        sub = _Signature(-1, POINCARE)
        assert not hasattr(sub, "__dict__")
        with pytest.raises(AttributeError):
            sub.extra = 1
        assert sub == _Signature(-1, iter(POINCARE)) and hash(sub) == hash(_Signature(-1, POINCARE))
        assert sub != _Signature(0, POINCARE) and sub != self.SIG
        assert repr(sub) == "_Signature(b=-1, fibers=((2, 1), (3, 1), (5, 1)))"
        for clone in (pickle.loads(pickle.dumps(sub)), copy.copy(sub), copy.deepcopy(sub)):
            assert type(clone) is _Signature and clone == sub and clone._e == sub._e == -1
        with pytest.raises(ValueError, match="^fibers must be a tuple, got 'x'$"):
            _Signature._check(-1, "x")

    def test_normalize_returns_a_plain_signature(self):
        normal = normalize(self.SIG)
        assert normalize(normal) is normal
        sub = _Signature(normal.b, normal.fibers)
        assert normalize(sub).__class__ is SeifertSignature
        assert normalize(sub) == normal and hash(normalize(sub)) == hash(normal)


# Raw fibres: a <= 12 and any coprime b_i, negative ones included.
FIBRE = st.tuples(st.integers(1, 12), st.integers(-30, 30)).filter(lambda f: math.gcd(*f) == 1)
COEFF = st.fractions(min_value=0, max_value=2, max_denominator=24)
SIGNATURE_CLASSES = st.sampled_from((SeifertSignature, _Signature))


def _euler_times_multiplicities(b, fibers):
    """e*a1*a2*a3 from e = -b - sum(b_i / a_i), in Fractions."""
    e = (-b - sum(Fraction(bi, a) for a, bi in fibers)) * math.prod(a for a, _ in fibers)
    assert e.denominator == 1
    return e.numerator


class TestStoredIntegers:
    """The integers a value derives from its fields when it is built."""

    @given(SIGNATURE_CLASSES, st.integers(-5, 5), st.lists(FIBRE, min_size=1, max_size=3))
    @settings(max_examples=400)
    def test_a_signature_keeps_e_times_its_multiplicities(self, cls, b, fibers):
        sig = cls(b, fibers)
        assert sig._e == _euler_times_multiplicities(b, fibers)
        assert normalize(sig)._e == sig._e

    @given(
        SIGNATURE_CLASSES,
        st.integers(-5, 5),
        FIBRE,
        st.lists(st.integers(-2, 2), min_size=2, max_size=3),
        FIBRE,
        st.lists(COEFF.map(PiRational), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_a_cone_structure_keeps_its_kernel_integers_in_every_angle_order(
        self, cls, b, tied, shifts, other, angles
    ):
        # Two or three fibres that tie once reduced, so the constructor reorders their angles.
        a, bi = tied
        sig = cls(b, ([(a, bi + k * a) for k in shifts] + [other])[:3])
        for order in set(itertools.permutations(angles)):
            cs = ConeStructure(sig, order)
            ints = ()
            for (ai, _), beta in zip(cs.sig.fibers, cs.angles):
                ints += (beta.coeff.numerator, 2 * ai * beta.coeff.denominator)
            assert cs._ints == ints
            assert cs.sig._e == sig._e
            assert cs.base_point() == BasePoint(
                *(PiRational(beta.coeff / (2 * a)) for (a, _), beta in zip(cs.sig.fibers, cs.angles))
            )

    @given(COEFF, st.integers(1, 6), st.integers(0, 4))
    def test_an_angle_keeps_its_integer_pair(self, coeff, k, num):
        angle = PiRational(coeff)
        derived = (
            angle, PiRational(num), PiRational(coeff * k), PiRational(coeff / k),
            PiRational.parse(angle.text()), pickle.loads(pickle.dumps(angle)), copy.copy(angle),
        )
        for x in derived:
            assert x._ratio == x.coeff.as_integer_ratio()


class TestPiRationalOrder:
    def test_order_follows_the_coefficient(self):
        third, half = PiRational(Fraction(1, 3)), PiRational(Fraction(1, 2))
        assert third < half and third <= half and half > third and half >= third
        assert third <= PiRational(Fraction(2, 6)) and third >= PiRational(Fraction(2, 6))
        assert not third < PiRational(Fraction(2, 6)) and not third > PiRational(Fraction(2, 6))
        assert sorted([TWO_PI, half, third]) == [third, half, TWO_PI]
        assert max(third, half) is half

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), 0.5, "pi"])
    def test_comparing_with_another_type_raises(self, other):
        angle = PiRational(Fraction(1, 2))
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


# id -> (call, field): each passes a bool, float or str where an int belongs.
NOT_INTEGERS = {
    "TorusKnot-r-float": (lambda: TorusKnot(3.0, 2, Handedness.LEFT), "r"),
    "TorusKnot-s-bool": (lambda: TorusKnot(3, True, Handedness.LEFT), "s"),
    "TorusKnot-r-str": (lambda: TorusKnot("5", 2, Handedness.LEFT), "r"),
    "SurgerySpec-p-float": (lambda: SurgerySpec(TREFOIL, 1.0, 2), "p"),
    "SurgerySpec-p-bool": (lambda: SurgerySpec(TREFOIL, True, 1), "p"),
    "SurgerySpec-q-float": (lambda: SurgerySpec(TREFOIL, 1, -1.0), "q"),
    # surgery_of_line's ray (m, n); the short ids keep each test name whole.
    "ray-m-bool": (lambda: surgery_of_line(TREFOIL, True, 1), "m"),
    "ray-n-float": (lambda: surgery_of_line(TREFOIL, 5, 1.0), "n"),
    "ray-n-str": (lambda: surgery_of_line(TREFOIL, 5, "1"), "n"),
    "PlotWindow-x_max-float": (lambda: PlotWindow(20.5, 0, 3), "x_max"),
    "PlotWindow-x_max-bool": (lambda: PlotWindow(True, 0, 3), "x_max"),
    "PlotWindow-x_max-str": (lambda: PlotWindow("20", 0, 3), "x_max"),
    "PlotWindow-y_min-float": (lambda: PlotWindow(Fraction(20), 0.5, 3), "y_min"),
    "PlotWindow-y_max-bool": (lambda: PlotWindow(Fraction(20), 0, True), "y_max"),
    "atlas-m_max-bool": (lambda: atlas(TREFOIL, True, (0, 1), 1), "m_max"),
    "atlas-k_max-bool": (lambda: atlas(TREFOIL, 1, (0, 1), True), "k_max"),
    "atlas-n_lo-float": (lambda: atlas(TREFOIL, 1, (0.0, 1), 1), "n_range[0]"),
    "atlas-n_hi-bool": (lambda: atlas(TREFOIL, 1, (0, True), 1), "n_range[1]"),
    "sphericity_limits-a1-float": (lambda: sphericity_limits(2.0, 3, 1), "a1"),
    "sphericity_limits-a2-str": (lambda: sphericity_limits(2, "3", 1), "a2"),
    "sphericity_limits-a3-bool": (lambda: sphericity_limits(2, 3, True), "a3"),
    "fiber_coeffs-r-float": (lambda: fiber_coeffs(3.0, 2, Handedness.LEFT), "r"),
    "fiber_coeffs-s-bool": (lambda: fiber_coeffs(3, True, Handedness.LEFT), "s"),
    "brieskorn_surgery-a3-float": (lambda: brieskorn_surgery(2, 3, 7.0), "a3"),
    "brieskorn_surgery-a3-str": (lambda: brieskorn_surgery(2, 3, "7"), "a3"),
    "brieskorn_surgery-a1-bool": (lambda: brieskorn_surgery(True, 3, 7), "a1"),
    "family_dimension-position-bool": (
        lambda: family_dimension(POINCARE_SIG, {True}), "singular position"
    ),
    "family_dimension-position-float": (
        lambda: family_dimension(POINCARE_SIG, [1.0]), "singular position"
    ),
}


class TestStrictIntegers:
    @pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
    def test_refuses_a_non_integer_naming_the_field(self, case):
        call, field = NOT_INTEGERS[case]
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value).startswith(field + " must be"), str(exc.value)

    def test_window_takes_an_int_or_a_fraction(self):
        by_int = build_plot(TREFOIL, PlotWindow(6, -2, 2))
        assert by_int.points == build_plot(TREFOIL, PlotWindow(Fraction(13, 2), -2, 2)).points
        assert len(by_int.points) == 19


# id -> (call, start of the message): a value of the wrong shape or type
# where a sequence of pairs, a pair or a string belongs.  The message names
# the field and shows the value.
MALFORMED = {
    "fibers-int": (lambda: SeifertSignature(1, 5), "fibers must be"),
    "fibers-pair-int": (lambda: SeifertSignature(1, [5]), "fibers must be"),
    "fibers-triple": (
        lambda: SeifertSignature(1, [(2, 1, 3)]),
        "fibers must be a sequence of pairs (a, b), got [(2, 1, 3)]",
    ),
    "fibers-str": (lambda: SeifertSignature(1, "21"), "fibers must be"),
    "fibers-none": (lambda: SeifertSignature(1, None), "fibers must be"),
    "handedness-none": (
        lambda: Handedness.parse(None), "handedness must be 'left' or 'right', got None"
    ),
    "handedness-int": (lambda: Handedness.parse(1), "handedness must be"),
    "fiber_coeffs-hand-str": (
        lambda: fiber_coeffs(3, 2, "left"), "hand must be a Handedness, got 'left'"
    ),
    "family_dimension-singular-int": (
        lambda: family_dimension(POINCARE_SIG, 5),
        "singular must be a set of fibre positions, got 5",
    ),
    "angle-int": (lambda: PiRational.parse(3), "cannot parse angle 3"),
    "angle-none": (lambda: PiRational.parse(None), "cannot parse angle None"),
    "atlas-n_range-none": (
        lambda: atlas(TREFOIL, 3, None, 2), "n_range must be a pair (n_lo, n_hi), got None"
    ),
    "atlas-n_range-int": (lambda: atlas(TREFOIL, 3, 4, 2), "n_range must be"),
    "atlas-n_range-triple": (lambda: atlas(TREFOIL, 3, (0, 1, 2), 2), "n_range must be"),
    "FamilyDimension-dim-negative": (lambda: Dim(-1), "'Dim(-1)' is not a valid FamilyDimension"),
    "FamilyDimension-dim-above-cube": (lambda: Dim(4), "'Dim(4)' is not a valid FamilyDimension"),
    "PlotModel-knot-none": (lambda: _model(knot=None), "knot must be a TorusKnot, got None"),
    "PlotModel-window-tuple": (
        lambda: _model(window=(4, -2, 2)), "window must be a PlotWindow, got (4, -2, 2)"
    ),
    "PlotModel-points-none-item": (
        lambda: _model(points=(PlotPoint(1, 0, 1, 0, "Nil"), None)),
        "points must be a tuple of PlotPoints",
    ),
    "PlotModel-points-plain-tuple": (
        lambda: _model(points=((1, 0, 1, 0, "Nil"),)), "points must be a tuple of PlotPoints"
    ),
    "PlotModel-points-list": (
        lambda: _model(points=[PlotPoint(1, 0, 1, 0, "Nil")]),
        "points must be a tuple, got [PlotPoint(m=1, n=0, p=1, q=0, geometry='Nil')]",
    ),
    "PlotModel-points-none-m": (
        lambda: _model(points=(PlotPoint(1, 0, 1, 0, "Nil"), PlotPoint(None, 0, 1, 0, "Nil"))),
        "points must hold integers m, n, p, q and a geometry name, "
        "got PlotPoint(m=None, n=0, p=1, q=0, geometry='Nil')",
    ),
    "PlotModel-points-bool-m-float-n": (
        lambda: _model(points=(PlotPoint(True, 1.5, 1, 0, "Nil"),)), "points must hold integers"
    ),
    "PlotModel-points-fraction-q": (
        lambda: _model(points=(PlotPoint(1, 0, 1, Fraction(0), "Nil"),)), "points must hold integers"
    ),
    "PlotModel-points-none-geometry": (
        lambda: _model(points=(PlotPoint(1, 0, 1, 0, None),)), "points must hold integers"
    ),
    "build_plot-knot-none": (
        lambda: build_plot(None, PlotWindow(4, -2, 2)), "knot must be a TorusKnot, got None"
    ),
    "build_plot-window-none": (lambda: build_plot(TREFOIL, None), "window must be a PlotWindow"),
}


class TestMalformedShapes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_a_value_error_naming_the_field(self, case):
        call, start = MALFORMED[case]
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value).startswith(start), str(exc.value)

    def test_any_iterable_of_pairs_still_builds(self):
        pairs = ((2, 1), (3, 1), (5, 1))
        assert SeifertSignature(-1, iter(pairs)) == SeifertSignature(-1, [list(p) for p in pairs])


def _once(*items):
    """A one-shot iterator over items."""
    return (item for item in items)


# id -> (fibers, the error): the signature reads its input once, so a
# one-shot iterator gives the error that a tuple of the same pairs gives.
ONE_PASS = {
    "generator-three-pairs": (
        lambda: _once((2, 1), (4, 2), (3, 1)), "fibre pair (4, 2) is not coprime"
    ),
    "generator-two-pairs": (lambda: _once((2, 1), (4, 2)), "fibre pair (4, 2) is not coprime"),
    "pair-iterator": (lambda: (_once(6, 4), (3, 1)), "fibre pair (6, 4) is not coprime"),
    "str": (lambda: "abc", "fibers must be a sequence of pairs (a, b), got 'abc'"),
    "zero-then-not-coprime": (
        lambda: _once((2, 1), (0, 1), (4, 2)), "fibre multiplicity must be >= 1, got 0"
    ),
    "not-coprime-then-zero": (lambda: ((4, 2), (0, 1), (2, 1)), "fibre pair (4, 2) is not coprime"),
}


class TestOnePassInput:
    @pytest.mark.parametrize("case", sorted(ONE_PASS))
    def test_gives_the_error_of_the_same_pairs_in_a_tuple(self, case):
        fibers, message = ONE_PASS[case]
        with pytest.raises(ValueError) as exc:
            SeifertSignature(0, fibers())
        assert str(exc.value) == message
        if case != "str":
            with pytest.raises(ValueError) as exc:
                SeifertSignature(0, tuple(tuple(pair) for pair in fibers()))
            assert str(exc.value) == message

    def test_a_pair_iterator_is_read_once(self):
        assert SeifertSignature(-1, (iter((2, 1)), _once(3, 1), (5, 1))) == SeifertSignature(-1, POINCARE)
