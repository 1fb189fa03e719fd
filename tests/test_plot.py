"""Geometry plots: lattice model, SVG rendering, CSV export."""

import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from seifertgeo.arith import Handedness, TWO_PI
from seifertgeo.plot import PlotModel, PlotPoint, PlotWindow, build_plot, export_csv, render_svg
from seifertgeo.surgery import (
    LinePoint,
    TorusKnot,
    classify_surgery_cone,
    spherical_orbifold_angles,
    surgery_of_line,
    x_limits,
)

L = Handedness.LEFT


def svg_lines(text, cls):
    """<line> elements whose class attribute is exactly cls."""
    root = ET.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    return [el for el in root.iter(ns + "line") if el.get("class") == cls]


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlotWindow(Fraction(0), 0, 1)
        with pytest.raises(ValueError):
            PlotWindow(Fraction(4), 2, 1)


class TestPoints:
    @pytest.mark.parametrize("hand", list(Handedness))
    def test_every_point_is_a_plot_point(self, hand):
        model = build_plot(TorusKnot(5, 3, hand), PlotWindow(Fraction(41, 2), -15, 15))
        assert model.points
        for pt in model.points:
            assert type(pt) is PlotPoint
            assert pt._fields == ("m", "n", "p", "q", "geometry")
            assert pt == PlotPoint(pt.m, pt.n, pt.p, pt.q, pt.geometry)


class TestCSV:
    def test_trefoil_rows(self):
        model = build_plot(TorusKnot(3, 2, L), PlotWindow(Fraction(6), 1, 1))
        text = export_csv(model)
        lines = text.strip().split("\n")
        assert lines[0] == "m,n,p,q,x,geometry"
        assert "5,1,1,-1,5,Spherical" in lines
        assert "6,1,0,1,6,Euclidean" in lines

    def test_43_no_structure_at_one(self):
        model = build_plot(TorusKnot(4, 3, L), PlotWindow(Fraction(6), -2, 2))
        lines = export_csv(model).strip().split("\n")
        assert "1,1,11,-1,1,NoStructure" in lines
        # x_L = 12/5 is not an integer, so no lattice point is Nil
        assert not any(line.endswith(",Nil") for line in lines)

    def test_rows_match_classifier(self):
        for knot in (TorusKnot(3, 2, L), TorusKnot(5, 2, Handedness.RIGHT)):
            model = build_plot(knot, PlotWindow(Fraction(8), -3, 3))
            lines = export_csv(model).strip().split("\n")[1:]
            assert len(lines) == len(model.points)
            for line in lines:
                m, n, p, q, x, geom = line.split(",")
                m, n, p, q, x = map(int, (m, n, p, q, x))
                assert x == m
                spec = surgery_of_line(knot, LinePoint(m, n))
                assert (spec.p, spec.q) == (p, q)
                assert str(classify_surgery_cone(spec, TWO_PI)) == geom

    def test_skips_zero_and_non_primitive(self):
        model = build_plot(TorusKnot(3, 2, L), PlotWindow(Fraction(6), -2, 2))
        pts = {(pt.m, pt.n) for pt in model.points}
        assert (2, 0) not in pts
        assert (1, 0) in pts
        assert (2, 2) not in pts
        assert (4, 2) not in pts


class TestSVG:
    def test_boundary_abscissas(self):
        knot = TorusKnot(3, 2, L)
        text = render_svg(build_plot(knot, PlotWindow(Fraction(8), -2, 2)))
        x_u, x_l = x_limits(knot)
        (upper,) = svg_lines(text, "boundary upper")
        (lower,) = svg_lines(text, "boundary lower")
        assert abs(float(upper.get("x1")) - float(x_u)) <= 1e-9
        assert abs(float(upper.get("x2")) - float(x_u)) <= 1e-9
        assert abs(float(lower.get("x1")) - float(x_l)) <= 1e-9

    def test_boundary_outside_window_dropped(self):
        # x_L = 6 lies beyond x_max = 3: only the upper line is drawn
        text = render_svg(build_plot(TorusKnot(3, 2, L), PlotWindow(Fraction(3), 0, 1)))
        assert len(svg_lines(text, "boundary upper")) == 1
        assert svg_lines(text, "boundary lower") == []

    def test_orbifold_markers(self):
        knot = TorusKnot(5, 2, L)
        model = build_plot(knot, PlotWindow(Fraction(4), 0, 2))
        assert [x for x, _ in spherical_orbifold_angles(knot)] == [2, 3]
        marks = svg_lines(render_svg(model), "orbifold-x")
        assert sorted(float(el.get("x1")) for el in marks) == [2.0, 3.0]

    def test_byte_determinism(self):
        def build():
            model = build_plot(TorusKnot(4, 3, L), PlotWindow(Fraction(7), -3, 3))
            return render_svg(model).encode("utf-8"), export_csv(model).encode("utf-8")

        first, second = build(), build()
        assert first == second

    def test_empty_model_renders(self):
        model = PlotModel(knot=TorusKnot(3, 2, L), window=PlotWindow(Fraction(2), 0, 1), points=())
        text = render_svg(model)
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert sorted(float(el.get("x1")) for el in svg_lines(text, "orbifold-x")) == [2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("hand", list(Handedness))
    def test_hand_built_model_draws_the_knots_band(self, hand):
        # The band 6/5 < x < 6 and the e = 0 ray come from the knot alone.
        assert PlotModel.__slots__ == ("knot", "window", "points")
        knot = TorusKnot(3, 2, hand)
        text = render_svg(PlotModel(knot, PlotWindow(4, -2, 2), ()))
        assert ">%s: x_U=1.2 x_L=6</text>" % knot in text
        (ray,) = svg_lines(text, "euler-zero")
        slope = 6 if hand is L else -6
        assert float(ray.get("y2")) == pytest.approx(4.5 / slope)

    def test_built_model_passes_every_check(self):
        # build_plot skips PlotModel's checks; the same fields must pass them
        for knot in (TorusKnot(3, 2, L), TorusKnot(5, 3, Handedness.RIGHT)):
            model = build_plot(knot, PlotWindow(Fraction(9, 2), -4, 4))
            fields = {name: getattr(model, name) for name in model.__slots__}
            assert PlotModel(**fields) == model
            assert model.points and all(type(pt) is PlotPoint for pt in model.points)

    def test_marker_shapes_follow_geometry(self):
        model = build_plot(TorusKnot(3, 2, L), PlotWindow(Fraction(7), -2, 2))
        text = render_svg(model)
        by_geom = {}
        for pt in model.points:
            by_geom.setdefault(pt.geometry, []).append(pt)
        assert text.count('class="pt spherical"') == sum(
            len(v) for g, v in by_geom.items() if g in ("Spherical", "S2xR")
        )
        assert text.count('class="pt flat"') == sum(
            len(v) for g, v in by_geom.items() if g in ("Nil", "Euclidean")
        )
        assert text.count('class="pt excluded"') == len(
            by_geom.get("NoStructure", ())
        )
