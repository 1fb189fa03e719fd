"""Golden outputs: SVG, CSV and atlas JSON pinned by SHA-256.

The digests were computed once and written here as literals, so a change
to the plot or atlas code must reproduce the earlier bytes exactly, not
merely agree with itself.  Each digest covers every knot with r <= 13,
both hands, in the order of knots() below; each text is followed by a
NUL byte.  The windows off that grid (a non-integer x_max, a single
row) and a hand-built model whose points lie outside its window are
pinned the same way.
"""

import hashlib
import io
import json
import math
from fractions import Fraction

import pytest

from seifertgeo.arith import Handedness
from seifertgeo.plot import PlotModel, PlotPoint, PlotWindow, build_plot, export_csv, render_svg
from seifertgeo.surgery import TorusKnot, atlas


def knots():
    for r in range(3, 14):
        for s in range(2, r):
            if math.gcd(r, s) == 1:
                for hand in (Handedness.LEFT, Handedness.RIGHT):
                    yield TorusKnot(r, s, hand)


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def atlas_json(knot, n_range, k_max):
    buf = io.StringIO()
    json.dump(atlas(knot, 12, n_range, k_max), buf, indent=1)
    return buf.getvalue()


@pytest.fixture(scope="module")
def models():
    return [
        build_plot(knot, PlotWindow(Fraction(20), y0, y0 + 30))
        for knot in knots()
        for y0 in (-30, -15, 0)
    ]


def test_knot_grid():
    assert sum(1 for _ in knots()) == 90


def test_svg(models):
    assert digest(map(render_svg, models)) == (
        "c39547419ff2b158dae72c08b4e527d7351745f586a096569142a23875d73b9b"
    )


def test_csv(models):
    assert digest(map(export_csv, models)) == (
        "fb9e872454de3490acd839236c1e1ecdefd7ca3cbc4b68bca06d5e29ee6fe4a9"
    )


@pytest.mark.parametrize(
    "n_range, k_max, want",
    [
        ((-8, 8), 6, "7a3926e0fbf8276e2d6e1382125f0af0c746f91a496531d5912b6db9a74387c3"),
        ((1, 0), 6, "8d5d6852e81a643edb519e33bb431f43099af1fbc102073cbc44429c3e3c8bda"),
        ((-8, 8), 1, "cd7e8bf17d81749a92048ba8ff0f2930251453398de53d04eec6833af0778a0a"),
    ],
    ids=["k6", "empty-n-range", "k1"],
)
def test_atlas_json(n_range, k_max, want):
    assert digest(atlas_json(knot, n_range, k_max) for knot in knots()) == want


@pytest.fixture(scope="module")
def off_grid_models():
    return [
        build_plot(knot, window)
        for knot in knots()
        for window in (PlotWindow(Fraction(41, 2), -10, 10), PlotWindow(Fraction(20), 3, 3))
    ]


def hand_built_model():
    """Points in no column order, off the window, with every marker and
    an unknown geometry name, and y values no window row holds."""
    return PlotModel(
        knot=TorusKnot(3, 2, Handedness.LEFT),
        window=PlotWindow(Fraction(4), -2, 2),
        points=(
            PlotPoint(7, 9, 61, 9, "Spherical"),
            PlotPoint(7, -5, 37, -5, "Nil"),
            PlotPoint(1, 0, 1, 0, "NoStructure"),
            PlotPoint(9, 9, 45, 9, "SL2R"),
            PlotPoint(7, 12, 65, 12, "Unknown"),
            PlotPoint(0, -3, 18, -1, "S2xR"),
        ),
    )


def test_off_grid_svg(off_grid_models):
    assert digest(map(render_svg, off_grid_models)) == (
        "e54b5224e1176b6126d79dabf928bb0e94234c376196cf7ecf34d0c81bf28c32"
    )


def test_off_grid_csv(off_grid_models):
    assert digest(map(export_csv, off_grid_models)) == (
        "edf23051537fa77f94885163587ec61948fba4cf701945dfb54c71afb6c8393b"
    )


def test_hand_built_model():
    model = hand_built_model()
    assert digest([render_svg(model), export_csv(model)]) == (
        "7f4c320508998f195173258a8de6752f00e6c69e848a4210247becd662090020"
    )
