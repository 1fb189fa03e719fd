"""Surgery-line diagrams: one marker per primitive ray, plus the
sphericity band of the knot.

The picture lives in the (x, y) plane of the line model: the manifold
obtained on ray l_{m/n} is drawn at the lattice point (m, n), the band
x_U < x < x_L is shaded (its boundaries are the only vertical lines
carrying data coordinates), the dashed line through the origin is the
e = 0 ray, and integer abscissas inside the band are flagged as the
spherical orbifold labels.  Markers: filled diamond for spherical
structures, square for Nil/Euclidean, circle for SL2R/H2xR, cross for
no structure.

Rendering is deterministic: same model, same bytes.  All geometry is
emitted in data coordinates inside one uniformly scaled group, so the
coordinate text of the band boundaries is the exact abscissa.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import groupby, repeat
from operator import itemgetter

from .arith import TWO_PI, _Value, _require
from .seifert import _GEOMETRIES
from .surgery import TorusKnot, _column, _column_names, _euler_zero_slope, _orbifold_xs, x_limits


class PlotWindow(_Value):
    __slots__ = ("x_max", "y_min", "y_max")
    _KINDS = ((int, Fraction), int, int)

    def __init__(self, x_max: Fraction, y_min: int, y_max: int):
        self._set(x_max, y_min, y_max)
        if x_max < 1:
            raise ValueError("window needs x_max >= 1")
        if y_min > y_max:
            raise ValueError("window needs y_min <= y_max")


PlotPoint = namedtuple("PlotPoint", "m n p q geometry")
_POINT_TYPES = (int, int, int, int, str)


class PlotModel(_Value):
    """A classified window of the knot's diagram; the band, the e = 0 ray
    and the orbifold labels are the knot's.  Built by hand, every point is
    checked; build_plot's model is valid by construction and skips that."""

    __slots__ = ("knot", "window", "points")
    _KINDS = (TorusKnot, PlotWindow, tuple)

    def __init__(self, knot: TorusKnot, window: PlotWindow, points: tuple[PlotPoint, ...]):
        self._set(knot, window, points)
        if not set(map(type, points)) <= {PlotPoint}:
            raise ValueError("points must be a tuple of PlotPoints")
        for point in points:
            if tuple(map(type, point)) != _POINT_TYPES:
                raise ValueError("points must hold integers m, n, p, q and a geometry name, got %r" % (point,))


def build_plot(knot: TorusKnot, window: PlotWindow) -> PlotModel:
    """Classify every primitive lattice point inside the window at 2*pi."""
    PlotModel._check(knot, window)
    z, points = _euler_zero_slope(knot), []
    # tuple.__new__ turns each row into a PlotPoint in C, with no Python call per point.
    for m, (flat,), (twisted,) in _column_names(knot, int(window.x_max), (TWO_PI,)):
        rows = _column(z, m, window.y_min, window.y_max, flat, twisted)
        points += map(tuple.__new__, repeat(PlotPoint), rows)
    return PlotModel._unchecked(knot, window, tuple(points))


# A marker's shape from its geometry name: circle, square and diamond for
# negative, zero and positive curvature, by the rows of the geometry table;
# any other name is a cross (3).
_MARKER = {g.value: i for i, sign in enumerate((-1, 0, 1)) for g in _GEOMETRIES[sign]}


# A number's text: the same as format(float(v), ".12g") for an int, float
# or Fraction, and for an int or float formatted in C with no Python call.
_num = "%.12g".__mod__


_LEGEND = (
    ("diamond", "Spherical / S2xR"),
    ("square", "Nil / Euclidean"),
    ("circle", "SL2R / H2xR"),
    ("cross", "no structure"),
)

_LINE = '<line class="%s" x1="%s" y1="%s" x2="%s" y2="%s"/>'
_TEXT = '<text x="%s" y="%s"%s>%s</text>'


def render_svg(model: PlotModel) -> str:
    """Standalone SVG 1.1 text for the model; byte-deterministic."""
    _require(model, "model", PlotModel)
    x_lo, x_hi = -0.5, float(model.window.x_max) + 0.5
    y_lo, y_hi = model.window.y_min - 0.5, model.window.y_max + 0.5
    left, right, bottom, top = _num(x_lo), _num(x_hi), _num(y_lo), _num(y_hi)
    margin_l, margin_r, margin_t, margin_b = 46.0, 16.0, 34.0, 36.0
    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    scale = min(560.0 / span_x, 420.0 / span_y)
    width = margin_l + scale * span_x + margin_r
    height = margin_t + scale * span_y + margin_b
    tx = margin_l - scale * x_lo
    ty = margin_t + scale * y_hi

    h = 4.0 / scale
    thin = _num(0.8 / scale)
    mid = _num(1.4 / scale)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%s" height="%s">' % (_num(width), _num(height))
    )
    out.append(
        "<style>"
        ".pt{stroke:#1a1a1a;stroke-width:%s;fill:none}"
        ".pt.spherical{fill:#1a6fb8;stroke:#1a6fb8}"
        ".pt.flat{fill:#c8861a}"
        ".pt.negative{fill:none}"
        ".band{fill:#9ec9e8;fill-opacity:0.35;stroke:none}"
        ".boundary{stroke:#1a6fb8;stroke-width:%s}"
        ".boundary.upper{stroke-dasharray:%s}"
        ".euler-zero{stroke:#777777;stroke-width:%s;stroke-dasharray:%s}"
        ".axis{stroke:#333333;stroke-width:%s}"
        ".tick{stroke:#333333;stroke-width:%s}"
        ".orbifold-x{stroke:#b03030;stroke-width:%s}"
        "text{font-family:monospace;font-size:11px;fill:#1a1a1a}"
        "</style>"
        % (
            thin, mid, _num(6.0 / scale), thin, _num(4.0 / scale),
            thin, thin, mid,
        )
    )
    out.append(
        '<g transform="translate(%s %s) scale(%s %s)">'
        % (_num(tx), _num(ty), _num(scale), _num(-scale))
    )

    x_upper, x_lower = x_limits(model.knot)
    x_u, x_l = float(x_upper), float(x_lower)
    upper, lower = _num(x_u), _num(x_l)
    band_hi = min(x_l, x_hi)
    out.append(
        '<rect class="band" x="%s" y="%s" width="%s" height="%s"/>'
        % (upper, bottom, _num(max(band_hi - x_u, 0.0)), _num(span_y))
    )
    for cls, x_b, text in (("boundary upper", x_u, upper), ("boundary lower", x_l, lower)):
        if x_lo <= x_b <= x_hi:
            out.append(_LINE % (cls, text, bottom, text, top))

    # e = 0 ray through the origin: y = x / slope.
    y_end = x_hi / _euler_zero_slope(model.knot)
    out.append(_LINE % ("euler-zero", "0", "0", right, _num(y_end)))
    out.append(_LINE % ("axis", left, "0", right, "0"))
    out.append(_LINE % ("axis", "0", bottom, "0", top))
    columns = list(map(str, range(int(model.window.x_max) + 1)))
    for x in columns:
        out.append(_LINE % ("tick", x, "-0.12", x, "0.12"))
    for x in _orbifold_xs(x_upper, x_lower):
        if x > x_hi:  # clipped to the canvas, as the boundary lines are
            break
        out.append(_LINE % ("orbifold-x", _num(x), "-0.3", _num(x), "0.3"))

    # A point's marker is one lookup from its geometry name.  Each column
    # formats its x texts into the four marker heads once, and each row its
    # y texts into the tails.  A circle or square is head + tail; a diamond
    # or cross interleaves x and y, so its head is a template for the tail.
    circle_end = '" r="%s"/>' % _num(h)
    square_end = '" width="%s" height="%s"/>' % (_num(2 * h), _num(2 * h))
    tails = {}
    for y in set(map(itemgetter(1), model.points)):
        yc, yp, ym = _num(y), _num(y + h), _num(y - h)
        tails[y] = (yc + circle_end, ym + square_end, (yp, yc, ym, yc), (ym, yp, yp, ym))
    marker, add, column = _MARKER.get, out.append, None
    for x, y, _, _, g in model.points:
        if x != column:
            column, xc, xp, xm = x, _num(x), _num(x + h), _num(x - h)
            heads = (
                '<circle class="pt negative" cx="%s" cy="' % xc,
                '<rect class="pt flat" x="%s" y="' % xm,
                '<path class="pt spherical" d="M %s %%s L %s %%s L %s %%s L %s %%s Z"/>' % (xc, xp, xc, xm),
                '<path class="pt excluded" d="M %s %%s L %s %%s M %s %%s L %s %%s"/>' % (xm, xp, xm, xp),
            )
        i = marker(g, 3)
        add(heads[i] + tails[y][i] if i < 2 else heads[i] % tails[y][i])
    out.append("</g>")

    title = "%s: x_U=%s x_L=%s" % (model.knot, upper, lower)
    out.append(_TEXT % (_num(margin_l), "20", "", title))
    baseline = _num(ty - scale * y_lo + 14.0)
    for x, text in enumerate(columns):
        out.append(_TEXT % (_num(tx + scale * x), baseline, ' text-anchor="middle"', text))
    legend_y = _num(height - 8.0)
    for i, entry in enumerate(_LEGEND):
        out.append(_TEXT % (_num(margin_l + 130.0 * i), legend_y, "", "%s = %s" % entry))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def export_csv(model: PlotModel) -> str:
    """CSV of the classified manifold points: m,n,p,q,x,geometry."""
    _require(model, "model", PlotModel)
    lines = ["m,n,p,q,x,geometry"]
    for m, column in groupby(model.points, itemgetter(0)):
        head = f"{m},"
        lines += [f"{head}{n},{p},{q},{head}{g}" for _, n, p, q, g in column]
    return "\n".join(lines) + "\n"
