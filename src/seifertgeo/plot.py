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

from .arith import Handedness, TWO_PI, _Value
from .seifert import _GEOMETRIES
from .surgery import (
    TorusKnot,
    _ray_geometries,
    spherical_orbifold_angles,
    x_limits,
)


class PlotWindow(_Value):
    __slots__ = ("x_max", "y_min", "y_max")

    def __init__(self, x_max: Fraction, y_min: int, y_max: int):
        if x_max < 1:
            raise ValueError("window needs x_max >= 1")
        if y_min > y_max:
            raise ValueError("window needs y_min <= y_max")
        self._set(x_max, y_min, y_max)


PlotPoint = namedtuple("PlotPoint", "m n p q geometry")


class PlotModel(_Value):
    __slots__ = (
        "knot", "window", "x_upper", "x_lower", "euler_zero_slope", "orbifold_xs", "points"
    )

    def __init__(
        self, knot: TorusKnot, window: PlotWindow, x_upper: Fraction, x_lower: Fraction,
        euler_zero_slope: int, orbifold_xs: tuple[int, ...], points: tuple[PlotPoint, ...],
    ):
        self._set(knot, window, x_upper, x_lower, euler_zero_slope, orbifold_xs, points)


def build_plot(knot: TorusKnot, window: PlotWindow) -> PlotModel:
    """Classify every primitive lattice point inside the window at 2*pi."""
    x_upper, x_lower = x_limits(knot)
    rs = knot.r * knot.s
    slope = rs if knot.hand is Handedness.LEFT else -rs
    points = []
    rays = _ray_geometries(
        knot, int(window.x_max), (window.y_min, window.y_max), (TWO_PI,)
    )
    for m, n, p, q, (geometry,) in rays:
        points.append(PlotPoint(m, n, p, q, str(geometry)))
    return PlotModel(
        knot=knot,
        window=window,
        x_upper=x_upper,
        x_lower=x_lower,
        euler_zero_slope=slope,
        orbifold_xs=tuple(x for x, _ in spherical_orbifold_angles(knot)),
        points=tuple(points),
    )


# One marker shape per row of the geometry table: positive, zero, negative curvature.
_SPHERICAL, _FLAT, _NEGATIVE = ({g.value for g in _GEOMETRIES[sign]} for sign in (1, 0, -1))


def _num(v) -> str:
    return format(float(v), ".12g")


def _marker(point: PlotPoint, h: float) -> str:
    x, y, g = point.m, point.n, point.geometry
    if g in _SPHERICAL:
        d = "M %s %s L %s %s L %s %s L %s %s Z" % (
            _num(x), _num(y + h), _num(x + h), _num(y),
            _num(x), _num(y - h), _num(x - h), _num(y),
        )
        return '<path class="pt spherical" d="%s"/>' % d
    if g in _FLAT:
        return '<rect class="pt flat" x="%s" y="%s" width="%s" height="%s"/>' % (
            _num(x - h), _num(y - h), _num(2 * h), _num(2 * h),
        )
    if g in _NEGATIVE:
        return '<circle class="pt negative" cx="%s" cy="%s" r="%s"/>' % (
            _num(x), _num(y), _num(h),
        )
    d = "M %s %s L %s %s M %s %s L %s %s" % (
        _num(x - h), _num(y - h), _num(x + h), _num(y + h),
        _num(x - h), _num(y + h), _num(x + h), _num(y - h),
    )
    return '<path class="pt excluded" d="%s"/>' % d


_LEGEND = (
    ("spherical", "diamond", "Spherical / S2xR"),
    ("flat", "square", "Nil / Euclidean"),
    ("negative", "circle", "SL2R / H2xR"),
    ("excluded", "cross", "no structure"),
)


def render_svg(model: PlotModel) -> str:
    """Standalone SVG 1.1 text for the model; byte-deterministic."""
    x_lo, x_hi = -0.5, float(model.window.x_max) + 0.5
    y_lo, y_hi = model.window.y_min - 0.5, model.window.y_max + 0.5
    margin_l, margin_r, margin_t, margin_b = 46.0, 16.0, 34.0, 36.0
    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    scale = min(560.0 / span_x, 420.0 / span_y)
    width = margin_l + scale * span_x + margin_r
    height = margin_t + scale * span_y + margin_b
    tx = margin_l - scale * x_lo
    ty = margin_t + scale * y_hi

    def px(x, y):
        return tx + scale * x, ty - scale * y

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

    x_u, x_l = float(model.x_upper), float(model.x_lower)
    band_hi = min(x_l, x_hi)
    out.append(
        '<rect class="band" x="%s" y="%s" width="%s" height="%s"/>'
        % (_num(x_u), _num(y_lo), _num(max(band_hi - x_u, 0.0)), _num(span_y))
    )
    for cls, x_b in (("boundary upper", x_u), ("boundary lower", x_l)):
        if x_lo <= x_b <= x_hi:
            out.append(
                '<line class="%s" x1="%s" y1="%s" x2="%s" y2="%s"/>'
                % (cls, _num(x_b), _num(y_lo), _num(x_b), _num(y_hi))
            )

    # e = 0 ray through the origin and (|slope|, sign).
    sgn = 1 if model.euler_zero_slope > 0 else -1
    rs = abs(model.euler_zero_slope)
    y_end = sgn * x_hi / rs
    out.append(
        '<line class="euler-zero" x1="0" y1="0" x2="%s" y2="%s"/>'
        % (_num(x_hi), _num(y_end))
    )

    out.append(
        '<line class="axis" x1="%s" y1="0" x2="%s" y2="0"/>'
        % (_num(x_lo), _num(x_hi))
    )
    out.append(
        '<line class="axis" x1="0" y1="%s" x2="0" y2="%s"/>'
        % (_num(y_lo), _num(y_hi))
    )
    for x in range(0, int(model.window.x_max) + 1):
        out.append(
            '<line class="tick" x1="%s" y1="%s" x2="%s" y2="%s"/>'
            % (_num(x), _num(-0.12), _num(x), _num(0.12))
        )
    for x in model.orbifold_xs:
        out.append(
            '<line class="orbifold-x" x1="%s" y1="%s" x2="%s" y2="%s"/>'
            % (_num(x), _num(-0.3), _num(x), _num(0.3))
        )

    for point in model.points:
        out.append(_marker(point, h))
    out.append("</g>")

    title = "%s: x_U=%s x_L=%s" % (model.knot, _num(x_u), _num(x_l))
    out.append('<text x="%s" y="%s">%s</text>' % (_num(margin_l), _num(20.0), title))
    for x in range(0, int(model.window.x_max) + 1):
        cx, cy = px(x, y_lo)
        out.append(
            '<text x="%s" y="%s" text-anchor="middle">%d</text>'
            % (_num(cx), _num(cy + 14.0), x)
        )
    for i, (cls, shape, label) in enumerate(_LEGEND):
        lx = margin_l + 130.0 * i
        ly = height - 8.0
        out.append(
            '<text x="%s" y="%s">%s = %s</text>' % (_num(lx), _num(ly), shape, label)
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def export_csv(model: PlotModel) -> str:
    """CSV of the classified manifold points: m,n,p,q,x,geometry."""
    lines = ["m,n,p,q,x,geometry"]
    for pt in model.points:
        lines.append("%d,%d,%d,%d,%d,%s" % (pt.m, pt.n, pt.p, pt.q, pt.m, pt.geometry))
    return "\n".join(lines) + "\n"
