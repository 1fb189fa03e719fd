"""Command line front end.

Subcommands: classify, cone, limits, surgery, identify, plot, atlas.
Results go to standard output, as JSON with --json and as plain
key/value text otherwise.  Exit codes: 0 success, 2 usage error
(argparse), 1 domain error or a batch over WORK_LIMIT, reported as a
JSON error object.

The plot module is imported on demand, by the plot subcommand only, and
the argument parser is built once per process, on the first run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .arith import Handedness, PiRational, TWO_PI
from .base2d import classify_triangle
from .cone3d import ConeStructure, classify_cone, sphericity_limits
from .seifert import (
    FamilyKind,
    SeifertSignature,
    euler_number,
    homology_order,
    identify_family,
    manifold_geometry,
    named_family,
    normalize,
    orbifold_euler_char,
)
from .surgery import SurgerySpec, TorusKnot, atlas, classify_surgery_cone, line_of_surgery, surgery_signature

# Most rays times angles (atlas) or lattice points (plot) one command may ask for.
WORK_LIMIT = 10 ** 6


class WorkLimitError(ValueError):
    """A batch command asked for more than WORK_LIMIT items."""


def _check_work(bound: int, what: str) -> None:
    if bound > WORK_LIMIT:
        raise WorkLimitError(
            "%s would classify more than the limit of %d items; narrow its ranges"
            % (what, WORK_LIMIT)
        )


def _write_files(outputs) -> None:
    """Write each (path, text), or none of them if a path cannot be opened.

    Every path is first opened for appending, which truncates nothing;
    when one of those opens fails, the files they created are removed.
    """
    created = []
    try:
        for path, _ in outputs:
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise
    for path, text in outputs:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _arg(parse):
    """argparse type that reports a ValueError of parse as a usage error
    with the error's own message."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


def _int(text: str) -> int:
    """An optional '-' and ASCII digits, nothing else: no spaces, '+',
    '_' or non-ASCII digits, all of which int() would take."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("expected an integer, got %r" % text)
    return int(text)


def _ints(form: str, sep: str):
    """Parser of integers written as form, such as 'r,s', split at sep."""
    count = len(form.split(sep))

    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(sep)
        if len(parts) != count:
            raise ValueError("expected '%s', got %r" % (form, text))
        try:
            return tuple(_int(part) for part in parts)
        except ValueError:
            raise ValueError("expected integers as '%s', got %r" % (form, text)) from None

    return parse


def _slope(text: str) -> tuple[int, int]:
    p, q = _ints("p/q", "/")(text)
    # canonical form keeps the sign in q
    return (-p, -q) if p < 0 else (p, q)


def _angles(text: str) -> list[PiRational]:
    return [PiRational.parse(part) for part in text.split(",")]


def _emit(args, payload: dict) -> int:
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print("%s\t%s" % (key, _human(value)))
    return 0


def _human(value):
    if value is None:
        return "infinite"
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def _family_label(sig: SeifertSignature) -> str:
    family = identify_family(sig)
    if family.kind is FamilyKind.BRIESKORN:
        named = named_family(sig)
        if named.kind is not FamilyKind.GENERIC:
            return "%s-compatible %s" % (named, family)
    return str(family)


def _cmd_classify(args) -> int:
    sig = args.sig
    return _emit(
        args,
        {
            "euler": str(euler_number(sig)),
            "chi": str(orbifold_euler_char(sig)),
            "geometry": manifold_geometry(sig).value,
            "homology_order": homology_order(sig),
        },
    )


def _cmd_cone(args) -> int:
    angles = list(args.angles)
    while len(angles) < 3:
        angles.append(TWO_PI)
    cs = ConeStructure(args.sig, angles)
    result = classify_cone(cs)
    return _emit(
        args,
        {
            "geometry": str(result),
            "region": classify_triangle(cs.base_point()).value,
        },
    )


def _cmd_limits(args) -> int:
    a1, a2, a3 = args.fibers
    others = [a for i, a in enumerate((a1, a2, a3), start=1) if i != args.singular]
    singular = (a1, a2, a3)[args.singular - 1]
    interval = sphericity_limits(others[0], others[1], singular)
    ratio = None
    if interval.beta_lower.coeff != 0:
        ratio = str(interval.ratio())
    return _emit(
        args,
        {
            "beta_L": interval.beta_lower.text(),
            "beta_U": interval.beta_upper.text(),
            "ratio": ratio,
        },
    )


def _cmd_surgery(args) -> int:
    r, s = args.knot
    knot = TorusKnot(r, s, args.hand)
    p, q = args.slope
    spec = SurgerySpec(knot, p, q)
    sig = surgery_signature(spec)
    point = line_of_surgery(spec)
    beta = args.beta if args.beta is not None else TWO_PI
    geometry = classify_surgery_cone(spec, beta)
    norm = normalize(sig)
    return _emit(
        args,
        {
            "knot": knot.to_json(),
            "slope": spec.slope_text(),
            "signature": sig.to_json(),
            "line": {"m": point.m, "n": point.n},
            "beta": beta.text(),
            "euler": str(euler_number(sig)),
            "geometry": str(geometry),
            "homology_order": homology_order(sig),
            "family": _family_label(norm),
        },
    )


def _cmd_identify(args) -> int:
    sig = normalize(args.sig)
    return _emit(args, {"family": _family_label(sig)})


def _cmd_plot(args) -> int:
    from .plot import PlotWindow, build_plot, export_csv, render_svg

    r, s = args.knot
    knot = TorusKnot(r, s, args.hand)
    if args.xmax < 1:
        raise ValueError("--xmax must be >= 1")
    y_min = args.ymin if args.ymin is not None else 0
    y_max = args.ymax if args.ymax is not None else args.xmax
    _check_work(args.xmax * max(y_max - y_min + 1, 0), "plot")
    window = PlotWindow(Fraction(args.xmax), y_min, y_max)
    model = build_plot(knot, window)
    outputs = [(args.out, render_svg(model))]
    if args.csv:
        outputs.append((args.csv, export_csv(model)))
    _write_files(outputs)
    return _emit(
        args,
        {"out": args.out, "csv": args.csv or None, "points": len(model.points)},
    )


def _cmd_atlas(args) -> int:
    r, s = args.knot
    knot = TorusKnot(r, s, args.hand)
    n_lo, n_hi = args.nrange
    # An empty n range still loops over m and builds the k angles.
    _check_work(
        max(args.mmax, 0) * max(n_hi - n_lo + 1, 1) * max(args.kmax, 0), "atlas"
    )
    records = atlas(knot, args.mmax, args.nrange, args.kmax)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
        handle.write("\n")
    return _emit(args, {"out": args.out, "records": len(records)})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seifertgeo",
        description="Geometries of Seifert conemanifold structures and torus knot surgeries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--json", action="store_true", help="emit JSON")
        cmd.set_defaults(func=func)
        return cmd

    cmd = add("classify", _cmd_classify, "invariants and geometry of a signature")
    cmd.add_argument("--sig", type=_arg(SeifertSignature.from_json), required=True)

    cmd = add("cone", _cmd_cone, "geometry of a cone structure")
    cmd.add_argument("--sig", type=_arg(SeifertSignature.from_json), required=True)
    cmd.add_argument("--angles", type=_arg(_angles), required=True)

    cmd = add("limits", _cmd_limits, "sphericity limits of a singular fibre")
    cmd.add_argument("--fibers", type=_arg(_ints("a1,a2,a3", ",")), required=True)
    cmd.add_argument("--singular", type=_arg(_int), choices=(1, 2, 3), default=3)

    cmd = add("surgery", _cmd_surgery, "classify a Dehn surgery on a torus knot")
    cmd.add_argument("--knot", type=_arg(_ints("r,s", ",")), required=True)
    cmd.add_argument("--hand", type=_arg(Handedness.parse), required=True)
    cmd.add_argument("--slope", type=_arg(_slope), required=True)
    cmd.add_argument("--beta", type=_arg(PiRational.parse), default=None)

    cmd = add("identify", _cmd_identify, "standard family of a signature")
    cmd.add_argument("--sig", type=_arg(SeifertSignature.from_json), required=True)

    cmd = add("plot", _cmd_plot, "render the surgery-line diagram of a knot")
    cmd.add_argument("--knot", type=_arg(_ints("r,s", ",")), required=True)
    cmd.add_argument("--hand", type=_arg(Handedness.parse), required=True)
    cmd.add_argument("--xmax", type=_arg(_int), required=True)
    cmd.add_argument("--out", required=True)
    cmd.add_argument("--csv", default=None)
    cmd.add_argument("--ymin", type=_arg(_int), default=None)
    cmd.add_argument("--ymax", type=_arg(_int), default=None)

    cmd = add("atlas", _cmd_atlas, "batch-classify orbifold structures on surgery lines")
    cmd.add_argument("--knot", type=_arg(_ints("r,s", ",")), required=True)
    cmd.add_argument("--hand", type=_arg(Handedness.parse), required=True)
    cmd.add_argument("--mmax", type=_arg(_int), required=True)
    cmd.add_argument("--nrange", type=_arg(_ints("A..B", "..")), required=True)
    cmd.add_argument("--kmax", type=_arg(_int), required=True)
    cmd.add_argument("--out", required=True)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        kind = "limit" if isinstance(exc, WorkLimitError) else "domain"
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}))
        return 1


def main() -> None:
    sys.exit(run())
