"""Command line front end.

Subcommands: classify, cone, limits, surgery, identify, plot, atlas.
Results go to standard output, as JSON with --json and as plain
key/value text otherwise.  Exit codes: 0 success, 2 usage error
(argparse), 1 a JSON error object whose type is "domain" (a value
outside its domain), "limit" (a batch over WORK_LIMIT) or "io" (a
file that cannot be opened or written).

Each handler imports the modules beyond arith and seifert that it
calls, so classify and identify load only those two.  A run whose first
argument names a subcommand builds a parser with that subparser alone;
each parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import __version__
from .arith import Handedness, PiRational, TWO_PI
from .seifert import (
    FamilyKind,
    SeifertSignature,
    euler_number,
    homology_order,
    identify_family,
    manifold_geometry,
    named_family,
    orbifold_euler_char,
)

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
    """Write each (path, chunks), or none if a path cannot be opened or is,
    by os.path.samefile, the file of an earlier path (through a link too).

    Every path is first opened for appending, which truncates nothing.  A
    failure in the opens or in the writes (a full disk, an error raised
    by the chunks) removes the files this call created and re-raises.  A
    file that existed before and was already rewritten is not restored.
    """
    created = []
    try:
        for index, (path, _) in enumerate(outputs):
            existed = os.path.exists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                created.append(os.path.realpath(path))
            if any(os.path.samefile(path, other) for other, _ in outputs[:index]):
                raise ValueError("--out and --csv name the same file %r" % path)
        for path, chunks in outputs:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
    except (OSError, ValueError):
        for path in created:
            os.remove(path)
        raise


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


def _angles(text: str) -> list[PiRational]:
    return [PiRational.parse(part) for part in text.split(",")]


def _emit(args, payload: dict) -> int:
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print("%s\t%s" % (key, _human(key, value)))
    return 0


# Text of a None value: an infinite H1, a ratio undefined at beta_L = 0, a plot without --csv.
_NONE_TEXT = {"homology_order": "infinite", "ratio": "undefined", "csv": "none"}


def _human(key, value):
    if value is None:
        return _NONE_TEXT[key]
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
    from .base2d import classify_triangle
    from .cone3d import ConeStructure, classify_cone

    cs = ConeStructure(args.sig, args.angles + [TWO_PI] * (3 - len(args.angles)))
    return _emit(
        args,
        {
            "geometry": str(classify_cone(cs)),
            "region": classify_triangle(cs.base_point()).value,
        },
    )


def _cmd_limits(args) -> int:
    from .cone3d import sphericity_limits

    others = list(args.fibers)
    singular = others.pop(args.singular - 1)
    lower, upper = sphericity_limits(*others, singular)
    return _emit(
        args,
        {
            "beta_L": lower.text(),
            "beta_U": upper.text(),
            "ratio": str(upper / lower) if lower else None,
        },
    )


def _cmd_surgery(args) -> int:
    from .surgery import SurgerySpec, TorusKnot, classify_surgery_cone, line_of_surgery, surgery_signature

    r, s = args.knot
    knot = TorusKnot(r, s, args.hand)
    p, q = args.slope
    spec = SurgerySpec(knot, p, q)
    sig = surgery_signature(spec)
    m, n = line_of_surgery(spec)
    geometry = classify_surgery_cone(spec, args.beta)
    return _emit(
        args,
        {
            "knot": knot.to_json(),
            "slope": spec.slope_text(),
            "signature": sig.to_json(),
            "line": {"m": m, "n": n},
            "beta": args.beta.text(),
            "euler": str(euler_number(sig)),
            "geometry": str(geometry),
            "homology_order": homology_order(sig),
            "family": _family_label(sig),
        },
    )


def _cmd_identify(args) -> int:
    return _emit(args, {"family": _family_label(args.sig)})


def _cmd_plot(args) -> int:
    from .plot import PlotWindow, build_plot, export_csv, render_svg
    from .surgery import TorusKnot

    r, s = args.knot
    knot = TorusKnot(r, s, args.hand)
    y_max = args.ymax if args.ymax is not None else args.xmax
    _check_work(args.xmax * max(y_max - args.ymin + 1, 0), "plot")
    window = PlotWindow(args.xmax, args.ymin, y_max)
    model = build_plot(knot, window)
    outputs = [(args.out, [render_svg(model)])]
    if args.csv is not None:
        outputs.append((args.csv, [export_csv(model)]))
    _write_files(outputs)
    return _emit(
        args,
        {"out": args.out, "csv": args.csv, "points": len(model.points)},
    )


def _cmd_atlas(args) -> int:
    from .surgery import TorusKnot, atlas

    r, s = args.knot
    knot = TorusKnot(r, s, args.hand)
    n_lo, n_hi = args.nrange
    # The n range counts as at least one row: any non-empty range runs the kernel mmax*kmax times.
    _check_work(
        max(args.mmax, 0) * max(n_hi - n_lo + 1, 1) * max(args.kmax, 0), "atlas"
    )
    records = atlas(knot, args.mmax, args.nrange, args.kmax)
    _write_files([(args.out, itertools.chain(json.JSONEncoder(indent=1).iterencode(records), "\n"))])
    return _emit(args, {"out": args.out, "records": len(records)})


def _opt(flag, type=None, **options):
    """An option of a subcommand, required unless it has a default."""
    return flag, dict(options, type=type, required="default" not in options)


_SIG = _opt("--sig", _arg(SeifertSignature.from_json))
_KNOT = _opt("--knot", _arg(_ints("r,s", ",")))
_HAND = _opt("--hand", _arg(Handedness.parse))

# name -> (handler, help, options after --json), in the order --help lists them
COMMANDS = {
    "classify": (_cmd_classify, "invariants and geometry of a signature", [_SIG]),
    "cone": (_cmd_cone, "geometry of a cone structure", [_SIG, _opt("--angles", _arg(_angles))]),
    "limits": (_cmd_limits, "sphericity limits of a singular fibre", [
        _opt("--fibers", _arg(_ints("a1,a2,a3", ","))),
        _opt("--singular", _arg(_int), choices=(1, 2, 3), default=3),
    ]),
    "surgery": (_cmd_surgery, "classify a Dehn surgery on a torus knot", [
        _KNOT, _HAND, _opt("--slope", _arg(_ints("p/q", "/"))),
        _opt("--beta", _arg(PiRational.parse), default=TWO_PI),
    ]),
    "identify": (_cmd_identify, "standard family of a signature", [_SIG]),
    "plot": (_cmd_plot, "render the surgery-line diagram of a knot", [
        _KNOT, _HAND, _opt("--xmax", _arg(_int)), _opt("--out"), _opt("--csv", default=None),
        _opt("--ymin", _arg(_int), default=0), _opt("--ymax", _arg(_int), default=None),
    ]),
    "atlas": (_cmd_atlas, "batch-classify orbifold structures on surgery lines", [
        _KNOT, _HAND, _opt("--mmax", _arg(_int)), _opt("--nrange", _arg(_ints("A..B", ".."))),
        _opt("--kmax", _arg(_int)), _opt("--out"),
    ]),
}


@functools.cache
def _build_parser(command) -> argparse.ArgumentParser:
    """Parser with the subparser of command alone, or of all for None; its
    usage line names every command either way."""
    parser = argparse.ArgumentParser(
        prog="seifertgeo",
        description="Geometries of Seifert conemanifold structures and torus knot surgeries",
    )
    # Hidden, so it stays out of the usage line that every usage error repeats.
    parser.add_argument("--version", action="version", version="seifertgeo " + __version__, help=argparse.SUPPRESS)
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        func, help_text, arguments = COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--json", action="store_true", help="emit JSON")
        for flag, options in arguments:
            cmd.add_argument(flag, **options)
        cmd.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        kind = "limit" if isinstance(exc, WorkLimitError) else "io" if isinstance(exc, OSError) else "domain"
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}))
        return 1


def main() -> None:
    sys.exit(run())
