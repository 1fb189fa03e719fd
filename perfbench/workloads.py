"""The four workloads: seeded inputs, the timed call and its oracle check.

Each workload is a closed loop with one client: the next request is
sent only after the previous one has returned and been checked.  The
package is reached through module attributes at call time, so the
tracer's rebound wrappers are the ones called in a traced run.

Request sizes are fixed per workload and only the knot, hand, window
offset or signature is drawn from the seed, so seeds differ in content
but not in how much work a request is.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import calibrate
import oracles

# Torus knots (r, s) with r <= 13, both hands.
KNOTS = tuple((r, s) for r in range(3, 14) for s in range(2, r) if gcd(r, s) == 1)
HANDS = ("left", "right")

# Criterion 6 of the acceptance tests: fibre pool a <= 12, b in -3..3.
SWEEP_B = tuple(range(-3, 4))

ATLAS_M_MAX = 12
ATLAS_N_WIDTH = 16
ATLAS_K_MAX = 6

PLOT_X_MAX = 20
PLOT_Y_SPAN = 30

CLI_COMMANDS = ("classify", "surgery", "identify")
CLI_RAY_MAX = 20


def _sweep_fibres():
    pool = [
        (a, b)
        for a in range(12, 0, -1)
        for b in range(a if a > 1 else 1)
        if gcd(a, b) == 1
    ]
    return list(combinations_with_replacement(pool, 3))


def _signature_stream(rng):
    """Every sweep signature once, in a seeded order, then again.

    An affine map i -> (start + step*i) mod N with gcd(step, N) = 1 is a
    permutation of the N = 121,072 signatures, so no input repeats
    within N requests.
    """
    fibres = _sweep_fibres()
    size = len(fibres) * len(SWEEP_B)
    step = rng.randrange(1, size)
    while gcd(step, size) != 1:
        step = rng.randrange(1, size)
    index = rng.randrange(size)
    while True:
        f, b = divmod(index, len(SWEEP_B))
        yield SWEEP_B[b], fibres[f]
        index = (index + step) % size


def _knot(rng):
    r, s = rng.choice(KNOTS)
    return r, s, rng.choice(HANDS)


class Workload:
    name = ""
    # Machine-speed reference for call(); call_in_process() uses LOOP.
    reference = calibrate.LOOP

    def __init__(self, sg):
        self.sg = sg

    def inputs(self, seed: int):
        """Endless, deterministic request stream for the seed."""
        raise NotImplementedError

    def call(self, inp):
        """The timed request."""
        raise NotImplementedError

    def call_in_process(self, inp):
        """The request without leaving this interpreter (traced runs)."""
        return self.call(inp)

    def items(self, out) -> int:
        return 1

    def out_bytes(self, out) -> int:
        """Bytes of serialised output the request produced."""
        return 0

    def check(self, inp, out) -> list[str]:
        """Oracle problems with the answer; empty when it is right."""
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def inputs(self, seed):
        return _signature_stream(random.Random(seed))

    def call(self, inp):
        b, fibers = inp
        sg = self.sg
        sig = sg.SeifertSignature(b, fibers)
        geometry = sg.manifold_geometry(sig)
        cone = sg.classify_cone(sg.ConeStructure(sig, (sg.arith.TWO_PI,) * 3))
        family = sg.identify_family(sig)
        order = sg.homology_order(sig)
        return geometry, cone, family, order

    def check(self, inp, out):
        geometry, cone, family, order = out
        actual = {
            "geometry": geometry.value,
            "cone": str(cone),
            "homology_order": order,
            "lens_order": oracles.lens_order(str(family)),
        }
        return oracles.mismatches(actual, oracles.expected_answers(*inp))


class Atlas(Workload):
    name = "atlas"

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            r, s, hand = _knot(rng)
            n_lo = rng.randint(-ATLAS_N_WIDTH, 0)
            yield r, s, hand, n_lo, n_lo + ATLAS_N_WIDTH

    def call(self, inp):
        r, s, hand, n_lo, n_hi = inp
        sg = self.sg
        knot = sg.TorusKnot(r, s, sg.Handedness(hand))
        records = sg.atlas(knot, ATLAS_M_MAX, (n_lo, n_hi), ATLAS_K_MAX)
        buf = io.StringIO()
        json.dump(records, buf, indent=1)
        buf.write("\n")
        return records, buf.getvalue()

    def items(self, out):
        return len(out[0])

    def out_bytes(self, out):
        return len(out[1].encode())

    def check(self, inp, out):
        r, s, hand, n_lo, n_hi = inp
        records, text = out
        expected = [
            (m, n) + oracles.slope_of_ray(r, s, hand, m, n)
            + (k * m, oracles.band_geometry(r, s, hand, m, n, k))
            for m, n in oracles.primitive_rays(ATLAS_M_MAX, n_lo, n_hi)
            for k in range(1, ATLAS_K_MAX + 1)
        ]
        actual = [
            (rec["m"], rec["n"], rec["p"], rec["q"], rec["x"], rec["geometry"])
            for rec in records
        ]
        problems = _first_difference("atlas record", actual, expected)
        if json.loads(text) != records:
            problems.append("JSON text does not round-trip to the records")
        return problems


class Plot(Workload):
    name = "plot"

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            r, s, hand = _knot(rng)
            y_min = rng.randint(-PLOT_Y_SPAN, 0)
            yield r, s, hand, y_min, y_min + PLOT_Y_SPAN

    def call(self, inp):
        r, s, hand, y_min, y_max = inp
        sg = self.sg
        plot = sg.plot
        knot = sg.TorusKnot(r, s, sg.Handedness(hand))
        model = plot.build_plot(knot, plot.PlotWindow(Fraction(PLOT_X_MAX), y_min, y_max))
        return model, plot.render_svg(model), plot.export_csv(model)

    def items(self, out):
        return len(out[0].points)

    def out_bytes(self, out):
        return len(out[1].encode()) + len(out[2].encode())

    def check(self, inp, out):
        import xml.etree.ElementTree as ET

        r, s, hand, y_min, y_max = inp
        model, svg, csv = out
        expected = [
            (m, n) + oracles.slope_of_ray(r, s, hand, m, n)
            + (oracles.band_geometry(r, s, hand, m, n, 1),)
            for m, n in oracles.primitive_rays(PLOT_X_MAX, y_min, y_max)
        ]
        actual = [(pt.m, pt.n, pt.p, pt.q, pt.geometry) for pt in model.points]
        problems = _first_difference("plot point", actual, expected)
        rows = csv.splitlines()
        csv_expected = ["%d,%d,%d,%d,%d,%s" % (m, n, p, q, m, g) for m, n, p, q, g in expected]
        problems += _first_difference("CSV row", rows[1:], csv_expected)
        try:
            ET.fromstring(svg.encode())
        except ET.ParseError as exc:
            problems.append("SVG is not XML: %s" % exc)
        if svg.count('class="pt ') != len(expected):
            problems.append("SVG has %d markers for %d points" % (svg.count('class="pt '), len(expected)))
        if self.sg.plot.render_svg(model) != svg:
            problems.append("second render is not byte-identical")
        return problems


class Cli(Workload):
    name = "cli"
    reference = calibrate.PROCESS

    def __init__(self, sg, root, env):
        super().__init__(sg)
        self.root = root
        self.env = env

    def inputs(self, seed):
        rng = random.Random(seed)
        signatures = _signature_stream(rng)
        while True:
            command = rng.choice(CLI_COMMANDS)
            if command == "surgery":
                r, s, hand = _knot(rng)
                m, n = rng.randint(1, CLI_RAY_MAX), rng.randint(-CLI_RAY_MAX, CLI_RAY_MAX)
                while gcd(m, n) != 1:
                    m, n = rng.randint(1, CLI_RAY_MAX), rng.randint(-CLI_RAY_MAX, CLI_RAY_MAX)
                p, q = oracles.slope_of_ray(r, s, hand, m, n)
                argv = ["surgery", "--knot", "%d,%d" % (r, s), "--hand", hand,
                        "--slope", "%d/%d" % (p, q)]
                yield argv, ("surgery", r, s, hand, m, n, p)
            else:
                b, fibers = next(signatures)
                sig = json.dumps({"b": b, "fibers": [list(f) for f in fibers]})
                yield [command, "--sig", sig], (command, b, fibers)

    def call(self, inp):
        argv, _ = inp
        done = subprocess.run(
            [sys.executable, "-m", "seifertgeo", *argv, "--json"],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    def call_in_process(self, inp):
        argv, _ = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.sg.cli.run(argv + ["--json"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, buf.getvalue(), ""

    def out_bytes(self, out):
        return len(out[1].encode())

    def check(self, inp, out):
        code, stdout, stderr = out
        if code != 0:
            return ["exit code %d: %s" % (code, stderr.strip()[-200:])]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON: %r" % stdout[:200]]
        _, facts = inp
        command = facts[0]
        if command == "surgery":
            _, r, s, hand, m, n, p = facts
            actual = {
                "geometry": payload.get("geometry"),
                "line": payload.get("line"),
                "homology_order": payload.get("homology_order"),
            }
            expected = {
                "geometry": oracles.band_geometry(r, s, hand, m, n, 1),
                "line": {"m": m, "n": n},
                "homology_order": p if p else None,
            }
            return oracles.mismatches(actual, expected)
        _, b, fibers = facts
        expected = oracles.expected_answers(b, fibers)
        if command == "classify":
            actual = {
                "geometry": payload.get("geometry"),
                "homology_order": payload.get("homology_order"),
            }
            return oracles.mismatches(
                actual, {key: expected[key] for key in actual}
            )
        family = payload.get("family")
        if not isinstance(family, str):
            return ["identify gave no family: %r" % payload]
        return oracles.mismatches(
            {"lens_order": oracles.lens_order(family)},
            {"lens_order": expected["lens_order"]},
        )


def _first_difference(what, actual, expected) -> list[str]:
    if len(actual) != len(expected):
        return ["%d %ss, expected %d" % (len(actual), what, len(expected))]
    for got, want in zip(actual, expected):
        if got != want:
            return ["%s %r, expected %r" % (what, got, want)]
    return []


def make(name: str, sg, root: str, env: dict) -> Workload:
    """The named workload; the CLI one starts `python -m seifertgeo`
    in root with env, which puts the package's source on PYTHONPATH."""
    if name == "cli":
        return Cli(sg, root, env)
    return {"sweep": Sweep, "atlas": Atlas, "plot": Plot}[name](sg)


NAMES = ("sweep", "atlas", "plot", "cli")
