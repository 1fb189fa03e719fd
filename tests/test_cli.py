"""Command line interface: subcommands, output formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from seifertgeo import __version__, cli
from seifertgeo.arith import Handedness
from seifertgeo.cli import run
from seifertgeo.surgery import TorusKnot, atlas

POINCARE = json.dumps({"b": -1, "fibers": [[2, 1], [3, 1], [5, 1]]})


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out.strip().split("\n")


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def kv(lines):
    pairs = {}
    for line in lines:
        key, _, value = line.partition("\t")
        pairs[key] = value
    return pairs


class TestClassify:
    def test_text(self, capsys):
        code, lines = run_lines(capsys, ["classify", "--sig", POINCARE])
        assert code == 0
        pairs = kv(lines)
        assert pairs["euler"] == "-1/30"
        assert pairs["chi"] == "1/30"
        assert pairs["geometry"] == "Spherical"
        assert pairs["homology_order"] == "1"

    def test_json(self, capsys):
        code, payload = run_json(capsys, ["classify", "--sig", POINCARE])
        assert code == 0
        assert payload == {
            "euler": "-1/30",
            "chi": "1/30",
            "geometry": "Spherical",
            "homology_order": 1,
        }

    def test_infinite_homology(self, capsys):
        sig = json.dumps({"b": 0, "fibers": [[1, 0]]})
        code, lines = run_lines(capsys, ["classify", "--sig", sig])
        assert code == 0
        assert kv(lines)["homology_order"] == "infinite"
        _, payload = run_json(capsys, ["classify", "--sig", sig])
        assert payload["homology_order"] is None


class TestCone:
    def test_euclidean_tessellation(self, capsys):
        sig = json.dumps({"b": -1, "fibers": [[3, 1], [3, 1], [3, 1]]})
        code, payload = run_json(capsys, ["cone", "--sig", sig, "--angles", "2pi"])
        assert code == 0
        assert payload == {"geometry": "Euclidean", "region": "EuclideanFace"}

    def test_partial_angles_padded(self, capsys):
        code, payload = run_json(capsys, ["cone", "--sig", POINCARE, "--angles", "2pi,2pi"])
        assert code == 0
        assert payload["geometry"] == "Spherical"
        assert payload["region"] == "SphericalInterior"

    def test_small_angle_goes_hyperbolic(self, capsys):
        code, payload = run_json(
            capsys, ["cone", "--sig", POINCARE, "--angles", "2pi,2pi,2/5pi"]
        )
        assert code == 0
        assert payload["geometry"] == "SL2R"
        assert payload["region"] == "Hyperbolic"

    def test_no_structure(self, capsys):
        sig = json.dumps({"b": -1, "fibers": [[7, 1], [2, 1], [1, 0]]})
        code, payload = run_json(capsys, ["cone", "--sig", sig, "--angles", "2pi"])
        assert code == 0
        assert payload["geometry"] == "NoStructure"
        assert payload["region"] == "DegenerateBoundary"


class TestLimits:
    def test_235(self, capsys):
        code, payload = run_json(capsys, ["limits", "--fibers", "2,3,5"])
        assert code == 0
        assert payload == {"beta_L": "5/3pi", "beta_U": "25/3pi", "ratio": "5"}

    def test_singular_position(self, capsys):
        _, first = run_json(capsys, ["limits", "--fibers", "5,2,3"])
        _, second = run_json(capsys, ["limits", "--fibers", "3,5,2"])
        assert first == {"beta_L": "9/5pi", "beta_U": "21/5pi", "ratio": "7/3"}
        assert second == {"beta_L": "28/15pi", "beta_U": "52/15pi", "ratio": "13/7"}

    def test_undefined_ratio(self, capsys):
        code, lines = run_lines(capsys, ["limits", "--fibers", "2,2,7"])
        assert code == 0
        pairs = kv(lines)
        assert pairs["beta_L"] == "0pi"
        assert pairs["ratio"] == "undefined"


class TestSurgery:
    def test_poincare(self, capsys):
        code, payload = run_json(
            capsys,
            ["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/-1"],
        )
        assert code == 0
        assert payload["knot"] == {"r": 3, "s": 2, "hand": "left"}
        assert payload["slope"] == "1/-1"
        assert payload["line"] == {"m": 5, "n": 1}
        assert payload["beta"] == "2pi"
        assert payload["euler"] == "-1/30"
        assert payload["geometry"] == "Spherical"
        assert payload["homology_order"] == 1
        assert payload["family"] == "I(1)-compatible Brieskorn(2,3,5)"

    def test_signature_feeds_classify(self, capsys):
        _, payload = run_json(
            capsys,
            ["surgery", "--knot", "4,3", "--hand", "left", "--slope", "11/-1"],
        )
        sig = json.dumps(payload["signature"])
        _, classified = run_json(capsys, ["classify", "--sig", sig])
        assert classified["euler"] == payload["euler"]
        assert classified["homology_order"] == payload["homology_order"]

    def test_orbifold_angle(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "surgery", "--knot", "3,2", "--hand", "left",
                "--slope", "4/-1", "--beta", "2/3pi",
            ],
        )
        assert code == 0
        assert payload["beta"] == "2/3pi"
        assert payload["geometry"] == "Nil"

    def test_negative_numerator_equals_form(self, capsys):
        # argparse needs --slope=-6/1; the fibre slope of the right trefoil
        # is +6, so -6 is an ordinary surgery with core multiplicity 12
        code, payload = run_json(
            capsys,
            ["surgery", "--knot", "3,2", "--hand", "right", "--slope=-6/1"],
        )
        assert code == 0
        assert payload["slope"] == "6/-1"
        assert payload["line"]["n"] == -1

    def test_zero_slope_has_one_form(self, capsys):
        argv = ["surgery", "--knot", "3,2", "--hand", "left", "--slope"]
        _, negative = run_json(capsys, argv + ["0/-1"])
        _, positive = run_json(capsys, argv + ["0/1"])
        assert negative == positive
        assert negative["slope"] == "0/1"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.tuples(st.integers(-40, 40), st.integers(-9, 9)).filter(lambda pq: math.gcd(*pq) == 1))
    @example((0, 1))
    @example((6, -1))
    def test_negated_slope_prints_the_same_bytes(self, capsys, pq):
        # -p/-q is the slope p/q, also on the fibre slope's error
        p, q = pq
        outputs = []
        for slope in ("%d/%d" % (p, q), "%d/%d" % (-p, -q)):
            code = run(["surgery", "--knot", "3,2", "--hand", "left", "--slope=" + slope, "--json"])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] in (0, 1)


class TestIdentify:
    def test_poincare(self, capsys):
        code, payload = run_json(capsys, ["identify", "--sig", POINCARE])
        assert code == 0
        assert payload == {"family": "I(1)-compatible Brieskorn(2,3,5)"}

    def test_lens(self, capsys):
        # e = 5/7 > 0, so lens_params gives m = -5 and n = 2: L(5, -2) = L(5, 3),
        # and 3 * 2 = 1 mod 5 makes the label L(5, 2)
        sig = json.dumps({"b": -1, "fibers": [[7, 2]]})
        _, payload = run_json(capsys, ["identify", "--sig", sig])
        assert payload["family"] == "Lens(5,2)"


class TestRepeatedRuns:
    """Runs in one process, each with a parser of its own: no option outlives its run."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(first=st.text(max_size=12) | st.sampled_from(sorted(cli.COMMANDS)))
    def test_help_after_any_first_argument_exits_0_or_2(self, capsys, first):
        with pytest.raises(SystemExit) as exc:
            run([first, "--help"])
        capsys.readouterr()
        assert exc.value.code in (0, 2)

    def test_surgery_beta_does_not_leak(self, capsys):
        argv = ["surgery", "--knot", "3,2", "--hand", "left", "--slope", "4/-1"]
        _, first = run_json(capsys, argv)
        _, with_beta = run_json(capsys, argv + ["--beta", "2/3pi"])
        _, again = run_json(capsys, argv)
        assert with_beta["beta"] == "2/3pi"
        assert again["beta"] == first["beta"] == "2pi"
        assert again == first

    def test_plot_options_do_not_leak(self, capsys, tmp_path):
        svg, csv = str(tmp_path / "k.svg"), str(tmp_path / "k.csv")
        argv = ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--out", svg]
        _, first = run_json(capsys, argv)
        _, with_options = run_json(capsys, argv + ["--csv", csv, "--ymin", "-2", "--ymax", "1"])
        _, again = run_json(capsys, argv)
        # (m, n) primitive with 1 <= m <= 3: 8 rays for n in 0..3, 9 for n in -2..1
        assert with_options == {"out": svg, "csv": csv, "points": 9}
        assert again == first == {"out": svg, "csv": None, "points": 8}

    def test_plot_text_names_a_missing_csv_none(self, capsys, tmp_path):
        # None reads "none" for csv, "infinite" for homology_order and "undefined" for ratio
        svg, csv = str(tmp_path / "k.svg"), str(tmp_path / "k.csv")
        argv = ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--out", svg]
        code, lines = run_lines(capsys, argv)
        assert code == 0
        assert lines == ["out\t" + svg, "csv\tnone", "points\t8"]
        _, lines = run_lines(capsys, argv + ["--csv", csv])
        assert lines == ["out\t" + svg, "csv\t" + csv, "points\t8"]


class TestFileOutputs:
    def test_plot(self, capsys, tmp_path):
        svg = tmp_path / "trefoil.svg"
        csv = tmp_path / "trefoil.csv"
        code, payload = run_json(
            capsys,
            [
                "plot", "--knot", "3,2", "--hand", "left", "--xmax", "6",
                "--ymin", "1", "--ymax", "1",
                "--out", str(svg), "--csv", str(csv),
            ],
        )
        assert code == 0
        assert payload["points"] == 6
        text = svg.read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert "6,1,0,1,6,Euclidean" in csv.read_text(encoding="utf-8")

    def test_atlas(self, capsys, tmp_path):
        out = tmp_path / "atlas.json"
        code, payload = run_json(
            capsys,
            [
                "atlas", "--knot", "3,2", "--hand", "left",
                "--mmax", "6", "--nrange", "1..1", "--kmax", "1",
                "--out", str(out),
            ],
        )
        assert code == 0
        records = json.loads(out.read_text(encoding="utf-8"))
        assert len(records) == payload["records"] == 6
        assert records[4]["geometry"] == "Spherical"

    @pytest.mark.parametrize("nrange", ["-3..3", "1..0"], ids=["records", "empty"])
    def test_atlas_file_is_json_dump_with_a_newline(self, capsys, tmp_path, nrange):
        out = tmp_path / "atlas.json"
        argv = ["atlas", "--knot", "3,2", "--hand", "left", "--mmax", "7", "--nrange=" + nrange, "--kmax", "3"]
        assert run(argv + ["--out", str(out)]) == 0
        n_lo, n_hi = map(int, nrange.split(".."))
        records = atlas(TorusKnot(3, 2, Handedness.LEFT), 7, (n_lo, n_hi), 3)
        assert out.read_bytes() == (json.dumps(records, indent=1) + "\n").encode("utf-8")
        assert bool(records) == (nrange != "1..0")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# (argv, exit code, digest of stdout, digest of stderr) at 80 columns.  The
# text is argparse's, which changes between Python versions.
PARSER_TEXT = [
    (["--help"], 0, "31760e4eb7cbcf94", "e3b0c44298fc1c14"),
    (["-h"], 0, "31760e4eb7cbcf94", "e3b0c44298fc1c14"),
    (["classify", "--help"], 0, "c41dbce1d0e05632", "e3b0c44298fc1c14"),
    (["cone", "--help"], 0, "7bef49ff5eb13d59", "e3b0c44298fc1c14"),
    (["limits", "--help"], 0, "ac50412715ef3a73", "e3b0c44298fc1c14"),
    (["surgery", "--help"], 0, "709dfabe367b1ed8", "e3b0c44298fc1c14"),
    (["identify", "--help"], 0, "3925e256a395da2f", "e3b0c44298fc1c14"),
    (["plot", "--help"], 0, "f4e40f24bc8f02b9", "e3b0c44298fc1c14"),
    (["atlas", "--help"], 0, "a414f8a392eaf5b3", "e3b0c44298fc1c14"),
    ([], 2, "e3b0c44298fc1c14", "c84bc314b355b9d0"),
    (["frobnicate"], 2, "e3b0c44298fc1c14", "4413417a4da773a6"),
    (["classify"], 2, "e3b0c44298fc1c14", "4628de0c43f56565"),
    (["classify", "--sig", "nope"], 2, "e3b0c44298fc1c14", "656d615e9b4c8c96"),
    (["limits", "--fibers", "2,3,5", "--singular", "1"], 2, "e3b0c44298fc1c14", "da744ff44cd917d5"),
    (["classify", "--sig", POINCARE, "extra"], 2, "e3b0c44298fc1c14", "0b884b8f1e565bb5"),
    (["--json", "classify"], 2, "e3b0c44298fc1c14", "4628de0c43f56565"),
    (["--json", "classify", "--sig", POINCARE], 2, "e3b0c44298fc1c14", "653da1f9fb66841e"),
    (["classify", "--sig", POINCARE, "--json"], 0, "97cb8eb538f9b0a1", "e3b0c44298fc1c14"),
]


# A valid argv of each command; plot and atlas write ./out.
VALID = {
    "classify": ["classify", "--sig", POINCARE, "--json"],
    "cone": ["cone", "--sig", POINCARE, "--angles", "2pi", "--json"],
    "limits": ["limits", "--fibers", "2,3,5", "--json"],
    "surgery": ["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/1", "--json"],
    "identify": ["identify", "--sig", POINCARE, "--json"],
    "plot": ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--out", "out"],
    "atlas": ["atlas", "--knot", "3,2", "--hand", "left", "--mmax", "2", "--nrange", "0..1", "--kmax", "1", "--out", "out"],
}


class TestParserText:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse text")
    @pytest.mark.parametrize("argv, code, out, err", PARSER_TEXT)
    def test_golden(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            got = run(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert (got, _digest(captured.out), _digest(captured.err)) == (code, out, err)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_stray_argument_names_its_command(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        assert run(VALID[command]) == 0
        with pytest.raises(SystemExit) as exc:
            run(VALID[command] + ["extra"])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: seifertgeo %s " % command)
        assert lines[-1] == "seifertgeo %s: error: unrecognized arguments: extra" % command

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, *_ in PARSER_TEXT if argv and argv[0] in cli.COMMANDS] + list(VALID.values()),
    )
    def test_run_after_every_row_prints_what_a_fresh_process_prints(self, capsys, monkeypatch, tmp_path, argv):
        # Every row of PARSER_TEXT and every valid command runs first in this
        # process, so any state a run left behind would show against a new one.
        monkeypatch.setenv("COLUMNS", "80")
        # the package this process imported, also for a relative PYTHONPATH
        monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))
        monkeypatch.chdir(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "seifertgeo", *argv], capture_output=True, text=True
        )

        def outcome(argv):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        for other in [row for row, *_ in PARSER_TEXT] + list(VALID.values()):
            outcome(other)
        assert outcome(argv) == (proc.returncode, proc.stdout, proc.stderr)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "seifertgeo %s\n" % __version__


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, payload = run_json(
            capsys,
            ["surgery", "--knot", "3,2", "--hand", "left", "--slope", "6/-1"],
        )
        assert code == 1
        assert payload["error"]["type"] == "domain"
        assert "exceptional" in payload["error"]["message"]

    def test_window_below_one_is_one(self, capsys, tmp_path):
        out = tmp_path / "plot.svg"
        code, payload = run_json(capsys, PLOT + ["--xmax", "0", "--out", str(out)])
        assert code == 1
        assert payload["error"] == {"type": "domain", "message": "window needs x_max >= 1"}
        assert not out.exists()

    @pytest.mark.parametrize("hand, slope", [("left", "6/-1"), ("right", "6/1")])
    def test_fibre_slope_is_reducible_not_euler_zero(self, capsys, hand, slope):
        # The fibre slope -+6 of the trefoil has core multiplicity m = 0 and
        # a reducible surgery; the e = 0 slope is 0/1, which runs.
        code, payload = run_json(
            capsys, ["surgery", "--knot", "3,2", "--hand", hand, "--slope", slope]
        )
        assert code == 1
        assert payload["error"]["message"] == (
            "slope %s is the exceptional fibre slope (m = 0): the surgery is reducible" % slope
        )
        code, payload = run_json(
            capsys, ["surgery", "--knot", "3,2", "--hand", hand, "--slope", "0/1"]
        )
        assert code == 0
        assert payload["euler"] == "0"

    # One command per integer option; V is replaced by the value under test.
    INTEGER_OPTIONS = {
        "--knot": ["surgery", "--knot=V,2", "--hand", "left", "--slope", "1/1"],
        "--slope": ["surgery", "--knot", "3,2", "--hand", "left", "--slope=V/1"],
        "--fibers": ["limits", "--fibers=2,V,5"],
        "--xmax": ["plot", "--knot", "3,2", "--hand", "left", "--xmax=V", "--out", "p.svg"],
        "--ymin": ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--ymin=V",
                   "--ymax", "5", "--out", "p.svg"],
        "--ymax": ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--ymax=V",
                   "--out", "p.svg"],
        "--mmax": ["atlas", "--knot", "3,2", "--hand", "left", "--mmax=V", "--nrange=0..1",
                   "--kmax", "1", "--out", "a.json"],
        "--nrange": ["atlas", "--knot", "3,2", "--hand", "left", "--mmax", "1",
                     "--nrange=V..4", "--kmax", "1", "--out", "a.json"],
        "--kmax": ["atlas", "--knot", "3,2", "--hand", "left", "--mmax", "1", "--nrange=0..1",
                   "--kmax=V", "--out", "a.json"],
    }

    @pytest.mark.parametrize("option", sorted(INTEGER_OPTIONS))
    @pytest.mark.parametrize(
        "value", ["\u0663", "1_0", " 3", "+3", "3 "],
        ids=["arabic-indic", "underscore", "leading-space", "plus", "trailing-space"],
    )
    def test_integer_options_take_only_ascii_digits(
        self, capsys, tmp_path, monkeypatch, option, value
    ):
        # int() reads each of these values as 3 or 10; the option must not.
        monkeypatch.chdir(tmp_path)
        template = self.INTEGER_OPTIONS[option]
        assert run([arg.replace("V", "3") for arg in template] + ["--json"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run([arg.replace("V", value) for arg in template] + ["--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected" in captured.err and "Traceback" not in captured.err

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_signature_json_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--sig", "{not json"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "sig, message",
        [
            ('{"b":-1,"b":3,"fibers":[[2,1],[3,1],[5,1]]}', "duplicate field 'b'"),
            ('{"b":-1,"fibers":[[2,1],[3,1],[5,1]],"extra":1}', "unknown field 'extra'"),
        ],
        ids=["duplicate", "unknown"],
    )
    def test_duplicate_or_unknown_signature_field_is_two(self, capsys, sig, message):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--json", "--sig", sig])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --sig: signature has %s\n" % message)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/1",
              "--beta", "1/0pi"], "1/0pi"),
            (["cone", "--sig", POINCARE, "--angles", "1/0pi"], "zero denominator"),
            (["classify", "--sig", '{"b": 1.7, "fibers": [[2, 1.9]]}'], "b must be"),
            (["classify", "--sig", '{"b": "2", "fibers": [[3, 1]]}'], "b must be"),
            (["classify", "--sig", '{"b": 0, "fibers": [[2, true]]}'],
             "fibers[0][1] must be"),
            (["classify", "--sig", '{"b": 0, "fibers": [[1e400, 1]]}'],
             "fibers[0][0] must be"),
            (["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/1",
              "--beta", "junk"], "cannot parse angle"),
            (["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/1",
              "--beta", "1/0pi"], "zero denominator"),
            (["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/1",
              "--beta", "\u0662pi"], "cannot parse angle"),
            (["cone", "--sig", POINCARE, "--angles", "2pi,1/\u0663pi"], "cannot parse angle"),
            (["cone", "--sig", POINCARE, "--angles", "\uff12pi"], "cannot parse angle"),
        ],
        ids=["beta-zero-den", "angle-zero-den", "float", "str", "bool", "overflow",
             "beta-junk", "beta-zero-den-reason", "beta-arabic-indic", "angles-arabic-indic",
             "angles-fullwidth"],
    )
    def test_malformed_number_is_two(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "Traceback" not in err

    def test_unwritable_output_is_one(self, capsys, tmp_path):
        code, payload = run_json(
            capsys,
            [
                "plot", "--knot", "3,2", "--hand", "left", "--xmax", "2",
                "--out", str(tmp_path / "missing" / "plot.svg"),
            ],
        )
        assert code == 1
        assert payload["error"]["type"] == "io"

    def test_overflow_is_one_and_writes_nothing(self, capsys, tmp_path):
        # A row index too large for a float overflows in render_svg.
        out = tmp_path / "plot.svg"
        huge = str(10 ** 400)
        code = run(
            [
                "plot", "--knot", "3,2", "--hand", "left", "--xmax", "1",
                "--ymin", huge, "--ymax", huge, "--out", str(out), "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["type"] == "domain"
        assert "Traceback" not in captured.err
        assert not out.exists()


    def test_unopenable_csv_writes_no_svg(self, capsys, tmp_path):
        svg = tmp_path / "y.svg"
        code, payload = run_json(
            capsys,
            [
                "plot", "--knot", "3,2", "--hand", "left", "--xmax", "2",
                "--out", str(svg), "--csv", str(tmp_path / "nodir" / "y.csv"),
            ],
        )
        assert code == 1
        assert payload["error"]["type"] == "io"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_removes_the_created_csv(self, capsys, tmp_path):
        # The opens succeed; writing the svg to a full device fails.
        code, payload = run_json(
            capsys,
            [
                "plot", "--knot", "3,2", "--hand", "left", "--xmax", "3",
                "--out", "/dev/full", "--csv", str(tmp_path / "new.csv"),
            ],
        )
        assert code == 1
        assert payload["error"]["type"] == "io"
        assert list(tmp_path.iterdir()) == []

    def test_empty_csv_path_is_one_and_writes_no_svg(self, capsys, tmp_path):
        # an empty --csv is a path that cannot be opened, as an empty --out is
        code, payload = run_json(
            capsys,
            ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "2", "--out", str(tmp_path / "y.svg"), "--csv", ""],
        )
        assert code == 1
        assert payload["error"]["type"] == "io"
        assert list(tmp_path.iterdir()) == []

    def test_unopenable_csv_keeps_existing_svg(self, capsys, tmp_path):
        svg = tmp_path / "y.svg"
        svg.write_text("old", encoding="utf-8")
        code, _ = run_json(
            capsys,
            [
                "plot", "--knot", "3,2", "--hand", "left", "--xmax", "2",
                "--out", str(svg), "--csv", str(tmp_path / "nodir" / "y.csv"),
            ],
        )
        assert code == 1
        assert svg.read_text(encoding="utf-8") == "old"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("csv", ["same.svg", "./same.svg"])
    def test_out_and_csv_naming_one_file_is_one(self, capsys, tmp_path, monkeypatch, csv, existing):
        # refused before any file is opened: an existing file keeps its
        # bytes and no file is created
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "same.svg").write_text("old", encoding="utf-8")
        code, payload = run_json(
            capsys,
            ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--out", "same.svg", "--csv", csv],
        )
        assert code == 1
        assert payload == {
            "error": {"type": "domain", "message": "--out and --csv name the same file %r" % csv}
        }
        files = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
        assert files == ({"same.svg": "old"} if existing else {})

    @pytest.mark.parametrize(
        "link, out, csv",
        [
            (os.link, "a.svg", "b.csv"),
            (os.symlink, "a.svg", "b.csv"),
            (os.symlink, "b.csv", "a.svg"),
            (os.symlink, "new.svg", "b.csv"),
            (os.symlink, "b.csv", "new.svg"),
        ],
        ids=["hard", "symbolic-csv", "symbolic-out", "dangling-csv", "dangling-out"],
    )
    def test_out_and_csv_linking_one_file_is_one(self, capsys, tmp_path, monkeypatch, link, out, csv):
        # b.csv links to a.svg, or to the missing new.svg; the link and the
        # existing file are left as they were and no file is created
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.svg").write_text("old", encoding="utf-8")
        target = "new.svg" if "new.svg" in (out, csv) else "a.svg"
        link(target, "b.csv")
        before = sorted((path.name, path.is_symlink(), path.exists()) for path in tmp_path.iterdir())
        code, payload = run_json(
            capsys,
            ["plot", "--knot", "3,2", "--hand", "left", "--xmax", "3", "--out", out, "--csv", csv],
        )
        assert code == 1
        assert payload == {
            "error": {"type": "domain", "message": "--out and --csv name the same file %r" % csv}
        }
        assert sorted((path.name, path.is_symlink(), path.exists()) for path in tmp_path.iterdir()) == before
        assert (tmp_path / "a.svg").read_text(encoding="utf-8") == "old"

    def test_atlas_into_a_missing_directory_is_one(self, capsys, tmp_path):
        code, payload = run_json(
            capsys,
            [
                "atlas", "--knot", "3,2", "--hand", "left", "--mmax", "2", "--nrange", "1..1",
                "--kmax", "1", "--out", str(tmp_path / "missing" / "atlas.json"),
            ],
        )
        assert code == 1
        assert payload["error"]["type"] == "io"
        assert list(tmp_path.iterdir()) == []


ATLAS = ["atlas", "--knot", "3,2", "--hand", "left"]
PLOT = ["plot", "--knot", "3,2", "--hand", "left"]


class TestWorkLimit:
    def refused(self, capsys, argv, out):
        code, payload = run_json(capsys, argv + ["--out", str(out)])
        assert code == 1
        assert payload["error"]["type"] == "limit"
        assert not out.exists()

    def test_huge_atlas_is_refused(self, capsys, tmp_path):
        self.refused(
            capsys,
            ATLAS + ["--mmax", "100000", "--nrange=-100000..100000", "--kmax", "6"],
            tmp_path / "atlas.json",
        )

    def test_huge_plot_is_refused(self, capsys, tmp_path):
        self.refused(capsys, PLOT + ["--xmax", "100000"], tmp_path / "plot.svg")

    @pytest.mark.parametrize(
        "ranges",
        [
            ["--mmax", str(10 ** 12), "--nrange=1..0", "--kmax", "1"],
            ["--mmax", "1", "--nrange=1..0", "--kmax", str(10 ** 12)],
        ],
        ids=["m-loop", "angle-list"],
    )
    def test_empty_n_range_still_counts_m_and_k(self, capsys, tmp_path, ranges):
        self.refused(capsys, ATLAS + ranges, tmp_path / "atlas.json")

    def test_atlas_boundary_at_the_limit(self, capsys, tmp_path):
        # mmax * 1 * kmax is exactly the limit; only (1, 0) is primitive.
        out = tmp_path / "atlas.json"
        argv = ATLAS + ["--nrange", "0..0", "--kmax", "1", "--out", str(out)]
        code, payload = run_json(capsys, argv + ["--mmax", str(cli.WORK_LIMIT)])
        assert code == 0
        assert payload["records"] == 1
        out.unlink()
        self.refused(capsys, argv[:-2] + ["--mmax", str(cli.WORK_LIMIT + 1)], out)

    def test_plot_boundary_at_the_limit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "WORK_LIMIT", 4 * 5)
        out = tmp_path / "plot.svg"
        argv = PLOT + ["--xmax", "4", "--ymin", "0"]
        code, payload = run_json(capsys, argv + ["--ymax", "4", "--out", str(out)])
        assert code == 0
        assert payload["points"] > 0
        out.unlink()
        self.refused(capsys, argv + ["--ymax", "5"], out)

    def test_documented_batches_are_far_below(self):
        # the atlas compared byte for byte across changes, and the README plot
        assert 60 * 61 * 6 * 10 < cli.WORK_LIMIT
        assert 8 * 7 * 10 < cli.WORK_LIMIT


def _any(typed):
    return st.one_of(st.text(max_size=24), typed)


_INT = st.one_of(st.integers(-40, 40), st.integers()).map(str)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["b", "fibers"]), inner, max_size=2),
    max_leaves=10,
)
_SIG = st.one_of(
    _JSON.map(json.dumps),
    st.builds(
        lambda b, fibers: json.dumps({"b": b, "fibers": fibers}),
        st.integers(-5, 5),
        st.lists(st.lists(st.integers(-12, 12), min_size=2, max_size=2), max_size=4),
    ),
)
_ANGLE = st.builds("{}/{}pi".format, st.integers(-3, 40), st.integers(0, 12))
_KNOT = st.builds("{},{}".format, st.integers(-2, 15), st.integers(-2, 15))
_HAND = st.sampled_from(["left", "right", "LEFT", " right", "up"])
# Output names, resolved in a scratch working directory.
_PATH = st.sampled_from(["out.txt", "other.txt", "missing/out.txt", ".", ""])

_OPTIONS = {
    "classify": {"--sig": _SIG},
    "cone": {"--sig": _SIG, "--angles": st.lists(_ANGLE, min_size=1, max_size=4).map(",".join)},
    "limits": {"--fibers": st.builds("{},{},{}".format, *[st.integers(-1, 12)] * 3)},
    "surgery": {
        "--knot": _KNOT, "--hand": _HAND,
        "--slope": st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-9, 9)),
        "--beta": _ANGLE,
    },
    "identify": {"--sig": _SIG},
    "plot": {
        "--knot": _KNOT, "--hand": _HAND, "--xmax": _INT, "--ymin": _INT,
        "--ymax": _INT, "--out": _PATH, "--csv": _PATH,
    },
    "atlas": {
        "--knot": _KNOT, "--hand": _HAND, "--mmax": _INT,
        "--nrange": st.builds("{}..{}".format, st.integers(-30, 30), st.integers(-30, 30)),
        "--kmax": _INT, "--out": _PATH,
    },
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, typed in _OPTIONS[command].items():
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing required option is a usage error
        value = draw(typed if option in ("--out", "--csv") else _any(typed))
        if draw(st.booleans()):
            argv.append("%s=%s" % (option, value))
        else:
            argv += [option, value]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=_argv())
    @example(argv=["classify", "--sig", "[" * 100000, "--json"])
    @example(argv=ATLAS + ["--mmax", "1", "--nrange=1..0", "--kmax", str(10 ** 12)])
    def test_every_input_ends_in_an_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        # Small enough that any batch the limit admits runs in milliseconds.
        monkeypatch.setattr(cli, "WORK_LIMIT", 2000)
        monkeypatch.chdir(tmp_path)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1, 2)
        if "--json" in argv and code != 2:
            json.loads(out)


# classify and identify need only arith and seifert.
UNUSED_BY_CLASSIFY = ["base2d", "cone3d", "kernel", "surgery", "plot"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "seifertgeo",
                "classify", "--sig", POINCARE, "--json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["geometry"] == "Spherical"

    def test_import_loads_no_dataclasses_and_no_plot(self):
        # only modules new to this import count, so a .pth file that
        # loads something at interpreter start cannot fail the test
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import seifertgeo.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        new = set(json.loads(proc.stdout))
        assert "seifertgeo.cli" in new
        assert new.isdisjoint(
            {"dataclasses", "inspect"} | {"seifertgeo." + name for name in UNUSED_BY_CLASSIFY}
        )

    @pytest.mark.parametrize(
        "argv, unused",
        [
            (["classify", "--sig", POINCARE], UNUSED_BY_CLASSIFY),
            (["identify", "--sig", POINCARE], UNUSED_BY_CLASSIFY),
            (["surgery", "--knot", "3,2", "--hand", "left", "--slope", "1/-1"], ["plot"]),
        ],
    )
    def test_subcommand_loads_only_what_it_calls(self, argv, unused):
        code = (
            "import contextlib, io, json, sys\n"
            "from seifertgeo import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True, check=True
        )
        code, loaded = json.loads(proc.stdout)
        assert code == 0
        assert set(loaded).isdisjoint("seifertgeo." + name for name in unused)

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seifertgeo", "classify"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
