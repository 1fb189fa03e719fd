"""Command line interface: subcommands, output formats, exit codes."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from seifertgeo import cli
from seifertgeo.cli import run

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
        _, first = run_json(capsys, ["limits", "--fibers", "5,2,3", "--singular", "3"])
        _, second = run_json(capsys, ["limits", "--fibers", "2,3,5", "--singular", "1"])
        assert first == {"beta_L": "9/5pi", "beta_U": "21/5pi", "ratio": "7/3"}
        assert second == {"beta_L": "28/15pi", "beta_U": "52/15pi", "ratio": "13/7"}

    def test_undefined_ratio(self, capsys):
        code, lines = run_lines(capsys, ["limits", "--fibers", "2,2,7"])
        assert code == 0
        pairs = kv(lines)
        assert pairs["beta_L"] == "0pi"
        assert pairs["ratio"] == "infinite"


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
        # argparse needs --slope=-6/1; the slope is then rejected as the
        # e = 0 exceptional slope of the right trefoil
        code, payload = run_json(
            capsys,
            ["surgery", "--knot", "3,2", "--hand", "right", "--slope=-6/1"],
        )
        assert code == 0
        assert payload["slope"] == "6/-1"
        assert payload["line"]["n"] == -1


class TestIdentify:
    def test_poincare(self, capsys):
        code, payload = run_json(capsys, ["identify", "--sig", POINCARE])
        assert code == 0
        assert payload == {"family": "I(1)-compatible Brieskorn(2,3,5)"}

    def test_lens(self, capsys):
        # e = 5/7 > 0: |H1| = 5, orientation carried by the sign
        sig = json.dumps({"b": -1, "fibers": [[7, 2]]})
        _, payload = run_json(capsys, ["identify", "--sig", sig])
        assert payload["family"] == "Lens(-5,2)"


class TestRepeatedRuns:
    """The parser is built once per process; no option outlives its run."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

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


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, payload = run_json(
            capsys,
            ["surgery", "--knot", "3,2", "--hand", "left", "--slope", "6/-1"],
        )
        assert code == 1
        assert payload["error"]["type"] == "domain"
        assert "exceptional" in payload["error"]["message"]

    def test_bad_singular_is_one(self, capsys):
        code, payload = run_json(
            capsys, ["limits", "--fibers", "2,3,5", "--singular", "4"]
        )
        assert code == 1
        assert payload["error"]["type"] == "domain"

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
        ],
        ids=["beta-zero-den", "angle-zero-den", "float", "str", "bool", "overflow",
             "beta-junk", "beta-zero-den-reason"],
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
        assert payload["error"]["type"] == "domain"

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
        assert payload["error"]["type"] == "domain"
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
    "limits": {
        "--fibers": st.builds("{},{},{}".format, *[st.integers(-1, 12)] * 3),
        "--singular": _INT,
    },
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
        assert new.isdisjoint({"dataclasses", "inspect", "seifertgeo.plot"})

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seifertgeo", "classify"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
