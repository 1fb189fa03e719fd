"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload for one second, traced and untraced, and checks
the result line against BENCHMARK.json; then feeds each oracle a
deliberately wrong answer and checks that it is caught and counted.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONFIG = json.load(_handle)

SG = worker.import_package()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_result_schema(name, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    meta = json.loads(lines[-2][len("meta "):])
    for key in ("git_sha", "python", "nproc", "backend", "seed"):
        assert key in meta
    if not trace:
        assert meta["samples"] >= 1 and "beyond_p90" in meta
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_without_program_fails(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for entry in os.listdir(HERE):
        if entry.endswith(".py"):
            (bench / entry).write_bytes(open(os.path.join(HERE, entry), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_wrong_answer_is_counted(monkeypatch):
    sweep = workloads.make("sweep", SG, ROOT, worker.child_env())
    real_call = sweep.call
    calls = []

    def one_wrong(inp):
        geometry, cone, family, order = real_call(inp)
        calls.append(inp)
        if len(calls) == 2:  # the first measured request, after the warm-up
            wrong = SG.GeometryType.NIL if geometry is not SG.GeometryType.NIL else SG.GeometryType.SL2R
            return wrong, cone, family, order
        return geometry, cone, family, order

    monkeypatch.setattr(sweep, "call", one_wrong)
    result = worker.measure(sweep, seed=5, seconds=0.3)
    assert result["failed"] == 1
    assert result["attempted"] > 1
    assert result["metrics"]["ok_rate"] == 1.0 - 1 / result["attempted"]


def first_output(name):
    workload = workloads.make(name, SG, ROOT, worker.child_env())
    inp = next(workload.inputs(11))
    out = workload.call_in_process(inp)
    assert workload.check(inp, out) == []
    return workload, inp, out


def test_sweep_oracle_catches_wrong_order():
    sweep, inp, (geometry, cone, family, order) = first_output("sweep")
    wrong = (order or 0) + 1
    assert sweep.check(inp, (geometry, cone, family, wrong))


def test_atlas_oracle_catches_wrong_record():
    atlas, inp, (records, text) = first_output("atlas")
    records = [dict(rec) for rec in records]
    records[-1]["geometry"] = "Spherical" if records[-1]["geometry"] != "Spherical" else "SL2R"
    assert atlas.check(inp, (records, text))


def test_plot_oracle_catches_bad_output():
    plot, inp, (model, svg, csv) = first_output("plot")
    assert plot.check(inp, (model, svg.replace("</svg>", ""), csv))
    assert plot.check(inp, (model, svg, csv.rsplit("\n", 2)[0] + "\n"))


def test_cli_oracle_catches_bad_output():
    cli, inp, (code, stdout, stderr) = first_output("cli")
    assert cli.check(inp, (1, stdout, stderr))
    assert cli.check(inp, (0, stdout[:-3], stderr))
    payload = json.loads(stdout)
    if "geometry" in payload:
        key, wrong = "geometry", "Nil" if payload["geometry"] != "Nil" else "SL2R"
    else:
        key, wrong = "family", "Lens(0,1)"
    payload[key] = wrong
    assert cli.check(inp, (0, json.dumps(payload), stderr))
