"""Benchmark of seifertgeo: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload sweep|atlas|plot|cli --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this
directory, never from an installed copy.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).
Every run prints one "name value unit" line per metric, a "meta" line
with the provenance of the run, and as its last line the result
object.  It also writes the full record, provenance included, to
.bench_results/BENCH_<workload>_seed<seed>_trace<trace>.json.

Exit status 0 means the run completed; answers that fail an oracle
are reported in "failed" and "correct", not by the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
from worker import HERE, ROOT, SRC, child_env
from workloads import NAMES

WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(ROOT, ".bench_results")

# Fresh-interpreter probes per run; the first one of each kind is
# discarded, the median of the rest is reported.
PROBES = 11
PROBE_TIMEOUT_S = 60
# The worker may overrun its measuring window by its last request and,
# in a traced run, its counting pass.
WORKER_SLACK_S = 90


class BenchError(Exception):
    pass


def run_child(args, timeout) -> tuple[float, str]:
    """Run a Python child in ROOT; return (wall seconds, stdout)."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %s s" % (" ".join(args), timeout))
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(
            "%s exited %d:\n%s" % (" ".join(args), done.returncode, done.stderr.strip())
        )
    sys.stderr.write(done.stderr)
    return wall, done.stdout


def median_probe(args, reference) -> float:
    """Median wall seconds of PROBES - 1 fresh interpreters (one discarded),
    each scaled to nominal machine speed by the reference run just
    before and after it."""
    walls = []
    ref = reference.time_s()
    for _ in range(PROBES):
        wall = run_child(args, PROBE_TIMEOUT_S)[0]
        ref_after = reference.time_s()
        walls.append(wall * reference.scale(ref, ref_after))
        ref = ref_after
    return statistics.median(walls[1:])


def median_import_ms() -> float:
    """Median in-process time to import every module of the package,
    scaled to nominal machine speed inside each probe."""
    times = []
    for _ in range(PROBES):
        _, out = run_child([WORKER, "--probe", "import"], PROBE_TIMEOUT_S)
        times.append(json.loads(out.strip().splitlines()[-1])["import_ms"])
    return statistics.median(times[1:])


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    declared = load_config()["per_layer" if trace else "end_to_end"]
    if not os.path.isfile(os.path.join(SRC, "seifertgeo", "__init__.py")):
        raise BenchError("no package source at %s" % os.path.join(SRC, "seifertgeo"))
    metrics = {}
    if trace:
        metrics["interp.bare_ms"] = median_probe(["-c", "pass"], calibrate.LOOP) * 1e3
        metrics["import.seifertgeo_ms"] = median_import_ms()
    else:
        metrics["setup_s"] = median_probe(
            [WORKER, "--probe", "setup", "--workload", workload, "--seed", str(seed)],
            calibrate.PROCESS,
        )
    _, out = run_child(
        [WORKER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        seconds + WORKER_SLACK_S,
    )
    result = json.loads(out.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_probes": PROBES - 1,
        **result["info"],
    }
    return {
        "meta": meta,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # One CPU for this process and every process it starts, so the
    # references of calibrate.py run where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, "BENCH_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, metric in record["metrics"].items():
        print("%-44s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
