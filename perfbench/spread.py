"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 101-110 [--workloads sweep,cli]
        [--trace 0] [--out runs.json] [--against earlier.json]

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged "wide"; the benchmark
is meant to stay below that.  With --against, it also prints how far
each median moved from the medians in an earlier --out file, as a
share of the earlier median in the metric's worse direction, and flags
a move beyond the bound as "worse".  setup_s gets no spread check, as
in the acceptance rule for the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(config, workload, seed, trace) -> dict:
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(config["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(args), done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 3,5,8")
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run to this file")
    parser.add_argument("--against", default=None, help="earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"] if args.trace == 0 else config["per_layer"]
    earlier = None
    if args.against:
        with open(args.against) as handle:
            earlier = json.load(handle)

    runs = {}
    failed = False
    for workload in workloads:
        runs[workload] = []
        for seed in seed_list(args.seeds):
            result = run_once(config, workload, seed, args.trace)
            runs[workload].append({"seed": seed, **result})
            failed |= not result["correct"]
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"], result["failed"]),
                file=sys.stderr)

        print("\n%s (%d seeds)" % (workload, len(runs[workload])))
        print("%-40s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "flag"))
        for metric in metrics:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs[workload]]
            med, q1, q3, width = spread(values)
            bound = metric.get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and width > bound / 3:
                flag = "wide"
            if earlier is not None and bound is not None:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload])
                move = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                flag += " moved %+.3f%s" % (move, " worse" if move > bound else "")
            print("%-40s %12.6g %12.6g %12.6g %8.4f %6s  %s %s" % (
                name, med, q1, q3, width, bound if bound is not None else "-",
                metric["unit"], flag))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
