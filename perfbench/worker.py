"""Measurement process of the benchmark; run.py starts it.

    worker.py --workload W --seed N --seconds S --trace 0|1
    worker.py --probe setup --workload W --seed N
    worker.py --probe import

A measured run prints one JSON object on its last line of stdout.  With
--trace 0 the loop runs untraced for S seconds.  With --trace 1 it runs
S/2 seconds untraced and S/2 seconds with every span installed, both in
this interpreter, and then replays a fixed prefix of the request stream
to count calls, Fraction constructions and output bytes exactly.

The package is imported from <root>/src and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Requests replayed by the counting pass of a traced run.
COUNT_REQUESTS = {"sweep": 2000, "atlas": 4, "plot": 8, "cli": 30}
# Contiguous groups whose median rate is items_per_s.
RATE_GROUPS = 10
# Oracle problems echoed to stderr; all of them are counted.
SHOWN_PROBLEMS = 5


def import_package():
    """Import seifertgeo and every module from SRC; fail if it is elsewhere."""
    sys.path.insert(0, SRC)
    import seifertgeo
    import seifertgeo.cli
    import seifertgeo.plot

    if os.path.dirname(os.path.dirname(os.path.abspath(seifertgeo.__file__))) != SRC:
        raise ImportError("seifertgeo imported from %s, not %s" % (seifertgeo.__file__, SRC))
    return seifertgeo


class Pass:
    """One closed-loop pass: per-request latency and items, plus failures.

    Requests are timed in blocks of at least reference.block_s of request
    time, with the reference of calibrate.py run between blocks.
    calibrate() then fills latencies: raw_latencies scaled to nominal
    machine speed.
    """

    def __init__(self):
        # Compact arrays, so that the harness's own memory barely grows
        # with the number of requests and peak_rss_mib measures the program.
        self.raw_latencies = array("f")
        self.latencies = []
        self.items = array("I")
        self.references = []  # one before the first block, one after each
        self.blocks = []  # (first, last + 1) request index of each block
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mib = 0.0

    def fail(self, inp, problems):
        self.failed += 1
        if self.failed <= SHOWN_PROBLEMS:
            print("request %r failed: %s" % (inp, "; ".join(problems)), file=sys.stderr)

    def calibrate(self, reference):
        """Scale each block by the reference times measured just before
        and just after it."""
        refs = self.references
        self.latencies = []
        for b, (lo, hi) in enumerate(self.blocks):
            scale = reference.scale(refs[b], refs[b + 1])
            self.latencies.extend(t * scale for t in self.raw_latencies[lo:hi])

    def rate(self, latencies=None) -> float:
        """Median over RATE_GROUPS contiguous groups of items / busy seconds."""
        latencies = self.latencies if latencies is None else latencies
        n = len(latencies)
        groups = min(RATE_GROUPS, n)
        rates = []
        for g in range(groups):
            lo, hi = g * n // groups, (g + 1) * n // groups
            rates.append(sum(self.items[lo:hi]) / sum(latencies[lo:hi]))
        return statistics.median(rates)


def run_pass(workload, call, stream, seconds, reference, tracer=None) -> Pass:
    """Closed loop: send, time, check, repeat until the deadline."""
    result = Pass()
    clock = time.perf_counter
    deadline = clock() + seconds
    result.references.append(reference.time_s())
    block_start, block_busy = 0, 0.0
    while not result.attempted or clock() < deadline:
        inp = next(stream)
        result.attempted += 1
        start = clock()
        try:
            out = call(inp)
        except Exception as exc:  # every raised request is counted as failed
            if tracer:
                tracer.discard()
            result.fail(inp, ["raised %s: %s" % (type(exc).__name__, exc)])
            continue
        elapsed = clock() - start
        if tracer:
            tracer.end_request()
        result.raw_latencies.append(elapsed)
        result.items.append(workload.items(out))
        problems = workload.check(inp, out)
        if tracer:
            tracer.discard()
        if problems:
            result.fail(inp, problems)
        block_busy += elapsed
        if block_busy >= reference.block_s:
            result.blocks.append((block_start, len(result.raw_latencies)))
            result.references.append(reference.time_s())
            block_start, block_busy = len(result.raw_latencies), 0.0
    if block_start < len(result.raw_latencies):
        result.blocks.append((block_start, len(result.raw_latencies)))
        result.references.append(reference.time_s())
    result.peak_rss_mib = peak_rss_mib(workload.name)
    result.calibrate(reference)
    return result


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def latency_summary(latencies) -> tuple[float, float, dict]:
    ordered = sorted(latencies)
    p90 = percentile(ordered, 90)
    info = {
        "samples": len(ordered),
        "beyond_p90": sum(1 for v in ordered if v > p90),
    }
    return statistics.median(ordered) * 1e3, p90 * 1e3, info


def peak_rss_mib(workload_name) -> float:
    """Peak RSS of this process; for cli, of the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seed, seconds) -> dict:
    stream = workload.inputs(seed)
    workload.call(next(stream))  # warm-up, neither timed nor counted
    result = run_pass(workload, workload.call, stream, seconds, workload.reference)
    p50, p90, info = latency_summary(result.latencies)
    raw_p50, raw_p90, _ = latency_summary(result.raw_latencies)
    info.update({
        "raw_items_per_s": result.rate(result.raw_latencies),
        "raw_latency_p50_ms": raw_p50,
        "raw_latency_p90_ms": raw_p90,
        "reference_ms_median": statistics.median(result.references) * 1e3,
        "reference": workload.reference.name,
    })
    return {
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            "items_per_s": result.rate(),
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "peak_rss_mib": result.peak_rss_mib,
            "ok_rate": 1.0 - result.failed / result.attempted,
        },
        "info": info,
    }


def measure_traced(workload, seed, seconds) -> dict:
    from tracing import MODULES, SERIALISE, SPAN_NAMES, FractionCounter, Tracer, module_of

    call = workload.call_in_process
    stream = workload.inputs(seed)
    call(next(stream))
    plain = run_pass(workload, call, stream, seconds / 2, calibrate.LOOP)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, call, stream, seconds / 2, calibrate.LOOP, tracer)
        self_s = dict(tracer.self_s)

        tracer.reset()
        fractions = FractionCounter()
        count_stream = workload.inputs(seed)
        items = out_bytes = 0
        fractions.install()
        try:
            for _ in range(COUNT_REQUESTS[workload.name]):
                out = call(next(count_stream))
                tracer.end_request()
                items += workload.items(out)
                out_bytes += workload.out_bytes(out)
        finally:
            fractions.uninstall()
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()

    traced_items = sum(traced.items)
    busy = sum(traced.raw_latencies)
    # Self times are scaled to nominal speed like the request times.
    us_per_item = 1e6 * sum(traced.latencies) / busy / traced_items
    metrics = {}
    for name in SPAN_NAMES:
        metrics[name + ".calls_per_item"] = calls.get(name, 0) / items
        metrics[name + ".self_us_per_item"] = self_s.get(name, 0.0) * us_per_item
    metrics["arith.fraction_new_per_item"] = fractions.count / items
    metrics["serialise.json_us_per_item"] = self_s.get(SERIALISE, 0.0) * us_per_item
    metrics["serialise.bytes_per_item"] = out_bytes / items
    for module in MODULES:
        share = sum(t for name, t in self_s.items() if module_of(name) == module)
        metrics[module + ".self_share"] = share / busy
    untraced_rate, traced_rate = plain.rate(), traced.rate()
    metrics["trace.items_per_s_untraced"] = untraced_rate
    metrics["trace.items_per_s_traced"] = traced_rate
    metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
        "info": {
            "untraced_samples": len(plain.latencies),
            "traced_samples": len(traced.latencies),
            "count_requests": COUNT_REQUESTS[workload.name],
            "count_items": items,
        },
    }


def child_env() -> dict:
    """Environment for every Python process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"))
    args = parser.parse_args(argv)

    if args.probe == "import":
        start = time.perf_counter()
        import_package()
        elapsed = time.perf_counter() - start
        scale = calibrate.LOOP.nominal_s / calibrate.LOOP.time_s()
        print(json.dumps({"import_ms": elapsed * scale * 1e3}))
        return 0

    sg = import_package()
    import workloads

    workload = workloads.make(args.workload, sg, ROOT, child_env())
    if args.probe == "setup":
        workload.call_in_process(next(workload.inputs(args.seed)))
        return 0
    measure_run = measure_traced if args.trace else measure
    result = measure_run(workload, args.seed, args.seconds)
    result["info"]["backend"] = sg.BACKEND
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
