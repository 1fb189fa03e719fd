"""Machine-speed references for the benchmark's timings.

The benchmark shares its machine with other work, and the speed of one
CPU core drifts by up to 2x over tens of seconds.  So the benchmark
times a fixed reference next to the program, and scales each program
time by the reference's nominal time over its time at that moment.
A timing is thus reported as it would read on a machine where the
reference takes its nominal time.  The raw times stay in the run record.

Two references, because the drift does not move all work alike:

* LOOP, a fixed standard-library loop, for work inside one interpreter.
  It runs with the garbage collector off, so the collector's work on
  objects the package keeps alive is charged to the package.
* PROCESS, the start of a bare interpreter (``python -c pass``), for
  work that starts fresh interpreters.  Process start-up follows the
  drift less than a Python loop does, so the loop would over-correct it.

Neither reference touches the package, so no change to the package
moves them.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class _Row:
    x: int
    y: int


def _loop() -> int:
    seen = {}
    rows = []
    acc = 0
    for i in range(1, 300):
        key = (i, i * 3 % 7, i // 5)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(i, i % 11 + 1).numerator
        row = _Row(i, -i)
        rows.append((row.y, "%d/%d" % (row.x, i % 7 + 1), [row.x, row.y]))
    rows.sort()
    return acc + len(seen) + len(rows)


def loop_s() -> float:
    """Best of three timings of the reference loop, in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def bare_interpreter_s() -> float:
    """Wall time of one bare interpreter, start to exit, in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Reference:
    """A reference timer, its time at nominal machine speed, and how much
    measured time may pass between two of its runs."""

    name: str
    time_s: Callable[[], float]
    nominal_s: float
    block_s: float

    def scale(self, before_s: float, after_s: float) -> float:
        """Factor to nominal speed for work timed between two runs."""
        return self.nominal_s / ((before_s + after_s) / 2)


# Nominal times are about the fastest seen on a 2.0 GHz Xeon core with
# Python 3.11.
LOOP = Reference("loop", loop_s, nominal_s=0.5e-3, block_s=0.05)
PROCESS = Reference("process", bare_interpreter_s, nominal_s=40e-3, block_s=0.3)
