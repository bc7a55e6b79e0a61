"""Host speed sampler: scales measured times to a fixed reference speed.

On a shared host the same code runs up to 1.6x slower while the other
tenants are busy, in episodes that last from seconds to minutes, and a
process can land on a CPU that is slower than the other for as long as it
lives; so whole runs of the benchmark drift with the host (see NOTES.md).
The sampler measures that drift inside the run. A timer signal interrupts
the main thread every ``INTERVAL_S``; the handler times ``reference()``, a
fixed pure-Python loop of the same kind of work as the program's (float
arithmetic, list indexing, ``math.hypot``), in wall and in CPU time.

The host's slowdown over an interval is the mean of those timings, less
the slowest tenth, divided by the nominal timing. (The slowest tenth holds
the rare sample that a pause of a few milliseconds hit; over a short
interval one of them would outweigh the rest.) A time measured over the
interval, less the handler's own time, divided by that slowdown, is the
time the same work takes on a host that runs the reference loop in its
nominal time. That host is this one when it is quiet.

The reference loop does not depend on the program, so a change to the
program moves the scaled times as it moves the raw ones. The raw times
are kept next to the scaled ones in the result file.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter, process_time, thread_time
from typing import NamedTuple

INTERVAL_S = 0.02
REFERENCE_ITERATIONS = 400
# reference() timings on a quiet 2-vCPU Xeon host (Python 3.11.7)
NOMINAL_WALL_S = 100e-6
NOMINAL_CPU_S = 100e-6
# an interval with fewer samples than this borrows the nearest ones around it
MIN_SAMPLES = 25


def _typical_mean(values: list[float]) -> float:
    """Mean of the values less the largest tenth of them."""
    ordered = sorted(values)
    return sum(ordered[: len(ordered) - len(ordered) // 10]) / (len(ordered) - len(ordered) // 10)


def reference() -> float:
    hypot = math.hypot
    row = [0.0] * 64
    for i in range(REFERENCE_ITERATIONS):
        j = i & 63
        c = hypot(i * 0.001, j * 0.5)
        best = row[j - 1]
        if row[j] < best:
            best = row[j]
        row[j] = 0.5 * (c + best)
    return row[0]


class Mark(NamedTuple):
    """A point of a run: clocks, the handler's time so far, samples so far."""

    wall: float
    cpu: float
    busy_wall: float
    busy_cpu: float
    samples: int


class Sampler:
    """Times reference() from a SIGALRM handler while it is started."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.busy_wall = 0.0
        self.busy_cpu = 0.0
        self._previous = None

    def _handle(self, signum, frame) -> None:
        t0, c0 = perf_counter(), thread_time()
        reference()
        c1, t1 = thread_time(), perf_counter()
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.busy_wall += perf_counter() - t0
        self.busy_cpu += thread_time() - c0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> Mark:
        return Mark(perf_counter(), process_time(), self.busy_wall, self.busy_cpu, len(self.wall))

    def _window(self, lo: int, hi: int) -> slice:
        missing = MIN_SAMPLES - (hi - lo)
        if missing > 0:
            lo = max(0, lo - (missing + 1) // 2)
            hi = min(len(self.wall), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        return slice(lo, hi)

    def slowdown(self, a: Mark, b: Mark) -> tuple[float, float]:
        """Wall and CPU slowdown of the host between two marks, against nominal."""
        return self.slowdown_between(a.samples, b.samples)

    def slowdown_between(self, lo: int, hi: int) -> tuple[float, float]:
        """Wall and CPU slowdown over samples lo to hi, or around lo when
        lo == hi, against nominal."""
        window = self._window(lo, hi)
        wall, cpu = self.wall[window], self.cpu[window]
        if not wall:
            return 1.0, 1.0
        return _typical_mean(wall) / NOMINAL_WALL_S, _typical_mean(cpu) / NOMINAL_CPU_S

    def scaled_wall(self, a: Mark, b: Mark) -> float:
        """Wall time from a to b less the handler's, at reference speed."""
        return (b.wall - a.wall - (b.busy_wall - a.busy_wall)) / self.slowdown(a, b)[0]

    def scaled_cpu(self, a: Mark, b: Mark) -> float:
        """Process CPU time from a to b less the handler's, at reference speed."""
        return (b.cpu - a.cpu - (b.busy_cpu - a.busy_cpu)) / self.slowdown(a, b)[1]
