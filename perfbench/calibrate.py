"""Host-speed calibration: a fixed pure-Python kernel timed between runs.

On a shared host the CPU speed a process gets switches between states up
to 2x apart, several times a minute.  Measured on the 2-CPU reference
machine over 150-200 s of back-to-back 0.1-0.15 s simulations: per-run
walls spread 36% (IQR/median), and means over 20 s windows still spread
25%.  The time of :class:`Kernel` tracks the host's speed (correlation
0.84; simulation time ~ kernel time ** 0.81), so the benchmark reports
host times at a reference speed:

    reported seconds = measured seconds * REFERENCE_S / mean kernel seconds

with the kernel sampled between the runs of each unit and at its
boundaries.  In the same 150 s, that cut the spread of 20 s windows to
3%.  The kernel belongs to the benchmark and does not change between
the two sides of a comparison, so a change that makes the program
faster or slower moves the reported time by the same factor as the
measured one.  Raw unit seconds and kernel samples stay in the
``--out`` result.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import sys
import time

#: Kernel seconds that define the reference speed (the kernel's time on
#: the 2-CPU reference machine when its host was quiet).
REFERENCE_S = 0.02

#: What a fresh interpreter does to calibrate set-up times: start and
#: import standard modules only (never the program under test), which
#: tracks process start, page faults and unmarshalling as well as speed.
STARTUP_CODE = (
    "import argparse, dataclasses, decimal, email.message, enum, fractions, "
    "hashlib, heapq, inspect, json, random, statistics, typing"
)
#: Seconds of ``STARTUP_CODE`` that define the reference start-up speed.
STARTUP_REFERENCE_S = 0.1


def startup_seconds() -> float:
    """Host seconds for a fresh interpreter to run ``STARTUP_CODE``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], check=True)
    return time.perf_counter() - start


class _Request:
    """A request-like record with a per-instance ``__dict__``."""

    def __init__(self, block: int, arrival: float) -> None:
        self.block = block
        self.arrival = arrival
        self.done = 0.0


class Kernel:
    """A small event loop shaped like the simulator's inner loop.

    Each step creates a request object, pushes it on an event heap, and
    serves the earliest event against a table of 32k rows (a working
    set of a few MB, like a catalog), keeping a trimmed list of recent
    completions.  The table maps ints to floats, so the garbage
    collector does not track it: the kernel must not change how often
    the program's own garbage is collected.
    """

    ROWS = 1 << 15

    def __init__(self) -> None:
        self.table = {row: float(row) for row in range(self.ROWS)}

    def _run(self, rounds: int = 6_000) -> None:
        heap = []
        recent = []
        table = self.table
        now = 0.0
        state = 99
        for index in range(rounds):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            request = _Request(state & (self.ROWS - 1), now)
            heapq.heappush(heap, (now + (state & 255) / 16.0, index, request))
            if len(heap) > 40:
                now, _index, served = heapq.heappop(heap)
                value = table[served.block] * 0.5 + now
                table[served.block] = value
                served.done = now + value % 7.0
                recent.append(served)
                if len(recent) > 100:
                    recent = [old for old in recent if old.done > now - 5.0][-50:]

    def seconds(self) -> float:
        """Host seconds of one kernel run (garbage collection held off)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._run()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class SpeedTracker:
    """Kernel samples taken between timed sections, grouped per unit.

    Work spread over ``processes`` CPUs is calibrated against the kernel
    run on that many CPUs at once (the mean of their times), by idle
    calibration processes (this script, reading requests on standard
    input); use the tracker as a context manager so they are stopped.
    With one process the kernel runs in-process.  ``startup=True``
    samples :func:`startup_seconds` instead, for fresh-interpreter
    set-up times.
    """

    def __init__(self, processes: int = 1, startup: bool = False) -> None:
        self._window = []
        self._startup = startup
        self._kernel = Kernel() if processes <= 1 and not startup else None
        self._workers = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(processes if processes > 1 else 0)
        ]

    def __enter__(self) -> "SpeedTracker":
        return self

    def __exit__(self, *exc_info) -> None:
        for worker in self._workers:
            worker.stdin.close()
            worker.stdout.close()
            worker.wait(timeout=60)

    def _measure(self) -> float:
        if self._startup:
            return startup_seconds()
        if not self._workers:
            return self._kernel.seconds()
        for worker in self._workers:
            worker.stdin.write("\n")
            worker.stdin.flush()
        times = [float(worker.stdout.readline()) for worker in self._workers]
        return sum(times) / len(times)

    def sample(self) -> None:
        """Time the kernel once; call it between timed sections."""
        self._window.append(self._measure())

    def scale(self):
        """(reference seconds per measured second, samples) since the last call.

        The last sample also opens the next window: it is the boundary
        between this section and the next.
        """
        window, self._window = self._window, self._window[-1:]
        reference = STARTUP_REFERENCE_S if self._startup else REFERENCE_S
        return reference / statistics.fmean(window), window


if __name__ == "__main__":
    # Calibration worker: one kernel run per request line, until EOF.
    kernel = Kernel()
    for _request in sys.stdin:
        print(kernel.seconds(), flush=True)
