"""A speed gauge that shares the benchmark's CPU, so that times can be read at a
fixed machine speed.

On a shared box the host runs the same code at speeds up to 2x apart. The
slow share changes every few seconds and drifts over tens of minutes, and CPU
time slows along with wall time, so no arrangement of repeats cancels it. The
benchmark therefore pins itself and this gauge process to one CPU. While the
two take turns on that CPU, every few milliseconds, the gauge keeps repeating
a fixed unit of work of the simulator's kind (frozen-dataclass rewrites, dict
building, float sums). A timed interval is then read as

    (CPU seconds of the interval) x (gauge units per gauge CPU second) / NOMINAL_RATE

that is, in seconds at the speed at which the gauge does ``NOMINAL_RATE``
units per second. The unit of work and ``NOMINAL_RATE`` must never change;
otherwise figures taken before and after the change cannot be compared.

The gauge runs at the benchmark's priority, so timed work takes about twice
its CPU time in wall time. A gauge at a lower priority samples the CPU less
often and tracked worse. On a shared 2-vCPU Xeon VM, 14 runs each of
``default-crl`` gave gauged times with quartile spreads of 2.2% at equal
priority, 6.5% at nice 10 and 8% at nice 19. The CPU times of the same runs
moved by up to 30%. A gauge that slept 2 ms between units made the timed runs
themselves take 10-50% more CPU time in two trials.

Run as a script, this file is the gauge process. For each byte it reads on
stdin, it writes one line: the units done so far and its CPU nanoseconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace

NOMINAL_RATE = 2500.0  # gauge units per CPU second


def at_nominal(cpu_seconds: float, rate: float) -> float:
    """CPU seconds taken at gauge speed ``rate``, expressed at ``NOMINAL_RATE``."""
    return cpu_seconds * rate / NOMINAL_RATE


@dataclass(frozen=True)
class _Item:
    left: float
    rate: float


_ITEMS = [_Item(float(i), float(i % 7 + 1)) for i in range(200)]


def _unit() -> float:
    items = [replace(item, left=item.left - 1.0) for item in _ITEMS]
    ratios = {i: item.left / item.rate for i, item in enumerate(items)}
    return sum(ratios.values())


def serve():
    os.set_blocking(0, False)
    units = 0
    while True:
        _unit()
        units += 1
        try:
            request = os.read(0, 64)
        except BlockingIOError:
            continue
        if not request:
            return
        os.write(1, f"{units} {time.process_time_ns()}\n".encode())


class Gauge:
    """Client side: starts the gauge on the caller's CPU and reads intervals.

    The caller must already be pinned to a single CPU; the gauge inherits it.
    """

    MIN_GAUGE_NS = 10_000_000  # less gauge CPU than this gives no usable rate

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._read()  # wait until the gauge runs
        self.last_rate = None
        self.rate_during(lambda: time.sleep(0.05))

    def _read(self) -> tuple[int, int]:
        self._proc.stdin.write(b"?")
        self._proc.stdin.flush()
        units, cpu_ns = self._proc.stdout.readline().split()
        return int(units), int(cpu_ns)

    def rate_during(self, fn):
        """Call ``fn()``; return its result and the gauge's units per CPU second meanwhile.

        An interval too short for the gauge to run in reuses the previous rate.
        """
        units0, gauge0 = self._read()
        result = fn()
        units1, gauge1 = self._read()
        if gauge1 - gauge0 >= self.MIN_GAUGE_NS or self.last_rate is None:
            self.last_rate = (units1 - units0) * 1e9 / (gauge1 - gauge0)
        return result, self.last_rate

    def measure(self, fn):
        """Call ``fn()``; return its result and its CPU time at nominal speed."""
        def timed():
            start = time.process_time()
            result = fn()
            return result, time.process_time() - start

        (result, cpu), rate = self.rate_during(timed)
        return result, at_nominal(cpu, rate)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    serve()
