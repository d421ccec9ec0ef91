"""Host-speed calibration for the benchmark's times.

The benchmark runs on small shared hosts (2 CPUs) where the speed of a CPU
drifts with what other tenants run: on the host the benchmark was defined
on, the same exact pass took between 3.2 s and 6.3 s within ten minutes.
No statistic over one run removes a slowdown that lasts the whole run, so
every timed interval is bracketed by a fixed calibration loop, and a time is
reported in seconds of the reference host:

    wall time * reference loop time / mean(loop time before, loop time after)

The loop has two parts, timed apart: interpreter-bound work (integer and
Fraction arithmetic, dicts) and memory-bound numpy work (sort and bincount
over an 8 MiB array).  A workload is corrected with the parts that track it
(``Workload.calibration``).  On the 2-CPU host, over the same passes of
one run, the standard deviation of the pass times over their mean fell for
the pure-Python exact passes from 12% raw to 3.5% with the interpreter
part alone (4.6% with both parts), and for the numpy-heavy sim passes from
6.4% raw to 3.2% with both parts (6.4% and 5.8% with either alone).  The program under test never runs inside the loop, so
a change to the program moves the corrected time exactly as it moves the
wall time at unchanged host speed.

A pass of several seconds drifts within itself too, so the pass timer
(:class:`HostClock`) also runs the loop between two calls of a pass once
``SEGMENT_S`` has passed since the last loop, and corrects each such
segment on its own; the time the loops take is left out of the pass.

The loop runs in a child process (this file run as a script), which times
one loop for every line it reads on standard input.  The loop's arrays
therefore never count towards the benchmark process's peak memory.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# median time of each part of the loop on the reference host: Intel Xeon
# at 2.1 GHz, 2 CPUs, Python 3.11.7, numpy 2.4.6
REFERENCE_S = {"python": 0.030, "numpy": 0.022}
BOTH = ("python", "numpy")
# shortest stretch of a pass between two calibration loops; a loop costs
# about a tenth of it
SEGMENT_S = 0.5


def _python_loop() -> None:
    total = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        total += i * i
        table[i & 1023] = total & 255
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(1, i % 97 + 1)


def serve() -> None:
    """Time one calibration loop per line of standard input and print the
    seconds each part took, until standard input closes."""
    import numpy as np

    values = np.random.default_rng(0).random(1 << 20)
    for _ in sys.stdin:
        start = perf_counter()
        _python_loop()
        middle = perf_counter()
        keys = (values * (1 << 20)).astype(np.int64)
        np.bincount(keys, minlength=1 << 20)
        np.sort(values)
        print(middle - start, perf_counter() - middle, flush=True)


class Calibrator:
    """Times the fixed calibration loop in a child process and reports the
    time of the given parts of it.  Use it as a context manager: leaving
    the block stops the child and waits for it."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = parts
        self.reference = sum(REFERENCE_S[p] for p in parts)

    def __enter__(self) -> "Calibrator":
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def measure(self) -> float:
        """Seconds of the chosen parts of one calibration loop."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self._child.wait()}")
        return sum(float(t) for p, t in zip(BOTH, line.split()) if p in self.parts)


def corrected(walls: list[float], loops: list[float], reference: float) -> list[float]:
    """Each wall time in reference-host seconds; ``loops`` holds one loop
    time before the first interval and one after every interval, and
    ``reference`` is the loop's time on the reference host."""
    if len(loops) != len(walls) + 1:
        raise ValueError("need one calibration loop around every timed interval")
    return [w * 2 * reference / (a + b) for w, a, b in zip(walls, loops, loops[1:])]


class HostClock:
    """Times one pass at a time in wall and in reference-host seconds.
    ``checkpoint`` is called between the calls of a pass; the calibration
    loops it runs are not part of the pass."""

    def __init__(self, cal: Calibrator) -> None:
        self._cal = cal
        self._last_loop = cal.measure()

    def start(self) -> None:
        self._walls: list[float] = []
        self._loops = [self._last_loop]
        self.paused = 0.0  # seconds of calibration inside the current pass
        self._segment_start = perf_counter()

    def checkpoint(self, final: bool = False) -> None:
        now = perf_counter()
        if not final and now - self._segment_start < SEGMENT_S:
            return
        self._walls.append(now - self._segment_start)
        self._last_loop = self._cal.measure()
        self._loops.append(self._last_loop)
        self._segment_start = perf_counter()
        self.paused += self._segment_start - now

    def stop(self) -> tuple[float, float]:
        """End the pass; returns its wall time and its reference-host time."""
        self.checkpoint(final=True)
        return sum(self._walls), sum(corrected(self._walls, self._loops, self._cal.reference))


if __name__ == "__main__":
    serve()
