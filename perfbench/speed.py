"""Machine-speed calibration for wall-clock figures.

On a shared 2-core box (CPython 3.11.7) speed changes by up to 1.5x
within seconds, because other tenants share the cores, so raw wall
times of one run say more about the neighbours than about the program.
A worker runs a fixed pure-Python kernel every :data:`EVERY_S` seconds
between operations; a scaled time is the measured wall time times
``REF_S / kernel time nearby``, i.e. expressed at the speed of a machine
on which the kernel takes :data:`REF_S`.  The kernel runs no code of
the program, so a change to the program moves scaled times in the same
proportion as raw ones; raw times are reported beside them.
"""

import statistics
import time
from typing import List, Tuple

ITERATIONS = 3000
EVERY_S = 0.25
REF_S = 0.0035
NEAREST = 5
BRACKET = 3


def kernel() -> float:
    """Seconds one run of the fixed kernel takes now.  It mixes the
    operations the program's hot paths are made of: int arithmetic,
    bytearray slices with ``int.from_bytes``/``to_bytes``, dict probes."""
    mem = bytearray(4096)
    table = {}
    acc = 7
    start = time.perf_counter()
    for i in range(ITERATIONS):
        j = (i * 40) & 4088
        acc = (acc * 31 + int.from_bytes(mem[j:j + 8], "little")) \
            & 0xFFFFFFFF
        mem[j:j + 8] = acc.to_bytes(8, "little")
        table[i & 255] = acc
        acc ^= table.get((i * 7) & 255, 0)
    return time.perf_counter() - start


class Speed:
    """Kernel samples of one process, and the scale factor for a time
    interval derived from them."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (midpoint, seconds)
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Sample the kernel if :data:`EVERY_S` passed since the last
        sample (call it only between timed operations)."""
        now = time.perf_counter()
        if force or now - self._last >= EVERY_S:
            seconds = kernel()
            self.samples.append((now + seconds / 2, seconds))
            self._last = time.perf_counter()

    def bracket(self) -> None:
        """Take :data:`BRACKET` samples now, on one side of an interval
        too short to hold samples of its own."""
        for _ in range(BRACKET):
            self.tick(force=True)

    def factor(self, start: float, end: float) -> float:
        """``REF_S`` over the kernel's median time during [start, end],
        or over the :data:`NEAREST` samples nearest to it when fewer
        were taken inside."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda x: abs(x[0] - mid))
            inside = [s for _, s in nearest[:NEAREST]]
        return REF_S / statistics.median(inside)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)

    def median_kernel_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
