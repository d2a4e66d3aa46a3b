"""Host-speed reference: a fixed kernel timed between operations.

On a shared host the speed of the CPU this benchmark gets drifts by a
third or more for stretches of seconds to minutes, and every operation
slows or speeds with it.  The benchmark therefore times a fixed piece of
work, the kernel, every ``EVERY_S`` seconds of operation time, and reports each
operation's time scaled to the speed at which the kernel takes
``REFERENCE_KERNEL_S``:

    reported = wall time * REFERENCE_KERNEL_S / kernel time nearby

where "kernel time nearby" is the median of the kernel samples taken
within ``WINDOW_S`` seconds of the operation's start or end, and at least
of the two before it and the two after it.  The kernel is part of
the benchmark, not of the program, so a change to the program moves the
reported time and leaves the kernel alone.  The wall times stay in the
report and the run record.

The kernel is a bytecode loop, plus, for workloads that spend most of
their time in big-integer roots, two square roots of a 2*10^4-digit
square.  On a 2-vCPU Intel Xeon VM (2.0 GHz, Python 3.11) the median
over 8 stretches of 19 s of a list, an analyze and an oracle-verify call
spread 0.18-0.36 (interquartile range over median) as wall time and
0.02-0.12 after scaling by the loop, which tracked the drift better than
big-integer or allocation-heavy kernels did for these calls.  Over five
point-queries runs the loop alone left ops_per_s spread 0.069 and the
loop with the roots 0.032.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

# the kernel's time at the reference speed, by whether it takes the roots:
# about its median on the VM above
REFERENCE_KERNEL_S = {False: 3.4e-3, True: 8.3e-3}
EVERY_S = 0.1
WINDOW_S = 2.0
_NEIGHBOURS = 2  # kernel samples used at least on each side of an operation


_ROOT = 7**12_000


def kernel(bigint: bool = False) -> float:
    """Seconds taken by the fixed loop, and the roots if `bigint`."""
    t0 = perf_counter_ns()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    if bigint:
        for _ in range(2):
            math.isqrt(_ROOT * _ROOT + s)
    return (perf_counter_ns() - t0) * 1e-9


class SpeedProbe:
    """Kernel samples interleaved with a sequence of operations."""

    def __init__(self, bigint: bool) -> None:
        self.bigint = bigint
        # (operations before it, clock in s, kernel s)
        self.samples: list[tuple[int, float, float]] = []
        self.spans: list[tuple[float, float]] = []  # each operation's (start, end) clock
        self._since = 0.0

    def _sample(self, index: int) -> None:
        self.samples.append((index, perf_counter_ns() * 1e-9, kernel(self.bigint)))

    def before(self, index: int) -> None:
        """Sample the kernel before operation `index` if EVERY_S has passed."""
        if not self.samples or self._since >= EVERY_S:
            self._sample(index)
            self._since = 0.0
        self.spans.append((perf_counter_ns() * 1e-9, 0.0))

    def after(self, seconds: float) -> None:
        self._since += seconds
        self.spans[-1] = (self.spans[-1][0], perf_counter_ns() * 1e-9)

    def finish(self, count: int) -> None:
        """Sample once more after the last of `count` operations."""
        self._sample(count)

    def scales(self) -> list[float]:
        """REFERENCE_KERNEL_S / kernel time nearby, for each operation in turn."""
        reference = REFERENCE_KERNEL_S[self.bigint]
        out, j = [], 0
        for i, (start, end) in enumerate(self.spans):
            while j < len(self.samples) and self.samples[j][0] <= i:
                j += 1
            lo, hi = max(0, j - _NEIGHBOURS), min(len(self.samples), j + _NEIGHBOURS)
            while lo > 0 and self.samples[lo - 1][1] >= start - WINDOW_S:
                lo -= 1
            while hi < len(self.samples) and self.samples[hi][1] <= end + WINDOW_S:
                hi += 1
            out.append(reference / statistics.median(s[2] for s in self.samples[lo:hi]))
        return out


def bracketed(measure) -> float:
    """Run measure() between kernel samples; return its seconds, scaled."""
    before = [kernel() for _ in range(3)]
    seconds = measure()
    after = [kernel() for _ in range(3)]
    return seconds * REFERENCE_KERNEL_S[False] / statistics.median(before + after)
