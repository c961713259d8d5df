"""Machine-speed calibration for host-time metrics.

On a shared virtual machine the host runs this process slower or faster
in phases of a few seconds (the same pure-Python loop varies by 20-30%
between phases while the process's CPU time tracks its wall time), so a
raw wall time measures the neighbours as much as the program.

The benchmark therefore times a fixed pure-Python loop, :func:`chunk`, at
every pass boundary and before every probed compile or simulation, and
a :func:`sample` of several chunks around every set-up repetition. Each
stretch of time between two chunks is weighted by
``REF_CHUNK_S / (mean duration of the two chunks)``: the host time the
stretch would have taken at the reference machine's quiet speed. Chunk
time itself is taken out of every interval. The program cannot move the
chunk, so a change to the program still moves every normalised time by
its own share.
"""

from __future__ import annotations

import bisect
import time

_clock = time.perf_counter

#: Iterations of the calibration loop: 8-15 ms on the reference
#: machine (shared 2-vCPU x86 VM, Xeon at 2.1 GHz).
CHUNK_ITERATIONS = 60_000

#: Duration of one chunk on the reference machine in its fast phases
#: (lowest of many samples). Normalised times are in "reference
#: seconds": what the interval would take at this speed.
REF_CHUNK_S = 0.0075


def chunk() -> float:
    """Run the calibration loop once; return its duration in seconds."""
    start = _clock()
    table = {}
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return _clock() - start


#: Chunks in one :func:`sample`.
SAMPLE_CHUNKS = 5


def sample() -> tuple[float, float, float]:
    """Run :data:`SAMPLE_CHUNKS` chunks back to back; return ``(start,
    end, chunk duration)`` on the benchmark clock, the duration being the
    median chunk's. For long intervals with few samples around them,
    such as a set-up repetition."""
    start = _clock()
    durations = sorted(chunk() for _ in range(SAMPLE_CHUNKS))
    return start, _clock(), durations[SAMPLE_CHUNKS // 2]


class Timeline:
    """Piecewise speed weights from a list of calibration samples
    ``(start, end, chunk duration)``."""

    def __init__(self, samples: list[tuple[float, float, float]]):
        if not samples:
            raise ValueError("no calibration samples")
        self.samples = sorted(samples)
        self.starts = [s for s, _, _ in self.samples]
        durations = [d for _, _, d in self.samples]
        # Gap k runs from the end of sample k to the start of sample k+1;
        # before the first and after the last sample, the nearest
        # sample's speed holds.
        self.factors = [
            REF_CHUNK_S / ((a + b) / 2)
            for a, b in zip(durations, durations[1:])
        ]
        self.edge = (
            REF_CHUNK_S / durations[0], REF_CHUNK_S / durations[-1]
        )

    def factor(self) -> float:
        """Mean speed factor over the samples (for reporting)."""
        return sum(REF_CHUNK_S / d for _, _, d in self.samples) / len(
            self.samples
        )

    def normalise(self, a: float, b: float) -> float:
        """Reference seconds of ``[a, b]``, chunk time taken out."""
        if b <= a:
            return 0.0
        samples, total = self.samples, 0.0
        first_start, last_end = samples[0][0], samples[-1][1]
        if a < first_start:
            total += (min(b, first_start) - a) * self.edge[0]
        if b > last_end:
            total += (b - max(a, last_end)) * self.edge[1]
        k = max(0, bisect.bisect_right(self.starts, a) - 1)
        while k < len(self.factors):
            lo, hi = samples[k][1], samples[k + 1][0]
            if lo >= b:
                break
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += overlap * self.factors[k]
            k += 1
        return total

    def chunk_time(self, a: float, b: float) -> float:
        """Host seconds of calibration chunks inside ``[a, b]``."""
        return sum(
            max(0.0, min(b, e) - max(a, s)) for s, e, _ in self.samples
        )
