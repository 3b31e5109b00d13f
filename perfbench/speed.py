"""Machine-speed reference: a fixed piece of work timed throughout a run.

The shared 2-core machine the benchmark was defined on changes speed by up
to 40% over minutes, and every kind of work slows together: interpreter
loops, small numpy calls and memory-bound numpy calls alike.  Run-to-run
spread from that drift would swamp the bounds in BENCHMARK.json.  So each
run also times this reference work between ops, outside every op interval,
and the time metrics are scaled by how fast the reference ran against its
time on the reference machine.  The reference is the benchmark's own code
and never calls dpsampler, so a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean time of one reference sample on the reference machine; it fixes the
# scale only, so scaled times read as the reference machine's
NOMINAL_S = 0.0048
INTERVAL_S = 0.25  # at most one sample per quarter second of ops


class SpeedReference:
    """Times the reference work now and then; ``factor`` is the run's slowness."""

    def __init__(self):
        # interpreter work like CSV parsing, plus many small numpy calls; the
        # working set stays small so that what the previous op left in the
        # caches barely moves it
        self._lines = [str(i % 97) for i in range(20_000)]
        self._data = np.random.default_rng(0).standard_normal(4096)
        self._out = np.empty_like(self._data)
        self.samples = []
        self._last = None

    def _work(self) -> float:
        total = float(sum(int(s) for s in self._lines))
        for _ in range(300):
            np.multiply(self._data, 1.0001, out=self._out)
            total += float(self._out[7])
        return total

    def sample(self) -> None:
        start = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def between_ops(self) -> None:
        if self._last is None or time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Mean reference time over its nominal time: above 1 means a slow run.

        A mean, not a median: single samples are short and fall into a fast
        or a slow state of the machine, and an op pays the average of the
        states it spans.
        """
        return statistics.fmean(self.samples) / NOMINAL_S
