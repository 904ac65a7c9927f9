"""Machine-speed probe: a fixed piece of the benchmark's own work.

The shared hosts this benchmark runs on change speed by up to a third
over minutes, for the program and for any other code alike: a
pure-Python loop ran 13.9 to 21.2 ms per call in 2-second windows of one
minute, while process CPU time tracked wall time.  No run length or
median removes that, so every end-to-end time is reported at a
reference speed.  A run times this probe between its jobs and scales
each raw time by ``REFERENCE_PROBE_S / median probe time``; the program
cannot change the probe's work, so a faster program still reads
faster, while a slower machine no longer does.  Raw figures are printed
before the result line.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Median probe time on the reference machine (2-vCPU x86-64 VM, Intel
#: Xeon, CPython 3.11.7, numpy 2.4.6) at its faster moments; scaled times
#: are times on a machine where the probe takes this long.
REFERENCE_PROBE_S = 0.30e-3


class SpeedProbe:
    """Collects probe timings; :meth:`scale` turns raw times into
    reference-speed times."""

    def __init__(self) -> None:
        import numpy

        self.samples: List[float] = []
        self._array = numpy.arange(2048.0)
        self._sqrt = numpy.sqrt

    def sample(self) -> None:
        """Time one probe: interpreter work plus small numpy calls."""
        a = self._array
        t0 = time.perf_counter()
        total = 0
        for i in range(2500):
            total += i * i
        for _ in range(24):
            a = self._sqrt(a * a + 1.0)
        self.samples.append(time.perf_counter() - t0)

    def burst(self, count: int = 200) -> None:
        for _ in range(count):
            self.sample()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from this machine's current speed to the reference's."""
        return REFERENCE_PROBE_S / self.median_s()
