"""Times rescaled to a fixed core speed, using a reference task timed between ops.

On a shared host the core this benchmark runs on changes speed by up to
2x, for a few seconds to a minute at a time, as neighbours contend for
it; a whole 25 s run can fall in one slow spell.  Raw times then say
more about the neighbours than about accesslint.  The Speedometer times
a fixed reference task (the benchmark's own oracle on one fixed
document, never accesslint) every PERIOD_S seconds, between ops.  A
time measured over [start, end] is divided by the slowdown around it
(the median time of the probes around it over REFERENCE_S) raised to
SENSITIVITY: it is reported as it would have been on a core that runs
the reference task in REFERENCE_S.  The probe runs with the garbage
collector off, so collections the program's heap makes necessary are
charged to the ops, not to the probe.

What the correction cannot tell apart from a slower core is a change
that slows the probe itself: another thread of this process running
during it, say.  run.py therefore prints the raw figures and the probe
median of every run, and reports them in the traced result as
raw.ops_per_s, raw.op_p50_ms and speed.probe_ms; a probe median that
moves between two versions of the program flags such a change.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

import gen
import oracle

PERIOD_S = 0.05
# Probes either side of a measurement whose median gives its slowdown:
# one to three seconds' worth, because single probes jitter more than
# the core's speed changes over that time.
NEIGHBOURS = 10
# Reference task time that defines the reported core speed.
REFERENCE_S = 150e-6
# How closely the ops follow the reference task when the core changes
# speed: a time is divided by slowdown ** SENSITIVITY.  On the host this
# was built on, log op time against log probe time over 3 s windows of
# each workload had slopes 0.66 (ci-fleet) to 0.94 (policy-churn), with
# correlations of 0.92 to 0.97; dividing by the full slowdown overcorrects.
SENSITIVITY = 0.8


class Speedometer:
    def __init__(self):
        self._reference = gen.small_doc(random.Random("reference task"), "reference", 50).data
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            oracle.validate(self._reference)  # bring its data into cache, so only speed is timed
            start = perf_counter()
            oracle.validate(self._reference)
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.took.append(took)

    def maybe_probe(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= PERIOD_S:
            self.probe()

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time around [start, end], over REFERENCE_S."""
        lo = max(0, bisect.bisect_left(self.at, start) - NEIGHBOURS)
        hi = bisect.bisect_right(self.at, end) + NEIGHBOURS
        return statistics.median(self.took[lo:hi]) / REFERENCE_S

    def correct(self, start: float, seconds: float) -> float:
        return seconds / self.slowdown(start, start + seconds) ** SENSITIVITY

    def median_ms(self) -> float:
        """Median reference-task time over every probe so far."""
        return statistics.median(self.took) * 1000
