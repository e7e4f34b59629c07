"""Machine speed, sampled while requests run.

The benchmark shares its machine, and that machine's speed for interpreted
Python swings by half or more within tens of seconds.  A fixed kernel of
plain interpreter work (dict, tuple and integer operations, no telesum code)
is timed BRACKET times right before every request, and every
SAMPLE_EVERY_S of CPU time from a profiling-timer signal, so samples land
inside long requests.  Each request's time is scaled by
REFERENCE_S / (median kernel time within NEAR_S of the request), which
reports it at a fixed machine speed.  The samples that scale a request are
its own and those taken before the next one, so even a request of a few
milliseconds is scaled by the speed of the moment it ran.  The kernel's own
time is taken out of the request it interrupted.  Raw times are kept beside
the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_S = 0.00125  # kernel time at the reference speed
SAMPLE_EVERY_S = 0.1  # CPU seconds between samples inside a request
BRACKET = 2  # samples taken right before each request
NEAR_S = 0.004  # samples this close to a request scale it


def kernel() -> int:
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i // 97)
        table[key] = table.get(key, ()) + (i,)
    return len(table)


class SpeedSampler:
    """Timestamped kernel timings; `spent` tallies the time they took."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((end, end - start))
        self.spent += end - start

    def bracket(self) -> None:
        """Samples right before a request; they also close the one before."""
        for _ in range(BRACKET):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time near [start, end]; the
        two nearest samples when none is within NEAR_S."""
        near = [s for t, s in self.samples if start - NEAR_S <= t <= end + NEAR_S]
        if not near:
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - end))[:2]]
        return REFERENCE_S / statistics.median(near)
