"""Wall times compensated for the speed of a shared host, from an in-run probe.

On a host shared with other tenants, the same Python code runs at speeds that
drift by up to ~1.6x over tens of seconds (measured on a 2-vCPU Xeon VM: a
fixed 30 ms loop took 24-27 ms at best but 27-43 ms at the median of each 10 s
window, with slow phases lasting up to a minute). Medians and minima of the
pipeline's multi-second commands inherit that drift. ``SpeedMeter`` therefore
runs a fixed probe from a SIGALRM handler every ``PROBE_INTERVAL_S`` on the
main thread, so the probe sees the same contention as the command it
interrupts. A command's compensated time is its wall time minus the probes run
inside it, scaled by ``REFERENCE_PROBE_S`` over the mean probe time around it:
seconds at the speed the reference machine has when uncontended.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

PROBE_INTERVAL_S = 0.01
MIN_PROBES = 20  # a window narrower than this many probes is widened around its centre
# Mean probe time, run from the handler, on a quiet core of the reference
# machine (2-vCPU Intel Xeon VM, Python 3.11.7); it only sets the unit of
# compensated times, which then read as that machine's quiet wall seconds.
REFERENCE_PROBE_S = 90e-6


def probe() -> int:
    """Fixed interpreter work of about 0.1 ms: fill a dict with tuple keys.

    Tuple allocation and dict growth tracked the pipeline's slowdowns better
    than the other designs tried. Those were integer arithmetic, lookups in a
    preallocated dict or list, and iteration over a numpy array. Over 5 runs
    of `hub-paths`, the spread of compensated train time was 0.03 with this
    probe, 0.08-0.14 with the others, and 0.29 uncompensated. Collection is
    paused, and every object the probe makes is freed before it returns. So
    the probe neither pays for nor triggers a collection of the program's
    heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        acc = 0
        for i in range(400):
            acc += (i * 7) % 13
            table[i % 97, i % 5] = acc
        return acc
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Times ``probe`` every ``PROBE_INTERVAL_S`` while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.cumulative: list[float] = [0.0]  # probe seconds before each sample
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a probe slower than the interval: skip the nested tick
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.cumulative.append(self.cumulative[-1] + time.perf_counter() - start)
        self._busy = False

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe_seconds(self, lo: int, hi: int) -> float:
        return self.cumulative[hi] - self.cumulative[lo]

    def seconds(self, span: tuple[float, float]) -> float:
        """Compensated duration of the wall-clock interval ``span`` = (start, end)."""
        t0, t1 = span
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        wall = t1 - t0 - self._probe_seconds(lo, hi)
        # Mean probe time over at least MIN_PROBES samples centred on the span.
        missing = MIN_PROBES - (hi - lo)
        if missing > 0:
            lo = max(0, lo - (missing + 1) // 2)
            hi = min(len(self.starts), lo + MIN_PROBES)
            lo = max(0, hi - MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("no speed probes were recorded")
        mean_probe = self._probe_seconds(lo, hi) / (hi - lo)
        return wall * REFERENCE_PROBE_S / mean_probe
