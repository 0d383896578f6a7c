"""Host speed calibration, so that timings are compared at one reference speed.

The benchmark runs on a shared host whose speed changes by up to 2x within
seconds to minutes (other tenants' load), and a run of 30 seconds can sit
wholly in a slow or a fast stretch.  Every timed stretch is therefore
bracketed by a probe: a fixed pure-Python loop (dict updates on small ints)
that shares no code with the engine.  A duration measured between two
probes is scaled by ``REFERENCE_S / mean(probe before, probe after)``; the
result is the duration the same work would take on a host where the probe
takes ``REFERENCE_S``, about this benchmark's 2-vCPU host at its fast speed.

The probe cannot see a change to the engine, so the scaled figures still move
with every change to the engine in full; only the host's speed is divided
out.  The raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0025
PROBE_REPEATS = 3


def _probe_work() -> int:
    counts: dict[int, int] = {}
    for i in range(20000):
        key = i % 1000
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def probe() -> float:
    """Seconds the fixed loop takes now (median of ``PROBE_REPEATS``)."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a duration timed between two probes into reference seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
