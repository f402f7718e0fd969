"""Host-speed probe: how fast the host is running right now.

The reference host is a shared virtual machine whose speed shifts by up to
1.6x for minutes at a time.  Its CPU time stretches with its wall time, so
this is slower execution, not time stolen by other guests.  Raw wall-clock
medians therefore moved by 20-50% between runs of unchanged code.  The
benchmark times a fixed loop next to the work it measures and reports that
work scaled to a reference host speed: wall time divided by the slowdown
the probes read.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the probe loop.
PROBE_LOOPS = 2000

#: The probe's time on the reference host at its usual full speed.  Timed
#: work is reported as it would run on a host that runs the probe this fast.
REFERENCE_PROBE_S = 100e-6


def probe_host() -> float:
    """Time a fixed arithmetic loop in this thread's CPU time (waits for the
    GIL or a lock do not count)."""
    started = time.thread_time()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value & 7
    return time.thread_time() - started


def host_slowdown(*probes: float) -> float:
    """How much slower than the reference speed the host ran, from the
    probes taken around a piece of work."""
    return statistics.mean(probes) / REFERENCE_PROBE_S
