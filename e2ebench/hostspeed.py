"""Host-speed calibration shared by the benchmark's processes.

The benchmark runs on shared machines whose speed drifts by tens of
percent.  :func:`calibrate` times a fixed pure-Python loop; a time
measured between two calibrations is normalized to the reference host by
:func:`factor`.
"""

from __future__ import annotations

import time

#: Median seconds of :func:`calibrate` on the reference host (2-vCPU Intel
#: Xeon VM, CPython 3.11).
CAL_REF_S = 0.0195


def calibrate() -> float:
    """Seconds for a fixed ~20 ms pure-Python loop (dict and int work)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(120_000):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        acc += key * key % 97
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two calibrations.

    Uses the faster calibration: interference from other processes only
    ever slows a calibration down.
    """
    return CAL_REF_S / min(before, after)
