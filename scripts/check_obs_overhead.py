#!/usr/bin/env python
"""Gate the cost of full observability at 5% of cold synthesis time.

Synthesizes seven paper systems (with their benchmark options) cold,
twenty times per side: with observability off and under a recorder
that keeps spans and events in memory, which is what
``REPRO_TRACE=1 REPRO_EVENTS=1`` builds.  Each row's two runs are a
back-to-back pair whose order alternates between repeats, and every run
starts from ``clear_synthesis_caches()`` and a full garbage collection,
so no run pays for collecting the span trees of the one before it.

A shared host switches between speeds within a second, so two runs
compare fairly only when they run next to each other.  Each row's
overhead is the median of its twenty paired ratios (observed over
plain), which discards the pairs a speed change split.  The gate is the
mean of those medians weighted by each row's median plain time, which
approximates the summed cold time of the seven rows, observed over
plain; it fails above 1.05.

Exit status: 0 when the ratio is at most 1.05, 1 otherwise.

Usage::

    python3 scripts/check_obs_overhead.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench_common import bench_options  # noqa: E402
from repro.core import clear_synthesis_caches, synthesize  # noqa: E402
from repro.obs import NULL_TRACER, RingBufferSink, Tracer, use_tracer  # noqa: E402
from repro.suite import get_system  # noqa: E402

ROWS = ("Table 14.1", "Table 14.2", "SG 3X2", "SG 4X2", "Quad", "Mibench", "MVCS")
#: Even, so each side runs first equally often.
REPEATS = 20
MAX_RATIO = 1.05


def cold_seconds(name: str, observed: bool) -> float:
    system = get_system(name)
    options = bench_options(name)
    clear_synthesis_caches()
    gc.collect()
    recorder = Tracer(sinks=[RingBufferSink()]) if observed else NULL_TRACER
    with use_tracer(recorder):
        started = time.perf_counter()
        synthesize(list(system.polys), system.signature, options)
        return time.perf_counter() - started


def main() -> int:
    plain: dict[str, list[float]] = {name: [] for name in ROWS}
    ratios: dict[str, list[float]] = {name: [] for name in ROWS}
    for repeat in range(REPEATS):
        sides = (False, True) if repeat % 2 == 0 else (True, False)
        for name in ROWS:
            seconds = {observed: cold_seconds(name, observed) for observed in sides}
            plain[name].append(seconds[False])
            ratios[name].append(seconds[True] / seconds[False])

    print(f"{'system':12s} {'plain ms':>9s} {'ratio':>6s}")
    weights = {name: statistics.median(plain[name]) for name in ROWS}
    overheads = {name: statistics.median(ratios[name]) for name in ROWS}
    for name in ROWS:
        print(f"{name:12s} {weights[name] * 1e3:9.1f} {overheads[name]:6.3f}")
    ratio = sum(weights[n] * overheads[n] for n in ROWS) / sum(weights.values())
    verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
    print(f"observed/plain {ratio:.3f} (limit {MAX_RATIO}): {verdict}")
    return 0 if ratio <= MAX_RATIO else 1


if __name__ == "__main__":
    sys.exit(main())
