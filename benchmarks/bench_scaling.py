"""Scaling bench — flow cost vs system size (DESIGN.md index).

Sweeps the Savitzky-Golay family over window sizes and records synthesis
runtime, combinations scored, and the area ratio vs the baseline.  Shape:
runtime grows with the window (more polynomials, more representations)
while the relative area win persists — the search heuristics (family
seeds, budgeted descent) keep the 25-polynomial rows tractable.
"""

import time

import pytest

from repro.baselines import factor_cse_decomposition
from repro.core import SynthesisOptions, synthesize
from repro.cost import estimate_decomposition
from repro.suite import savitzky_golay_system

from bench_common import record_table

WINDOWS = (2, 3, 4)

_ROWS: list[tuple[int, float, int, float, float]] = []


@pytest.mark.parametrize("window", WINDOWS)
def test_scaling_window(window, benchmark):
    system = savitzky_golay_system(window, 2)
    options = SynthesisOptions(descent_budget=60)

    def run():
        start = time.perf_counter()
        result = synthesize(list(system.polys), system.signature, options)
        elapsed = time.perf_counter() - start
        return result, elapsed

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    proposed = estimate_decomposition(result.decomposition, system.signature)
    baseline = estimate_decomposition(
        factor_cse_decomposition(list(system.polys)), system.signature
    )
    _ROWS.append(
        (window, elapsed, result.provenance.combinations_scored, baseline.area, proposed.area)
    )
    assert proposed.area <= baseline.area * 1.0001


def test_scaling_summary(benchmark):
    if len(_ROWS) < len(WINDOWS):
        pytest.skip("scaling rows did not all run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'window':>6s} {'polys':>6s} {'time/s':>8s} {'scored':>7s} "
        f"{'base area':>10s} {'prop area':>10s}"
    ]
    for window, elapsed, scored, base_area, prop_area in sorted(_ROWS):
        lines.append(
            f"{window:6d} {window * window:6d} {elapsed:8.2f} {scored:7d} "
            f"{base_area:10.0f} {prop_area:10.0f}"
        )
    record_table("Scaling — SG family sweep (degree 2)", lines)
