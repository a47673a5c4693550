"""Extension bench — latency under resource constraints.

High-level synthesis context for the paper's results: with a limited
number of functional units, fewer multiplications translate into fewer
schedule cycles.  This bench list-schedules every method's dataflow graph
onto a small datapath (1 multiplier / 2 adder-class units) and reports
the latency; the proposed method should never need more cycles than the
factorization+CSE baseline on multiplier-bound systems.
"""

import pytest

from repro.dfg import build_dfg, list_schedule
from repro.suite import get_system

from bench_common import compare_system, record_table

SYSTEMS = ("Table 14.1", "Quad", "Mibench", "MVCS")
RESOURCES = {"mul": 1, "add": 2}

_ROWS: dict[str, dict[str, int]] = {}


@pytest.mark.parametrize("name", SYSTEMS)
def test_schedule_row(name, benchmark):
    system = get_system(name)

    def run():
        outcomes = compare_system(name)
        latencies = {}
        for method, outcome in outcomes.items():
            graph = build_dfg(outcome.decomposition, system.signature)
            latencies[method] = list_schedule(graph, RESOURCES).latency
        return latencies

    latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS[name] = latencies
    assert latencies["proposed"] <= latencies["direct"]


def test_schedule_summary(benchmark):
    if len(_ROWS) < len(SYSTEMS):
        pytest.skip("schedule rows did not all run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    methods = ("direct", "horner", "factor+cse", "proposed")
    lines = [
        f"resources: {RESOURCES}",
        f"{'system':12s}" + "".join(f"{m:>12s}" for m in methods),
    ]
    for name in SYSTEMS:
        row = f"{name:12s}"
        for method in methods:
            row += f"{_ROWS[name][method]:12d}"
        lines.append(row)
    record_table("Extension — list-scheduled latency (cycles)", lines)
