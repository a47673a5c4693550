"""Extension bench — low-power synthesis (the paper's future work).

The conclusion of the paper proposes investigating the algebraic
transformations for low-power synthesis.  This bench measures the
switched-capacitance estimate of every method on the Table 14.3 systems'
small rows and checks the expected shape: block sharing reduces dynamic
power along with area (the same multipliers that dominate area dominate
switched capacitance).
"""

import pytest

from repro.cost import estimate_power
from repro.suite import get_system

from bench_common import compare_system, record_table

SYSTEMS = ("Table 14.1", "Quad", "Mibench", "MVCS")

_ROWS: dict[str, dict[str, float]] = {}


@pytest.mark.parametrize("name", SYSTEMS)
def test_power_row(name, benchmark):
    system = get_system(name)

    def run():
        outcomes = compare_system(name)
        return {
            method: estimate_power(
                outcome.decomposition, system.signature
            ).switched_capacitance
            for method, outcome in outcomes.items()
        }

    powers = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS[name] = powers
    assert powers["proposed"] <= powers["direct"]
    assert powers["proposed"] <= powers["factor+cse"] * 1.0001


def test_power_summary(benchmark):
    if len(_ROWS) < len(SYSTEMS):
        pytest.skip("power rows did not all run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    methods = ("direct", "horner", "factor+cse", "proposed")
    lines = [f"{'system':12s}" + "".join(f"{m:>12s}" for m in methods)]
    for name in SYSTEMS:
        row = f"{name:12s}"
        for method in methods:
            row += f"{_ROWS[name][method]:12.0f}"
        lines.append(row)
    record_table("Extension — switched capacitance (future-work power study)", lines)
