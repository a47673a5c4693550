"""Regenerate Table 14.3 — the main experimental comparison.

For each of the eight DSP systems: area and delay of the
factorization+CSE baseline [13] vs the proposed integrated flow, plus the
percentage improvements.  The paper reports Design Compiler library units;
we report gate-equivalents from the technology model (DESIGN.md
substitution table), so *shape* is the reproduction target:

* the proposed method never loses area on any row,
* the average area improvement is in the tens of percent,
* delay is not consistently improved (area is bought with delay on
  several rows — the paper's trade-off).

Paper improvements per row (area%, delay%): SG 3X2 (50, 21.3),
SG 4X2 (55.9, -24.1), SG 4X3 (19.2, -16.3), SG 5X2 (52.3, -13.9),
SG 5X3 (54.9, -20.7), Quad (16, -9.5), Mibench (58.6, -3.7),
MVCS (28.4, -32); average area improvement ~42%.
"""

import pytest

from repro import improvement
from repro.suite import TABLE_14_3_SYSTEMS, get_system

from bench_common import compare_system, record_table

PAPER_AREA_IMPROVEMENT = {
    "SG 3X2": 50.0,
    "SG 4X2": 55.9,
    "SG 4X3": 19.2,
    "SG 5X2": 52.3,
    "SG 5X3": 54.9,
    "Quad": 16.0,
    "Mibench": 58.6,
    "MVCS": 28.4,
}

_RESULTS: dict[str, tuple[float, float]] = {}


@pytest.mark.parametrize("name", TABLE_14_3_SYSTEMS)
def test_table_14_3_row(name, benchmark):
    system = get_system(name)

    outcome = benchmark.pedantic(lambda: compare_system(name), rounds=1, iterations=1)
    base = outcome["factor+cse"].hardware
    prop = outcome["proposed"].hardware
    area_improvement = improvement(base.area, prop.area)
    delay_improvement = improvement(base.delay, prop.delay)
    _RESULTS[name] = (area_improvement, delay_improvement)

    # Shape check per row: the proposed method never loses area.
    assert prop.area <= base.area * 1.0001, (
        f"{name}: proposed area {prop.area} worse than baseline {base.area}"
    )
    # Characteristics sanity (ties the row to the paper's table).
    assert system.num_polys >= 1


def test_table_14_3_summary(benchmark):
    # Runs after the rows thanks to file ordering; tolerate partial runs.
    if len(_RESULTS) < len(TABLE_14_3_SYSTEMS):
        pytest.skip("row benches did not all run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'system':9s} {'var/deg/m':>9s} {'#p':>3s} "
        f"{'base area':>10s} {'base dly':>9s} {'prop area':>10s} {'prop dly':>9s} "
        f"{'area%':>7s} {'delay%':>7s} {'paper a%':>9s}"
    ]
    total = 0.0
    for name in TABLE_14_3_SYSTEMS:
        system = get_system(name)
        outcome = compare_system(name)
        base = outcome["factor+cse"].hardware
        prop = outcome["proposed"].hardware
        area_improvement, delay_improvement = _RESULTS[name]
        total += area_improvement
        lines.append(
            f"{name:9s} {system.characteristics():>9s} {system.num_polys:3d} "
            f"{base.area:10.0f} {base.delay:9.0f} {prop.area:10.0f} {prop.delay:9.0f} "
            f"{area_improvement:7.1f} {delay_improvement:7.1f} "
            f"{PAPER_AREA_IMPROVEMENT[name]:9.1f}"
        )
    average = total / len(TABLE_14_3_SYSTEMS)
    lines.append(f"{'average area improvement':40s} {average:7.1f}%   (paper: ~42%)")
    record_table("Table 14.3 — proposed vs factorization/CSE", lines)

    # Shape: substantial average area improvement.
    assert average > 10.0, f"average area improvement too small: {average:.1f}%"
