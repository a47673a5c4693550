"""Ablation bench — contribution of each phase of the integrated flow.

DESIGN.md calls out four design decisions for ablation; this bench turns
each phase off in turn and measures the area on a representative set of
systems.  Expected shape: the full flow is never worse than any ablated
variant, and each phase is *load-bearing* on at least one system (turning
it off hurts somewhere).
"""

import pytest

from repro.core import SynthesisOptions, synthesize
from repro.cost import estimate_decomposition
from repro.suite import get_system

from bench_common import record_table

SYSTEMS = ("Table 14.1", "Table 14.2", "Quad", "Mibench", "MVCS")

VARIANTS = {
    "full": SynthesisOptions(),
    "no-cce": SynthesisOptions(enable_cce=False),
    "no-division": SynthesisOptions(enable_division=False),
    "no-factoring": SynthesisOptions(enable_factoring=False),
    "no-canonical": SynthesisOptions(enable_canonical=False),
    "no-cse-exposure": SynthesisOptions(enable_cse_exposure=False),
    "ops-objective": SynthesisOptions(objective="ops"),
}

_AREAS: dict[tuple[str, str], float] = {}


def _area(system_name: str, variant: str) -> float:
    key = (system_name, variant)
    if key not in _AREAS:
        system = get_system(system_name)
        result = synthesize(
            list(system.polys), system.signature, VARIANTS[variant]
        )
        _AREAS[key] = estimate_decomposition(
            result.decomposition, system.signature
        ).area
    return _AREAS[key]


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_ablation_system(system_name, benchmark):
    def run():
        return {variant: _area(system_name, variant) for variant in VARIANTS}

    areas = benchmark.pedantic(run, rounds=1, iterations=1)
    # The full flow must be at least as good as every ablation on this
    # system (the search includes each ablated flow's candidates).
    full = areas["full"]
    for variant, area in areas.items():
        if variant in ("full", "ops-objective"):
            continue
        assert full <= area * 1.0001, (
            f"{system_name}: full flow ({full}) worse than {variant} ({area})"
        )


def test_ablation_summary(benchmark):
    if len(_AREAS) < len(SYSTEMS) * len(VARIANTS):
        pytest.skip("ablation rows did not all run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    header = f"{'system':12s}" + "".join(f"{v:>16s}" for v in VARIANTS)
    lines = [header]
    for system_name in SYSTEMS:
        row = f"{system_name:12s}"
        for variant in VARIANTS:
            row += f"{_AREAS[(system_name, variant)]:16.0f}"
        lines.append(row)
    record_table("Ablation — area (GE) per disabled phase", lines)

    # Each phase must matter somewhere: disabling it should cost area on
    # at least one system.
    for variant in ("no-cce", "no-division", "no-factoring"):
        hurts_somewhere = any(
            _AREAS[(s, variant)] > _AREAS[(s, "full")] * 1.01 for s in SYSTEMS
        )
        assert hurts_somewhere, f"{variant} never changed any result"
