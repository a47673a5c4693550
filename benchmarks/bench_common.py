"""Shared helpers for the paper-reproduction benchmarks.

Kept outside ``conftest.py`` so bench modules can import it by name
regardless of how pytest assembles ``sys.path``.
"""

from __future__ import annotations

from repro import compare_methods
from repro.core import SynthesisOptions
from repro.suite import get_system

_REPORTS: list[tuple[str, list[str]]] = []


def record_table(title: str, lines: list[str]) -> None:
    """Register a regenerated paper table for the end-of-run summary."""
    _REPORTS.append((title, list(lines)))


def recorded_tables() -> list[tuple[str, list[str]]]:
    return list(_REPORTS)


_COMPARISON_CACHE: dict[str, dict] = {}

#: Search knobs per system: the 16/25-polynomial SG rows get a smaller
#: descent budget so the whole Table 14.3 regeneration stays tractable.
_OPTIONS: dict[str, SynthesisOptions] = {
    "SG 4X2": SynthesisOptions(descent_budget=60),
    "SG 4X3": SynthesisOptions(descent_budget=40),
    "SG 5X2": SynthesisOptions(descent_budget=40),
    "SG 5X3": SynthesisOptions(descent_budget=30),
}


def bench_options(name: str) -> SynthesisOptions:
    """The search knobs a named system is benchmarked with."""
    return _OPTIONS.get(name, SynthesisOptions())


def compare_system(name: str) -> dict:
    """compare_methods() over a named benchmark system, once per process."""
    if name not in _COMPARISON_CACHE:
        _COMPARISON_CACHE[name] = compare_methods(
            get_system(name),
            bench_options(name),
            methods=("direct", "horner", "factor+cse", "proposed"),
        )
    return _COMPARISON_CACHE[name]
