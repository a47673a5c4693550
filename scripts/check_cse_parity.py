#!/usr/bin/env python
"""Replay real CSE traffic through the full-rebuild oracle.

Synthesizes the ten paper-table systems (with their benchmark options)
and the first 100 fuzz-stream systems of seed 0, recording the input of
every ``eliminate_common_subexpressions`` call.  Each recorded input is
then run again through the library's extractor and through the
full-rebuild extractor of ``tests/cse/full_rebuild.py``; the two results
must be identical: block names, bodies and insertion order, rewritten
polynomials (terms, term order and variables) and round counts.

Exit status: 0 when every call matches, 1 otherwise.

Usage::

    python scripts/check_cse_parity.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run from a checkout: the program, the oracle (tests/) and the
# benchmark's paper-table inputs (e2ebench/).
for path in (ROOT / "src", ROOT, ROOT / "e2ebench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro  # noqa: E402
from repro.cse import extract  # noqa: E402
from repro.cse.kernels import clear_kernel_cache  # noqa: E402
from repro.fuzz import generate_cases  # noqa: E402

FUZZ_SEED = 0
FUZZ_SYSTEMS = 100


def snapshot(result) -> tuple:
    """Everything a caller can observe, term order and variables included."""
    return (
        result.rounds,
        [(name, body.vars, list(body.terms.items())) for name, body in result.blocks.items()],
        [(poly.vars, list(poly.terms.items())) for poly in result.polys],
    )


def record_calls() -> list[tuple[str, list, tuple, dict]]:
    """(job, polys, args, kwargs) of every CSE call made while synthesizing."""
    from inputs import PAPER_SYSTEMS, paper_inputs

    original = extract.eliminate_common_subexpressions
    calls: list[tuple[str, list, tuple, dict]] = []
    job = ""

    def recording(polys, *args, **kwargs):
        polys = list(polys)
        calls.append((job, polys, args, kwargs))
        return original(polys, *args, **kwargs)

    # Rebind wherever the function was imported by name.
    rebound = [
        module for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        and getattr(module, "eliminate_common_subexpressions", None) is original
    ]
    systems, _ = paper_inputs(0, 0)
    jobs = [(name, *systems[name]) for name in PAPER_SYSTEMS]
    jobs += [(f"fuzz-{case.index}", case.system, None)
             for case in generate_cases(FUZZ_SEED, FUZZ_SYSTEMS)]
    for module in rebound:
        module.eliminate_common_subexpressions = recording
    try:
        for job, system, options in jobs:
            repro.clear_caches()
            repro.synthesize_system(system, options)
    finally:
        for module in rebound:
            module.eliminate_common_subexpressions = original
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    from tests.cse.full_rebuild import full_rebuild_cse

    calls = record_calls()
    mismatches = 0
    for number, (job, polys, args, kwargs) in enumerate(calls):
        clear_kernel_cache()
        expected = snapshot(full_rebuild_cse(polys, *args, **kwargs))
        clear_kernel_cache()
        actual = snapshot(extract.eliminate_common_subexpressions(polys, *args, **kwargs))
        if actual != expected:
            mismatches += 1
            print(f"call {number} ({job}): differs from the full-rebuild oracle")
    print(f"{len(calls) - mismatches}/{len(calls)} CSE calls identical to the oracle")
    return 1 if mismatches or not calls else 0


if __name__ == "__main__":
    sys.exit(main())
