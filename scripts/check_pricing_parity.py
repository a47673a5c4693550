#!/usr/bin/env python
"""Check the closed-form SOP count against the built tree on real traffic.

Synthesizes the ten paper-table systems (with their benchmark options)
and the first 100 fuzz-stream systems of seed 0, recording every
polynomial the flow prices from its terms: the representations and
block closures ``_standalone_price`` ranks, the systems ``direct_cost``
prices and the rows ``best_expression`` compares against Horner.  Each
recorded polynomial's ``sop_op_count`` must equal
``expr_op_count(expr_from_polynomial(poly))``, the count of the direct
expression tree.

Exit status: 0 when every count matches, 1 otherwise.

Usage::

    python scripts/check_pricing_parity.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run from a checkout: the program and the benchmark's paper-table
# inputs (e2ebench/).
for path in (ROOT / "src", ROOT / "e2ebench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro  # noqa: E402
from repro.core import synth  # noqa: E402
from repro.expr import expr_from_polynomial, expr_op_count, sop_op_count  # noqa: E402
from repro.fuzz import generate_cases  # noqa: E402

FUZZ_SEED = 0
FUZZ_SYSTEMS = 100


def record_priced() -> list[tuple[str, object]]:
    """(job, polynomial) of every polynomial the flow priced from its terms."""
    from inputs import PAPER_SYSTEMS, paper_inputs

    priced: list[tuple[str, object]] = []
    job = ""

    def recording(poly):
        priced.append((job, poly))
        return sop_op_count(poly)

    systems, _ = paper_inputs(0, 0)
    jobs = [(name, *systems[name]) for name in PAPER_SYSTEMS]
    jobs += [(f"fuzz-{case.index}", case.system, None)
             for case in generate_cases(FUZZ_SEED, FUZZ_SYSTEMS)]
    synth.sop_op_count = recording
    try:
        for job, system, options in jobs:
            repro.clear_caches()
            repro.synthesize_system(system, options)
    finally:
        synth.sop_op_count = sop_op_count
    return priced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    priced = record_priced()
    mismatches = 0
    for job, poly in priced:
        expected = expr_op_count(expr_from_polynomial(poly))
        actual = sop_op_count(poly)
        if actual != expected:
            mismatches += 1
            print(f"{job}: {poly}: closed form {actual!r}, tree {expected!r}")
    print(f"{len(priced) - mismatches}/{len(priced)} priced polynomials match the tree count")
    return 1 if mismatches or not priced else 0


if __name__ == "__main__":
    sys.exit(main())
