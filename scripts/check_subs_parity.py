#!/usr/bin/env python
"""Check the fused ``Polynomial.subs`` against the term-by-term oracle.

Synthesizes the ten paper-table systems (with their benchmark options)
and the first 100 fuzz-stream systems of seed 0.  Every
``Polynomial.subs`` call the flow makes is replayed through
``tests/poly/subs_oracle.py``; the variable tuple and the *ordered*
terms must match.  At cube-extraction time every exact (non-modular)
representation must also expand to its system polynomial —
``registry.expand(rep.poly) == poly`` — which is what lets cube
extraction skip expanding exact representations.

Exit status: 0 when every call and every representation matches, 1
otherwise.

Usage::

    python scripts/check_subs_parity.py
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
from repro.core import synth  # noqa: E402
from repro.fuzz import generate_cases  # noqa: E402
from repro.poly import Polynomial  # noqa: E402

from tests.poly.subs_oracle import subs_oracle  # noqa: E402

FUZZ_SEED = 0
FUZZ_SYSTEMS = 100


def ordered(poly: Polynomial) -> tuple:
    return poly.vars, list(poly.terms.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    from inputs import PAPER_SYSTEMS, paper_inputs

    systems, _ = paper_inputs(FUZZ_SEED, 0)
    jobs = [(name, *systems[name]) for name in PAPER_SYSTEMS]
    jobs += [(f"fuzz-{case.index}", case.system, None)
             for case in generate_cases(FUZZ_SEED, FUZZ_SYSTEMS)]

    job = ""
    checking = False  # the invariant check's own expansions are not recorded
    calls = mismatches = exact_reps = exact_mismatches = 0
    fused_subs = Polynomial.subs
    cube_extract_phase = synth._cube_extract_phase

    def recording_subs(self, mapping):
        nonlocal calls, mismatches
        result = fused_subs(self, mapping)
        if checking:
            return result
        calls += 1
        expected = subs_oracle(self, mapping)
        if ordered(result) != ordered(expected):
            mismatches += 1
            print(f"{job}: ({self}).subs({mapping}): fused {ordered(result)!r}, "
                  f"oracle {ordered(expected)!r}")
        return result

    def checked_cube_extract(phase, system, lists, registry, options):
        nonlocal checking, exact_reps, exact_mismatches
        checking = True
        for poly, reps in zip(system, lists):
            for rep in reps:
                if rep.modular:
                    continue
                exact_reps += 1
                if registry.expand(rep.poly) != poly:
                    exact_mismatches += 1
                    print(f"{job}: exact representation [{rep.tag}] {rep.poly} "
                          f"does not expand to {poly}")
        checking = False
        return cube_extract_phase(phase, system, lists, registry, options)

    Polynomial.subs = recording_subs
    synth._cube_extract_phase = checked_cube_extract
    try:
        for job, system, options in jobs:
            repro.clear_caches()
            repro.synthesize_system(system, options)
    finally:
        Polynomial.subs = fused_subs
        synth._cube_extract_phase = cube_extract_phase

    print(f"{calls - mismatches}/{calls} subs calls match the oracle")
    print(f"{exact_reps - exact_mismatches}/{exact_reps} exact representations "
          f"expand to their system polynomial")
    failed = mismatches or exact_mismatches or not calls or not exact_reps
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
