"""Check that synthesis results do not depend on Python's hash seed.

    python3 e2ebench/determinism.py

Synthesizes the ten paper-table systems and the first 100 fuzz-stream
systems of seed 0 in two processes with different ``PYTHONHASHSEED``
values and compares a fingerprint of every decomposition.  Identical
fingerprints are what let the benchmark treat its quality-of-result
numbers as exact: for a given ``run.py --seed`` they can only change
when the program's output changes.
Exits 0 when all fingerprints match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("1", "2")
SEED = 0
FUZZ_SYSTEMS = 100


def fingerprints() -> dict[str, str]:
    """Job name -> SHA-256 of the decomposition tree and its operator count."""
    import repro
    from repro.fuzz import generate_cases

    from inputs import PAPER_SYSTEMS, paper_inputs

    systems, _ = paper_inputs(SEED, 0)
    jobs = [(name, *systems[name]) for name in PAPER_SYSTEMS]
    jobs += [(f"fuzz-{c.index}", c.system, None) for c in generate_cases(SEED, FUZZ_SYSTEMS)]
    out = {}
    for name, system, options in jobs:
        repro.clear_caches()
        result = repro.synthesize_system(system, options)
        tree = oracle.decomposition_tree(result.decomposition)
        payload = json.dumps([tree, str(result.op_count)], sort_keys=True)
        out[name] = hashlib.sha256(payload.encode()).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        print(json.dumps(fingerprints()))
        return 0

    runs = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, __file__, "--emit"],
            env=env, capture_output=True, text=True, check=True, timeout=600)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    differing = sorted(name for name in runs[0] if runs[0][name] != runs[1].get(name))
    for name in differing:
        print(f"differs across PYTHONHASHSEED {'/'.join(HASH_SEEDS)}: {name}")
    print(f"{len(runs[0]) - len(differing)}/{len(runs[0])} fingerprints identical")
    return 1 if differing or runs[0].keys() != runs[1].keys() else 0


if __name__ == "__main__":
    sys.exit(main())
