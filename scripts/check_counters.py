#!/usr/bin/env python
"""Gate the benchmark's deterministic work counters exactly.

Runs the traced benchmark twice from the root of a checkout::

    python3 e2ebench/run.py --workload paper-table --seed 1 --seconds 12 --trace 1
    python3 e2ebench/run.py --workload fuzz-stream --seed 1 --seconds 5 --trace 1

Both must report ``"correct": true``.  Every per-layer metric whose
``BENCHMARK.json`` unit is a count, a ratio, gate-equivalents or gates
(calls, search counters, cache entries, span count, quality of result)
is compared exactly against ``scripts/expected_counters.json``.  These
numbers depend only on the inputs, which ``--seed`` and ``--seconds``
fix, not on the host; ``bench.host_factor`` is the one ratio that
measures the host, so it is left out.

Exit status: 0 when every counter matches; 1 on a failed run or any
difference, each printed as ``name workload expected actual``.

Usage::

    python3 scripts/check_counters.py           # compare
    python3 scripts/check_counters.py --write   # regenerate the expected file

A change that moves a counter regenerates the file with ``--write`` and
explains each changed count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "scripts" / "expected_counters.json"
#: Workload -> ``--seconds``; the amount of work, not a time limit.
RUNS = {"paper-table": 12, "fuzz-stream": 5}
EXACT_UNITS = {"count", "ratio", "GE", "gates"}
HOST_DEPENDENT = {"bench.host_factor"}


def exact_metrics() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        entry["name"]
        for entry in spec["per_layer"]
        if entry["unit"] in EXACT_UNITS and entry["name"] not in HOST_DEPENDENT
    }


def measure(workload: str, seconds: int, names: set[str]) -> dict | None:
    """The selected counters of one traced run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    # The last line of a finished run is its JSON record.
    report = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    if not report.get("correct"):
        sys.stderr.write(proc.stderr)
        print(f"{workload}: run failed (exit {proc.returncode})")
        return None
    return {
        name: metric["value"]
        for name, metric in sorted(report["metrics"].items())
        if name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate scripts/expected_counters.json")
    args = parser.parse_args()

    names = exact_metrics()
    actual = {}
    for workload, seconds in RUNS.items():
        counters = measure(workload, seconds, names)
        if counters is None:
            return 1
        actual[workload] = counters

    if args.write:
        EXPECTED.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}")
        return 0

    expected = json.loads(EXPECTED.read_text())
    differences = 0
    for workload in RUNS:
        want, got = expected.get(workload, {}), actual[workload]
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                print(f"{name} {workload} {want.get(name)} {got.get(name)}")
                differences += 1
    counted = sum(len(counters) for counters in actual.values())
    print(f"{counted} counters compared, {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
