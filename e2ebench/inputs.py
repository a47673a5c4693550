"""The seeded inputs of each workload, and one set-up sample.

    python3 e2ebench/inputs.py --workload W --seed S --seconds T

Run as a script, this imports the program, builds the workload's inputs,
prints ``ready`` and exits: what ``run.py`` times as one set-up start.
It imports nothing of the benchmark's own verification (NumPy), so the
sample is the program's import plus the input build.

The seed only picks inputs; the program sees nothing but the systems.
The amount of work is fixed by ``--seconds`` through reference rates of
the reference host, not by the clock, so two commits measured with the
same seed synthesize exactly the same systems and their
quality-of-result numbers compare exactly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: paper-table: the eight Table 14.3 rows plus Tables 14.1 and 14.2.
PAPER_SYSTEMS = (
    "SG 3X2", "SG 4X2", "SG 4X3", "SG 5X2", "SG 5X3",
    "Quad", "Mibench", "MVCS", "Table 14.1", "Table 14.2",
)
TABLE_14_3 = PAPER_SYSTEMS[:8]
#: Seconds of one cold pass over PAPER_SYSTEMS on the reference host.
PAPER_PASS_S = 12.0

#: fuzz-stream: systems per second on the reference host, and how many
#: systems run between two calibrations.
FUZZ_RATE = 32.0
FUZZ_CAL_EVERY = 10

#: service-mixed: open-loop submissions per second, seconds of load per
#: ``--seconds``, the share of submissions that are systems the service
#: has not seen before, and the generator shapes they come from: the six
#: of at most two variables.  Six submissions a second keeps the single
#: worker mostly idle, so latency is the service path rather than
#: queueing.  The load lasts 1.5 x ``--seconds``, so the benchmark's 20 s
#: (kept low by the time a comparison's 70 runs may take) gives 30 s of
#: load and 180 submissions.  The two three-variable shapes have
#: multi-second outliers that would hold every later request behind them
#: on the single worker, swamping the service layers this workload
#: measures; fuzz-stream covers them.
SERVICE_RATE = 6.0
SERVICE_LOAD_SCALE = 1.5
FRESH_SHARE = 0.6
SERVICE_POOL_SEED = 0
SERVICE_SHAPES = ("wraparound", "vanishing-multiple", "single-variable", "gcd-ladder",
                  "planted-kernel", "shifted-copy")


def paper_inputs(seed: int, seconds: float):
    """The ten paper systems with their options, and the number of passes.

    The options are the search knobs of the paper benchmarks
    (``benchmarks/bench_common.bench_options``).  The paper's systems are
    fixed, so the seed changes nothing here.  Every pass runs them in
    table order: the process's peak memory depends on the order (seeded
    orders moved ``peak_rss_mb`` by 7-11% between seeds, one order
    repeats to 0.1%).
    """
    if str(ROOT / "benchmarks") not in sys.path:
        sys.path.append(str(ROOT / "benchmarks"))
    from bench_common import bench_options
    from repro.suite import get_system

    systems = {name: (get_system(name), bench_options(name)) for name in PAPER_SYSTEMS}
    return systems, max(1, round(seconds / PAPER_PASS_S))


def fuzz_inputs(seed: int, seconds: float):
    """Distinct fuzz systems, round-robin over the generator's eight shapes."""
    from repro.fuzz import generate_cases

    count = max(FUZZ_CAL_EVERY, round(seconds * FUZZ_RATE))
    return [case.system for case in generate_cases(seed, count)]


def service_inputs(seed: int, seconds: float):
    """Fresh systems, their request bodies, and the open-loop schedule.

    The schedule is ``(due seconds, fresh system index)`` pairs.  Gaps
    are seeded uniform draws within +-50% of the mean gap: random enough
    that arrivals never lock to the worker's 0.1 s idle poll, but without
    the clumps of Poisson arrivals, whose queueing moved the latency tail
    by 20-25% between seeds.  A repeat names a system submitted earlier,
    chosen uniformly.  The fresh systems are a seeded draw from one fixed
    pool, so every seed asks for nearly the same compute.
    """
    from repro.fuzz import generate_cases
    from repro.serialize import system_to_dict

    rng = random.Random(seed)
    submissions = round(seconds * SERVICE_LOAD_SCALE * SERVICE_RATE)
    schedule: list[tuple[float, int]] = []
    fresh = 0
    due = 0.0
    for _ in range(max(2, submissions)):
        if fresh == 0 or rng.random() < FRESH_SHARE:
            schedule.append((due, fresh))
            fresh += 1
        else:
            schedule.append((due, rng.randrange(fresh)))
        due += rng.uniform(0.5, 1.5) / SERVICE_RATE
    size = max(fresh, round(submissions * FRESH_SHARE))
    pool = list(generate_cases(SERVICE_POOL_SEED, size, SERVICE_SHAPES))
    systems = [case.system for case in rng.sample(pool, fresh)]
    bodies = [
        json.dumps({"system": system_to_dict(s), "method": "proposed", "tenant": "bench"}).encode()
        for s in systems
    ]
    return systems, bodies, schedule


INPUTS = {"paper-table": paper_inputs, "fuzz-stream": fuzz_inputs, "service-mixed": service_inputs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(INPUTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    INPUTS[args.workload](args.seed, args.seconds)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
