"""Compare a fresh benchmark snapshot against prior baselines.

The bench suites write ``BENCH_PR10.json`` (see ``conftest.py``); this
tool diffs it against one or more checked-in baselines and fails on
regressions, so CI can gate perf the way tests gate correctness::

    python benchmarks/bench_compare.py \
        --current benchmarks/BENCH_PR10.json \
        --against benchmarks/BENCH_PR9.json \
        --max-regress 0.10

With several ``--against`` files the comparison runs against the *best*
prior number per benchmark (min wall seconds / min op total across the
baselines), so a PR cannot look good merely by diffing against the
slowest historical snapshot.

Two gates:

* ``--max-regress`` (default 0.10) — allowed fractional wall-clock
  slowdown per benchmark.  Wall time is machine-noisy, hence a band.
* ``--max-op-regress`` (default 0.05) — allowed fractional increase of
  the proposed method's total operator count (MUL+ADD).  Op counts are
  deterministic; the small band absorbs greedy tie-break drift between
  algorithm revisions (the never-worse-than-direct oracle in the fuzz
  harness guards correctness separately).

Benchmarks present only in the current snapshot are reported as new and
never gate; benchmarks missing from the current snapshot fail the run
unless ``--allow-missing`` (a shrunk suite must be an explicit choice).
Exit codes: 0 ok, 1 regression (or missing benchmark), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_snapshot(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("kind") != "bench-baseline":
        raise ValueError(f"{path}: not a bench-baseline payload")
    return data


def proposed_ops(entry: dict) -> int | None:
    method = entry.get("methods", {}).get("proposed")
    if not method:
        return None
    return int(method["mul"]) + int(method["add"])


def best_prior(baselines: list[dict], name: str) -> dict | None:
    """The toughest prior numbers for one benchmark across all baselines."""
    walls: list[float] = []
    ops: list[int] = []
    labels: list[str] = []
    for snapshot in baselines:
        entry = snapshot.get("benchmarks", {}).get(name)
        if entry is None:
            continue
        walls.append(float(entry["wall_seconds"]))
        labels.append(str(snapshot.get("baseline", "?")))
        entry_ops = proposed_ops(entry)
        if entry_ops is not None:
            ops.append(entry_ops)
    if not walls:
        return None
    return {
        "wall_seconds": min(walls),
        "ops": min(ops) if ops else None,
        "labels": labels,
    }


def compare(
    current: dict,
    baselines: list[dict],
    max_regress: float,
    max_op_regress: float,
    allow_missing: bool,
) -> tuple[list[dict], list[str]]:
    """Per-benchmark delta rows plus the list of failure messages."""
    rows: list[dict] = []
    failures: list[str] = []
    current_benchmarks = current.get("benchmarks", {})
    baseline_names = sorted(
        {name for snapshot in baselines for name in snapshot.get("benchmarks", {})}
    )

    for name in baseline_names:
        prior = best_prior(baselines, name)
        assert prior is not None
        entry = current_benchmarks.get(name)
        if entry is None:
            if not allow_missing:
                failures.append(f"{name}: missing from the current snapshot")
            rows.append({"name": name, "status": "missing"})
            continue
        wall = float(entry["wall_seconds"])
        wall_delta = (wall - prior["wall_seconds"]) / prior["wall_seconds"]
        row = {
            "name": name,
            "status": "ok",
            "wall_seconds": wall,
            "baseline_wall_seconds": prior["wall_seconds"],
            "wall_delta": wall_delta,
        }
        if wall_delta > max_regress:
            row["status"] = "regressed"
            failures.append(
                f"{name}: wall {wall:.3f}s vs best prior "
                f"{prior['wall_seconds']:.3f}s ({wall_delta:+.1%} > "
                f"{max_regress:.0%} allowed)"
            )
        ops = proposed_ops(entry)
        if ops is not None and prior["ops"] is not None:
            op_delta = (ops - prior["ops"]) / prior["ops"]
            row["ops"] = ops
            row["baseline_ops"] = prior["ops"]
            row["op_delta"] = op_delta
            if op_delta > max_op_regress:
                row["status"] = "regressed"
                failures.append(
                    f"{name}: proposed ops {ops} vs best prior {prior['ops']} "
                    f"({op_delta:+.1%} > {max_op_regress:.0%} allowed)"
                )
        rows.append(row)

    for name in sorted(set(current_benchmarks) - set(baseline_names)):
        rows.append({"name": name, "status": "new"})
    return rows, failures


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'benchmark':14s} {'wall':>9s} {'prior':>9s} {'delta':>8s} "
        f"{'ops':>5s} {'prior':>5s} status"
    ]
    for row in rows:
        if row["status"] in ("missing", "new"):
            lines.append(f"{row['name']:14s} {'-':>9s} {'-':>9s} {'-':>8s} "
                         f"{'-':>5s} {'-':>5s} {row['status']}")
            continue
        ops = str(row.get("ops", "-"))
        prior_ops = str(row.get("baseline_ops", "-"))
        lines.append(
            f"{row['name']:14s} {row['wall_seconds']:9.3f} "
            f"{row['baseline_wall_seconds']:9.3f} {row['wall_delta']:+8.1%} "
            f"{ops:>5s} {prior_ops:>5s} {row['status']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a benchmark snapshot against prior baselines"
    )
    parser.add_argument(
        "--current",
        required=True,
        help="snapshot to judge (the file the bench run just wrote)",
    )
    parser.add_argument(
        "--against",
        action="append",
        required=True,
        help="baseline JSON to compare against (repeatable; the best "
        "prior number per benchmark wins)",
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.10,
        help="allowed fractional wall-clock slowdown (default: 0.10)",
    )
    parser.add_argument(
        "--max-op-regress",
        type=float,
        default=0.05,
        help="allowed fractional op-count increase (default: 0.05)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="do not fail when a baseline benchmark is absent from the "
        "current snapshot",
    )
    parser.add_argument(
        "--expect-obs",
        action="store_true",
        help="require the current snapshot to be an observability-enabled "
        "run (the obs-overhead gate: instrumented wall vs. a zero-cost "
        "baseline, bounded by --max-regress)",
    )
    parser.add_argument(
        "--out", help="also write the delta rows as JSON to this file"
    )
    args = parser.parse_args(argv)

    try:
        current = load_snapshot(args.current)
        baselines = [load_snapshot(path) for path in args.against]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.expect_obs and not current.get("obs_enabled"):
        print(
            "error: --expect-obs requires an observability-enabled current "
            "snapshot (run with REPRO_TRACE=1 / REPRO_EVENTS=1)",
            file=sys.stderr,
        )
        return 2
    if current.get("obs_enabled") and not args.expect_obs:
        print(
            "warning: the current snapshot was measured with tracing "
            "enabled; wall times include instrumentation overhead",
            file=sys.stderr,
        )

    rows, failures = compare(
        current,
        baselines,
        max_regress=args.max_regress,
        max_op_regress=args.max_op_regress,
        allow_missing=args.allow_missing,
    )
    print(format_rows(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "kind": "bench-delta",
                    "current": current.get("baseline"),
                    "against": [b.get("baseline") for b in baselines],
                    "max_regress": args.max_regress,
                    "max_op_regress": args.max_op_regress,
                    "rows": rows,
                    "failures": failures,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
