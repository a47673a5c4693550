"""Human-readable reports of method comparisons.

Packages :func:`repro.api.compare_methods` results as aligned text or
Markdown — what a user pastes into an issue or a paper draft.  Used by
the CLI's ``compare --markdown`` flag and directly importable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api import MethodOutcome, improvement
from repro.system import PolySystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import BatchReport

_METHOD_ORDER = ("direct", "horner", "factor+cse", "proposed")


def comparison_rows(
    outcomes: dict[str, MethodOutcome]
) -> list[tuple[str, int, int, float, float]]:
    """(method, MULT, ADD, area, delay) rows in canonical method order."""
    rows = []
    for method in _METHOD_ORDER:
        if method not in outcomes:
            continue
        outcome = outcomes[method]
        rows.append(
            (
                method,
                outcome.op_count.mul,
                outcome.op_count.add,
                outcome.hardware.area,
                outcome.hardware.delay,
            )
        )
    for method, outcome in outcomes.items():
        if method not in _METHOD_ORDER:
            rows.append(
                (
                    method,
                    outcome.op_count.mul,
                    outcome.op_count.add,
                    outcome.hardware.area,
                    outcome.hardware.delay,
                )
            )
    return rows


def text_report(system: PolySystem, outcomes: dict[str, MethodOutcome]) -> str:
    """Fixed-width table plus the headline improvement line."""
    lines = [
        f"system: {system}",
        f"{'method':14s} {'MULT':>5s} {'ADD':>5s} {'area/GE':>10s} {'delay':>7s}",
    ]
    for method, mul, add, area, delay in comparison_rows(outcomes):
        lines.append(f"{method:14s} {mul:5d} {add:5d} {area:10.0f} {delay:7.0f}")
    lines.append(_headline(outcomes))
    return "\n".join(lines)


def markdown_report(system: PolySystem, outcomes: dict[str, MethodOutcome]) -> str:
    """GitHub-flavoured Markdown table."""
    lines = [
        f"### {system.name} ({system.characteristics()}, "
        f"{system.num_polys} polynomial{'s' if system.num_polys != 1 else ''})",
        "",
        "| method | MULT | ADD | area (GE) | delay (gates) |",
        "|---|---:|---:|---:|---:|",
    ]
    for method, mul, add, area, delay in comparison_rows(outcomes):
        lines.append(f"| {method} | {mul} | {add} | {area:.0f} | {delay:.0f} |")
    lines.append("")
    lines.append(_headline(outcomes))
    return "\n".join(lines)


def batch_text_report(report: "BatchReport") -> str:
    """Fixed-width summary of a batch engine run.

    One row per job (cache state, operator counts, synthesis seconds),
    then the per-phase seconds aggregated across the batch — the
    ``python -m repro batch`` output.
    """
    stats = report.stats
    pool = report.pool
    lines = [
        f"batch: {len(report.results)} job(s), workers={report.workers}, "
        f"{report.seconds:.2f} s wall",
        f"cache: {report.cache_hits} hit(s) / {report.cache_misses} miss(es) "
        f"({report.hit_rate * 100.0:.0f}% hit rate)",
        f"cache tiers: {stats.memory_hits} memory / {stats.disk_hits} disk "
        f"hit(s), {stats.evictions} eviction(s), "
        f"{stats.disk_reads} disk read(s) / {stats.disk_writes} write(s)",
    ]
    combos = sum(r.timings.counter("combinations") for r in report.results)
    memo_hits = sum(r.timings.counter("memo_hits") for r in report.results)
    pruned = sum(r.timings.counter("pruned") for r in report.results)
    if combos or memo_hits or pruned:
        lookups = combos + memo_hits
        memo_rate = memo_hits / lookups * 100.0 if lookups else 0.0
        lines.append(
            f"search: {combos} combination(s) scored, {memo_hits} memo "
            f"hit(s) ({memo_rate:.0f}% memo hit rate), {pruned} pruned"
        )
    if pool.jobs_executed:
        lines.append(
            f"pool: mode={pool.mode}, {pool.jobs_executed} job(s) executed, "
            f"utilization {pool.utilization * 100.0:.0f}%, "
            f"queue wait {pool.queue_wait_seconds:.3f} s "
            f"(max {pool.max_queue_wait_seconds:.3f} s), "
            f"{pool.fallbacks} fallback(s)"
        )
        if pool.retries or pool.timeouts or pool.degraded or pool.cancelled:
            fault_line = (
                f"faults: {pool.retries} retried, {pool.timeouts} timed out, "
                f"{pool.degraded} degraded rerun(s)"
            )
            if pool.cancelled:
                fault_line += f", {pool.cancelled} cancelled by drain"
            lines.append(fault_line)
    if pool.fallback_reason:
        lines.append(f"pool fallback reason: {pool.fallback_reason}")
    lines += [
        "",
        f"{'job':16s} {'method':12s} {'cache':6s} "
        f"{'MULT':>5s} {'ADD':>5s} {'synth s':>8s} {'combos':>6s} "
        f"{'tries':>5s} flags",
    ]
    for result in report.results:
        if result.ok:
            assert result.op_count is not None
            cells = (
                f"{result.op_count.mul:5d} {result.op_count.add:5d} "
                f"{result.seconds:8.3f} "
                f"{result.timings.counter('combinations'):6d}"
            )
        else:
            cells = f"{'ERROR':>5s} {'':>5s} {'':>8s} {'':>6s}"
        flags = ",".join(
            flag
            for flag, present in (
                ("timeout", result.timed_out),
                ("degraded", result.degraded),
                ("error", not result.ok),
            )
            if present
        )
        lines.append(
            f"{result.name:16s} {result.method:12s} "
            f"{'hit' if result.cache_hit else 'miss':6s} {cells} "
            f"{result.attempts:5d} {flags}"
        )
        if not result.ok:
            lines.append(f"  error: {result.error}")
        for degradation in result.degradations:
            lines.append(f"  degraded: {degradation}")
    phases = report.phase_seconds()
    if phases:
        lines.append("")
        lines.append("phase seconds (aggregated over the batch):")
        total = sum(phases.values())
        for phase, seconds in sorted(
            phases.items(), key=lambda item: -item[1]
        ):
            share = seconds / total * 100.0 if total else 0.0
            lines.append(f"  {phase:14s} {seconds:8.3f}  {share:5.1f}%")
    return "\n".join(lines)


def _headline(outcomes: dict[str, MethodOutcome]) -> str:
    if "proposed" in outcomes and "factor+cse" in outcomes:
        base = outcomes["factor+cse"].hardware
        prop = outcomes["proposed"].hardware
        return (
            f"area improvement over factorization+CSE: "
            f"{improvement(base.area, prop.area):.1f}% "
            f"(delay {improvement(base.delay, prop.delay):+.1f}%)"
        )
    return ""
