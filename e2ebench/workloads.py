"""One workload of the end-to-end benchmark, run in its own process.

    python3 e2ebench/workloads.py --workload W --seed S --seconds T --trace 0|1 --out FILE

``run.py`` starts this process.  It runs the workload on the inputs
``inputs.py`` builds, checks every output with the independent oracle,
and writes its metrics as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import hostspeed
import layers
import oracle
import service_load
from inputs import (FUZZ_CAL_EVERY, PAPER_SYSTEMS, TABLE_14_3, fuzz_inputs, paper_inputs,
                    service_inputs)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "e2ebench" / "out"

#: Per-layer metrics only the service workload exercises; the in-process
#: workloads report them as 0.
SERVICE_ONLY = (
    "service.queue_wait_ms.p50", "service.queue_wait_ms.p90", "service.run_ms.p50",
    "service.http_submit_ms.p50", "service.http_submit_ms.p90", "service.dedup_ratio",
    "service.dedup_ms.p50", "service.dedup_ms.p90", "bench.late_ms.p90", "bench.late_ms.max",
)


def pct(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trimmed_mean(values: list[float]) -> float:
    """Mean after dropping the fastest and slowest 5% of samples."""
    cut = len(values) // 20
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


class Outcome(NamedTuple):
    """The parts of a SynthesisResult that verification reads."""

    decomposition: object
    op_count: object
    initial_op_count: object
    degradations: list


class Run:
    """Outcome counts and metrics of one workload process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_jobs: set = set()
        self.errors: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.server_rss_kb = 0

    def fail(self, job, message: str) -> None:
        self.failed_jobs.add(job)
        if len(self.errors) < 20:
            self.errors.append(f"{job}: {message}")

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failed_jobs),
            "errors": self.errors,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
            "server_rss_kb": self.server_rss_kb,
        }


# ----------------------------------------------------------------------
# Verification and quality of results (never inside a timed region)
# ----------------------------------------------------------------------

class Quality:
    """Quality of the proposed flow's results against the factor+cse baseline.

    The ratios average each system's proposed/baseline value, as the
    paper averages its per-row improvements in Table 14.3 (arithmetic,
    not geometric: the proposed flow can reduce a vanishing polynomial to
    a constant, a ratio of 0); a system whose baseline value is 0 has no
    ratio.  The sums are exact totals of the proposed results.
    """

    def __init__(self) -> None:
        self.sums = [0.0, 0.0, 0]
        self.ratios: tuple[list[float], ...] = ([], [], [])

    def add(self, system, decomposition, weighted_ops: int):
        from repro.baselines import get_method
        from repro.cost import estimate_decomposition

        ours = estimate_decomposition(decomposition, system.signature)
        base_dec = get_method("factor+cse")(system, None)
        base = estimate_decomposition(base_dec, system.signature)
        pairs = ((ours.area, base.area), (ours.delay, base.delay),
                 (weighted_ops, base_dec.op_count().weighted()))
        for i, (value, baseline) in enumerate(pairs):
            self.sums[i] += value
            if baseline:
                self.ratios[i].append(value / baseline)
        return ours, base

    def report(self, run: Run) -> None:
        area, delay, ops = (statistics.fmean(r) if r else 1.0 for r in self.ratios)
        run.end_to_end.update({"area_ratio": area, "delay_ratio": delay, "ops_ratio": ops})
        run.per_layer.update(zip(("qor.area_ge", "qor.delay_gates", "qor.weighted_ops"),
                                 self.sums))


def verify(run: Run, job, system, result, quality: Quality):
    """Oracle, operator-count cross-check and quality sums for one result."""
    if result.degradations:
        run.fail(job, f"degraded: {result.degradations}")
    try:
        oracle.check(system, result.decomposition)
        counted = oracle.count_ops(result.decomposition)
    except oracle.OracleMismatch as exc:
        run.fail(job, str(exc))
        return None
    if counted != (result.op_count.mul, result.op_count.add):
        run.fail(job, f"reported {result.op_count} but the tree has {counted} (MULT, ADD)")
    return quality.add(system, result.decomposition, result.op_count.weighted())


def verify_paper_anchors(run: Run, name: str, result, hardware) -> None:
    """The paper's own numbers for its example and table systems."""
    ops, initial = result.op_count, result.initial_op_count
    if name == "Table 14.1" and (ops.mul, ops.add) != (8, 1):
        run.fail(name, f"Table 14.1 needs exactly 8 MULT, 1 ADD; got {ops}")
    if name == "Table 14.2" and (
        (initial.mul, initial.add) != (51, 21) or ops.mul > 14 or ops.add > 14
    ):
        run.fail(name, f"Table 14.2 needs initial 51/21 and final <= 14/14; "
                       f"got {initial} -> {ops}")
    if name in TABLE_14_3 and hardware is not None:
        ours, base = hardware
        if ours.area > base.area * 1.0001:
            run.fail(name, f"area {ours.area} worse than factor+cse {base.area}")


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

class Pass(NamedTuple):
    """One timed run over a list of jobs."""

    seconds: list[float]  # raw wall seconds per job (nan when it raised)
    factors: list[float]  # host-speed factor per job
    results: list         # Outcome per job (None when it raised)
    cache_entries: int    # largest Σ of the synthesis cache sizes seen


def _synth_loop(run: Run, jobs, recorder=None, cold: bool = False,
                cal_every: int = 1) -> Pass:
    """Synthesize ``(job id, system, options)`` items between calibrations.

    A calibration runs before every ``cal_every`` jobs, after any job
    longer than a second, and at the end; a job's host factor comes from
    the two calibrations around it.
    """
    import repro

    seconds: list[float] = []
    results: list = []
    cal: list[float] = []
    cal_of: list[int] = []
    entries = 0
    for position, (job, system, options) in enumerate(jobs):
        if position % cal_every == 0:
            cal.append(hostspeed.calibrate())
        cal_of.append(len(cal) - 1)
        if cold:
            entries = max(entries, sum(repro.clear_caches().values()))
            gc.collect()
        if recorder is not None:
            recorder.set_job(job)
        run.attempted += 1
        start = time.perf_counter()
        try:
            result = repro.synthesize_system(system, options)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            run.fail(job, f"{type(exc).__name__}: {exc}")
            seconds.append(math.nan)
            results.append(None)
            continue
        elapsed = time.perf_counter() - start
        if elapsed > 1.0:
            cal.append(hostspeed.calibrate())
        seconds.append(elapsed)
        # Keep only what verification reads: whole results hold every
        # candidate list and would dominate the process's memory.
        results.append(Outcome(result.decomposition, result.op_count,
                               result.initial_op_count, result.degradations))
    cal.append(hostspeed.calibrate())
    entries = max(entries, sum(repro.api.synthesis_cache_sizes().values()))
    factors = [hostspeed.factor(cal[i], cal[i + 1]) for i in cal_of]
    return Pass(seconds, factors, results, entries)


def _job_metrics(run: Run, normalized_ms: list[float], raw_ms: list[float],
                 factors: list[float]) -> None:
    run.end_to_end.update({
        "job_ms.p50": pct(normalized_ms, 50),
        "job_ms.p90": pct(normalized_ms, 90),
        "job_ms.tmean": trimmed_mean(normalized_ms),
    })
    run.per_layer.update({
        "bench.host_factor": statistics.median(factors),
        "bench.raw_job_ms.tmean": trimmed_mean(raw_ms),
    })
    run.per_layer.update(dict.fromkeys(SERVICE_ONLY, 0.0))


def _layer_metrics(run: Run, summary: dict, traced_s: float, untraced_s: float) -> None:
    run.per_layer.update({
        "bench.trace_overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "bench.spans": summary["spans"] + summary["dropped"],
    })
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    for name, _, _ in layers.TARGETS:
        run.per_layer[f"{name}.calls"] = calls.get(name, 0)
        run.per_layer[f"{name}.self_s"] = self_s.get(name, 0.0)

    def per_call(name: str, counter: str) -> float:
        return counters.get(f"{name}.{counter}", 0) / max(calls.get(name, 0), 1)

    run.per_layer.update({
        "core.division_candidates.yield": per_call("core.division_candidates", "candidates"),
        "factor.factor_polynomial.split_ratio": per_call("factor.factor_polynomial", "split"),
        "cse.eliminate_common_subexpressions.blocks_per_call":
            per_call("cse.eliminate_common_subexpressions", "blocks"),
        "engine.cache.hit_ratio": per_call("engine.ResultCache.get", "hits"),
    })
    for key in layers.SEARCH_COUNTERS:
        run.per_layer[f"core.search.{key}"] = counters.get(f"core.synthesize.{key}", 0)


def _traced_loop(run: Run, jobs, cold: bool, cal_every: int, spans_path: Path):
    """Install the layer wrappers and run ``jobs`` again; return (Pass, summary)."""
    import repro

    repro.clear_caches()
    recorder = layers.Recorder()
    layers.install(recorder)
    timed = _synth_loop(run, jobs, recorder, cold, cal_every)
    summary = recorder.summary()
    recorder.write_spans(str(spans_path))
    run.per_layer["bench.unattributed_s"] = _total(timed.seconds) - summary["root_s"]
    run.per_layer["caches.entries"] = timed.cache_entries
    return timed, summary


def _total(seconds: list[float]) -> float:
    return math.fsum(s for s in seconds if not math.isnan(s))


def _normalized_total(timed: Pass) -> float:
    return _total([s * f for s, f in zip(timed.seconds, timed.factors)])


def paper_table(args, run: Run) -> None:
    systems, passes = paper_inputs(args.seed, args.seconds)
    if args.trace:
        passes = 2  # one untraced pass, then the same pass traced
    jobs = [(name, *systems[name]) for name in PAPER_SYSTEMS]
    raw: dict[str, list[float]] = {name: [] for name in PAPER_SYSTEMS}
    normalized: dict[str, list[float]] = {name: [] for name in PAPER_SYSTEMS}
    outputs: dict[str, list] = {name: [] for name in PAPER_SYSTEMS}
    factors: list[float] = []
    entries = 0
    for number in range(passes):
        if args.trace and number == 1:
            timed, summary = _traced_loop(run, jobs, True, 1, args.spans)
            _layer_metrics(run, summary, _normalized_total(timed),
                           math.fsum(times[0] for times in normalized.values() if times) / 1e3)
        else:
            timed = _synth_loop(run, jobs, cold=True)
            entries = max(entries, timed.cache_entries)
            factors += timed.factors
            for name, seconds, factor in zip(PAPER_SYSTEMS, timed.seconds, timed.factors):
                if not math.isnan(seconds):
                    raw[name].append(seconds * 1000.0)
                    normalized[name].append(seconds * factor * 1000.0)
        for name, result in zip(PAPER_SYSTEMS, timed.results):
            outputs[name].append(result)
    if not args.trace:
        run.per_layer["caches.entries"] = entries
    # Each system's fastest pass: interference from other processes only
    # ever adds time.
    measured = [name for name in PAPER_SYSTEMS if raw[name]]
    _job_metrics(run, [min(normalized[n]) for n in measured],
                 [min(raw[n]) for n in measured], factors)

    quality = Quality()
    for name in PAPER_SYSTEMS:
        system = systems[name][0]
        first = outputs[name][0]
        if first is None:
            continue
        hardware = verify(run, name, system, first, quality)
        verify_paper_anchors(run, name, first, hardware)
        reference = oracle.decomposition_tree(first.decomposition)
        for again in outputs[name][1:]:
            if again is not None and oracle.decomposition_tree(again.decomposition) != reference:
                run.fail(name, "a later cold pass returned a different decomposition")
    quality.report(run)


def fuzz_stream(args, run: Run) -> None:
    systems = fuzz_inputs(args.seed, args.seconds)
    if args.trace:
        systems = systems[:max(FUZZ_CAL_EVERY, len(systems) // 2)]
    jobs = [(index, system, None) for index, system in enumerate(systems)]
    timed = _synth_loop(run, jobs, cal_every=FUZZ_CAL_EVERY)
    ok = [(s * 1000.0, f) for s, f in zip(timed.seconds, timed.factors) if not math.isnan(s)]
    _job_metrics(run, [ms * f for ms, f in ok], [ms for ms, _ in ok], timed.factors)
    outputs = [timed.results]
    if args.trace:
        traced, summary = _traced_loop(run, jobs, False, FUZZ_CAL_EVERY, args.spans)
        _layer_metrics(run, summary, _normalized_total(traced), _normalized_total(timed))
        outputs.append(traced.results)
    else:
        run.per_layer["caches.entries"] = timed.cache_entries

    quality = Quality()
    for number, results in enumerate(outputs):
        for index, (system, result) in enumerate(zip(systems, results)):
            if result is None:
                continue
            if number == 0:
                verify(run, index, system, result, quality)
            elif outputs[0][index] is not None and oracle.decomposition_tree(
                    result.decomposition) != oracle.decomposition_tree(
                    outputs[0][index].decomposition):
                run.fail(index, "the traced run returned a different decomposition")
    quality.report(run)


# ----------------------------------------------------------------------
# service-mixed: an open-loop client of a `repro serve` process
# ----------------------------------------------------------------------

def _drive(server, schedule, bodies) -> list[dict]:
    """Send every submission at its due time, one connection at a time."""
    sends = []
    mono0 = time.monotonic() + 0.05
    wall0 = time.time() + (mono0 - time.monotonic())
    for due_s, index in schedule:
        delay = mono0 + due_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        try:
            status, data = server.request("POST", "/jobs", bodies[index])
        except OSError as exc:
            status, data = 0, {"error": str(exc)}
        replied = time.monotonic()
        job = data.get("job") or {}
        sends.append({
            "index": index, "status": status, "job": job.get("job_id"),
            "created": data.get("created"), "due_wall": wall0 + due_s,
            "reply_wall": wall0 + (replied - mono0),
            "late_ms": (sent - mono0 - due_s) * 1000.0,
            "http_ms": (replied - sent) * 1000.0,
        })
    return sends


def _wait_terminal(server, job_ids: set, timeout: float = 120.0) -> dict:
    """Poll the job list until every submitted job is terminal."""
    deadline = time.monotonic() + timeout
    while True:
        _, data = server.request("GET", "/jobs")
        records = {r["job_id"]: r for r in data.get("jobs", [])}
        pending = [j for j in job_ids if records.get(j, {}).get("state") not in
                   ("done", "failed", "degraded", "cancelled", "dead_letter")]
        if not pending or time.monotonic() > deadline:
            return records
        time.sleep(0.05)


def _walls(record: dict) -> tuple[float, float]:
    """(started running, finished) wall times from a job's history."""
    history = record.get("history", [])
    running = next((h["wall"] for h in history if h["state"] == "running"), math.nan)
    return running, history[-1]["wall"] if history else math.nan


def _segment(args, run: Run, systems, bodies, schedule, traced: bool, quality, tag: str):
    """Drive one fresh server through ``schedule`` and verify what it returned.

    Returns the sends, the final job records, the traced server's file
    prefix (or None) and the host factor of the segment.
    """
    from repro.serialize import decomposition_from_dict

    data_dir = OUT / f"service-data-{os.getpid()}-{tag}"
    prefix = OUT / f"{args.spans.stem}-server" if traced else None
    server = service_load.start(service_load.serve_command(ROOT, prefix), dict(os.environ),
                                data_dir, OUT / f"server-{os.getpid()}-{tag}.log")
    try:
        before = statistics.median(hostspeed.calibrate() for _ in range(3))
        sends = _drive(server, schedule, bodies)
        records = _wait_terminal(server, {s["job"] for s in sends if s["job"]})
        factor = hostspeed.factor(before, statistics.median(hostspeed.calibrate() for _ in range(3)))
        results = {}
        for job_id, record in records.items():
            if record["state"] == "done":
                _, payload = server.request("GET", f"/jobs/{job_id}/result")
                results[job_id] = payload
    finally:
        usage = server.stop()
        shutil.rmtree(data_dir, ignore_errors=True)
    server.log.unlink()
    run.server_rss_kb = max(run.server_rss_kb, usage["maxrss_kb"])

    verified: set = set()
    for send in sends:
        run.attempted += 1
        job_id = send["job"]
        if send["status"] not in (200, 201) or job_id is None:
            run.fail(f"{tag}:{send['index']}", f"HTTP {send['status']}")
            continue
        record = records.get(job_id, {})
        if record.get("state") != "done":
            run.fail(f"{tag}:{send['index']}", f"job {job_id} ended {record.get('state')}")
            continue
        if job_id in verified:
            continue
        verified.add(job_id)
        system = systems[send["index"]]
        payload = results[job_id]["result"]
        try:
            oracle.check(system, payload["decomposition"])
            mul, add = oracle.count_ops(payload["decomposition"])
        except oracle.OracleMismatch as exc:
            run.fail(f"{tag}:{send['index']}", str(exc))
            continue
        if (mul, add) != (payload["op_count"]["mul"], payload["op_count"]["add"]):
            run.fail(f"{tag}:{send['index']}", "reported operator count differs from the tree")
        if quality is not None:
            decomposition = decomposition_from_dict(payload["decomposition"])
            quality.add(system, decomposition, decomposition.op_count().weighted())
    return sends, records, prefix, factor


def service_mixed(args, run: Run) -> None:
    systems, bodies, schedule = service_inputs(args.seed, args.seconds)
    if args.trace:
        schedule = schedule[:max(2, len(schedule) // 2)]
    quality = Quality()
    sends, records, _, factor = _segment(args, run, systems, bodies, schedule, False, quality, "a")

    ok = [s for s in sends if s["status"] in (200, 201) and s["job"] in records]
    created = [(s, records[s["job"]]) for s in ok if s["created"]]
    fresh = [(_walls(r)[1] - s["due_wall"]) * 1000.0 for s, r in created]
    dedup = [(max(s["reply_wall"], _walls(records[s["job"]])[1]) - s["due_wall"]) * 1000.0
             for s in ok if not s["created"]]
    starts = [_walls(r) for _, r in created]
    queue_ms = [(start - r["created_wall"]) * 1000.0 for (_, r), (start, _) in zip(created, starts)]
    run_ms = [(end - start) * 1000.0 for start, end in starts]
    # Raw, not host-normalized: most of this latency is the worker's idle
    # poll and other timer waits, which do not scale with host speed.
    run.end_to_end.update({
        "job_ms.p50": pct(fresh, 50),
        "job_ms.p90": pct(fresh, 90),
        "job_ms.tmean": trimmed_mean(fresh),
    })
    run.per_layer.update({
        "bench.host_factor": factor,
        "bench.raw_job_ms.tmean": trimmed_mean(fresh),
        "bench.late_ms.p90": pct([s["late_ms"] for s in sends], 90),
        "bench.late_ms.max": max(s["late_ms"] for s in sends),
        "service.queue_wait_ms.p50": pct(queue_ms, 50),
        "service.queue_wait_ms.p90": pct(queue_ms, 90),
        "service.run_ms.p50": pct(run_ms, 50),
        "service.http_submit_ms.p50": pct([s["http_ms"] for s in sends], 50),
        "service.http_submit_ms.p90": pct([s["http_ms"] for s in sends], 90),
        "service.dedup_ratio": len(dedup) / len(sends),
        "service.dedup_ms.p50": pct(dedup, 50) if dedup else 0.0,
        "service.dedup_ms.p90": pct(dedup, 90) if dedup else 0.0,
    })
    quality.report(run)
    if args.trace:
        traced_sends, traced_records, prefix, traced_factor = _segment(
            args, run, systems, bodies, schedule, True, None, "b")
        summary_path = Path(f"{prefix}.summary.json")
        summary = json.loads(summary_path.read_text())
        summary_path.unlink()
        shutil.move(f"{prefix}.spans.jsonl", args.spans)
        traced_run_s = math.fsum(
            end - start for start, end in
            (_walls(traced_records[s["job"]]) for s in traced_sends if s["created"]))
        _layer_metrics(run, summary, traced_run_s * traced_factor,
                       math.fsum(run_ms) / 1000.0 * factor)
        run.per_layer["bench.unattributed_s"] = (
            traced_run_s - summary["total_s"].get("engine.BatchEngine.run", 0.0))
        run.per_layer["caches.entries"] = summary["cache_entries"]


WORKLOADS = {"paper-table": paper_table, "fuzz-stream": fuzz_stream,
             "service-mixed": service_mixed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    run = Run()
    WORKLOADS[args.workload](args, run)
    args.out.write_text(json.dumps(run.as_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
