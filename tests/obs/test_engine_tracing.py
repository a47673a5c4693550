"""Cross-process span stitching through the batch engine, plus CLI tracing."""

import json
import subprocess
import sys
from pathlib import Path

from repro import BatchEngine, BatchJob, RunConfig
from repro.__main__ import main
from repro.obs import (
    Tracer,
    chrome_trace,
    chrome_trace_depth,
    event_names,
    get_registry,
    use_tracer,
    validate_chrome_trace,
)
from repro.suite import get_system

REPO_ROOT = Path(__file__).resolve().parents[2]
SYSTEMS = ("Table 14.1", "Table 14.2")


def jobs_for(names=SYSTEMS):
    return [BatchJob(system=get_system(name)) for name in names]


def traced_run(workers: int):
    tracer = Tracer()
    with use_tracer(tracer):
        report = BatchEngine(RunConfig(workers=workers)).run(jobs_for())
    return tracer, report


def job_subtrees(tracer: Tracer):
    [batch] = tracer.roots
    assert batch.name == "batch"
    return [c for c in batch.children if c.name.startswith("job:")]


class TestStitching:
    def test_serial_run_nests_jobs_under_batch(self):
        tracer, report = traced_run(workers=1)
        jobs = job_subtrees(tracer)
        assert {j.name for j in jobs} == {f"job:{name}" for name in SYSTEMS}
        assert tracer.depth() >= 4  # batch > job > poly_synth > phase
        assert report.pool.mode == "serial"

    def test_pool_run_stitches_worker_trees(self):
        tracer, report = traced_run(workers=2)
        jobs = job_subtrees(tracer)
        assert {j.name for j in jobs} == {f"job:{name}" for name in SYSTEMS}
        # Each stitched subtree lives in its own lane and records the flow.
        assert len({j.tid for j in jobs}) == len(jobs)
        for job in jobs:
            assert all(child.tid == job.tid for child in job.children)
            assert job.start >= 0.0
        assert tracer.depth() >= 4
        assert report.pool.mode in ("pool", "fallback")

    def test_workers_1_and_2_produce_equivalent_trees(self):
        serial, _ = traced_run(workers=1)
        pooled, _ = traced_run(workers=2)
        signatures = lambda t: {j.signature() for j in job_subtrees(t)}  # noqa: E731
        assert signatures(serial) == signatures(pooled)
        assert len(signatures(serial)) == len(SYSTEMS)

    def test_pool_run_publishes_the_workers_phase_counters(self):
        """A pooled batch's registry holds the same phase counters as a
        serial one: each job's record, published once."""

        def phase_counters(workers):
            get_registry().reset()
            _, report = traced_run(workers)
            published = {
                (metric.name, metric.labels): metric.value
                for metric in get_registry().collect()
                if metric.kind == "counter" and metric.name.startswith("repro_phase_")
            }
            return published, report

        serial, _ = phase_counters(workers=1)
        pooled, report = phase_counters(workers=2)
        assert pooled == serial
        combos = sum(r.timings.counter("combinations") for r in report.results)
        key = ("repro_phase_combinations_total", (("phase", "search"),))
        assert pooled[key] == combos > 0

    def test_cache_hits_marked_not_stitched(self):
        tracer = Tracer()
        engine = BatchEngine(RunConfig(workers=1))
        with use_tracer(tracer):
            engine.run(jobs_for())
            engine.run(jobs_for())
        warm = tracer.roots[1]
        markers = [c for c in warm.children if c.name == "cache_hit"]
        assert len(markers) == len(SYSTEMS)
        assert not any(c.name.startswith("job:") for c in warm.children)

    def test_traced_results_match_untraced(self):
        untraced = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        tracer = Tracer()
        with use_tracer(tracer):
            traced = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        for a, b in zip(untraced.results, traced.results):
            # Byte-identical modulo timing measurements, like serial vs pool.
            assert a.canonical_result() == b.canonical_result()

    def test_chrome_export_of_stitched_run(self):
        tracer, _ = traced_run(workers=2)
        document = chrome_trace(tracer.snapshot())
        assert validate_chrome_trace(document) == []
        assert chrome_trace_depth(document) >= 3
        names = event_names(document)
        assert "batch" in names
        assert any(name.startswith("job:") for name in names)


class TestCli:
    def test_trace_command_writes_valid_deep_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "--system", "Table 14.1", "--out", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        assert chrome_trace_depth(document) >= 3
        assert "depth" in capsys.readouterr().out

    def test_batch_trace_out_and_stats(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        rc = main(
            [
                "batch",
                "--systems", ",".join(SYSTEMS),
                "--workers", "2",
                "--trace-out", str(out),
                "--stats",
            ]
        )
        assert rc == 0
        document = json.loads(out.read_text())
        assert validate_chrome_trace(document) == []
        names = event_names(document)
        assert "batch" in names and any(n.startswith("job:") for n in names)
        assert "# TYPE" in capsys.readouterr().out  # --stats prints Prometheus

    def test_check_trace_script_accepts_batch_trace(self, tmp_path):
        out = tmp_path / "batch.json"
        assert main(
            ["batch", "--systems", ",".join(SYSTEMS), "--workers", "2",
             "--trace-out", str(out)]
        ) == 0
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "check_trace.py"),
                str(out),
                "--min-depth", "3",
                "--require-stitched",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
