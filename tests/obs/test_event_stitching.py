"""Event stitching across retries and degraded reruns.

The contract under test: a worker's events ride home inside the job
payload's one snapshot and are adopted by the parent recorder exactly
once — from the *accepted* payload only.  A retried attempt's events are discarded with
its payload, so no job ever contributes duplicated ``job_start`` /
``job_end`` markers, and parent-side fault events (``retry``,
``timeout``, ``breaker``, ``degradation``) interleave in emission order.
"""

import json
from collections import Counter
from pathlib import Path

from repro.__main__ import main
from repro.config import RetryPolicy, RunConfig
from repro.engine import BatchEngine, BatchJob
from repro.obs import RingBufferSink, Tracer, use_tracer
from repro.suite import get_system
from repro.testing import ENV_VAR

#: The event stream of ``repro batch --systems "Table 14.1,Table 14.2"
#: --workers 1 --events-out ...`` as ``[seq, event, data]`` rows
#: (timestamps dropped), identical under PYTHONHASHSEED 1 and 2.
PINNED_STREAM = Path(__file__).parent / "data" / "serial_batch_events.json"

FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01, jitter=0.0)

SYSTEMS = ("Table 14.1", "Table 14.2")


def job(name, system="Quad", method="proposed"):
    return BatchJob(system=get_system(system), method=method, name=name)


def observed_run(engine, jobs):
    stream = Tracer(sinks=[RingBufferSink()], max_spans=0)
    with use_tracer(stream):
        report = engine.run(jobs)
    return stream, report


def kind_counts(stream):
    return Counter(e.kind for e in stream.events)


def job_markers(stream, kind):
    return [e.data.get("job") for e in stream.events if e.kind == kind]


class TestAdoptionBasics:
    def test_serial_and_pooled_runs_adopt_equivalent_job_events(self):
        jobs = lambda: [  # noqa: E731
            BatchJob(system=get_system(name)) for name in SYSTEMS
        ]
        serial, _ = observed_run(BatchEngine(RunConfig(workers=1)), jobs())
        pooled, _ = observed_run(BatchEngine(RunConfig(workers=2)), jobs())
        for stream in (serial, pooled):
            assert sorted(job_markers(stream, "job_start")) == sorted(SYSTEMS)
            assert sorted(job_markers(stream, "job_end")) == sorted(SYSTEMS)
        # Workers=1 and workers=2 record the same flow events per job.
        s, p = kind_counts(serial), kind_counts(pooled)
        for kind in ("combo_scored", "kernel_chosen", "phase_start"):
            assert s[kind] == p[kind], kind

    def test_adopted_events_keep_total_order(self):
        stream, _ = observed_run(
            BatchEngine(RunConfig(workers=2)),
            [BatchJob(system=get_system(name)) for name in SYSTEMS],
        )
        seqs = [e.seq for e in stream.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_cached_jobs_emit_cache_hit_not_job_events(self):
        engine = BatchEngine(RunConfig(workers=1))
        jobs = [BatchJob(system=get_system("Table 14.1"))]
        observed_run(engine, jobs)
        warm, report = observed_run(engine, jobs)
        assert report.cache_hits == 1
        counts = kind_counts(warm)
        assert counts["cache_hit"] == 1
        assert counts["job_start"] == 0
        assert counts["job_end"] == 0


def cli_stream(tmp_path, workers):
    """``repro batch`` of SYSTEMS with events on; rows as in PINNED_STREAM."""
    out = tmp_path / f"events-{workers}.jsonl"
    assert main(
        ["batch", "--systems", ",".join(SYSTEMS), "--workers", str(workers),
         "--events-out", str(out)]
    ) == 0
    return [
        [entry["seq"], entry["event"], entry["data"]]
        for entry in map(json.loads, out.read_text().splitlines())
    ]


class TestPinnedStream:
    def test_serial_stream_matches_the_pinned_fixture(self, tmp_path):
        assert cli_stream(tmp_path, workers=1) == json.loads(
            PINNED_STREAM.read_text()
        )

    def test_pooled_job_subsequences_match_the_serial_ones(self, tmp_path):
        pinned = json.loads(PINNED_STREAM.read_text())
        pooled = cli_stream(tmp_path, workers=2)

        def of_job(stream, name):
            return [(kind, data) for _, kind, data in stream if data.get("job") == name]

        for name in SYSTEMS:
            assert of_job(pooled, name) == of_job(pinned, name), name


class TestRetryDeduplication:
    def test_retried_job_adopts_events_once(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:flaky")  # attempt 0 only
        engine = BatchEngine(RunConfig(retry=FAST_RETRY))
        stream, report = observed_run(engine, [job("flaky")])
        assert report.results[0].ok
        assert report.retries == 1
        counts = kind_counts(stream)
        # Only the accepted (second) attempt's worker events are adopted.
        assert job_markers(stream, "job_start") == ["flaky"]
        assert job_markers(stream, "job_end") == ["flaky"]
        assert counts["retry"] == 1
        retry = next(e for e in stream.events if e.kind == "retry")
        assert retry.data == {"job": "flaky", "attempt": 1}

    def test_exhausted_retries_still_single_job_end(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:doomed:attempts=99")
        engine = BatchEngine(
            RunConfig(retry=RetryPolicy(max_retries=1, backoff_seconds=0.01))
        )
        stream, report = observed_run(engine, [job("doomed")])
        assert not report.results[0].ok
        # The last (failing) payload is the accepted one: one pair only.
        assert job_markers(stream, "job_start") == ["doomed"]
        ends = [e for e in stream.events if e.kind == "job_end"]
        assert len(ends) == 1
        assert "InjectedFault" in str(ends[0].data.get("error"))
        assert kind_counts(stream)["retry"] == 1

    def test_pooled_crash_retry_does_not_duplicate(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "crash@job:victim")
        engine = BatchEngine(RunConfig(workers=2, retry=FAST_RETRY))
        stream, report = observed_run(
            engine, [job("victim"), job("bystander", "MVCS")]
        )
        assert all(r.ok for r in report.results)
        assert report.retries >= 1
        starts = Counter(job_markers(stream, "job_start"))
        ends = Counter(job_markers(stream, "job_end"))
        assert starts == {"victim": 1, "bystander": 1}
        assert ends == {"victim": 1, "bystander": 1}
        assert kind_counts(stream)["retry"] >= 1


class TestDegradedRerun:
    def test_breaker_rerun_emits_breaker_and_degradation(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:offender:attempts=99")
        engine = BatchEngine(
            RunConfig(
                retry=RetryPolicy(
                    max_retries=0, backoff_seconds=0.01, breaker_threshold=1
                )
            )
        )
        engine.run([job("offender")])  # trips the breaker
        stream, report = observed_run(engine, [job("offender")])
        (result,) = report.results
        assert result.degraded
        counts = kind_counts(stream)
        assert counts["breaker"] == 1
        assert counts["degradation"] >= 1
        # The in-process degraded rerun still produces one stitched pair.
        assert job_markers(stream, "job_start") == ["offender"]
        assert job_markers(stream, "job_end") == ["offender"]

    def test_timeout_rerun_single_adoption(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "hang@job:stuck")
        engine = BatchEngine(
            RunConfig(
                workers=2,
                retry=RetryPolicy(
                    max_retries=1, backoff_seconds=0.01, job_timeout_seconds=2.0
                ),
            )
        )
        stream, report = observed_run(
            engine, [job("stuck"), job("fine", "MVCS")]
        )
        assert report.timeouts == 1
        by_name = {r.name: r for r in report.results}
        assert by_name["stuck"].timed_out
        counts = kind_counts(stream)
        assert counts["timeout"] == 1
        assert counts["degradation"] >= 1
        starts = Counter(job_markers(stream, "job_start"))
        # The hung attempt's worker was killed before returning a payload,
        # so only the degraded rerun contributes events for "stuck".
        assert starts["stuck"] == 1
        assert starts["fine"] == 1
