"""In-process tests for SynthesisService: submit→done, byte-identity,
idempotent reuse, admission rejection, graceful drain, the idle wake."""

import sys
import threading
import time

import pytest

from repro import BitVectorSignature, PolySystem, parse_system
from repro.config import RunConfig
from repro.engine import BatchEngine, BatchJob
from repro.obs import Tracer
from repro.serialize import system_to_dict
from repro.service import (
    AdmissionRejected,
    JobState,
    ServiceConfig,
    SynthesisService,
    TenantPolicy,
    AdmissionController,
    result_fingerprint,
)


def tiny_system(k: int = 1) -> PolySystem:
    """A one-polynomial system cheap enough for many-job tests."""
    polys = tuple(p.with_vars(("x",)) for p in parse_system([f"x^2 + {k}*x + {k}"]))
    return PolySystem(
        f"tiny-{k}", polys, BitVectorSignature.uniform(("x",), 8)
    )


def make_service(tmp_path, **overrides) -> SynthesisService:
    admission = overrides.pop("admission", None)
    overrides.setdefault("poll_seconds", 0.02)
    config = ServiceConfig(data_dir=str(tmp_path / "svc"), **overrides)
    return SynthesisService(config, admission=admission)


def wait_terminal(service, job_id, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        record = service.store.get(job_id)
        if record.terminal:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal within {timeout}s")


class TestRunToDone:
    def test_submit_runs_to_done_with_fingerprint(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            record, created = service.submit(system_to_dict(tiny_system()))
            assert created
            done = wait_terminal(service, record.job_id)
            assert done.state == JobState.DONE
            assert done.result is not None
            assert done.fingerprint == result_fingerprint(done.result)
            assert done.attempts == 1
        finally:
            service.stop()

    def test_fingerprint_matches_direct_engine_run(self, tmp_path):
        """The service's durable result is byte-identical to what a plain
        BatchEngine run produces for the same job."""
        system = tiny_system(7)
        service = make_service(tmp_path)
        service.start()
        try:
            record, _ = service.submit(system_to_dict(system))
            done = wait_terminal(service, record.job_id)
        finally:
            service.stop()
        engine = BatchEngine(RunConfig())
        report = engine.run([BatchJob(system=system)])
        [result] = report.results
        assert result.ok
        assert done.result == result.canonical_result()
        assert done.fingerprint == result_fingerprint(result.canonical_result())

    def test_dedup_returns_existing_job(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            first, created1 = service.submit(system_to_dict(tiny_system()))
            second, created2 = service.submit(system_to_dict(tiny_system()))
            assert created1 and not created2
            assert second.job_id == first.job_id
        finally:
            service.stop()

    def test_lifecycle_events_reach_the_job_tail(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            record, _ = service.submit(system_to_dict(tiny_system(3)))
            wait_terminal(service, record.job_id)
            kinds = [
                e.get("event")
                for e in service.store.events_for(record.job_id)
            ]
            assert "job_queued" in kinds
            assert "job_leased" in kinds
            assert "job_start" in kinds
            assert "job_end" in kinds
        finally:
            service.stop()

    def test_job_tails_outlive_the_stream_default_cap(self, tmp_path, monkeypatch):
        """The service's recorder has no event cap: past the default
        cap, later jobs still get their lifecycle tails.  A tiny job
        emits ~33 events, so a default cap of 60 would leave the fourth
        job's tail empty."""
        sinks_default, spans_default, _ = Tracer.__init__.__defaults__
        monkeypatch.setattr(
            Tracer.__init__, "__defaults__", (sinks_default, spans_default, 60)
        )
        service = make_service(tmp_path)
        service.start()
        try:
            for k in range(21, 25):
                record, _ = service.submit(system_to_dict(tiny_system(k)))
                wait_terminal(service, record.job_id)
            kinds = [e.get("event") for e in service.store.events_for(record.job_id)]
            assert "job_start" in kinds
            assert "job_end" in kinds
            assert service.recorder.dropped == 0
        finally:
            service.stop()

    def test_recorder_keeps_no_events_beyond_the_job_tails(self, tmp_path):
        """Nothing reads the service recorder's own buffer, so it keeps
        none: a finished job's events live only in its store tail."""
        service = make_service(tmp_path)
        service.start()
        try:
            record, _ = service.submit(system_to_dict(tiny_system(31)))
            wait_terminal(service, record.job_id)
            kinds = [e.get("event") for e in service.store.events_for(record.job_id)]
            assert kinds[0] == "job_queued"
            assert kinds[-1] == "job_end"
            assert service.recorder.events == []
        finally:
            service.stop()


class TestIdleWake:
    """A submit or stop wakes an idle worker at once; ``poll_seconds``
    only paces lease reaping.  Each test runs with a 30 s poll, so a lost
    wake fails its deadline instead of passing on the next tick."""

    def test_idle_submit_runs_without_waiting_for_the_poll(self, tmp_path):
        service = make_service(tmp_path, poll_seconds=30.0)
        service.start()
        try:
            time.sleep(0.2)  # let the worker go idle
            record, _ = service.submit(system_to_dict(tiny_system(31)))
            done = wait_terminal(service, record.job_id, timeout=2.0)
            assert done.state == JobState.DONE
        finally:
            service.stop()

    def test_idle_stop_returns_at_once(self, tmp_path):
        service = make_service(tmp_path, poll_seconds=30.0, drain_seconds=5.0)
        service.start()
        time.sleep(0.2)
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 1.0
        assert not service._worker.is_alive()

    def test_submit_between_empty_lease_and_wait_is_not_stranded(
        self, tmp_path, monkeypatch
    ):
        """The worker clears the signal before it leases, so a submit that
        lands after an empty lease (injected here, deterministically) still
        wakes the wait that follows."""
        service = make_service(tmp_path, poll_seconds=30.0)
        real_lease = service.store.lease
        injected = []

        def lease_then_submit(*args):
            leased = real_lease(*args)
            if not leased and not injected:
                record, _ = service.submit(system_to_dict(tiny_system(41)))
                injected.append(record)
            return leased

        monkeypatch.setattr(service.store, "lease", lease_then_submit)
        service.start()
        try:
            deadline = time.time() + 2.0
            while not injected and time.time() < deadline:
                time.sleep(0.01)
            assert injected
            done = wait_terminal(service, injected[0].job_id, timeout=2.0)
            assert done.state == JobState.DONE
        finally:
            service.stop()

    def test_concurrent_submits_are_never_stranded(self, tmp_path):
        service = make_service(tmp_path, poll_seconds=30.0)
        service.start()
        job_ids: list[str] = []
        ids_lock = threading.Lock()

        def submit_ten(base: int) -> None:
            for k in range(base, base + 10):
                record, created = service.submit(system_to_dict(tiny_system(k)))
                assert created
                with ids_lock:
                    job_ids.append(record.job_id)

        threads = [
            threading.Thread(target=submit_ten, args=(100 + 10 * t,))
            for t in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave submits and worker finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(job_ids) == 40
            deadline = time.time() + 15.0
            for job_id in job_ids:
                record = wait_terminal(
                    service, job_id, timeout=max(deadline - time.time(), 0.0)
                )
                assert record.state == JobState.DONE
        finally:
            sys.setswitchinterval(interval)
            service.stop()


class TestAdmission:
    def test_queue_full_raises_429_material(self, tmp_path):
        service = make_service(tmp_path, max_queue_depth=1)
        # Worker not started: the first job stays queued.
        service.submit(system_to_dict(tiny_system(1)))
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(system_to_dict(tiny_system(2)))
        assert "queue full" in excinfo.value.reason
        assert excinfo.value.retry_after > 0
        service.store.close()

    def test_rate_limit_rejects(self, tmp_path):
        frozen = lambda: 0.0  # noqa: E731 - tokens never refill
        admission = AdmissionController(
            default_policy=TenantPolicy(rate=1.0, burst=1),
            clock=frozen,
        )
        service = make_service(tmp_path, admission=admission)
        service.submit(system_to_dict(tiny_system(1)))
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(system_to_dict(tiny_system(2)))
        assert "rate limit" in excinfo.value.reason
        service.store.close()

    def test_tenant_budget_cap_is_recorded(self, tmp_path):
        service = make_service(tmp_path, max_job_seconds=5.0)
        record, _ = service.submit(system_to_dict(tiny_system()))
        assert record.config is not None
        assert record.config["budget"]["job_seconds"] == 5.0
        service.store.close()

    def test_unknown_method_rejected(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ValueError, match="unknown method"):
            service.submit(
                system_to_dict(tiny_system()), method="no-such-method"
            )
        service.store.close()


class TestDrainAndResume:
    def test_stop_persists_queued_jobs(self, tmp_path):
        service = make_service(tmp_path)
        # Never started: submissions stay queued in the WAL.
        record, _ = service.submit(system_to_dict(tiny_system()))
        service.store.close()
        reopened = make_service(tmp_path)
        assert reopened.store.get(record.job_id).state == JobState.QUEUED
        reopened.store.close()

    def test_resume_requeues_orphans_and_completes(self, tmp_path):
        # Simulate a crashed process: job leased+running, never completed.
        service = make_service(tmp_path)
        record, _ = service.submit(system_to_dict(tiny_system(9)))
        [leased] = service.store.lease(1, 3600.0)
        service.store.start(record.job_id, leased.lease_id)
        service.store._handle.flush()  # the "crash": no close, no compact
        del service

        resumed = make_service(tmp_path)
        resumed.start(resume=True)
        try:
            assert resumed.recovery["requeued"] == 1
            done = wait_terminal(resumed, record.job_id)
            assert done.state == JobState.DONE
            assert done.redeliveries == 1
            assert done.attempts == 2
        finally:
            resumed.stop()

    def test_final_report_covers_executed_jobs(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            record, _ = service.submit(system_to_dict(tiny_system(4)))
            wait_terminal(service, record.job_id)
        finally:
            report = service.stop()
        assert len(report.results) == 1
        assert report.results[0].ok
        assert not service.ready  # drained services stop admitting


class TestUnreadableRecords:
    def test_stale_options_record_fails_while_its_group_finishes(self, tmp_path):
        """A queued record whose options name a field this release no
        longer has (as an older release's ``SynthesisOptions`` did) must
        end ``failed`` instead of wedging in ``running``; the jobs leased
        in the same group still run to done."""
        service = make_service(tmp_path)
        first, _ = service.submit(system_to_dict(tiny_system(11)))
        # Written straight to the store, as the older release's submit
        # path would have accepted it.
        stale, _ = service.store.submit(
            key="stale-options", tenant="default", method="proposed",
            label="stale", system=system_to_dict(tiny_system(12)),
            options={"objective": "area", "retired_scorer_switch": "old"},
        )
        last, _ = service.submit(system_to_dict(tiny_system(13)))
        service.store.close()

        replayed = make_service(tmp_path, batch_size=3)  # one leased group
        replayed.start()
        try:
            failed = wait_terminal(replayed, stale.job_id)
            done = [wait_terminal(replayed, r.job_id) for r in (first, last)]
        finally:
            replayed.stop()
        assert failed.state == JobState.FAILED
        assert "retired_scorer_switch" in failed.error
        assert [r.state for r in done] == [JobState.DONE, JobState.DONE]
