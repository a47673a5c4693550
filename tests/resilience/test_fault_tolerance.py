"""End-to-end fault tolerance of the batch engine.

Faults are injected deterministically through ``REPRO_FAULTS``
(:mod:`repro.testing.faults`); the environment variable is inherited by
pool workers, so injected crashes and hangs happen inside real child
processes.  ``crash`` faults are only ever used with pooled engines —
in serial mode they would kill the test process itself.  Every scenario
that is safe in-process runs under both modes (``tests/engine/modes.py``)
and must come out the same.
"""

import json
import multiprocessing
import time

import pytest

from repro.config import RetryPolicy, RunConfig
from repro.core import Budget
from repro.engine import BatchEngine, BatchJob, graceful_shutdown
from repro.suite import get_system
from repro.testing import ENV_VAR
from repro.verify import check_systems

from tests.engine.modes import in_both_modes

#: Fast backoff so retry tests do not sleep for real.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01, jitter=0.0)


def job(name, system="Quad", method="proposed"):
    return BatchJob(system=get_system(system), method=method, name=name)


def started(result):
    """Wall-clock start of the execution that produced ``result``."""
    return json.loads(result.payload)["worker"]["start_wall"]


class TestCrashRetry:
    def test_crashed_worker_is_respawned_and_job_retried(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "crash@job:victim")
        engine = BatchEngine(RunConfig(workers=2, retry=FAST_RETRY))
        report = engine.run([job("victim"), job("bystander", "MVCS")])
        assert report.retries >= 1
        by_name = {r.name: r for r in report.results}
        victim = by_name["victim"]
        assert victim.ok, victim.error
        assert victim.attempts >= 2
        assert victim.decomposition is not None
        assert by_name["bystander"].ok

    def test_bystanders_survive_the_broken_pool(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "crash@job:victim")
        engine = BatchEngine(RunConfig(workers=2, retry=FAST_RETRY))
        report = engine.run(
            [job("victim"), job("b1", "MVCS"), job("b2", "Mixer", "horner")]
        )
        assert all(r.ok for r in report.results), [r.error for r in report.results]


class TestRetriesExhausted:
    def test_error_preserved_when_retries_run_out(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:doomed:attempts=99,message=kaboom")

        def scenario(workers):
            engine = BatchEngine(
                RunConfig(
                    workers=workers,
                    retry=RetryPolicy(max_retries=1, backoff_seconds=0.01),
                )
            )
            report = engine.run([job("doomed"), job("fine", "MVCS")])
            doomed, fine = report.results
            assert doomed.ok is False
            assert "InjectedFault" in doomed.error and "kaboom" in doomed.error
            assert doomed.attempts == 2  # first try + one retry
            assert fine.ok and fine.attempts == 1
            assert report.retries == 1
            return report

        in_both_modes(scenario)

    def test_transient_failure_recovers_in_serial_mode(self, monkeypatch):
        # ...and pooled: both modes run the same dispatch loop.
        monkeypatch.setenv(ENV_VAR, "raise@job:flaky")  # attempt 0 only

        def scenario(workers):
            engine = BatchEngine(RunConfig(workers=workers, retry=FAST_RETRY))
            report = engine.run([job("flaky"), job("fine", "MVCS")])
            flaky, fine = report.results
            assert flaky.ok and fine.ok
            assert flaky.attempts == 2
            assert report.retries == 1
            return report

        in_both_modes(scenario)

    def test_errors_are_not_cached(self, monkeypatch):
        def scenario(workers):
            monkeypatch.setenv(ENV_VAR, "raise@job:doomed:attempts=99")
            engine = BatchEngine(
                RunConfig(
                    workers=workers,
                    retry=RetryPolicy(max_retries=0, breaker_threshold=0),
                )
            )
            first = engine.run([job("doomed"), job("fine", "MVCS")])
            assert not first.results[0].ok
            monkeypatch.delenv(ENV_VAR)
            report = engine.run([job("doomed"), job("other", "Mixer", "horner")])
            assert all(r.ok for r in report.results)
            assert report.cache_hits == 0  # the failure was never stored
            return report

        in_both_modes(scenario)


class TestDispatchRules:
    """The rules the one dispatch loop applies in both modes."""

    def test_backoff_does_not_block_later_jobs(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:flaky")  # attempt 0 only
        slow_retry = RetryPolicy(max_retries=1, backoff_seconds=1.0, jitter=0.0)

        def scenario(workers):
            engine = BatchEngine(RunConfig(workers=workers, retry=slow_retry))
            report = engine.run(
                [job("flaky"), job("b", "MVCS"), job("c", "Mixer", "horner")]
            )
            assert all(r.ok for r in report.results)
            flaky, _, last = report.results
            assert flaky.attempts == 2
            # The last job started while the flaky one was backing off.
            assert started(last) < started(flaky)
            return report

        in_both_modes(scenario)

    def test_breaker_checked_at_first_submission(self, monkeypatch):
        # The second "offender" is submitted after the first has failed
        # (the bystander holds the other pool slot meanwhile), so the
        # breaker the first failure tripped routes it to the degraded path.
        monkeypatch.setenv(
            ENV_VAR, "raise@job:offender;delay@job:bystander:seconds=1.0"
        )

        def scenario(workers):
            engine = BatchEngine(
                RunConfig(
                    workers=workers,
                    retry=RetryPolicy(max_retries=0, breaker_threshold=1),
                )
            )
            report = engine.run(
                [job("offender"), job("bystander", "MVCS"), job("offender")]
            )
            first, bystander, second = report.results
            assert not first.ok and bystander.ok
            assert second.ok
            assert any("circuit breaker" in d.reason for d in second.degradations)
            assert report.pool.degraded == 1
            return report

        in_both_modes(scenario)


class TestTimeouts:
    def test_hung_worker_is_killed_and_job_degraded(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "hang@job:stuck")
        engine = BatchEngine(
            RunConfig(
                workers=2,
                retry=RetryPolicy(
                    max_retries=1, backoff_seconds=0.01, job_timeout_seconds=2.0
                ),
            )
        )
        start = time.perf_counter()
        report = engine.run([job("stuck"), job("fine", "MVCS")])
        elapsed = time.perf_counter() - start
        assert report.timeouts == 1
        by_name = {r.name: r for r in report.results}
        stuck = by_name["stuck"]
        assert stuck.ok
        assert stuck.timed_out
        assert stuck.degraded
        assert any(d.action == "degraded-rerun" for d in stuck.degradations)
        assert stuck.decomposition is not None
        system = get_system("Quad")
        assert check_systems(
            stuck.decomposition.to_polynomials(),
            list(system.polys),
            system.signature,
        )
        assert by_name["fine"].ok and not by_name["fine"].timed_out
        # The hang was cut at the 2 s timeout, not served in full.
        assert elapsed < 60.0

    def test_degraded_results_are_not_cached(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "hang@job:stuck")
        config = RunConfig(
            workers=2,
            retry=RetryPolicy(
                max_retries=0, backoff_seconds=0.01, job_timeout_seconds=2.0
            ),
        )
        engine = BatchEngine(config)
        first = engine.run([job("stuck"), job("fine", "MVCS")])
        assert first.timeouts == 1
        monkeypatch.delenv(ENV_VAR)
        second = engine.run([job("stuck"), job("fine", "MVCS")])
        by_name = {r.name: r for r in second.results}
        # The clean bystander was cached; the degraded victim re-executed
        # and came back clean this time.
        assert by_name["fine"].cache_hit
        assert not by_name["stuck"].cache_hit
        assert by_name["stuck"].ok and not by_name["stuck"].degraded


class TestNoLingeringWorkers:
    def test_crash_and_persistent_hang_leave_no_workers(self, monkeypatch):
        """The CI fault-smoke spec, run the way ``repro batch`` runs it.

        Under ``graceful_shutdown`` the drain handler is installed when
        the pool forks, so SIGTERM must still end a worker: a hung one
        surviving the crash respawn or the timeout kill would keep the
        batch process alive after its report.
        """
        monkeypatch.setenv(
            ENV_VAR, "crash@job:Table 14.1;hang@job:Table 14.2:attempts=99"
        )
        timeout = 3.0
        engine = BatchEngine(
            RunConfig(
                workers=2,
                retry=RetryPolicy(
                    max_retries=2, backoff_seconds=0.01, job_timeout_seconds=timeout
                ),
            )
        )
        jobs = [
            BatchJob(system=get_system(name), method="proposed", name=name)
            for name in ("Table 14.1", "Table 14.2")
        ]
        try:
            with graceful_shutdown(engine):
                report = engine.run(jobs)
            assert all(r.ok for r in report.results)
            assert report.timeouts == 1 and report.retries >= 1
            deadline = time.monotonic() + timeout + 10.0
            while multiprocessing.active_children() and time.monotonic() < deadline:
                time.sleep(0.1)
            assert multiprocessing.active_children() == []
        finally:
            for child in multiprocessing.active_children():
                child.kill()


class TestExpiredDeadline:
    def test_expired_budget_falls_back_immediately(self):
        engine = BatchEngine(RunConfig(budget=Budget(job_seconds=0.0)))
        start = time.perf_counter()
        report = engine.run([job("b1"), job("b2", "MVCS")])
        elapsed = time.perf_counter() - start
        for result in report.results:
            assert result.ok
            assert result.degraded
            assert any(
                d.action == "expired-at-start" for d in result.degradations
            )
            assert result.decomposition is not None
        assert elapsed < 10.0


class TestCircuitBreaker:
    def test_repeat_offender_is_routed_to_degraded_path(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:offender")  # attempt 0 only

        def scenario(workers):
            engine = BatchEngine(
                RunConfig(
                    workers=workers,
                    retry=RetryPolicy(
                        max_retries=0, backoff_seconds=0.01, breaker_threshold=1
                    ),
                )
            )
            first = engine.run([job("offender"), job("fine", "MVCS")])
            assert not first.results[0].ok  # breaker was closed: job really ran
            second = engine.run([job("offender"), job("other", "Mixer", "horner")])
            result = second.results[0]
            # Breaker open: degraded in-process rerun at a higher attempt,
            # where the attempt-gated fault no longer fires.
            assert result.ok
            assert any("circuit breaker" in d.reason for d in result.degradations)
            assert second.pool.degraded == 1
            return second

        in_both_modes(scenario)

    def test_success_resets_the_breaker(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise@job:flaky")  # attempt 0 only
        engine = BatchEngine(RunConfig(retry=FAST_RETRY))
        assert engine.run([job("flaky")]).results[0].ok
        assert engine._breaker.get("flaky") is None


class TestPoolFallback:
    def test_pool_creation_failure_is_loud(self, monkeypatch, caplog):
        import repro.engine.engine as engine_mod

        def refuse(*args, **kwargs):
            raise OSError("no forks today")

        monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", refuse)
        engine = BatchEngine(RunConfig(workers=2))
        with caplog.at_level("WARNING", logger="repro.engine"):
            report = engine.run([job("a"), job("b", "MVCS")])
        assert all(r.ok for r in report.results)
        assert report.pool.mode == "fallback"
        assert report.pool.fallbacks == 1
        assert "no forks today" in report.pool.fallback_reason
        assert "process pool unavailable" in caplog.text
        assert "pool fallback reason" in report.summary_table()


class TestChaosAcceptance:
    """The PR's acceptance scenario: a 20-job batch with one injected
    hang and one injected crash completes — hung job degraded but valid,
    crashed job retried to success — within twice the clean wall time
    (plus fixed slack for pool respawns on slow CI)."""

    SYSTEMS = ["Quad", "MVCS", "Mixer", "Table 14.1", "Section 14.3.1"]
    METHODS = ["proposed", "horner", "factor+cse", "direct"]

    def _jobs(self):
        return [
            job(
                f"batch-{i:02d}",
                self.SYSTEMS[i % len(self.SYSTEMS)],
                self.METHODS[i // len(self.SYSTEMS) % len(self.METHODS)],
            )
            for i in range(20)
        ]

    def _config(self):
        return RunConfig(
            workers=4,
            retry=RetryPolicy(
                max_retries=2, backoff_seconds=0.01, jitter=0.0,
                job_timeout_seconds=2.5,
            ),
        )

    @pytest.mark.slow
    def test_hostile_batch_completes(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        clean_start = time.perf_counter()
        clean = BatchEngine(self._config()).run(self._jobs())
        clean_seconds = time.perf_counter() - clean_start
        assert all(r.ok for r in clean.results)
        assert clean.timeouts == 0 and clean.retries == 0

        # The hang persists across pooled attempts (attempts=99) so the
        # outcome is deterministic even if the crash breaks the pool
        # while the hung job is in flight and forces it onto a retry;
        # the degraded in-process rerun is fault-immune by design.
        monkeypatch.setenv(
            ENV_VAR, "hang@job:batch-03:attempts=99;crash@job:batch-11"
        )
        chaos_start = time.perf_counter()
        chaos = BatchEngine(self._config()).run(self._jobs())
        chaos_seconds = time.perf_counter() - chaos_start

        assert len(chaos.results) == 20
        assert all(r.ok for r in chaos.results), [
            (r.name, r.error) for r in chaos.results if not r.ok
        ]
        assert chaos.timeouts == 1
        assert chaos.retries >= 1

        by_name = {r.name: r for r in chaos.results}
        hung = by_name["batch-03"]
        assert hung.timed_out and hung.degraded
        assert hung.decomposition is not None
        system = get_system(self.SYSTEMS[3])
        assert check_systems(
            hung.decomposition.to_polynomials(),
            list(system.polys),
            system.signature,
        )
        crashed = by_name["batch-11"]
        assert crashed.attempts >= 2
        assert not crashed.degraded

        # Wall-time bound: 2x clean plus fixed slack for the pool
        # respawn and the hard-timeout wait on loaded CI machines.
        assert chaos_seconds <= 2.0 * clean_seconds + 10.0, (
            f"chaos batch took {chaos_seconds:.1f}s "
            f"vs clean {clean_seconds:.1f}s"
        )
