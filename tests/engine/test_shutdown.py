"""Graceful-shutdown tests for the batch engine: request_stop drains
in-flight work, cancels the queue, and the signal-installing context
manager follows the first-drain / second-kill convention.  The drain
scenarios run under both modes of the dispatch loop; a job drains the
engine the way an operator would, with a signal to the engine's
process."""

import os
import signal
import time

import pytest

from repro.baselines import get_method
from repro.config import RetryPolicy, RunConfig
from repro.engine import BatchEngine, BatchJob, graceful_shutdown

from tests.engine.modes import (
    DRAIN_SIGNAL,
    MODES,
    drain_engine_process,
    in_both_modes,
    registered,
)
from tests.service.test_service import tiny_system


def direct(system, options=None):
    return get_method("direct")(system, options)


class TestRequestStop:
    def test_stop_before_run_cancels_everything(self):
        def scenario(workers):
            engine = BatchEngine(RunConfig(workers=workers))
            engine.request_stop()
            report = engine.run(
                [BatchJob(system=tiny_system(k)) for k in range(1, 4)]
            )
            assert len(report.results) == 3
            assert all(r.cancelled for r in report.results)
            assert all(not r.ok for r in report.results)
            assert all(
                (r.error or "").startswith("cancelled:") for r in report.results
            )
            assert len(report.cancelled) == 3
            assert report.pool.cancelled == 3
            return report

        in_both_modes(scenario)

    def test_stop_mid_run_finishes_current_job_and_drains(self):
        engine_pid = os.getpid()

        def stopper(system, options=None):
            drain_engine_process(engine_pid)  # a signal arriving mid-job
            return direct(system, options)

        def slow(system, options=None):
            time.sleep(1.0)  # still running when the stopper's drain lands
            return direct(system, options)

        with registered("stopper", stopper), registered("slow", slow):
            for workers, mode in MODES.items():
                engine = BatchEngine(RunConfig(workers=workers))
                jobs = [BatchJob(system=tiny_system(1), method="stopper")] + [
                    BatchJob(system=tiny_system(k), method="slow")
                    for k in range(2, 4)
                ]
                with graceful_shutdown(engine, signals=(DRAIN_SIGNAL,)):
                    report = engine.run(jobs)
                # Every job in flight when the drain landed (the window
                # holds `workers` of them) ran to completion; the rest
                # were cancelled.
                assert report.pool.mode == mode
                results = report.results
                assert all(r.ok for r in results[:workers])
                assert all(r.cancelled for r in results[workers:])
                assert report.pool.cancelled == 3 - workers
                assert report.pool.retries == 0

    def test_drain_cancels_a_retry_that_is_backing_off(self):
        engine_pid = os.getpid()

        def stop_then_fail(system, options=None):
            drain_engine_process(engine_pid)
            raise RuntimeError("fails after requesting a drain")

        retry = RetryPolicy(max_retries=2, backoff_seconds=1.0, jitter=0.0)

        def scenario(workers):
            engine = BatchEngine(RunConfig(workers=workers, retry=retry))
            jobs = [
                BatchJob(system=tiny_system(1)),
                BatchJob(system=tiny_system(2), method="stop-then-fail"),
            ]
            with graceful_shutdown(engine, signals=(DRAIN_SIGNAL,)):
                report = engine.run(jobs)
            fine, failed = report.results
            assert fine.ok
            # The failure was scheduled for a retry, then the drain
            # cancelled it instead of accepting the failed payload.
            assert failed.cancelled
            assert report.pool.retries == 1
            assert report.pool.cancelled == 1
            return report

        with registered("stop-then-fail", stop_then_fail):
            in_both_modes(scenario)

    def test_keyboard_interrupt_in_process_is_not_retried(self):
        def interrupted(system, options=None):
            raise KeyboardInterrupt

        engine = BatchEngine(RunConfig(retry=RetryPolicy(max_retries=2)))
        with registered("interrupted", interrupted):
            with pytest.raises(KeyboardInterrupt):
                engine.run(
                    [
                        BatchJob(system=tiny_system(k), method="interrupted")
                        for k in range(1, 3)
                    ]
                )
        assert engine.last_pool.retries == 0
        assert engine.last_pool.fallbacks == 0

    def test_clear_stop_resets_the_engine(self):
        engine = BatchEngine(RunConfig())
        engine.request_stop()
        assert engine.stop_requested
        engine.clear_stop()
        assert not engine.stop_requested
        report = engine.run([BatchJob(system=tiny_system(5))])
        assert report.results[0].ok

    def test_cancelled_results_are_not_cached(self):
        engine = BatchEngine(RunConfig())
        engine.request_stop()
        engine.run([BatchJob(system=tiny_system(6))])
        engine.clear_stop()
        report = engine.run([BatchJob(system=tiny_system(6))])
        [result] = report.results
        assert result.ok and not result.cache_hit  # a real run, not a poisoned hit


class TestGracefulShutdownContext:
    def test_first_signal_drains(self):
        engine = BatchEngine(RunConfig())
        with graceful_shutdown(engine, signals=(signal.SIGUSR1,)):
            os.kill(os.getpid(), signal.SIGUSR1)
            for _ in range(100):
                if engine.stop_requested:
                    break
                time.sleep(0.01)
            assert engine.stop_requested
        # Handlers restored on exit: a later signal must not touch the engine.
        engine.clear_stop()
        previous = signal.signal(signal.SIGUSR1, signal.SIG_IGN)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            time.sleep(0.01)
            assert not engine.stop_requested
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_second_signal_raises_keyboard_interrupt(self):
        engine = BatchEngine(RunConfig())
        with pytest.raises(KeyboardInterrupt):
            with graceful_shutdown(engine, signals=(signal.SIGUSR1,)):
                os.kill(os.getpid(), signal.SIGUSR1)
                time.sleep(0.05)
                os.kill(os.getpid(), signal.SIGUSR1)
                time.sleep(0.05)
