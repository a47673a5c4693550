"""Run one engine scenario under both executors of the dispatch loop.

``workers=1`` runs every job in-process; ``workers=2`` with more than
one pending job runs them in a process pool.  Both go through the same
loop, so a scenario's outcome must not depend on the mode.
"""

import os
import signal
from contextlib import contextmanager

from repro.baselines import register_method, unregister_method

#: Worker count -> the ``PoolStats.mode`` it must run in.
MODES = {1: "serial", 2: "pool"}

#: The signal a job sends to drain the engine from any process: a pool
#: worker's ``engine.request_stop()`` would only reach its own copy.
DRAIN_SIGNAL = signal.SIGUSR1


def outcome(report):
    """What must agree between the modes: each result, its attempts, and
    the pool's retry, degraded-rerun and cancellation counts."""
    return (
        [(r.canonical_result(), r.attempts) for r in report.results],
        (report.pool.retries, report.pool.degraded, report.pool.cancelled),
    )


def in_both_modes(scenario):
    """Run ``scenario(workers)`` for each mode; assert equal outcomes.

    ``scenario`` builds a fresh engine with the given worker count, runs
    it and returns the last :class:`~repro.engine.BatchReport`.  Returns
    the reports by worker count.
    """
    reports = {}
    for workers, mode in MODES.items():
        report = scenario(workers)
        assert report.pool.mode == mode
        reports[workers] = report
    assert outcome(reports[1]) == outcome(reports[2])
    return reports


def drain_engine_process(pid: int) -> None:
    """Ask the engine in process ``pid`` to drain (see ``DRAIN_SIGNAL``)."""
    os.kill(pid, DRAIN_SIGNAL)


@contextmanager
def registered(name, fn):
    """Register ``fn`` as method ``name`` for the duration of the block.

    Pool workers fork after registration, so they see the method too.
    """
    register_method(name, fn, replace=True)
    try:
        yield name
    finally:
        unregister_method(name)
