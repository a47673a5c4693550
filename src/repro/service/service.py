"""The durable synthesis service: job store + leases + BatchEngine.

:class:`SynthesisService` is the long-lived object behind ``repro
serve``.  It owns:

* a :class:`~repro.service.store.JobStore` (the crash-safe WAL job
  table),
* an :class:`~repro.service.admission.AdmissionController` (rate
  limits, queue-depth backpressure, tenant budget caps),
* one :class:`~repro.engine.BatchEngine` per distinct job budget (the
  engine's placement knobs — workers, cache — stay service-owned; only
  budgets vary per job), all sharing the service's on-disk result
  cache, so a re-delivered job re-reads the byte-identical payload the
  crashed run already computed instead of re-synthesizing,
* a worker thread (lease → run → complete, woken by each submit rather
  than polling), a heartbeat thread (lease extension while the engine
  is busy), and the reaper fold into the worker loop (requeue expired
  leases, dead-letter repeat orphans).

Everything observable flows through one events-only
:class:`~repro.obs.Tracer`, the service's recorder:
the service emits the lifecycle kinds (``job_queued`` / ``job_leased``
/ ``job_requeued`` / ``job_dead_letter``), the engine contributes
``job_start`` / ``job_end`` / ``retry`` / ``timeout`` / ``heartbeat``,
and a callback sink routes every job-labelled event into the store's
live-progress tails for ``GET /jobs/{id}``.

Crash recovery contract (the tests SIGKILL this):

* every submission is durable before the HTTP 2xx goes out,
* on restart with ``resume=True`` the WAL replays and orphaned jobs
  requeue immediately (bounded redeliveries, then dead-letter),
* results are recorded as the engine's *canonical* payload (timings and
  worker identity stripped), fingerprinted with SHA-256 — an
  interrupted-and-resumed run is byte-identical to an uninterrupted
  one, and the shared disk cache means the work is not repeated.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.baselines import available_methods
from repro.config import RunConfig, as_run_config
from repro.core import SynthesisOptions
from repro.core.budget import Budget
from repro.engine import (
    BatchEngine,
    BatchJob,
    BatchReport,
    CacheStats,
    JobResult,
    cache_key,
)
from repro.obs import (
    CallbackSink,
    Event,
    JsonlSink,
    Tracer,
    use_tracer,
)
from repro.serialize import system_from_dict
from repro.system import PolySystem

from .admission import AdmissionController, uniform_controller
from .store import JobRecord, JobState, JobStore, replay_summary

logger = logging.getLogger("repro.service")


class AdmissionRejected(RuntimeError):
    """A submission was refused by admission control (HTTP 429)."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` configures, as one object."""

    data_dir: str
    run_config: RunConfig = field(default_factory=RunConfig)
    lease_seconds: float = 30.0
    # How often an idle worker wakes to reap expired leases; a submit or
    # stop wakes it at once, so this bounds no job's queue wait.
    poll_seconds: float = 0.1
    batch_size: int | None = None     # leased per worker cycle (default: workers)
    max_redeliveries: int = 3
    segment_records: int = 512
    fsync: bool = False
    drain_seconds: float = 30.0
    max_queue_depth: int = 1024
    tenant_rate: float = 50.0         # submissions/second/tenant
    tenant_burst: int = 100
    max_job_seconds: float | None = None  # tenant budget cap
    events_out: str | None = None     # JSONL sink for the service stream

    def effective_run_config(self) -> RunConfig:
        """The engine config with the cache pinned under ``data_dir``.

        The on-disk cache is what makes redelivered work free and
        byte-identical, so the service always has one, defaulting to
        ``<data_dir>/cache`` unless the caller pinned a directory.
        """
        cfg = self.run_config
        if cfg.cache_dir is None:
            cfg = cfg.replace(cache_dir=str(Path(self.data_dir) / "cache"))
        return cfg


def result_fingerprint(canonical_payload: str) -> str:
    """SHA-256 of a canonical result payload (the byte-identity unit)."""
    return hashlib.sha256(canonical_payload.encode("utf-8")).hexdigest()


class SynthesisService:
    """The durable, recoverable synthesis backend (see module docstring)."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        admission: AdmissionController | None = None,
    ) -> None:
        self.config = config
        self.run_config = config.effective_run_config()
        self.store = JobStore(
            Path(config.data_dir) / "jobs",
            segment_records=config.segment_records,
            fsync=config.fsync,
            max_redeliveries=config.max_redeliveries,
        )
        self.admission = admission or uniform_controller(
            rate=config.tenant_rate,
            burst=config.tenant_burst,
            max_queue_depth=config.max_queue_depth,
            max_job_seconds=config.max_job_seconds,
        )
        sinks: list[Any] = [CallbackSink(self._on_event)]
        if config.events_out:
            sinks.append(JsonlSink(config.events_out))
        # Events only, and no lifetime cap: the recorder lives as long as
        # the service and keeps no events itself; the per-job tails bound
        # themselves and the optional JSONL file streams to disk.
        self.recorder = Tracer(sinks=sinks, max_spans=0, max_events=None)
        self._engines: dict[str, BatchEngine] = {}
        self._engines_lock = threading.Lock()
        self._running: dict[str, str] = {}  # job_id -> lease_id (in-flight)
        self._running_lock = threading.Lock()
        self._results: list[JobResult] = []
        self._stopping = threading.Event()
        self._wake = threading.Event()  # set by submit/stop, waited on idle
        self._drained = threading.Event()
        self._worker: threading.Thread | None = None
        self._heartbeat: threading.Thread | None = None
        self._started_wall = time.time()
        self.recovery: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, resume: bool = False) -> None:
        """Begin serving: optionally recover orphans, spin up the loops."""
        if resume:
            self.recovery = replay_summary(self.store)
            requeued, dead = self.store.recover_orphans()
            for record in requeued:
                self.recorder.emit(
                    "job_requeued", job=record.job_id,
                    redeliveries=record.redeliveries, reason="resume",
                )
            for record in dead:
                self.recorder.emit(
                    "job_dead_letter", job=record.job_id,
                    redeliveries=record.redeliveries,
                )
            self.recovery["requeued"] = len(requeued)
            self.recovery["dead_lettered"] = len(dead)
            if requeued or dead:
                logger.info(
                    "resume: requeued %d orphaned job(s), dead-lettered %d",
                    len(requeued), len(dead),
                )
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-service-worker", daemon=True
        )
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-service-heartbeat",
            daemon=True,
        )
        self._worker.start()
        self._heartbeat.start()

    def stop(self, drain: bool = True) -> BatchReport:
        """Graceful shutdown: drain in-flight work, persist the rest.

        In-flight jobs get ``drain_seconds`` to finish; queued jobs stay
        ``queued`` in the WAL for the next process; anything the drain
        abandoned is voluntarily requeued.  The store is compacted (the
        durable flush) and the cumulative :class:`BatchReport` of
        everything this process executed is returned.
        """
        self._stopping.set()
        self._wake.set()
        for engine in list(self._engines.values()):
            engine.request_stop()
        deadline = time.time() + (self.config.drain_seconds if drain else 0.0)
        for thread in (self._worker, self._heartbeat):
            if thread is not None and thread.is_alive():
                thread.join(timeout=max(deadline - time.time(), 0.1))
        # Whatever is still marked in-flight was abandoned by the drain:
        # hand it back to the queue explicitly rather than waiting for
        # the (next process's) lease reaper.
        with self._running_lock:
            abandoned = dict(self._running)
            self._running.clear()
        for job_id, lease_id in abandoned.items():
            try:
                self.store.requeue(job_id, lease_id, "drain abandoned")
                self.recorder.emit(
                    "job_requeued", job=job_id, reason="drain",
                )
            except Exception:  # noqa: BLE001 - completed concurrently
                pass
        report = self.final_report()
        self.store.close()
        self.recorder.close()
        self._drained.set()
        return report

    def final_report(self) -> BatchReport:
        """Everything this process executed, as one aggregate report."""
        results = list(self._results)
        stats = None
        hits = sum(1 for r in results if r.cache_hit)
        for engine in self._engines.values():
            stats = engine.cache.stats if stats is None else stats
        return BatchReport(
            results=results,
            workers=self.run_config.workers,
            seconds=time.time() - self._started_wall,
            cache_hits=hits,
            cache_misses=len(results) - hits,
            stats=stats or CacheStats(),
        )

    @property
    def ready(self) -> bool:
        """Readiness: accepting work (worker up, not draining)."""
        return (
            not self._stopping.is_set()
            and self._worker is not None
            and self._worker.is_alive()
        )

    # ------------------------------------------------------------------
    # Submission (the HTTP front end calls these)
    # ------------------------------------------------------------------

    def submit(
        self,
        system_data: dict[str, Any],
        *,
        method: str = "proposed",
        tenant: str = "default",
        options_data: dict[str, Any] | None = None,
        config_data: dict[str, Any] | None = None,
        label: str | None = None,
    ) -> tuple[JobRecord, bool]:
        """Admit + durably enqueue one job; returns ``(record, created)``.

        Raises :class:`AdmissionRejected` (→ HTTP 429) when a gate
        refuses, :class:`ValueError` on a malformed payload.
        """
        if method != "proposed" and method not in available_methods():
            raise ValueError(
                f"unknown method {method!r}; registered: "
                f"{', '.join(available_methods())}"
            )
        system = system_from_dict(system_data)  # validates the payload
        options = (
            SynthesisOptions(**options_data)
            if options_data
            else self.run_config.options
        )
        requested = (
            as_run_config(config_data)
            if config_data
            else self.run_config
        )
        clamped = self.admission.clamp_config(tenant, requested)
        decision = self.admission.admit(
            tenant,
            queued_depth=self.store.queued_depth(),
            tenant_depth=self.store.queued_depth(tenant),
        )
        if not decision.allowed:
            raise AdmissionRejected(decision.reason, decision.retry_after)
        key = cache_key(system, options, method)
        record, created = self.store.submit(
            key=key,
            tenant=tenant,
            method=method,
            label=label or system.name,
            system=system_data,
            options=options_data,
            config=(
                {"kind": "budget-only", "budget": clamped.budget.as_dict()}
                if clamped.budget is not None
                else None
            ),
        )
        if created:
            self.recorder.emit(
                "job_queued", job=record.job_id, tenant=tenant, method=method
            )
            # After ``job_queued``, so the ``job_leased`` it triggers
            # follows it in the stream.
            self._wake.set()
        return record, created

    def cancel(self, job_id: str) -> JobRecord:
        record = self.store.cancel(job_id)
        self.recorder.emit("job_cancelled", job=record.job_id, reason="client")
        return record

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _engine_for(self, record: JobRecord) -> BatchEngine:
        """One engine per distinct job budget; all share the disk cache."""
        budget_data = (record.config or {}).get("budget")
        key = json.dumps(budget_data, sort_keys=True)
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is None:
                cfg = self.run_config
                if budget_data is not None:
                    cfg = cfg.replace(budget=Budget.from_dict(budget_data))
                engine = BatchEngine(cfg)
                self._engines[key] = engine
            return engine

    def _group_key(self, record: JobRecord) -> str:
        return json.dumps((record.config or {}).get("budget"), sort_keys=True)

    def _worker_loop(self) -> None:
        batch_size = self.config.batch_size or max(self.run_config.workers, 1)
        while not self._stopping.is_set():
            try:
                # Clear before leasing: a submit that lands after an
                # empty lease leaves the signal set, so the wait below
                # returns at once instead of stranding the job a tick.
                self._wake.clear()
                self._reap()
                leased = self.store.lease(
                    batch_size, self.config.lease_seconds
                )
                if not leased:
                    self._wake.wait(self.config.poll_seconds)
                    continue
                groups: dict[str, list[JobRecord]] = {}
                for record in leased:
                    self.recorder.emit(
                        "job_leased", job=record.job_id,
                        lease=record.lease_id, tenant=record.tenant,
                    )
                    groups.setdefault(self._group_key(record), []).append(record)
                for group in groups.values():
                    self._run_group(group)
            except Exception:  # noqa: BLE001 - the loop must survive anything
                logger.exception("service worker loop error")
                self._stopping.wait(self.config.poll_seconds)

    def _reap(self) -> None:
        requeued, dead = self.store.reap_expired()
        for record in requeued:
            self.recorder.emit(
                "job_requeued", job=record.job_id,
                redeliveries=record.redeliveries, reason="lease-expired",
            )
        for record in dead:
            self.recorder.emit(
                "job_dead_letter", job=record.job_id,
                redeliveries=record.redeliveries,
            )

    def _run_group(self, group: list[JobRecord]) -> None:
        engine = self._engine_for(group[0])
        started: list[JobRecord] = []
        jobs: list[BatchJob] = []
        for record in group:
            assert record.lease_id is not None
            # Build the job before the record turns running: a record this
            # code cannot read (e.g. options written by an older release)
            # must fail on its own, not sit in running under a lease the
            # heartbeat keeps extending.
            try:
                job = BatchJob(
                    system=_system_of(record),
                    options=(
                        SynthesisOptions(**record.options)
                        if record.options
                        else None
                    ),
                    method=record.method,
                    name=record.job_id,
                )
            except Exception as exc:  # noqa: BLE001 - fail this record only
                self.store.start(record.job_id, record.lease_id)
                self.store.complete(
                    record.job_id, record.lease_id, JobState.FAILED,
                    error=f"unreadable job record: {type(exc).__name__}: {exc}",
                )
                continue
            self.store.start(record.job_id, record.lease_id)
            with self._running_lock:
                self._running[record.job_id] = record.lease_id
            started.append(record)
            jobs.append(job)
        if not jobs:
            return
        try:
            with use_tracer(self.recorder):
                report = engine.run(jobs)
        except Exception as exc:  # noqa: BLE001 - engine blew up wholesale
            logger.exception("engine failed for %d job(s)", len(started))
            for record in started:
                lease_id = self._pop_running(record.job_id)
                if lease_id is None:
                    continue
                try:
                    self.store.complete(
                        record.job_id, lease_id, JobState.FAILED,
                        error=f"engine failure: {type(exc).__name__}: {exc}",
                    )
                except Exception:  # noqa: BLE001 - lease was reaped meanwhile
                    pass
            return
        for record, result in zip(started, report.results):
            lease_id = self._pop_running(record.job_id)
            if lease_id is None:
                # The reaper took the lease mid-run (an extreme stall);
                # the redelivery will reuse the cached result.
                continue
            self._results.append(result)
            try:
                self._complete(record, lease_id, result)
            except Exception:  # noqa: BLE001
                logger.exception("completing %s failed", record.job_id)

    def _pop_running(self, job_id: str) -> str | None:
        with self._running_lock:
            return self._running.pop(job_id, None)

    def _complete(
        self, record: JobRecord, lease_id: str, result: JobResult
    ) -> None:
        if result.cancelled:
            # The drain cancelled it before execution: back to queued,
            # the next process picks it up.
            self.store.requeue(record.job_id, lease_id, "drain cancelled")
            self.recorder.emit(
                "job_requeued", job=record.job_id, reason="drain",
            )
            return
        if not result.ok:
            self.store.complete(
                record.job_id, lease_id, JobState.FAILED, error=result.error
            )
            return
        canonical = result.canonical_result()
        state = JobState.DEGRADED if result.degraded else JobState.DONE
        self.store.complete(
            record.job_id,
            lease_id,
            state,
            result=canonical,
            fingerprint=result_fingerprint(canonical),
        )

    def _heartbeat_loop(self) -> None:
        """Extend leases of in-flight jobs while the engine is busy."""
        interval = max(self.config.lease_seconds / 3.0, 0.05)
        while not self._stopping.wait(interval):
            with self._running_lock:
                running = dict(self._running)
            for job_id, lease_id in running.items():
                try:
                    self.store.heartbeat(
                        job_id, lease_id, self.config.lease_seconds
                    )
                except Exception:  # noqa: BLE001 - completed or reaped
                    continue

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        """Route job-labelled events into the store's live-progress tails."""
        job_id = event.data.get("job")
        if isinstance(job_id, str):
            self.store.record_event(job_id, event.to_dict())


def _system_of(record: JobRecord) -> PolySystem:
    return system_from_dict(record.system)


__all__ = [
    "AdmissionRejected",
    "ServiceConfig",
    "SynthesisService",
    "result_fingerprint",
]
