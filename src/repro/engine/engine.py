"""BatchEngine — parallel, cached synthesis of many polynomial systems.

The paper evaluates Algorithm 7 over whole benchmark *suites* (the eight
Table 14.3 rows); this engine is the layer that makes such batches cheap:

* **fan-out** over a ``concurrent.futures.ProcessPoolExecutor`` with a
  configurable worker count — results are returned in input order and are
  byte-identical to serial execution (every job's result is reduced to a
  canonical JSON payload before it crosses the process boundary),
* **memoization** in a two-tier content-hash cache
  (:mod:`repro.engine.cache`): an in-memory LRU plus an optional on-disk
  store, so a warm rerun of a suite does zero synthesis work,
* **fault tolerance** (see ``docs/ROBUSTNESS.md``) — a hard per-job
  timeout kills hung workers and reruns the job down the in-process
  degraded path; failing jobs are retried with exponential backoff and
  deterministic jitter; a crashed worker (``BrokenProcessPool``) gets the
  pool respawned and the in-flight jobs retried; a circuit breaker stops
  repeat offenders from being offered to the pool at all.  Everything is
  governed by the :class:`~repro.config.RunConfig`'s
  :class:`~repro.config.RetryPolicy` and surfaced through
  :class:`PoolStats` (``retries``/``timeouts``/``degraded``) and the
  ``repro_pool_*`` metrics,
* **graceful degradation** — ``workers=1`` never spawns processes, and a
  pool that cannot even be created falls back to in-process execution
  (with a logged warning and ``PoolStats.fallbacks`` incremented) instead
  of failing the batch,
* **metrics** — each job carries the per-phase
  :class:`~repro.core.metrics.Timings` of its synthesis run, and the
  :class:`BatchReport` aggregates them across the batch.

Methods other than the paper's flow can be batched too: any name
registered in :mod:`repro.baselines.registry` is a valid ``BatchJob.method``.
"""

from __future__ import annotations

import json
import logging
import os
import signal as signal_module
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.baselines import get_method
from repro.config import RunConfig, as_run_config
from repro.core import (
    Budget,
    Degradation,
    SynthesisOptions,
    Timings,
    direct_cost,
    synthesize,
)
from repro.obs import (
    DEFAULT_MAX_SPANS,
    RingBufferSink,
    Tracer,
    current_tracer,
    get_registry,
    observe_timings,
    use_tracer,
)
from repro.expr import Decomposition, OpCount
from repro.testing.faults import fault_point, use_attempt
from repro.serialize import (
    decomposition_from_dict,
    decomposition_to_dict,
    op_count_from_dict,
    op_count_to_dict,
    system_from_dict,
    system_to_dict,
    timings_from_dict,
    timings_to_dict,
)
from repro.system import PolySystem

from .cache import CACHE_SALT, CacheStats, ResultCache, cache_key

logger = logging.getLogger("repro.engine")

#: How often the dispatch loop wakes to poll futures, timeouts and backoffs.
_POLL_SECONDS = 0.05

#: Minimum gap between ``heartbeat`` events from the dispatch loop, so
#: even a quiet batch shows signs of life without flooding the stream.
_HEARTBEAT_SECONDS = 1.0

#: Attempt number used for degraded in-process reruns.  It exceeds any
#: realistic ``attempts`` gate, so injected faults never fire on the
#: engine's last-resort path — a job whose fault persists across every
#: pooled attempt still ends in a valid degraded result instead of
#: hanging the engine process itself.
_DEGRADED_ATTEMPT = 1 << 30


@dataclass(frozen=True)
class BatchJob:
    """One unit of work: a system, the options, and the method to run."""

    system: PolySystem
    options: SynthesisOptions | None = None
    method: str = "proposed"
    name: str | None = None  # display name; defaults to system.name

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.system.name


@dataclass
class JobResult:
    """One job's outcome, decoded from the canonical payload."""

    name: str
    method: str
    cache_hit: bool
    cache_key: str
    decomposition: Decomposition | None
    op_count: OpCount | None
    initial_op_count: OpCount | None
    timings: Timings
    payload: str  # canonical JSON of the whole outcome (incl. timings)
    error: str | None = None
    attempts: int = 1  # executions this result took (0 for a cache hit)
    timed_out: bool = False  # killed by the hard pool timeout, then degraded
    degradations: list[Degradation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def cancelled(self) -> bool:
        """Was the job cancelled by a drain before it could execute?"""
        return self.error is not None and self.error.startswith("cancelled:")

    @property
    def degraded(self) -> bool:
        """Did the job overrun a budget and fall back somewhere?"""
        return bool(self.degradations)

    def canonical_result(self) -> str:
        """Canonical JSON of the result alone — no timing measurements.

        This is the byte-identity unit: serial, parallel, and cached
        executions of the same job must produce identical strings.
        """
        data = json.loads(self.payload)
        return json.dumps(
            {
                "method": data["method"],
                "decomposition": data["decomposition"],
                "op_count": data["op_count"],
                "initial_op_count": data["initial_op_count"],
                "error": data["error"],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def seconds(self) -> float:
        """Synthesis wall time (of the original computation when cached)."""
        return self.timings.total_seconds()


@dataclass
class PoolStats:
    """How one batch actually executed: pooled, serial, or degraded.

    ``queue_wait_seconds`` is the summed wall-clock gap between a job's
    submission and the moment a worker started it; ``busy_seconds`` is
    the summed worker wall time, so ``utilization`` compares it to the
    pool's total capacity (``pool_seconds * workers``).
    """

    mode: str = "idle"  # "idle" | "serial" | "pool" | "fallback"
    workers: int = 1
    jobs_executed: int = 0
    pool_seconds: float = 0.0
    busy_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    max_queue_wait_seconds: float = 0.0
    fallbacks: int = 0
    fallback_reason: str = ""  # why the pool was abandoned for serial
    retries: int = 0     # re-executions after a failure or worker crash
    timeouts: int = 0    # jobs killed by the hard per-job pool timeout
    degraded: int = 0    # jobs rerouted to the in-process degraded path
    cancelled: int = 0   # jobs never started because a drain was requested

    @property
    def utilization(self) -> float:
        """Fraction of the pool's capacity spent executing jobs."""
        capacity = self.pool_seconds * max(self.workers, 1)
        return self.busy_seconds / capacity if capacity > 0 else 0.0


@dataclass
class BatchReport:
    """Everything one ``BatchEngine.run`` produced, in input order."""

    results: list[JobResult]
    workers: int
    seconds: float
    cache_hits: int
    cache_misses: int
    stats: CacheStats = field(default_factory=CacheStats)
    pool: PoolStats = field(default_factory=PoolStats)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def errors(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def retries(self) -> int:
        """Re-executions the batch needed (failures + worker crashes)."""
        return self.pool.retries

    @property
    def timeouts(self) -> int:
        """Jobs killed by the hard per-job pool timeout."""
        return self.pool.timeouts

    @property
    def degraded(self) -> list[JobResult]:
        """Results that overran a budget and carry degradations."""
        return [r for r in self.results if r.degraded]

    @property
    def cancelled(self) -> list[JobResult]:
        """Jobs a graceful drain cancelled before they executed."""
        return [r for r in self.results if r.cancelled]

    def phase_seconds(self) -> dict[str, float]:
        """Per-phase synthesis seconds aggregated over every job."""
        out: dict[str, float] = {}
        for result in self.results:
            for phase, seconds in result.timings.seconds_by_phase().items():
                out[phase] = out.get(phase, 0.0) + seconds
        return out

    def summary_table(self) -> str:
        from repro.report import batch_text_report

        return batch_text_report(self)


def _run_job_payload(
    system_data: dict[str, Any],
    options_data: dict[str, Any] | None,
    method: str,
    label: str = "",
    trace: bool = False,
    events: bool = False,
    config_data: dict[str, Any] | None = None,
    attempt: int = 0,
    degraded_reason: str | None = None,
) -> str:
    """Execute one job and reduce the result to canonical JSON.

    Runs identically in-process and inside pool workers — the payload is
    the single representation results take before reaching the caller, so
    serial and parallel execution cannot diverge.  With ``trace`` or
    ``events`` set the job runs under its own fresh
    :class:`~repro.obs.Tracer` (whichever process it lands in) keeping
    spans, events or both, and ships its snapshot home in the payload's
    ``obs`` field for :meth:`~repro.obs.Tracer.adopt` to stitch; the
    caller strips it again before caching.  Only the *accepted*
    payload's snapshot is adopted, so the spans and events of failed
    attempts that were retried are discarded, never duplicated.

    ``config_data`` is the engine's :class:`~repro.config.RunConfig`
    round-tripped through the payload; its budget bounds the synthesis
    cooperatively.  ``attempt`` gates the fault-injection harness
    (:mod:`repro.testing.faults`) so injected crashes stop firing on
    retries.  ``degraded_reason`` marks an in-process *degraded rerun*
    after a hard pool timeout: the proposed flow runs with an
    already-expired budget, taking the cheap fallback ladder immediately
    — and fault injection is disabled (see :data:`_DEGRADED_ATTEMPT`)
    because this path runs in the engine's own process and must complete.
    """
    payload = _payload_skeleton(method)
    config = RunConfig.from_dict(config_data) if config_data else None
    budget = config.budget if config is not None else None
    if degraded_reason is not None:
        payload["degradations"].append(
            Degradation("pool", "degraded-rerun", degraded_reason).as_dict()
        )
        if method == "proposed":
            # Force the expired-at-start fast path: the job already spent
            # its wall-clock allowance inside the killed worker.
            budget = Budget(job_seconds=0.0)
    observed = trace or events
    tracer = (
        Tracer(
            sinks=[RingBufferSink()] if events else None,
            max_spans=DEFAULT_MAX_SPANS if trace else 0,
        )
        if observed
        else current_tracer()
    )
    job_name = label or method
    start_wall = time.time()
    with use_attempt(attempt if degraded_reason is None else _DEGRADED_ATTEMPT):
        with use_tracer(tracer):
            tracer.emit("job_start", job=job_name, method=method)
            try:
                system = system_from_dict(system_data)
                options = SynthesisOptions(**options_data) if options_data else None
                fault_point(f"job:{job_name}")
                with tracer.span(f"job:{job_name}", method=method):
                    if method == "proposed":
                        result = synthesize(
                            list(system.polys), system.signature, options,
                            budget=budget,
                        )
                        decomposition = result.decomposition
                        op_count = result.op_count
                        initial = result.initial_op_count
                        timings = result.timings or Timings()
                        payload["degradations"].extend(
                            d.as_dict() for d in result.degradations
                        )
                    else:
                        fn = get_method(method)
                        timings = Timings()
                        with timings.phase(f"method:{method}"):
                            decomposition = fn(system, options)
                        op_count = decomposition.op_count()
                        initial = direct_cost(list(system.polys))
                payload.update(
                    decomposition=decomposition_to_dict(decomposition),
                    op_count=op_count_to_dict(op_count),
                    initial_op_count=op_count_to_dict(initial),
                    timings=timings_to_dict(timings),
                )
            except Exception as exc:  # noqa: BLE001 - one bad job must not kill the batch
                payload["error"] = f"{type(exc).__name__}: {exc}"
            tracer.emit("job_end", job=job_name, error=payload["error"])
    payload["worker"] = {
        "pid": os.getpid(),
        "start_wall": start_wall,
        "end_wall": time.time(),
    }
    if observed:
        payload["obs"] = tracer.snapshot().to_dict()
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_skeleton(method: str, error: str | None = None) -> dict[str, Any]:
    """The job-result payload of a job that produced nothing (yet)."""
    return {
        "kind": "job-result",
        "method": method,
        "decomposition": None,
        "op_count": None,
        "initial_op_count": None,
        "timings": Timings().as_dict(),
        "worker": None,
        "degradations": [],
        "error": error,
    }


def _error_payload(method: str, error: str) -> str:
    """A synthetic failure payload for jobs that never returned one.

    Used when the worker process died (crash, hard kill) so there is no
    worker-produced payload to decode, or when retries were exhausted
    engine-side.
    """
    return json.dumps(
        _payload_skeleton(method, error), sort_keys=True, separators=(",", ":")
    )


def _incident(
    span: str, kind: str, work: Callable[[], str] | None = None, **fields: Any
) -> str | None:
    """Record one engine incident: a ``kind`` event and a ``span``.

    Both carry ``fields``.  The span is a marker unless ``work`` is
    given; then the work runs inside it and its result is returned.
    """
    with current_tracer().incident(span, kind, **fields):
        return work() if work is not None else None


class _InProcessExecutor:
    """The dispatch loop's executor when no process pool is used.

    ``submit`` runs the job at once and hands back a finished future, so
    an in-process job is never in flight across a poll.  Exceptions
    propagate out of ``submit`` as from a plain call: a
    ``KeyboardInterrupt`` leaves the batch instead of reading as a
    broken pool (job errors already come back as error payloads).
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


def _pool_worker_init() -> None:
    """Let ``terminate()`` end a pool worker.

    A forked worker inherits its parent's signal handlers.  Under
    :func:`graceful_shutdown` (``repro batch``) SIGTERM would only ask
    the worker's copy of the engine to drain, and a hung worker would
    outlive every respawn.
    """
    signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max_workers, initializer=_pool_worker_init)


def _pool_worker(args: tuple[int, str]) -> tuple[int, str]:
    """Top-level (picklable) pool entry point."""
    index, blob = args
    data = json.loads(blob)
    return index, _run_job_payload(
        data["system"],
        data["options"],
        data["method"],
        label=data.get("label", ""),
        trace=bool(data.get("trace")),
        events=bool(data.get("events")),
        config_data=data.get("config"),
        attempt=int(data.get("attempt", 0)),
    )


class BatchEngine:
    """Run many synthesis jobs with caching, parallelism, and metrics.

    Configuration is one :class:`~repro.config.RunConfig`::

        engine = BatchEngine(RunConfig(workers=4, budget=Budget(job_seconds=30)))

    The pre-PR-4 keyword arguments (``workers=``, ``cache_size=``,
    ``cache_dir=``) and the bare positional worker count completed their
    one-release deprecation cycle and are gone; passing them is now a
    :class:`TypeError`.  Use :meth:`RunConfig.replace` to derive a
    tweaked config instead.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        salt: str = CACHE_SALT,
    ) -> None:
        cfg = as_run_config(config)
        if cfg.workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = cfg
        self.salt = salt
        self.cache = ResultCache.create(
            maxsize=cfg.cache_size, cache_dir=cfg.cache_dir
        )
        self.last_pool = PoolStats()
        # Consecutive-failure counts per job label; survives across run()
        # calls so repeat offenders eventually trip the circuit breaker.
        self._breaker: dict[str, int] = {}
        self._attempts: dict[int, int] = {}
        self._timed_out: set[int] = set()
        # Set by request_stop() (a signal handler or the service's
        # shutdown): the dispatch loop drains in-flight jobs and cancels
        # everything not yet started.  Checking a threading.Event per
        # dispatch iteration is the whole cost of the serving layer on
        # plain batch runs.
        self._stop = threading.Event()

    @property
    def workers(self) -> int:
        return self.config.workers

    def request_stop(self) -> None:
        """Ask the engine to drain: finish in-flight work, cancel the rest.

        Safe to call from a signal handler or another thread.  Jobs
        already executing run to completion (their own budgets and hard
        timeouts still apply); jobs not yet started come back as
        ``cancelled:`` error results so the caller can requeue them.
        """
        self._stop.set()

    def clear_stop(self) -> None:
        """Re-arm a drained engine (the service reuses one engine)."""
        self._stop.clear()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, jobs: Iterable[BatchJob | PolySystem]) -> BatchReport:
        """Execute a batch; results come back in input order."""
        batch = [self._coerce(job) for job in jobs]
        start = time.perf_counter()
        tracer = current_tracer()
        stats_before = replace(self.cache.stats)
        self._attempts = {}
        self._timed_out = set()
        with tracer.span("batch", workers=self.workers) as batch_span:
            keys = [
                cache_key(job.system, job.options, job.method, self.salt)
                for job in batch
            ]
            payloads: dict[int, str] = {}
            hits: dict[int, bool] = {}
            pending: list[int] = []
            for index, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    payloads[index] = cached
                    hits[index] = True
                    _incident("cache_hit", "cache_hit", job=batch[index].label)
                else:
                    pending.append(index)
                    tracer.emit("cache_miss", job=batch[index].label)

            for index, payload in self._execute(batch, pending).items():
                data = json.loads(payload)
                observed = data.pop("obs", None)
                if observed is not None:
                    # The snapshot is transport-only: stitch it into this
                    # recording, then strip it so the cached payload (and
                    # JobResult.payload) is identical to an unobserved
                    # run's.
                    payload = json.dumps(
                        data, sort_keys=True, separators=(",", ":")
                    )
                    tracer.adopt(observed, job=batch[index].label, tid=index + 1)
                    if tracer.tracing:
                        _publish_worker_timings(data)
                payloads[index] = payload
                hits[index] = False
                # Degraded results are wall-clock-dependent (a slower
                # machine degrades where a faster one would not), so they
                # must never poison the content-addressed cache.
                if data.get("error") is None and not data.get("degradations"):
                    self.cache.put(keys[index], payload)
            batch_span.count(
                jobs=len(batch),
                cache_hits=sum(1 for h in hits.values() if h),
                executed=len(pending),
            )

        results = [
            _decode_result(
                batch[i].label, batch[i].method, keys[i],
                payloads[i], hits[i],
                attempts=self._attempts.get(i, 0 if hits[i] else 1),
                timed_out=i in self._timed_out,
            )
            for i in range(len(batch))
        ]
        report = BatchReport(
            results=results,
            workers=self.workers if len(pending) > 1 else 1,
            seconds=time.perf_counter() - start,
            cache_hits=sum(1 for h in hits.values() if h),
            cache_misses=len(pending),
            stats=self.cache.stats,
            pool=self.last_pool,
        )
        self._publish_metrics(report, stats_before)
        return report

    def run_suite(
        self,
        names: Sequence[str] | None = None,
        options: SynthesisOptions | None = None,
        method: str = "proposed",
    ) -> BatchReport:
        """Batch the named benchmark systems (default: the Table 14.3 eight)."""
        from repro.suite import TABLE_14_3_SYSTEMS, get_system

        names = tuple(names) if names is not None else TABLE_14_3_SYSTEMS
        return self.run(
            BatchJob(system=get_system(name), options=options, method=method)
            for name in names
        )

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------

    def _coerce(self, job: BatchJob | PolySystem) -> BatchJob:
        if isinstance(job, PolySystem):
            job = BatchJob(system=job)
        if job.options is None:
            # Materialize the engine-wide options so the cache key, the
            # worker, and the serial path all see the same thing.
            job = replace(job, options=self.config.options)
        return job

    def _job_blob(self, job: BatchJob, attempt: int = 0) -> str:
        tracer = current_tracer()
        return json.dumps(
            {
                "system": system_to_dict(job.system),
                "options": asdict(job.options) if job.options else None,
                "method": job.method,
                "label": job.label,
                "trace": tracer.tracing,
                "events": tracer.emitting,
                "config": self.config.as_dict(),
                "attempt": attempt,
            }
        )

    def _execute(self, batch: list[BatchJob], pending: list[int]) -> dict[int, str]:
        stats = PoolStats()
        self.last_pool = stats
        if not pending:
            return {}
        started = time.perf_counter()
        out: dict[int, str] | None = None
        if self.workers > 1 and len(pending) > 1:
            stats.workers = min(self.workers, len(pending))
            try:
                out = self._dispatch(
                    batch, pending, _new_pool(stats.workers)
                )
                stats.mode = "pool"
            except Exception as exc:
                # A pool that cannot even run (fork refusal, pickling
                # issue, broken executor beyond respawn): degrade to
                # in-process execution rather than fail the batch — but
                # never silently.
                stats.mode = "fallback"
                stats.workers = 1
                stats.fallbacks += 1
                stats.fallback_reason = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "process pool unavailable (%s); running %d job(s) "
                    "in-process instead",
                    stats.fallback_reason,
                    len(pending),
                )
                started = time.perf_counter()
        if out is None:
            out = self._dispatch(batch, pending, _InProcessExecutor())
            if stats.mode == "idle":
                stats.mode = "serial"
        stats.pool_seconds = time.perf_counter() - started
        stats.jobs_executed = len(out)
        for payload in out.values():
            worker = json.loads(payload).get("worker") or {}
            begin, finish = worker.get("start_wall"), worker.get("end_wall")
            if begin is not None and finish is not None:
                stats.busy_seconds += max(finish - begin, 0.0)
        return out

    def _note_failure(self, job: BatchJob) -> None:
        self._breaker[job.label] = self._breaker.get(job.label, 0) + 1

    def _degraded_payload(self, job: BatchJob, attempt: int, reason: str) -> str:
        """Rerun one job in-process down the degraded path (see ROBUSTNESS)."""
        self.last_pool.degraded += 1
        tracer = current_tracer()
        return _incident(
            "pool/degraded", "degradation",
            lambda: _run_job_payload(
                system_to_dict(job.system),
                asdict(job.options) if job.options else None,
                job.method,
                label=job.label,
                trace=tracer.tracing,
                events=tracer.emitting,
                config_data=self.config.as_dict(),
                attempt=attempt,
                degraded_reason=reason,
            ),
            phase="pool", action="degraded-rerun", job=job.label, reason=reason,
        )

    def _dispatch(
        self,
        batch: list[BatchJob],
        pending: list[int],
        executor: ProcessPoolExecutor | _InProcessExecutor,
    ) -> dict[int, str]:
        """The dispatch loop: breaker, retries, drain, timeouts, respawn.

        Serial, pooled and pool-fallback batches all run here; only the
        executor differs.  Submission uses a *sliding window* of at most
        ``max_workers`` in-flight jobs (one for the in-process executor),
        so a job's submit time is (within one poll tick) its start time
        and the hard per-job timeout can be measured from submission.
        The loop:

        1. cancels every job not yet submitted once a drain is requested
           — including a failed job backing off before its retry,
        2. fills the window with eligible work (backoff delays gate
           re-submissions, so a backing-off job never blocks later
           ones); a job whose label has tripped the circuit breaker is
           routed to the degraded path at its first submission instead,
        3. waits briefly for completions; successful payloads are
           accepted, failing ones are requeued with backoff until
           ``max_retries`` is exhausted,
        4. a broken pool (a worker crashed hard) is respawned and every
           lost in-flight job retried at the next attempt,
        5. in-flight jobs over ``job_timeout_seconds`` get the pool's
           workers killed; the hung jobs are rerun in-process down the
           degraded path, innocent casualties are requeued at the *same*
           attempt.

        The in-process executor finishes each job inside ``submit``, so
        no job of it is ever in flight across a poll: steps 4 and 5 are
        pool-only by construction.
        """
        out: dict[int, str] = {}
        stats = self.last_pool
        retry = self.config.retry
        tracer = current_tracer()
        wait_histogram = get_registry().histogram("repro_pool_queue_wait_seconds")
        max_workers = stats.workers

        ready: list[tuple[int, int]] = [(index, 0) for index in pending]
        inflight: dict[Any, tuple[int, int, float]] = {}
        not_before: dict[int, float] = {}

        def requeue(index: int, attempt: int, **why: Any) -> bool:
            """Schedule a failed attempt's retry; False once retries run out."""
            job = batch[index]
            self._note_failure(job)
            if attempt >= retry.max_retries:
                return False
            stats.retries += 1
            _incident(
                "pool/retry", "retry", job=job.label, attempt=attempt + 1, **why
            )
            not_before[index] = time.time() + retry.delay(attempt + 1, job.label)
            ready.append((index, attempt + 1))
            return True

        last_beat = time.monotonic()
        try:
            while ready or inflight:
                if self._stop.is_set() and ready:
                    # Drain: cancel everything not yet submitted; the
                    # loop keeps waiting on the in-flight window below.
                    for index, _attempt in ready:
                        job = batch[index]
                        stats.cancelled += 1
                        self._attempts[index] = 0
                        _incident(
                            "pool/cancelled", "job_cancelled",
                            job=job.label, reason="shutdown",
                        )
                        out[index] = _error_payload(
                            job.method,
                            "cancelled: shutdown requested before execution",
                        )
                    ready.clear()
                if tracer.emitting:
                    beat_now = time.monotonic()
                    if beat_now - last_beat >= _HEARTBEAT_SECONDS:
                        last_beat = beat_now
                        tracer.emit(
                            "heartbeat", done=len(out),
                            inflight=len(inflight),
                            pending=len(ready),
                        )
                now = time.time()
                for item in list(ready):
                    if len(inflight) >= max_workers:
                        break
                    index, attempt = item
                    if not_before.get(index, 0.0) > now:
                        continue
                    ready.remove(item)
                    job = batch[index]
                    self._attempts[index] = attempt + 1
                    threshold = retry.breaker_threshold
                    failures = self._breaker.get(job.label, 0)
                    if attempt == 0 and 0 < threshold <= failures:
                        _incident(
                            "pool/breaker", "breaker",
                            job=job.label, failures=failures,
                        )
                        out[index] = self._degraded_payload(
                            job,
                            attempt=retry.max_retries + 1,
                            reason=(
                                f"circuit breaker open after "
                                f"{failures} consecutive failure(s)"
                            ),
                        )
                        continue
                    submitted = time.time()
                    future = executor.submit(
                        _pool_worker, (index, self._job_blob(job, attempt))
                    )
                    inflight[future] = (index, attempt, submitted)
                if not inflight:
                    if ready:
                        # Everything runnable is backing off; sleep to
                        # the earliest eligibility and try again.
                        pause = min(
                            not_before.get(index, 0.0) for index, _ in ready
                        ) - time.time()
                        time.sleep(min(max(pause, 0.0), _POLL_SECONDS))
                    continue

                done, _ = futures_wait(
                    set(inflight), timeout=_POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                broken: BaseException | None = None
                for future in done:
                    index, attempt, submit_wall = inflight.pop(future)
                    job = batch[index]
                    exc = future.exception()
                    if exc is not None:
                        # Worker died before returning (crash / hard
                        # kill); the whole pool is broken — handle below.
                        broken = exc
                        inflight[future] = (index, attempt, submit_wall)
                        continue
                    _, payload = future.result()
                    data = json.loads(payload)
                    if data.get("error") is not None:
                        if requeue(index, attempt):
                            continue
                    else:
                        self._breaker.pop(job.label, None)
                    out[index] = payload
                    worker = data.get("worker") or {}
                    started_wall = worker.get("start_wall")
                    if started_wall is not None:
                        queue_wait = max(started_wall - submit_wall, 0.0)
                        stats.queue_wait_seconds += queue_wait
                        stats.max_queue_wait_seconds = max(
                            stats.max_queue_wait_seconds, queue_wait
                        )
                        wait_histogram.observe(queue_wait)

                if broken is not None:
                    # Crash: which in-flight job segfaulted cannot be
                    # recovered from a broken executor, so respawn the
                    # pool and retry them all at the next attempt (fault
                    # injection is attempt-gated, synthesis is
                    # deterministic — innocent jobs simply rerun).
                    logger.warning(
                        "pool worker crashed (%s); respawning pool and "
                        "retrying %d in-flight job(s)",
                        f"{type(broken).__name__}: {broken}",
                        len(inflight),
                    )
                    executor = self._respawn(executor, max_workers)
                    for index, attempt, _ in inflight.values():
                        if not requeue(index, attempt, crashed=True):
                            out[index] = _error_payload(
                                batch[index].method,
                                f"worker crashed "
                                f"({type(broken).__name__}: {broken}); "
                                f"retries exhausted after "
                                f"{attempt + 1} attempt(s)",
                            )
                    inflight.clear()
                    continue

                if retry.job_timeout_seconds is not None and inflight:
                    now = time.time()
                    hung = {
                        future: meta
                        for future, meta in inflight.items()
                        if now - meta[2] > retry.job_timeout_seconds
                    }
                    if hung:
                        # The hung worker cannot be preempted
                        # individually: kill the pool's processes and
                        # respawn.  Hung jobs degrade in-process;
                        # innocent in-flight casualties requeue at the
                        # same attempt (their faults, if any, must still
                        # fire deterministically) and are not counted as
                        # retries.
                        stats.timeouts += len(hung)
                        hung_indices = {meta[0] for meta in hung.values()}
                        logger.warning(
                            "killing pool: job(s) %s exceeded the hard "
                            "timeout of %.1fs",
                            sorted(batch[i].label for i in hung_indices),
                            retry.job_timeout_seconds,
                        )
                        executor = self._respawn(executor, max_workers)
                        for index, attempt, _ in inflight.values():
                            job = batch[index]
                            if index not in hung_indices:
                                ready.append((index, attempt))
                                continue
                            _incident(
                                "pool/timeout", "timeout", job=job.label,
                                seconds=retry.job_timeout_seconds,
                            )
                            self._note_failure(job)
                            self._timed_out.add(index)
                            self._attempts[index] = attempt + 2
                            out[index] = self._degraded_payload(
                                job,
                                attempt=attempt + 1,
                                reason=(
                                    f"hard pool timeout of "
                                    f"{retry.job_timeout_seconds}s "
                                    f"exceeded; worker killed"
                                ),
                            )
                        inflight.clear()
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return out

    @staticmethod
    def _respawn(pool: ProcessPoolExecutor, max_workers: int) -> ProcessPoolExecutor:
        """Replace a broken (or deliberately killed) pool with a fresh one.

        The old pool's processes are terminated either way: after a
        crash its surviving workers may be hung, and a hung worker left
        running keeps the batch process from exiting.
        """
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        return _new_pool(max_workers)

    def _publish_metrics(
        self, report: BatchReport, stats_before: CacheStats
    ) -> None:
        """Publish one run's cache / pool deltas to the global registry."""
        registry = get_registry()
        for name in (
            "memory_hits", "disk_hits", "misses", "stores",
            "evictions", "disk_reads", "disk_writes",
        ):
            delta = getattr(report.stats, name) - getattr(stats_before, name)
            if delta:
                registry.counter(f"repro_cache_{name}_total").inc(delta)
        pool = report.pool
        if pool.jobs_executed:
            registry.counter(
                "repro_pool_jobs_total", mode=pool.mode
            ).inc(pool.jobs_executed)
        if pool.fallbacks:
            registry.counter("repro_pool_fallbacks_total").inc(pool.fallbacks)
        if pool.retries:
            registry.counter("repro_pool_retries_total").inc(pool.retries)
        if pool.timeouts:
            registry.counter("repro_pool_timeouts_total").inc(pool.timeouts)
        if pool.degraded:
            registry.counter("repro_pool_degraded_total").inc(pool.degraded)
        if pool.cancelled:
            registry.counter("repro_pool_cancelled_total").inc(pool.cancelled)
        degraded_results = len(report.degraded)
        if degraded_results:
            registry.counter("repro_jobs_degraded_total").inc(degraded_results)
        if pool.mode == "pool":
            registry.gauge("repro_pool_utilization").set(pool.utilization)
        registry.histogram("repro_batch_seconds").observe(report.seconds)


@contextmanager
def graceful_shutdown(
    engine: BatchEngine,
    signals: Sequence[int] = (signal_module.SIGINT, signal_module.SIGTERM),
) -> Iterator[BatchEngine]:
    """Drain ``engine`` on SIGINT/SIGTERM instead of dying mid-report.

    The first signal requests a drain (in-flight jobs finish, queued
    jobs come back as ``cancelled:`` results, the partial
    :class:`BatchReport` is still produced and the disk cache keeps
    every completed result); a second signal raises
    :class:`KeyboardInterrupt` for a hard abort.  Handlers are restored
    on exit.  Signal handlers can only be installed from the main
    thread — elsewhere (the service's worker thread, pytest-xdist) this
    is a transparent no-op and the caller's own shutdown path governs.
    """
    if threading.current_thread() is not threading.main_thread():
        yield engine
        return

    def _handle(signum: int, _frame: Any) -> None:
        if engine.stop_requested:
            raise KeyboardInterrupt
        logger.warning(
            "received %s: draining batch (signal again to abort hard)",
            signal_module.Signals(signum).name,
        )
        engine.request_stop()

    previous = {}
    for sig in signals:
        previous[sig] = signal_module.signal(sig, _handle)
    try:
        yield engine
    finally:
        for sig, handler in previous.items():
            signal_module.signal(sig, handler)


def _publish_worker_timings(data: dict[str, Any]) -> None:
    """Publish a pool worker's phase metrics to this process's registry.

    A traced ``proposed`` job publishes its phase record through
    :func:`~repro.obs.observe_timings` in the process that ran it; a
    pool worker's registry dies with the worker, so the engine publishes
    the shipped-home timings instead.  In-process jobs published already.
    """
    worker = data.get("worker") or {}
    if data.get("method") == "proposed" and worker.get("pid") != os.getpid():
        observe_timings(timings_from_dict(data["timings"]))


def _decode_result(
    name: str,
    method: str,
    key: str,
    payload: str,
    cache_hit: bool,
    attempts: int = 1,
    timed_out: bool = False,
) -> JobResult:
    data = json.loads(payload)
    decomposition = (
        decomposition_from_dict(data["decomposition"])
        if data.get("decomposition") is not None
        else None
    )
    return JobResult(
        name=name,
        method=method,
        cache_hit=cache_hit,
        cache_key=key,
        decomposition=decomposition,
        op_count=(
            op_count_from_dict(data["op_count"])
            if data.get("op_count") is not None
            else None
        ),
        initial_op_count=(
            op_count_from_dict(data["initial_op_count"])
            if data.get("initial_op_count") is not None
            else None
        ),
        timings=timings_from_dict(data["timings"]),
        payload=payload,
        error=data.get("error"),
        attempts=attempts,
        timed_out=timed_out,
        degradations=[
            Degradation.from_dict(d) for d in data.get("degradations") or ()
        ],
    )
