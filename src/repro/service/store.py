"""Crash-safe, append-only job store for the synthesis service.

The store is the durability core of ``repro serve`` (see
``docs/SERVICE.md``): every submitted job — its full system payload,
options, and :class:`~repro.config.RunConfig` — lives in a write-ahead
log on disk, so a ``kill -9`` of the service at *any* instant loses
nothing.  Design:

* **Append-only WAL segments** (``wal-000001.jsonl`` ...): every state
  transition is one JSON line, appended and flushed.  A crash can only
  tear the final line; on load the torn tail is detected and truncated,
  and every complete record replays.  Records carry *absolute* state
  (never increments), so replaying a segment twice is idempotent — the
  compaction crash window needs exactly that.
* **Atomic snapshots** (``snapshot.json``): when the active segment
  reaches ``segment_records`` records, the entire job table is written
  through :func:`repro.ioutil.atomic_write_text` (temp file +
  ``os.replace``) and the covered segments are deleted.  Readers see
  the old snapshot or the new one, never a prefix.
* **State machine**: ``queued → leased → running →
  done|failed|degraded`` with ``cancelled`` reachable before execution
  and ``dead_letter`` parking jobs whose redelivery budget ran out.
  Transitions are validated; an illegal one raises
  :class:`InvalidTransition` instead of corrupting the table.
* **Leases**: a worker takes a time-bounded lease (:meth:`lease`); all
  mutating calls for the job must present the lease id, so a reaped
  worker whose lease was reassigned cannot complete a job it no longer
  owns (:class:`LeaseLost`).  :meth:`reap_expired` requeues expired
  leases with a bounded redelivery count, then dead-letters.
* **Idempotency**: jobs are keyed by the engine's content hash
  (:func:`repro.engine.cache_key`); resubmitting an identical job
  returns the existing record instead of enqueueing duplicate work.

The store is in-process (one service owns one directory) and
thread-safe; the HTTP front end and the worker/reaper threads share it
under one lock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.ioutil import atomic_write_text

#: Record-kind tags of the WAL / snapshot payloads.
SUBMIT_KIND = "job-submit"
UPDATE_KIND = "job-update"
SNAPSHOT_KIND = "job-store-snapshot"


class JobState:
    """The explicit job state machine (string states, JSON-friendly)."""

    QUEUED = "queued"
    LEASED = "leased"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    DEGRADED = "degraded"
    CANCELLED = "cancelled"
    DEAD_LETTER = "dead_letter"


#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {
        JobState.DONE,
        JobState.FAILED,
        JobState.DEGRADED,
        JobState.CANCELLED,
        JobState.DEAD_LETTER,
    }
)

#: Which state changes are legal; anything else is a programming error
#: (or corruption) and raises :class:`InvalidTransition`.
VALID_TRANSITIONS: dict[str, frozenset[str]] = {
    JobState.QUEUED: frozenset({JobState.LEASED, JobState.CANCELLED}),
    JobState.LEASED: frozenset(
        {JobState.RUNNING, JobState.QUEUED, JobState.CANCELLED,
         JobState.DEAD_LETTER}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.DEGRADED,
         JobState.QUEUED, JobState.DEAD_LETTER}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.DEGRADED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.DEAD_LETTER: frozenset(),
}


class InvalidTransition(RuntimeError):
    """An illegal state-machine edge was requested."""


class LeaseLost(RuntimeError):
    """A worker presented a lease the store no longer recognizes."""


class UnknownJob(KeyError):
    """No job with that id exists in the store."""


#: Fields an ``UPDATE_KIND`` WAL record may carry (everything mutable;
#: the immutable spec — system/options/config — rides the submit record
#: only, so transitions stay cheap no matter how large the system is).
_MUTABLE_FIELDS = (
    "state",
    "updated_wall",
    "lease_id",
    "lease_expires_wall",
    "redeliveries",
    "attempts",
    "result",
    "fingerprint",
    "error",
    "history",
)

#: Bounded per-job transition history kept in the record (audit trail).
_HISTORY_LIMIT = 32


@dataclass
class JobRecord:
    """One job: the immutable spec plus its mutable lifecycle state."""

    job_id: str
    key: str                      # content-hash idempotency key
    tenant: str
    method: str
    label: str
    system: dict[str, Any]        # serialized PolySystem payload
    options: dict[str, Any] | None
    config: dict[str, Any] | None  # RunConfig.as_dict payload (or None)
    state: str = JobState.QUEUED
    created_wall: float = 0.0
    updated_wall: float = 0.0
    lease_id: str | None = None
    lease_expires_wall: float | None = None
    redeliveries: int = 0
    max_redeliveries: int = 3
    attempts: int = 0
    result: str | None = None      # canonical result JSON (JobResult.canonical_result)
    fingerprint: str | None = None  # sha256 of the canonical result
    error: str | None = None
    history: list[dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> dict[str, Any]:
        return {"kind": "job-record", **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRecord":
        if data.get("kind") != "job-record":
            raise ValueError(f"not a job-record payload: {data.get('kind')!r}")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def public_dict(self) -> dict[str, Any]:
        """The API view: everything except the (potentially large) spec."""
        data = self.as_dict()
        data.pop("system", None)
        data.pop("options", None)
        data.pop("config", None)
        data.pop("result", None)  # served by its own endpoint
        return data


def _record_note(record: JobRecord, note: str, now: float) -> None:
    record.history.append(
        {"wall": now, "state": record.state, "note": note}
    )
    if len(record.history) > _HISTORY_LIMIT:
        del record.history[: len(record.history) - _HISTORY_LIMIT]


class JobStore:
    """The durable job table: WAL segments + atomic snapshots + leases."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        segment_records: int = 512,
        fsync: bool = False,
        max_redeliveries: int = 3,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self.fsync = fsync
        self.max_redeliveries = max_redeliveries
        self.torn_records = 0      # undecodable WAL lines dropped at load
        self._jobs: dict[str, JobRecord] = {}
        self._by_key: dict[str, str] = {}  # idempotency key -> job id
        self._events: dict[str, deque[dict[str, Any]]] = {}
        self._lock = threading.RLock()
        self._counter = 0
        self._lease_counter = 0
        self._segment = 1
        self._segment_count = 0    # records in the active segment
        self._handle = None
        self._load()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / "snapshot.json"

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"wal-{index:06d}.jsonl"

    def _segments_on_disk(self) -> list[tuple[int, Path]]:
        out = []
        for path in sorted(self.directory.glob("wal-*.jsonl")):
            try:
                out.append((int(path.stem.split("-")[1]), path))
            except (IndexError, ValueError):
                continue
        return sorted(out)

    def _load(self) -> None:
        base_segment = 0
        snapshot = None
        try:
            snapshot = json.loads(
                self.snapshot_path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            snapshot = None  # no snapshot yet (atomic writes: never torn)
        if isinstance(snapshot, dict) and snapshot.get("kind") == SNAPSHOT_KIND:
            base_segment = int(snapshot.get("segment", 0))
            self._counter = int(snapshot.get("next_job", 0))
            for data in snapshot.get("jobs", ()):
                record = JobRecord.from_dict(data)
                self._jobs[record.job_id] = record
                self._by_key[record.key] = record.job_id

        segments = self._segments_on_disk()
        for index, path in segments:
            if index <= base_segment:
                # Covered by the snapshot; a crash between snapshot
                # write and segment deletion leaves these behind —
                # replay is idempotent, deletion is just tidy.
                path.unlink(missing_ok=True)
                continue
            self._replay_segment(path)
        live = [index for index, _ in self._segments_on_disk()]
        self._segment = max(live) if live else base_segment + 1
        active = self._segment_path(self._segment)
        self._truncate_torn_tail(active)
        self._segment_count = self._count_lines(active)
        self._handle = open(active, "a", encoding="utf-8")

    def _replay_segment(self, path: Path) -> None:
        self._truncate_torn_tail(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                self.torn_records += 1
                continue
            self._apply(data)

    def _truncate_torn_tail(self, path: Path) -> None:
        """Cut a half-written final line so appends stay line-framed."""
        try:
            raw = path.read_bytes()
        except OSError:
            return
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1  # 0 when no newline at all
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        self.torn_records += 1

    @staticmethod
    def _count_lines(path: Path) -> int:
        try:
            with open(path, encoding="utf-8") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    def _apply(self, data: dict[str, Any]) -> None:
        """Apply one replayed WAL record to the in-memory table."""
        kind = data.get("kind")
        if kind == SUBMIT_KIND:
            record = JobRecord.from_dict(data["job"])
            self._jobs[record.job_id] = record
            # Replay runs in creation order, so each key ends on its
            # newest job, as live submit leaves it.
            self._by_key[record.key] = record.job_id
            self._counter = max(self._counter, _counter_of(record.job_id))
        elif kind == UPDATE_KIND:
            record = self._jobs.get(str(data.get("id")))
            if record is None:
                self.torn_records += 1  # update for a job we never saw
                return
            for name, value in (data.get("fields") or {}).items():
                if name in _MUTABLE_FIELDS:
                    setattr(record, name, value)
        # Unknown kinds are skipped: forward compatibility over failure.

    def _append(self, payload: dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
        self._handle.write("\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._segment_count += 1
        if self._segment_count >= self.segment_records:
            self._compact_locked()

    def _log_update(self, record: JobRecord) -> None:
        self._append(
            {
                "kind": UPDATE_KIND,
                "id": record.job_id,
                "fields": {
                    name: getattr(record, name) for name in _MUTABLE_FIELDS
                },
            }
        )

    def _compact_locked(self) -> None:
        """Snapshot the whole table atomically, then drop covered segments."""
        snapshot = {
            "kind": SNAPSHOT_KIND,
            "segment": self._segment,
            "next_job": self._counter,
            "jobs": [record.as_dict() for record in self._jobs.values()],
        }
        atomic_write_text(
            self.snapshot_path,
            json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n",
            fsync=self.fsync,
        )
        if self._handle is not None:
            self._handle.close()
        for index, path in self._segments_on_disk():
            if index <= self._segment:
                path.unlink(missing_ok=True)
        self._segment += 1
        self._segment_count = 0
        self._handle = open(
            self._segment_path(self._segment), "a", encoding="utf-8"
        )

    def compact(self) -> None:
        """Force a snapshot + segment rotation (also runs on close)."""
        with self._lock:
            self._compact_locked()

    def close(self) -> None:
        """Compact and release the WAL handle (safe to skip: that is the
        crash case the WAL exists for)."""
        with self._lock:
            if self._handle is None:
                return
            self._compact_locked()
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------

    def submit(
        self,
        *,
        key: str,
        tenant: str,
        method: str,
        label: str,
        system: dict[str, Any],
        options: dict[str, Any] | None = None,
        config: dict[str, Any] | None = None,
        max_redeliveries: int | None = None,
        now: float | None = None,
    ) -> tuple[JobRecord, bool]:
        """Enqueue a job; returns ``(record, created)``.

        ``created`` is False when the content-hash key already maps to a
        live or completed job — the resubmission is deduplicated onto
        it and no new work is enqueued (the idempotency contract).
        """
        now = time.time() if now is None else now
        with self._lock:
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                # Dead-lettered / cancelled / failed duplicates do not
                # block a fresh attempt; queued, running, and done ones
                # deduplicate.
                if existing.state not in (
                    JobState.FAILED, JobState.CANCELLED, JobState.DEAD_LETTER
                ):
                    return existing, False
            self._counter += 1
            record = JobRecord(
                job_id=f"j{self._counter:06d}-{key[:8]}",
                key=key,
                tenant=tenant,
                method=method,
                label=label,
                system=system,
                options=options,
                config=config,
                state=JobState.QUEUED,
                created_wall=now,
                updated_wall=now,
                max_redeliveries=(
                    self.max_redeliveries
                    if max_redeliveries is None
                    else max_redeliveries
                ),
            )
            _record_note(record, "submitted", now)
            self._jobs[record.job_id] = record
            self._by_key[key] = record.job_id
            self._append({"kind": SUBMIT_KIND, "job": record.as_dict()})
            return record, True

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def jobs(
        self, state: str | None = None, tenant: str | None = None
    ) -> list[JobRecord]:
        with self._lock:
            out = [
                record
                for record in self._jobs.values()
                if (state is None or record.state == state)
                and (tenant is None or record.tenant == tenant)
            ]
        return sorted(out, key=lambda record: record.job_id)

    def counts(self) -> dict[str, int]:
        with self._lock:
            out: dict[str, int] = {}
            for record in self._jobs.values():
                out[record.state] = out.get(record.state, 0) + 1
            return out

    def queued_depth(self, tenant: str | None = None) -> int:
        """Jobs admitted but not yet terminal (the backpressure signal)."""
        with self._lock:
            return sum(
                1
                for record in self._jobs.values()
                if not record.terminal
                and (tenant is None or record.tenant == tenant)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # ------------------------------------------------------------------
    # Leasing and the state machine
    # ------------------------------------------------------------------

    def _transition(
        self, record: JobRecord, state: str, note: str, now: float
    ) -> None:
        allowed = VALID_TRANSITIONS.get(record.state, frozenset())
        if state not in allowed:
            raise InvalidTransition(
                f"{record.job_id}: illegal transition "
                f"{record.state!r} -> {state!r}"
            )
        record.state = state
        record.updated_wall = now
        _record_note(record, note, now)

    def _check_lease(self, record: JobRecord, lease_id: str) -> None:
        if record.lease_id != lease_id:
            raise LeaseLost(
                f"{record.job_id}: lease {lease_id!r} is not current "
                f"(job is {record.state!r} under {record.lease_id!r})"
            )

    def lease(
        self,
        limit: int,
        lease_seconds: float,
        now: float | None = None,
    ) -> list[JobRecord]:
        """Move up to ``limit`` queued jobs to ``leased`` (FIFO order)."""
        now = time.time() if now is None else now
        with self._lock:
            taken: list[JobRecord] = []
            for record in sorted(
                self._jobs.values(), key=lambda r: r.job_id
            ):
                if len(taken) >= limit:
                    break
                if record.state != JobState.QUEUED:
                    continue
                self._lease_counter += 1
                record.lease_id = f"lease-{self._lease_counter:06d}"
                record.lease_expires_wall = now + lease_seconds
                self._transition(
                    record, JobState.LEASED,
                    f"leased for {lease_seconds:.1f}s", now,
                )
                self._log_update(record)
                taken.append(record)
            return taken

    def start(
        self, job_id: str, lease_id: str, now: float | None = None
    ) -> JobRecord:
        now = time.time() if now is None else now
        with self._lock:
            record = self.get(job_id)
            self._check_lease(record, lease_id)
            record.attempts += 1
            self._transition(
                record, JobState.RUNNING,
                f"execution attempt {record.attempts}", now,
            )
            self._log_update(record)
            return record

    def heartbeat(
        self,
        job_id: str,
        lease_id: str,
        lease_seconds: float,
        now: float | None = None,
    ) -> JobRecord:
        """Extend a live lease (the worker's liveness signal)."""
        now = time.time() if now is None else now
        with self._lock:
            record = self.get(job_id)
            self._check_lease(record, lease_id)
            if record.terminal:
                raise InvalidTransition(
                    f"{job_id}: heartbeat on terminal state {record.state!r}"
                )
            record.lease_expires_wall = now + lease_seconds
            record.updated_wall = now
            self._log_update(record)
            return record

    def complete(
        self,
        job_id: str,
        lease_id: str,
        state: str,
        *,
        result: str | None = None,
        fingerprint: str | None = None,
        error: str | None = None,
        now: float | None = None,
    ) -> JobRecord:
        """Finish a running job: ``done``, ``failed``, or ``degraded``."""
        if state not in (JobState.DONE, JobState.FAILED, JobState.DEGRADED):
            raise InvalidTransition(f"complete() cannot set state {state!r}")
        now = time.time() if now is None else now
        with self._lock:
            record = self.get(job_id)
            self._check_lease(record, lease_id)
            record.result = result
            record.fingerprint = fingerprint
            record.error = error
            record.lease_id = None
            record.lease_expires_wall = None
            self._transition(record, state, error or "completed", now)
            self._log_update(record)
            return record

    def requeue(
        self, job_id: str, lease_id: str, reason: str, now: float | None = None
    ) -> JobRecord:
        """Voluntarily hand a leased/running job back (drain path)."""
        now = time.time() if now is None else now
        with self._lock:
            record = self.get(job_id)
            self._check_lease(record, lease_id)
            record.lease_id = None
            record.lease_expires_wall = None
            self._transition(record, JobState.QUEUED, reason, now)
            self._log_update(record)
            return record

    def cancel(self, job_id: str, now: float | None = None) -> JobRecord:
        """Cancel a job that has not started running yet."""
        now = time.time() if now is None else now
        with self._lock:
            record = self.get(job_id)
            if record.state not in (JobState.QUEUED, JobState.LEASED):
                raise InvalidTransition(
                    f"{job_id}: cannot cancel in state {record.state!r}"
                )
            record.lease_id = None
            record.lease_expires_wall = None
            self._transition(
                record, JobState.CANCELLED, "cancelled by client", now
            )
            self._log_update(record)
            return record

    def reap_expired(
        self, now: float | None = None
    ) -> tuple[list[JobRecord], list[JobRecord]]:
        """Requeue jobs whose lease expired; dead-letter repeat orphans.

        Returns ``(requeued, dead_lettered)``.  Each requeue increments
        ``redeliveries``; a job that would exceed ``max_redeliveries``
        parks in ``dead_letter`` instead of looping forever.
        """
        now = time.time() if now is None else now
        requeued: list[JobRecord] = []
        dead: list[JobRecord] = []
        with self._lock:
            for record in self._jobs.values():
                if record.state not in (JobState.LEASED, JobState.RUNNING):
                    continue
                expires = record.lease_expires_wall
                if expires is None or expires > now:
                    continue
                record.lease_id = None
                record.lease_expires_wall = None
                record.redeliveries += 1
                if record.redeliveries > record.max_redeliveries:
                    record.error = (
                        f"dead-lettered after {record.redeliveries} "
                        f"redeliveries (max {record.max_redeliveries})"
                    )
                    self._transition(
                        record, JobState.DEAD_LETTER, record.error, now
                    )
                    dead.append(record)
                else:
                    self._transition(
                        record, JobState.QUEUED,
                        f"lease expired (redelivery "
                        f"{record.redeliveries}/{record.max_redeliveries})",
                        now,
                    )
                    requeued.append(record)
                self._log_update(record)
        return requeued, dead

    def recover_orphans(
        self, now: float | None = None
    ) -> tuple[list[JobRecord], list[JobRecord]]:
        """The ``--resume`` path: requeue every leased/running job *now*.

        After a crash the previous process's leases are meaningless;
        rather than waiting for them to expire, expire them immediately
        and let :meth:`reap_expired` apply the redelivery bookkeeping.
        """
        now = time.time() if now is None else now
        with self._lock:
            for record in self._jobs.values():
                if record.state in (JobState.LEASED, JobState.RUNNING):
                    record.lease_expires_wall = now - 1.0
        return self.reap_expired(now)

    # ------------------------------------------------------------------
    # Live progress events (in-memory tail; see docs/SERVICE.md)
    # ------------------------------------------------------------------

    def record_event(
        self, job_id: str, event: dict[str, Any], limit: int = 256
    ) -> None:
        """Attach one observability event to a job's live-progress tail.

        The tail is in-memory only — progress is ephemeral by design;
        durability belongs to the WAL-backed state machine above.
        """
        with self._lock:
            if job_id not in self._jobs:
                return
            tail = self._events.get(job_id)
            if tail is None or tail.maxlen != limit:
                tail = deque(tail or (), maxlen=limit)
                self._events[job_id] = tail
            tail.append(event)

    def events_for(self, job_id: str, since_seq: int = -1) -> list[dict[str, Any]]:
        with self._lock:
            return [
                event
                for event in self._events.get(job_id, ())
                if int(event.get("seq", 0)) > since_seq
            ]


def _counter_of(job_id: str) -> int:
    """The monotonically assigned counter embedded in a job id."""
    try:
        return int(job_id.split("-")[0].lstrip("j"))
    except (ValueError, AttributeError):
        return 0


def replay_summary(store: JobStore) -> dict[str, Any]:
    """What a fresh load of the directory recovered (for ``--resume`` logs)."""
    counts = store.counts()
    return {
        "jobs": len(store),
        "counts": counts,
        "torn_records": store.torn_records,
        "orphans": counts.get(JobState.LEASED, 0)
        + counts.get(JobState.RUNNING, 0),
    }


def load_store(
    directory: str | os.PathLike, **kwargs: Any
) -> tuple[JobStore, dict[str, Any]]:
    """Open (or create) a store and report what the WAL replay found."""
    store = JobStore(directory, **kwargs)
    return store, replay_summary(store)
