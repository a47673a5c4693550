"""Typed, ordered, structured event stream for the synthesis flow.

Where spans (:mod:`repro.obs.tracer`) answer *where the time went* and
metrics (:mod:`repro.obs.metrics`) answer *how the system behaves across
runs*, events answer *what happened, in order*: every scored, memoized,
or pruned combination of the Algorithm-7 search, every kernel the CSE
extractor picked, every cache hit, retry, timeout, and degradation step
of the batch engine — as one monotonically-sequenced stream a consumer
can tail live (the ``--progress`` renderer, a future synthesis service)
or archive as JSONL for audit.

The stream follows the exact zero-cost-when-disabled discipline of
:data:`~repro.obs.tracer.NULL_TRACER`:

* the ambient default is :data:`NULL_EVENTS`, whose ``emit`` is a no-op
  — hot loops additionally hoist ``events.enabled`` so the disabled
  path allocates **zero** :class:`Event` objects (enforced by
  :func:`event_allocation_count` and the allocation-counter test),
* nothing ever reads an event back into an algorithm: results are
  bit-identical with events on or off,
* pool workers run under their own fresh :class:`EventStream`; the
  snapshot rides home inside the job payload and the parent re-emits it
  under its own stream via :meth:`EventStream.adopt` — once, from the
  accepted final payload only, so retried attempts never duplicate.

``REPRO_EVENTS`` mirrors ``REPRO_TRACE``: falsy values disable, truthy
values enable, any other value enables *and* names the JSONL file the
CLI streams events to (see :func:`env_events_settings`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .tracer import env_toggle

#: Every event kind the instrumented code emits.  Consumers (the JSONL
#: validator, the progress renderer) treat unknown kinds as an error, so
#: new instrumentation must extend this taxonomy deliberately.
EVENT_KINDS = frozenset(
    {
        "phase_start",     # a flow phase opened (name)
        "phase_end",       # a flow phase closed (name, degraded?)
        "combo_scored",    # the search scored a fresh combination
        "combo_memo_hit",  # the search served a combination from a memo
        "combo_pruned",    # branch-and-bound skipped a combination
        "dag_finalist",    # the search assembled one shortlisted combination
        "kernel_chosen",   # the CSE extractor applied its best candidate
        "block_registered",  # cube/factor exposure registered a block
        "cache_hit",       # engine served a job from the result cache
        "cache_miss",      # engine had to execute a job
        "degradation",     # a budget overrun was absorbed somewhere
        "retry",           # the engine re-queued a failing job
        "timeout",         # a job hit the hard pool timeout
        "breaker",         # the circuit breaker refused a job
        "job_start",       # a job began executing (worker side)
        "job_end",         # a job finished executing (worker side)
        "job_cancelled",   # a job was cancelled before (or instead of) running
        "heartbeat",       # periodic liveness/progress pulse
        # -- durable-service lifecycle (src/repro/service/) -------------
        "job_queued",      # the job store accepted a submission
        "job_leased",      # a worker took a time-bounded lease on the job
        "job_requeued",    # lease expired / crash orphan went back to queued
        "job_dead_letter",  # redelivery budget exhausted; job parked
    }
)

#: Process-wide count of :class:`Event` objects allocated by live
#: streams.  Tests compare this across an instrumented region to prove
#: the disabled path (:data:`NULL_EVENTS`) allocates no event objects.
_event_allocations = 0


def event_allocation_count() -> int:
    """How many real events streams have allocated in this process."""
    return _event_allocations


@dataclass
class Event:
    """One entry of the stream: a kind, a timestamp, and free-form data.

    ``seq`` is the stream-local, strictly increasing sequence number (the
    total order consumers rely on); ``ts`` is seconds since the owning
    stream's epoch, so an adopted worker stream can be re-based exactly
    like a span tree.
    """

    seq: int
    ts: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "event",
            "event": self.kind,
            "seq": self.seq,
            "ts": self.ts,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Event":
        if data.get("kind") != "event":
            raise ValueError(f"not an event payload: {data.get('kind')!r}")
        return cls(
            seq=int(data["seq"]),
            ts=float(data["ts"]),
            kind=str(data["event"]),
            data=dict(data.get("data", {})),
        )


@dataclass
class EventsSnapshot:
    """A stream's recorded events plus the epoch needed to re-base them."""

    epoch_wall: float
    events: list[Event] = field(default_factory=list)
    dropped: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "events",
            "epoch_wall": self.epoch_wall,
            "dropped": self.dropped,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EventsSnapshot":
        if data.get("kind") != "events":
            raise ValueError(f"not an events payload: {data.get('kind')!r}")
        return cls(
            epoch_wall=float(data["epoch_wall"]),
            events=[Event.from_dict(e) for e in data.get("events", [])],
            dropped=int(data.get("dropped", 0)),
        )


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (the default sink)."""

    def __init__(self, capacity: int = 100_000) -> None:
        self._buffer: deque[Event] = deque(maxlen=capacity)

    def accept(self, event: Event) -> None:
        self._buffer.append(event)

    def close(self) -> None:
        pass

    @property
    def events(self) -> list[Event]:
        return list(self._buffer)


class JsonlSink:
    """Streams each event as one JSON line to a file (opened lazily)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self.written = 0

    def accept(self, event: Event) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        )
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CallbackSink:
    """Hands every event to a user callback (the live-progress consumer).

    A callback that raises would poison the instrumented flow, so
    exceptions are swallowed — observability must never change results.
    """

    def __init__(self, callback: Callable[[Event], None]) -> None:
        self._callback = callback

    def accept(self, event: Event) -> None:
        try:
            self._callback(event)
        except Exception:  # noqa: BLE001 - sinks must not poison the flow
            pass

    def close(self) -> None:
        closer = getattr(self._callback, "close", None)
        if callable(closer):
            try:
                closer()
            except Exception:  # noqa: BLE001
                pass


# ----------------------------------------------------------------------
# The no-op path
# ----------------------------------------------------------------------

class NullEventStream:
    """The disabled stream: every operation is a cheap no-op."""

    __slots__ = ()
    enabled = False
    dropped = 0

    def emit(self, kind: str, /, **data: Any) -> None:
        pass

    def adopt(self, snapshot: "EventsSnapshot | dict", job: str | None = None) -> None:
        pass

    def snapshot(self) -> EventsSnapshot:
        return EventsSnapshot(epoch_wall=time.time())

    @property
    def events(self) -> list[Event]:
        return []

    def close(self) -> None:
        pass


NULL_EVENTS = NullEventStream()


# ----------------------------------------------------------------------
# The real stream
# ----------------------------------------------------------------------

class EventStream:
    """Collects ordered events and fans them out to pluggable sinks.

    Thread-safe: the sequence number is assigned and the sinks invoked
    under one lock, so the per-stream total order is exact even when the
    engine's dispatch loop and a synthesis thread emit concurrently.
    ``max_events`` bounds memory/IO on pathological workloads — past the
    lifetime cap, events are counted in :attr:`dropped` instead of
    recorded.  ``None`` means no cap, for a long-lived stream whose sinks
    bound themselves.
    """

    enabled = True

    def __init__(
        self,
        sinks: "list[RingBufferSink | JsonlSink | CallbackSink] | None" = None,
        max_events: int | None = 1_000_000,
    ) -> None:
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self.sinks = list(sinks) if sinks is not None else [RingBufferSink()]
        self.max_events = max_events
        self.dropped = 0
        self._seq = 0
        self._lock = threading.Lock()

    def add_sink(self, sink: "RingBufferSink | JsonlSink | CallbackSink") -> None:
        self.sinks.append(sink)

    def emit(self, kind: str, /, **data: Any) -> None:
        """Record one event; ``kind`` must be in :data:`EVENT_KINDS`."""
        global _event_allocations
        ts = time.perf_counter() - self._epoch_perf
        with self._lock:
            if self.max_events is not None and self._seq >= self.max_events:
                self.dropped += 1
                return
            _event_allocations += 1
            event = Event(seq=self._seq, ts=ts, kind=kind, data=data)
            self._seq += 1
            for sink in self.sinks:
                sink.accept(event)

    def adopt(
        self, snapshot: "EventsSnapshot | dict", job: str | None = None
    ) -> None:
        """Re-emit a (worker's) serialized event stream under this one.

        The adopted events keep their relative order, get fresh sequence
        numbers on this stream's timeline, and are re-based from the
        child stream's wall-clock epoch; ``job`` labels every adopted
        event so interleaved workers stay distinguishable.
        """
        global _event_allocations
        if isinstance(snapshot, dict):
            snapshot = EventsSnapshot.from_dict(snapshot)
        delta = snapshot.epoch_wall - self.epoch_wall
        with self._lock:
            self.dropped += snapshot.dropped
            for source in snapshot.events:
                if self.max_events is not None and self._seq >= self.max_events:
                    self.dropped += 1
                    continue
                data = dict(source.data)
                if job is not None:
                    data.setdefault("job", job)
                _event_allocations += 1
                event = Event(
                    seq=self._seq,
                    ts=source.ts + delta,
                    kind=source.kind,
                    data=data,
                )
                self._seq += 1
                for sink in self.sinks:
                    sink.accept(event)

    def snapshot(self) -> EventsSnapshot:
        """The recorded events (from the first ring-buffer sink) + epoch."""
        with self._lock:
            return EventsSnapshot(
                epoch_wall=self.epoch_wall,
                events=list(self.events),
                dropped=self.dropped,
            )

    @property
    def events(self) -> list[Event]:
        """Events held by the first in-memory sink (empty if none)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.events
        return []

    def close(self) -> None:
        """Close every sink (flushes the JSONL file sink)."""
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# The ambient stream
# ----------------------------------------------------------------------

def env_events_settings() -> tuple[bool, str | None]:
    """Interpret ``REPRO_EVENTS``: (enabled, JSONL output path).

    Same grammar as ``REPRO_TRACE``: unset / falsy values disable the
    stream, truthy values enable it, and any other value enables it
    *and* names the JSONL file the CLI streams events to.
    """
    return env_toggle("REPRO_EVENTS")


def env_events_path() -> str | None:
    """The JSONL output path named by ``REPRO_EVENTS``, if any."""
    return env_events_settings()[1]


def _default_stream() -> "EventStream | NullEventStream":
    enabled, path = env_events_settings()
    if not enabled:
        return NULL_EVENTS
    sinks: list[RingBufferSink | JsonlSink | CallbackSink] = [RingBufferSink()]
    if path:
        sinks.append(JsonlSink(path))
    return EventStream(sinks=sinks)


_current: ContextVar["EventStream | NullEventStream"] = ContextVar(
    "repro_events", default=_default_stream()
)


def current_events() -> "EventStream | NullEventStream":
    """The ambient event stream (the no-op stream unless installed)."""
    return _current.get()


def set_events(stream: "EventStream | NullEventStream") -> None:
    """Install ``stream`` as the ambient event stream for this context."""
    _current.set(stream)


@contextmanager
def use_events(
    stream: "EventStream | NullEventStream",
) -> Iterator["EventStream | NullEventStream"]:
    """Temporarily install ``stream`` as the ambient event stream.

    >>> from repro.obs import EventStream, use_events
    >>> with use_events(EventStream()) as stream:
    ...     pass  # everything in here emits into `stream`
    """
    token = _current.set(stream)
    try:
        yield stream
    finally:
        _current.reset(token)
