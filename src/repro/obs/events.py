"""Point events: the typed, ordered records the recorder keeps beside spans.

Where spans answer *where the time went* and metrics (:mod:`repro.obs.metrics`)
answer *how the system behaves across runs*, events answer *what
happened, in order*: every scored, memoized, or pruned combination of
the Algorithm-7 search, every kernel the CSE extractor picked, every
cache hit, retry, timeout, and degradation step of the batch engine.

Events are recorded by the one ambient recorder,
:class:`~repro.obs.tracer.Tracer` (``tracer.emit(kind, **data)``), which
numbers them on its timeline and hands each to its sinks.  This module
holds what an event *is* — the :data:`EVENT_KINDS` taxonomy, the
:class:`Event` record and its JSONL schema — and where it can go: the
in-memory :class:`RingBufferSink`, the file :class:`JsonlSink`, and the
:class:`CallbackSink` a live consumer (``--progress``, the service's
job tails) plugs into.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

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


@dataclass
class Event:
    """One entry of the stream: a kind, a timestamp, and free-form data.

    ``seq`` is the recorder-local, strictly increasing sequence number
    (the total order consumers rely on); ``ts`` is seconds since the
    recorder's epoch, so an adopted worker's events are re-based exactly
    like its span tree.
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


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class RingBufferSink:
    """Keeps the last ``capacity`` events in memory (what a snapshot reads)."""

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
