"""The one recorder: hierarchical spans and ordered point events.

A :class:`Span` is one timed, named region of work; spans nest
(``poly_synth`` > ``cce`` > ``cce/extract``), carry free-form attributes
and integer counters, and together form the tree the exporters
(:mod:`repro.obs.exporters`) serialize to JSONL, Chrome trace-event
JSON, or feed into metrics.  An :class:`~repro.obs.events.Event` is one
point record (a phase boundary, a scored combination, a cache hit, a
retry) on the same timeline.  :class:`Tracer` records both: each phase,
engine incident and pool job is observed once, by one recorder call.

Design constraints, in order:

1. **Near-zero overhead when off.**  The ambient recorder defaults to
   :data:`NULL_TRACER`, whose ``span()`` and ``phase()`` return one
   shared no-op context manager and whose ``emit()`` is empty — entering
   a disabled span is two attribute-free method calls and no
   allocation.  Hot loops additionally hoist ``tracer.emitting``, so a
   recorder allocates only what it keeps: a spans-only recorder
   (``sinks=None``) allocates no :class:`~repro.obs.events.Event`, an
   events-only one (``max_spans=0``) no :class:`Span`, and the disabled
   one neither (:func:`allocation_counts`; tests enforce all three).
2. **Results never depend on recording.**  Nothing reads a span or an
   event back into the flow; the recorder is write-only from the
   algorithm's perspective.
3. **Thread- and process-safe.**  Open-span stacks are per-thread;
   finished trees are appended, and events numbered and handed to the
   sinks, under one lock.  Pool workers build their own :class:`Tracer`
   and ship one :class:`TraceSnapshot` home inside the job payload;
   :meth:`Tracer.adopt` stitches the worker's spans under the parent's
   current span and re-emits its events, both re-based via each
   recorder's wall-clock epoch.

``REPRO_TRACE`` and ``REPRO_EVENTS`` turn the ambient default on: ``1``/
``true``/``on``/``yes`` enable spans or events respectively, any other
non-empty value both enables them *and* names the file the CLI writes
on exit — a Chrome trace for ``REPRO_TRACE``, a JSONL event stream for
``REPRO_EVENTS`` (see :func:`env_toggle` and ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from .events import Event, JsonlSink, RingBufferSink

#: The default span cap of a :class:`Tracer`.
DEFAULT_MAX_SPANS = 200_000

#: Process-wide counts of the spans and events live recorders have
#: allocated.  Tests compare them across an instrumented region to prove
#: that a recorder allocates only what it keeps, and the disabled path
#: (:data:`NULL_TRACER`) nothing at all.
_allocations = {"spans": 0, "events": 0}


def allocation_counts() -> dict[str, int]:
    """How many spans and events recorders have allocated in this process."""
    return dict(_allocations)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

@dataclass
class Span:
    """One timed region of work; a node of the trace tree.

    ``start``/``end`` are seconds since the owning tracer's epoch (not
    absolute wall time), so a serialized tree can be re-based onto a
    different tracer's timeline with a single offset.  ``tid`` is a
    display lane for the Chrome-trace exporter — worker subtrees get a
    distinct lane per job when stitched.
    """

    name: str
    start: float = 0.0
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    tid: int = 0

    # -- the API instrumented code sees --------------------------------

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes."""
        self.attrs.update(attrs)

    def count(self, **deltas: int) -> None:
        """Add integer counters (cumulative per key)."""
        for key, value in deltas.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)

    # -- queries --------------------------------------------------------

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in record order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Height of the subtree rooted here (a leaf has depth 1)."""
        return 1 + max((child.depth() for child in self.children), default=0)

    def find(self, name: str) -> "Span | None":
        """First span (depth-first) whose name matches exactly."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def signature(self) -> tuple:
        """Timing-free structural identity: (name, child signatures).

        Children are kept in record order — within one thread the order
        is deterministic, and the cross-process stitching tests compare
        *sets* of job-subtree signatures to stay order-independent.
        """
        return (self.name, tuple(child.signature() for child in self.children))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "children": [child.to_dict() for child in self.children],
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.tid:
            data["tid"] = self.tid
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        if data.get("kind") != "span":
            raise ValueError(f"not a span payload: {data.get('kind')!r}")
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),
            end=None if data.get("end") is None else float(data["end"]),
            attrs=dict(data.get("attrs", {})),
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            children=[cls.from_dict(c) for c in data.get("children", [])],
            tid=int(data.get("tid", 0)),
        )


@dataclass
class TraceSnapshot:
    """A recorder's span trees and events plus the epoch to re-base them."""

    epoch_wall: float
    spans: list[Span] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    dropped: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "trace",
            "epoch_wall": self.epoch_wall,
            "dropped": self.dropped,
            "spans": [span.to_dict() for span in self.spans],
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceSnapshot":
        if data.get("kind") != "trace":
            raise ValueError(f"not a trace payload: {data.get('kind')!r}")
        return cls(
            epoch_wall=float(data["epoch_wall"]),
            spans=[Span.from_dict(s) for s in data.get("spans", [])],
            events=[Event.from_dict(e) for e in data.get("events", [])],
            dropped=int(data.get("dropped", 0)),
        )

    def walk(self) -> Iterator[Span]:
        for root in self.spans:
            yield from root.walk()

    def depth(self) -> int:
        return max((root.depth() for root in self.spans), default=0)


# ----------------------------------------------------------------------
# The no-op path
# ----------------------------------------------------------------------

class _NullSpan:
    """Shared do-nothing span (and phase handle) when recording is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def count(self, **deltas: int) -> None:
        pass

    def degrade(self, action: str) -> None:
        pass


class _NullSpanContext:
    """Shared do-nothing context manager; one instance serves every call."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled recorder: every operation is a cheap no-op."""

    __slots__ = ()
    tracing = False
    emitting = False
    dropped = 0

    @property
    def roots(self) -> list[Span]:
        return []

    @property
    def events(self) -> list[Event]:
        return []

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def phase(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def incident(self, span: str, kind: str, **fields: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def emit(self, kind: str, /, **data: Any) -> None:
        pass

    def adopt(
        self, snapshot: "TraceSnapshot | dict", job: str | None = None, tid: int = 0
    ) -> None:
        pass

    def snapshot(self) -> TraceSnapshot:
        return TraceSnapshot(epoch_wall=time.time())

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# The real recorder
# ----------------------------------------------------------------------

class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span | _NullSpan:
        self._span = self._tracer._enter(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not NULL_SPAN:
            self._tracer._exit(self._span, exc_type)
        return False


class _PhaseScope:
    """One open phase (:meth:`Tracer.phase`): its span and its record.

    Opening the scope opens the span and emits ``phase_start``; closing
    it emits ``degradation`` (when :meth:`degrade` was called) and
    ``phase_end`` from the same record, then closes the span.
    """

    __slots__ = ("_tracer", "_name", "_span", "_action")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Span | _NullSpan = NULL_SPAN
        self._action: str | None = None

    def __enter__(self) -> "_PhaseScope":
        tracer = self._tracer
        if tracer.tracing:
            self._span = tracer._enter(self._name, {})
        tracer.emit("phase_start", name=self._name)
        return self

    def count(self, **deltas: int) -> None:
        """Add counters to the phase's span."""
        self._span.count(**deltas)

    def degrade(self, action: str) -> None:
        """Mark the phase degraded by ``action`` (read when it closes)."""
        self._action = action
        self._span.set(degraded=True)

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        degraded = self._action is not None
        if degraded:
            tracer.emit("degradation", phase=self._name, action=self._action)
        tracer.emit("phase_end", name=self._name, degraded=degraded)
        if self._span is not NULL_SPAN:
            tracer._exit(self._span, exc_type)
        return False


class Tracer:
    """Records hierarchical spans and ordered point events on one timeline.

    ``sinks`` receive every recorded event, in order; ``None`` keeps no
    events (a spans-only recorder), and ``max_spans=0`` keeps no spans
    (an events-only recorder).  The caps bound memory and IO on
    pathological workloads (the combination search can score hundreds
    of candidates, each opening a ``cse/extract`` span): past a cap, new
    records are dropped and counted in :attr:`dropped` instead.
    ``max_events=None`` means no event cap, for a long-lived recorder
    whose sinks bound themselves.
    """

    def __init__(
        self,
        sinks: "list[Any] | None" = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        max_events: int | None = 1_000_000,
    ) -> None:
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self.tracing = max_spans > 0
        self.emitting = sinks is not None
        self.sinks = list(sinks or ())
        self.max_spans = max_spans
        self.max_events = max_events
        self.dropped = 0
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._recorded = 0
        self._seq = 0

    # -- internals -------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch_perf

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _enter(self, name: str, attrs: dict[str, Any]) -> Span | _NullSpan:
        with self._lock:
            if self._recorded >= self.max_spans:
                self.dropped += 1
                return NULL_SPAN
            self._recorded += 1
        _allocations["spans"] += 1
        span = Span(name=name, start=self._now(), attrs=dict(attrs))
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def _exit(self, span: Span, exc_type: type | None) -> None:
        span.end = self._now()
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        stack = self._stack()
        # Tolerate a corrupted stack (a span leaked across threads)
        # rather than poison the flow being traced.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()

    def _record(self, kind: str, ts: float, data: dict[str, Any]) -> None:
        """Number one event and hand it to the sinks (lock held)."""
        if self.max_events is not None and self._seq >= self.max_events:
            self.dropped += 1
            return
        _allocations["events"] += 1
        event = Event(seq=self._seq, ts=ts, kind=kind, data=data)
        self._seq += 1
        for sink in self.sinks:
            sink.accept(event)

    # -- public API ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext | _NullSpanContext:
        """Open a nested span: ``with tracer.span("cce", polys=3) as s:``."""
        if not self.tracing:
            return _NULL_SPAN_CONTEXT
        return _SpanContext(self, name, attrs)

    def phase(self, name: str) -> _PhaseScope:
        """Open a flow phase: its span plus its start/end events."""
        return _PhaseScope(self, name)

    def incident(
        self, span: str, kind: str, **fields: Any
    ) -> _SpanContext | _NullSpanContext:
        """Emit a ``kind`` event and open a ``span``, both carrying ``fields``."""
        self.emit(kind, **fields)
        return self.span(span, **fields)

    def emit(self, kind: str, /, **data: Any) -> None:
        """Record one event; ``kind`` must be in :data:`EVENT_KINDS`."""
        if not self.emitting:
            return
        ts = self._now()
        with self._lock:
            self._record(kind, ts, data)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(
        self, snapshot: "TraceSnapshot | dict", job: str | None = None, tid: int = 0
    ) -> None:
        """Stitch a (worker's) snapshot into this recording.

        The spans go under the current span, tagged with lane ``tid`` so
        the Chrome-trace exporter renders them apart; the events are
        re-emitted in their recorded order with fresh sequence numbers,
        each labelled with ``job`` unless it names one already.  Both are
        re-based from the child recorder's wall-clock epoch onto this
        timeline.
        """
        if isinstance(snapshot, dict):
            snapshot = TraceSnapshot.from_dict(snapshot)
        delta = snapshot.epoch_wall - self.epoch_wall
        parent = self.current()
        with self._lock:
            self.dropped += snapshot.dropped
            if self.tracing:
                siblings = parent.children if parent is not None else self.roots
                siblings.extend(_rebase(root, delta, tid) for root in snapshot.spans)
            if self.emitting:
                for source in snapshot.events:
                    data = dict(source.data)
                    if job is not None:
                        data.setdefault("job", job)
                    self._record(source.kind, source.ts + delta, data)

    def snapshot(self) -> TraceSnapshot:
        """An immutable copy-by-reference view suitable for serialization."""
        with self._lock:
            return TraceSnapshot(
                epoch_wall=self.epoch_wall,
                spans=list(self.roots),
                events=self.events,
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

    def depth(self) -> int:
        return max((root.depth() for root in self.roots), default=0)

    def find(self, name: str) -> Span | None:
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None


def _rebase(span: Span, delta: float, tid: int) -> Span:
    """A shifted, re-laned copy of a span tree (the original is untouched)."""
    return Span(
        name=span.name,
        start=span.start + delta,
        end=None if span.end is None else span.end + delta,
        attrs=dict(span.attrs),
        counters=dict(span.counters),
        children=[_rebase(child, delta, tid) for child in span.children],
        tid=tid,
    )


# ----------------------------------------------------------------------
# The ambient recorder
# ----------------------------------------------------------------------

_FALSY = frozenset({"", "0", "false", "off", "no", "none", "disabled"})
_TRUTHY = frozenset({"1", "true", "on", "yes"})


def env_toggle(var: str) -> tuple[bool, str | None]:
    """Interpret an on/off/path environment variable: (enabled, path).

    The shared grammar of ``REPRO_TRACE`` and ``REPRO_EVENTS``: unset or
    falsy values (``0``/``false``/``off``/``no``/``none``/``disabled``,
    any case, surrounding whitespace ignored) disable; truthy values
    (``1``/``true``/``on``/``yes``) enable; any other value enables
    *and* is taken as an output file path.  A falsy value must never be
    mistaken for a path — ``REPRO_TRACE=0`` used to produce a Chrome
    trace named ``0``.
    """
    raw = os.environ.get(var, "").strip()
    lowered = raw.lower()
    if lowered in _FALSY:
        return False, None
    if lowered in _TRUTHY:
        return True, None
    return True, raw


def env_trace_settings() -> tuple[bool, str | None]:
    """Interpret ``REPRO_TRACE``: (keep spans, chrome-trace output path)."""
    return env_toggle("REPRO_TRACE")


def env_events_settings() -> tuple[bool, str | None]:
    """Interpret ``REPRO_EVENTS``: (keep events, JSONL output path)."""
    return env_toggle("REPRO_EVENTS")


def _env_recorder() -> "Tracer | NullTracer":
    """The ambient default: what ``REPRO_TRACE`` and ``REPRO_EVENTS`` ask."""
    tracing, _ = env_trace_settings()
    emitting, path = env_events_settings()
    if not (tracing or emitting):
        return NULL_TRACER
    sinks = None
    if emitting:
        sinks = [RingBufferSink()]
        if path:
            sinks.append(JsonlSink(path))
    return Tracer(sinks=sinks, max_spans=DEFAULT_MAX_SPANS if tracing else 0)


_current: ContextVar["Tracer | NullTracer"] = ContextVar(
    "repro_tracer", default=_env_recorder()
)


def current_tracer() -> "Tracer | NullTracer":
    """The ambient recorder (the no-op recorder unless one was installed)."""
    return _current.get()


def set_tracer(tracer: "Tracer | NullTracer") -> None:
    """Install ``tracer`` as the ambient recorder for this context."""
    _current.set(tracer)


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Temporarily install ``tracer`` as the ambient recorder.

    >>> from repro.obs import Tracer, use_tracer
    >>> with use_tracer(Tracer()) as tracer:
    ...     pass  # everything in here records into `tracer`
    """
    token = _current.set(tracer)
    try:
        yield tracer
    finally:
        _current.reset(token)


def env_trace_path() -> str | None:
    """The Chrome-trace output path named by ``REPRO_TRACE``, if any."""
    return env_trace_settings()[1]


def _render_span(span: Span, indent: int, max_children: int, lines: list[str]) -> None:
    extra = "".join(f" {k}={v}" for k, v in span.counters.items())
    lines.append(
        f"{'  ' * indent}{span.name}: {span.duration * 1000.0:.2f} ms{extra}"
    )
    for child in span.children[:max_children]:
        _render_span(child, indent + 1, max_children, lines)
    if len(span.children) > max_children:
        lines.append(
            f"{'  ' * (indent + 1)}... and "
            f"{len(span.children) - max_children} more"
        )


def format_span_tree(
    spans: "Tracer | TraceSnapshot | list[Span]",
    max_children: int = 12,
) -> str:
    """Indented text rendering of a span tree (CLI / debugging aid)."""
    if isinstance(spans, (Tracer, TraceSnapshot)):
        roots = spans.roots if isinstance(spans, Tracer) else spans.spans
    else:
        roots = spans
    lines: list[str] = []
    for root in roots:
        _render_span(root, 0, max_children, lines)
    return "\n".join(lines)
