"""Unified observability: one recorder of spans and events, metrics, exporters.

The subsystem the ROADMAP's scaling PRs measure themselves against:

* :mod:`repro.obs.tracer` — :class:`Tracer`, the one recorder: timed,
  hierarchical :class:`Span` trees and ordered point events on one
  timeline, behind a near-zero-overhead no-op default; ambient via
  :func:`current_tracer` / :func:`use_tracer`; one cross-process
  stitching call, :meth:`Tracer.adopt`.  ``REPRO_TRACE`` turns the
  default's spans on and ``REPRO_EVENTS`` its events.
* :mod:`repro.obs.events` — what an event is: the closed
  :data:`EVENT_KINDS` taxonomy (phase boundaries, scored/memoized/pruned
  combinations, kernel choices, cache hits, retries, heartbeats), the
  :class:`Event` record, and the sinks a recorder sends events to
  (:class:`RingBufferSink`, :class:`JsonlSink`, :class:`CallbackSink`).
* :mod:`repro.obs.progress` — :class:`ProgressRenderer`, the live
  status-line consumer of the events (``--progress``).
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms; :func:`observe_timings` bridges
  the flow's per-phase :class:`~repro.core.metrics.Timings` into it.
* :mod:`repro.obs.exporters` — JSONL span logs, Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``), Prometheus text exposition.
* :mod:`repro.obs.validate` — the bundled Chrome-trace and event-JSONL
  checkers used by tests, ``repro trace``, and CI.

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the event
taxonomy, and the export formats.
"""

from .events import (
    EVENT_KINDS,
    CallbackSink,
    Event,
    JsonlSink,
    RingBufferSink,
)
from .exporters import (
    chrome_trace,
    prometheus_text,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    observe_timings,
)
from .progress import ProgressRenderer
from .tracer import (
    DEFAULT_MAX_SPANS,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TraceSnapshot,
    allocation_counts,
    current_tracer,
    env_events_settings,
    env_toggle,
    env_trace_path,
    env_trace_settings,
    format_span_tree,
    set_tracer,
    use_tracer,
)
from .validate import (
    chrome_trace_depth,
    event_names,
    validate_chrome_trace,
    validate_event_jsonl,
    validate_job_lifecycles,
)

__all__ = [
    "CallbackSink",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SPANS",
    "EVENT_KINDS",
    "Event",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProgressRenderer",
    "RingBufferSink",
    "Span",
    "TraceSnapshot",
    "Tracer",
    "allocation_counts",
    "chrome_trace",
    "chrome_trace_depth",
    "current_tracer",
    "env_events_settings",
    "env_toggle",
    "env_trace_path",
    "env_trace_settings",
    "event_names",
    "format_span_tree",
    "get_registry",
    "observe_timings",
    "prometheus_text",
    "set_tracer",
    "spans_to_jsonl",
    "use_tracer",
    "validate_chrome_trace",
    "validate_event_jsonl",
    "validate_job_lifecycles",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
