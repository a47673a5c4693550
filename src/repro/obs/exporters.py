"""Exporters: JSONL span logs, Chrome trace-event JSON, Prometheus text.

Three formats, three audiences:

* :func:`spans_to_jsonl` / :func:`write_jsonl` — one JSON object per
  span, flat, grep-able; the archival event log.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``; complete (``"ph": "X"``) events with microsecond
  timestamps, one lane (``tid``) per stitched worker subtree.
* :func:`prometheus_text` / :func:`write_prometheus` — the Prometheus
  text exposition format (version 0.0.4) of a
  :class:`~repro.obs.metrics.MetricsRegistry`.

All exporters are pure readers — exporting never mutates the tracer or
the registry.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from .metrics import Histogram, MetricsRegistry
from .tracer import Span, Tracer, TraceSnapshot


def _roots(spans: "Tracer | TraceSnapshot | list[Span]") -> list[Span]:
    if isinstance(spans, Tracer):
        return spans.snapshot().spans
    if isinstance(spans, TraceSnapshot):
        return spans.spans
    return list(spans)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def _span_lines(span: Span, parent: str | None, path: str) -> Iterator[str]:
    record: dict[str, Any] = {
        "name": span.name,
        "path": path,
        "parent": parent,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "tid": span.tid,
    }
    if span.attrs:
        record["attrs"] = span.attrs
    if span.counters:
        record["counters"] = span.counters
    yield json.dumps(record, sort_keys=True)
    for child in span.children:
        yield from _span_lines(child, span.name, f"{path}/{child.name}")


def spans_to_jsonl(spans: "Tracer | TraceSnapshot | list[Span]") -> Iterator[str]:
    """One flat JSON line per span, depth-first, with the parent's name.

    Flat lines (rather than one nested document) keep the log append-
    friendly and usable with line tools: ``grep cce trace.jsonl | wc -l``.
    """
    for root in _roots(spans):
        yield from _span_lines(root, None, root.name)


def write_jsonl(path: str, spans: "Tracer | TraceSnapshot | list[Span]") -> int:
    """Write the JSONL span log; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in spans_to_jsonl(spans):
            handle.write(line)
            handle.write("\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

def _trace_events(span: Span, pid: int, events: list[dict[str, Any]]) -> None:
    args: dict[str, Any] = {}
    args.update(span.attrs)
    args.update(span.counters)
    events.append(
        {
            "name": span.name,
            "cat": span.name.split("/", 1)[0],
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round(max(span.duration, 0.0) * 1e6, 3),
            "pid": pid,
            "tid": span.tid,
            "args": args,
        }
    )
    for child in span.children:
        _trace_events(child, pid, events)


def chrome_trace(
    spans: "Tracer | TraceSnapshot | list[Span]", pid: int = 0
) -> dict[str, Any]:
    """The span tree as a Trace Event Format document.

    Every span becomes a complete event (``"ph": "X"``) with ``ts`` and
    ``dur`` in microseconds; attributes and counters ride in ``args``.
    The category is the first path segment of the span name, so Perfetto
    can filter e.g. all ``cce/*`` sub-steps at once.
    """
    events: list[dict[str, Any]] = []
    for root in _roots(spans):
        _trace_events(root, pid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, spans: "Tracer | TraceSnapshot | list[Span]", pid: int = 0
) -> int:
    """Write a Chrome trace JSON; returns the number of events written."""
    document = chrome_trace(spans, pid=pid)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return len(document["traceEvents"])


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (format 0.0.4) of a registry."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for metric in registry.collect():
        if metric.name not in seen_types:
            seen_types.add(metric.name)
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.buckets, cumulative):
                le = _format_labels(metric.labels, f'le="{_format_value(bound)}"')
                lines.append(f"{metric.name}_bucket{le} {count}")
            inf = _format_labels(metric.labels, 'le="+Inf"')
            lines.append(f"{metric.name}_bucket{inf} {cumulative[-1]}")
            labels = _format_labels(metric.labels)
            lines.append(f"{metric.name}_sum{labels} {_format_value(metric.sum)}")
            lines.append(f"{metric.name}_count{labels} {metric.count}")
        else:
            labels = _format_labels(metric.labels)
            lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(registry))
