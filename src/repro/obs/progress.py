"""Live progress rendering on top of the recorder's events.

:class:`ProgressRenderer` is an event consumer (install it via a
:class:`~repro.obs.events.CallbackSink` on the recorder) that maintains
a single carriage-return status line on a terminal stream: combinations scored
against the search-space bound with an ETA during a synthesis run,
jobs finished against the batch size during ``repro batch``, and the
engine's heartbeats in between.  It is the reference consumer of the
streaming substrate the ROADMAP's synthesis-as-a-service item builds on.

The renderer only ever *reads* events — it cannot change results — and
rendering is throttled (default 10 Hz) so even an exhaustive search
emitting hundreds of ``combo_scored`` events stays cheap.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from .events import Event


class ProgressRenderer:
    """Callback turning events into a throttled one-line status display.

    >>> from repro.obs import CallbackSink, ProgressRenderer, Tracer
    >>> recorder = Tracer(sinks=[CallbackSink(ProgressRenderer())])
    """

    def __init__(
        self,
        out: TextIO | None = None,
        total_jobs: int | None = None,
        min_interval: float = 0.1,
        clock=time.monotonic,
    ) -> None:
        self.out = out if out is not None else sys.stderr
        self.total_jobs = total_jobs
        self.min_interval = min_interval
        self._clock = clock
        self._started = clock()
        self._last_render = 0.0
        self._line_open = False
        # -- accumulated state ------------------------------------------
        self.jobs_done = 0
        self.cache_hits = 0
        self.scored = 0
        self.bound = 0
        self.memo_hits = 0
        self.pruned = 0
        self.phase = ""
        self.last_job = ""

    # -- event intake ----------------------------------------------------

    def __call__(self, event: Event) -> None:
        kind = event.kind
        data = event.data
        if kind == "combo_scored":
            self.scored = int(data.get("scored", self.scored + 1))
            self.bound = int(data.get("bound", self.bound))
        elif kind == "combo_memo_hit":
            self.memo_hits += 1
        elif kind == "combo_pruned":
            self.pruned += 1
        elif kind == "phase_start":
            self.phase = str(data.get("name", ""))
        elif kind in ("job_end", "cache_hit"):
            self.jobs_done += 1
            if kind == "cache_hit":
                self.cache_hits += 1
            self.last_job = str(data.get("job", data.get("name", "")))
            self._render(force=True)
            return
        elif kind == "heartbeat":
            self._render(force=True)
            return
        self._render()

    # -- rendering -------------------------------------------------------

    def status_line(self) -> str:
        """The current one-line summary (without the carriage return)."""
        elapsed = self._clock() - self._started
        parts: list[str] = []
        if self.total_jobs:
            parts.append(f"jobs {self.jobs_done}/{self.total_jobs}")
            if self.cache_hits:
                parts.append(f"{self.cache_hits} cached")
            if self.last_job:
                parts.append(f"last={self.last_job}")
        if self.phase:
            parts.append(f"phase={self.phase}")
        if self.scored:
            if self.bound:
                parts.append(f"combos {self.scored}/{self.bound}")
                if 0 < self.scored < self.bound:
                    eta = elapsed * (self.bound / self.scored - 1.0)
                    parts.append(f"eta {eta:.0f}s")
            else:
                parts.append(f"combos {self.scored}")
            if self.memo_hits or self.pruned:
                parts.append(f"memo {self.memo_hits} pruned {self.pruned}")
        parts.append(f"{elapsed:.1f}s")
        return " | ".join(parts)

    def _render(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self.out.write("\r\x1b[K" + self.status_line())
        self.out.flush()
        self._line_open = True

    def close(self) -> None:
        """Finish the status line (called by the CallbackSink on close)."""
        if self._line_open:
            self.out.write("\r\x1b[K" + self.status_line() + "\n")
            self.out.flush()
            self._line_open = False
