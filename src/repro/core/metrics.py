"""Per-phase timing and counter instrumentation of the synthesis flow.

:class:`Timings` records, for each phase of Algorithm 7, *how long it
took* and a few integer counters (representations generated, blocks
registered, combinations scored, weighted operator deltas).  The record
is the single place the flow writes those integers: the ``search``
phase's counters are what the result's
:class:`~repro.core.provenance.Provenance` reports as its search
telemetry, what the phase's span carries, and what
:func:`repro.obs.observe_timings` publishes as
``repro_phase_<counter>_total{phase="search"}``.  *Why* the winner was
chosen lives in the provenance.  The flow never reads the timings back,
so instrumentation cannot change results.

The layer is deliberately lightweight — one ``perf_counter`` pair per
phase — so it stays on by default: every
:class:`~repro.core.synth.SynthesisResult` carries a ``timings`` field,
and the batch engine aggregates them across jobs into its
:class:`~repro.engine.BatchReport`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class PhaseTiming:
    """Wall time and counters for one phase of the flow."""

    phase: str
    seconds: float
    counters: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.counters.items())
        return f"{self.phase}: {self.seconds * 1000.0:.2f} ms{extra}"


class _PhaseClock:
    """Mutable counter accumulator yielded while a phase is being timed."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def count(self, **deltas: int) -> None:
        """Add integer counters to the phase (cumulative per key)."""
        for key, value in deltas.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)


@dataclass
class Timings:
    """An append-only list of per-phase timings."""

    phases: list[PhaseTiming] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str) -> Iterator[_PhaseClock]:
        """Time a phase; the yielded clock collects counters.

        The clock's counter dict becomes the phase record's own, so a
        view that keeps it reads the record rather than a copy.

        >>> timings = Timings()
        >>> with timings.phase("cce") as clock:
        ...     clock.count(representations=3)
        """
        clock = _PhaseClock()
        start = time.perf_counter()
        try:
            yield clock
        finally:
            self.phases.append(
                PhaseTiming(name, time.perf_counter() - start, clock.counters)
            )

    def record(self, name: str, seconds: float, **counters: int) -> None:
        """Append a pre-measured phase (used when deserializing)."""
        self.phases.append(PhaseTiming(name, float(seconds), dict(counters)))

    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases)

    def seconds_by_phase(self) -> dict[str, float]:
        """Phase name -> accumulated seconds (phases may repeat)."""
        out: dict[str, float] = {}
        for p in self.phases:
            out[p.phase] = out.get(p.phase, 0.0) + p.seconds
        return out

    def counter(self, name: str) -> int:
        """Sum of one counter across all phases."""
        return sum(p.counters.get(name, 0) for p in self.phases)

    def summary(self) -> str:
        lines = [f"total: {self.total_seconds() * 1000.0:.2f} ms"]
        lines.extend(f"  {p}" for p in self.phases)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "timings",
            "phases": [
                {"phase": p.phase, "seconds": p.seconds, "counters": dict(p.counters)}
                for p in self.phases
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Timings":
        if data.get("kind") != "timings":
            raise ValueError(f"not a timings payload: {data.get('kind')!r}")
        timings = cls()
        for entry in data["phases"]:
            timings.record(
                str(entry["phase"]),
                float(entry["seconds"]),
                **{str(k): int(v) for k, v in entry.get("counters", {}).items()},
            )
        return timings

    def __len__(self) -> int:
        return len(self.phases)
