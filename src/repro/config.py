"""RunConfig — the one configuration object for a synthesis run.

PR 4's resource-governance knobs (budgets, retries, timeouts, circuit
breaking) would have tripled the keyword sprawl across
:func:`repro.api.synthesize_system`, :class:`repro.engine.BatchEngine`,
and the CLI.  Instead there is exactly one frozen, serializable object:

>>> from repro.config import RunConfig, RetryPolicy
>>> from repro.core import Budget, SynthesisOptions
>>> cfg = RunConfig(
...     options=SynthesisOptions(objective="ops"),
...     budget=Budget(job_seconds=30.0),
...     retry=RetryPolicy(max_retries=2, job_timeout_seconds=60.0),
...     workers=4,
... )

Everything that runs synthesis accepts it: ``synthesize_system(system,
cfg)``, ``BatchEngine(cfg)``, and every CLI subcommand (via the shared
``--job-seconds``/``--max-retries``/... flags and ``--config file.json``).
The pre-PR-4 scattered keyword arguments finished their one-release
deprecation window and were removed; :func:`as_run_config` still coerces
``None``, a bare :class:`~repro.core.SynthesisOptions`, or an
``as_dict`` payload, and :meth:`RunConfig.replace` derives tweaked
copies.

The object is a *policy*, not runtime state: it round-trips through
:meth:`RunConfig.as_dict`/:meth:`RunConfig.from_dict` so the batch
engine can ship it to pool workers unchanged.  Budgets deliberately stay
**out of the result-cache key** — a budget can only change a result by
degrading it, and degraded results are never cached (see
``docs/ROBUSTNESS.md``).

New :class:`~repro.core.SynthesisOptions` fields need no wiring here:
``as_dict`` serializes the options via :func:`dataclasses.asdict`, so a
field like ``objective`` automatically round-trips to pool workers *and*
lands in the engine's result-cache key.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field, fields
from dataclasses import replace as dc_replace
from typing import Any

from repro.core import SynthesisOptions
from repro.core.budget import Budget


@dataclass(frozen=True)
class RetryPolicy:
    """How the batch engine treats failing, crashing, or hung jobs.

    * ``max_retries`` — additional attempts after the first (0 disables
      retrying).
    * ``backoff_seconds`` / ``backoff_factor`` — exponential backoff:
      attempt ``n`` waits ``backoff_seconds * backoff_factor**n``.
    * ``jitter`` — fraction of the backoff added as *deterministic*
      jitter derived from the job label (reproducible batches stay
      reproducible; see :meth:`delay`).
    * ``job_timeout_seconds`` — hard wall-clock ceiling per pooled job;
      on expiry the worker is killed, the pool respawned, and the job
      rerun in-process down the degraded path.  ``None`` disables hard
      timeouts (cooperative budgets still apply).
    * ``breaker_threshold`` — consecutive failures of the *same* job
      label before the circuit opens and the engine stops offering that
      job to the pool, routing it straight to the serial degraded path.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    job_timeout_seconds: float | None = None
    breaker_threshold: int = 3

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based), with jitter.

        The jitter term is a hash of ``(key, attempt)`` — deterministic
        for a given job, decorrelated across jobs, so retries of many
        failed jobs do not stampede the pool in lockstep while batch
        wall times stay reproducible.
        """
        base = self.backoff_seconds * self.backoff_factor ** max(attempt - 1, 0)
        spread = zlib.crc32(f"{key}:{attempt}".encode()) % 1000 / 1000.0
        return base * (1.0 + self.jitter * spread)

    def as_dict(self) -> dict[str, Any]:
        return {"kind": "retry-policy", **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RetryPolicy":
        if data.get("kind") != "retry-policy":
            raise ValueError(f"not a retry-policy payload: {data.get('kind')!r}")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True)
class RunConfig:
    """Everything one synthesis run (or batch) is allowed to do.

    Composition of the existing :class:`~repro.core.SynthesisOptions`
    (what the flow computes), a :class:`~repro.core.Budget` (how much it
    may spend), a :class:`RetryPolicy` (how the engine handles failures),
    and the engine placement knobs that used to be ``BatchEngine``
    keyword arguments.
    """

    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    budget: Budget | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    workers: int = 1
    cache_size: int = 256
    cache_dir: str | None = None

    def replace(self, **overrides: Any) -> "RunConfig":
        """A copy with the given fields swapped out (the config is frozen).

        >>> RunConfig(workers=4).replace(cache_size=64).workers
        4
        """
        names = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - names)
        if unknown:
            raise TypeError(f"RunConfig has no field(s) {unknown}")
        return dc_replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe representation (the worker-payload round-trip unit)."""
        return {
            "kind": "run-config",
            "options": asdict(self.options),
            "budget": self.budget.as_dict() if self.budget else None,
            "retry": self.retry.as_dict(),
            "workers": self.workers,
            "cache_size": self.cache_size,
            "cache_dir": str(self.cache_dir) if self.cache_dir is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        if data.get("kind") != "run-config":
            raise ValueError(f"not a run-config payload: {data.get('kind')!r}")
        return cls(
            options=SynthesisOptions(**(data.get("options") or {})),
            budget=(
                Budget.from_dict(data["budget"]) if data.get("budget") else None
            ),
            retry=(
                RetryPolicy.from_dict(data["retry"])
                if data.get("retry")
                else RetryPolicy()
            ),
            workers=int(data.get("workers", 1)),
            cache_size=int(data.get("cache_size", 256)),
            cache_dir=data.get("cache_dir"),
        )


def as_run_config(value: "RunConfig | SynthesisOptions | None") -> RunConfig:
    """Coerce the accepted legacy types into a :class:`RunConfig`.

    ``None`` means all defaults; a bare :class:`SynthesisOptions` is
    wrapped (this is the one-release compatibility path for every caller
    that used to pass ``options=``).  Anything else is a type error —
    better loud than a silently ignored config.
    """
    if value is None:
        return RunConfig()
    if isinstance(value, RunConfig):
        return value
    if isinstance(value, SynthesisOptions):
        return RunConfig(options=value)
    if isinstance(value, dict):
        return RunConfig.from_dict(value)
    raise TypeError(
        f"expected RunConfig, SynthesisOptions, or None, got {type(value).__name__}"
    )
