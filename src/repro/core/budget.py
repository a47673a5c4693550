"""Resource budgets and cooperative deadlines for the synthesis flow.

The flow's worst cases are combinatorial: canonicalization over ``Z_2^m``
is exponential in the number of inputs (Section 14.3.1's falling-factorial
rewrite), the kernel-intersection CSE is quadratic in kernel count, and
the combination search multiplies representation-list sizes.  A single
pathological job must not hang a caller (or a batch-engine pool worker)
forever, so every hot loop checks an ambient :class:`Deadline`
cooperatively and raises :class:`BudgetExceeded` when its
:class:`Budget` runs out.

Design mirrors :mod:`repro.obs.tracer`:

* **Near-zero overhead when off.**  The ambient deadline defaults to
  :data:`NULL_DEADLINE`, whose :meth:`~NullDeadline.tick` is an empty
  method.  Per-call checkpoints tick it directly; amortized hot loops
  take a :class:`Meter` from :meth:`Deadline.meter` once per function,
  call :meth:`Meter.step` per iteration and :meth:`Meter.flush` at the
  end.  The meter batches steps into ticks of :data:`CHECK_STRIDE`;
  with no budget installed it is the shared no-op :data:`NULL_METER`.
* **Ambient, not threaded.**  A ``ContextVar`` carries the active
  deadline (:func:`current_deadline` / :func:`use_deadline`), so the
  deep call chains (``synthesize`` > ``cse/extract`` > kernel loops)
  need no signature changes.
* **Cooperative, not preemptive.**  A tick is an integer decrement; the
  wall clock is consulted every :data:`CHECK_STRIDE` ticks.  Preemption
  of truly hung code is the batch engine's job (hard per-job pool
  timeouts; see ``docs/ROBUSTNESS.md``).

:class:`Budget` is the *policy* (immutable, serializable, part of
:class:`~repro.config.RunConfig`); :class:`Deadline` is the *runtime
state* of one job enforcing it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

#: How many :meth:`Deadline.tick` calls go by between wall-clock checks.
CHECK_STRIDE = 64


class BudgetExceeded(RuntimeError):
    """A cooperative budget check failed.

    Carries where it fired (``site``) and which limit tripped
    (``limit``: ``"job"``, ``"phase"``, or ``"steps"``) so degradation
    records stay diagnosable.
    """

    def __init__(self, message: str, *, site: str = "", limit: str = "job") -> None:
        super().__init__(message)
        self.site = site
        self.limit = limit


@dataclass(frozen=True)
class Budget:
    """Resource limits for one synthesis job (all ``None`` = unlimited).

    * ``job_seconds`` — wall-clock ceiling for the whole job,
    * ``phase_seconds`` — wall-clock ceiling for each flow phase,
    * ``max_steps`` — a deterministic step-count fuse: every cooperative
      checkpoint consumes steps, so tests (and reproducible degradation)
      do not depend on machine speed.
    """

    job_seconds: float | None = None
    phase_seconds: float | None = None
    max_steps: int | None = None

    @property
    def unlimited(self) -> bool:
        return (
            self.job_seconds is None
            and self.phase_seconds is None
            and self.max_steps is None
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "budget",
            "job_seconds": self.job_seconds,
            "phase_seconds": self.phase_seconds,
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Budget":
        if data.get("kind") != "budget":
            raise ValueError(f"not a budget payload: {data.get('kind')!r}")
        return cls(
            job_seconds=(
                None if data.get("job_seconds") is None else float(data["job_seconds"])
            ),
            phase_seconds=(
                None
                if data.get("phase_seconds") is None
                else float(data["phase_seconds"])
            ),
            max_steps=(
                None if data.get("max_steps") is None else int(data["max_steps"])
            ),
        )


@dataclass(frozen=True)
class Degradation:
    """One recorded budget overrun and what the flow did about it."""

    phase: str   # which phase (or "job" / "pool") hit the limit
    action: str  # "skipped" | "partial" | "fallback:<method>" | "degraded-rerun"
    reason: str  # human-readable cause, e.g. "phase budget 0.5s exceeded"

    def as_dict(self) -> dict[str, Any]:
        return {"phase": self.phase, "action": self.action, "reason": self.reason}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Degradation":
        return cls(
            phase=str(data["phase"]),
            action=str(data["action"]),
            reason=str(data["reason"]),
        )

    def __str__(self) -> str:
        return f"{self.phase}: {self.action} ({self.reason})"


class Meter:
    """Amortized ticks of one hot loop: one :meth:`Deadline.tick` per stride.

    :meth:`step` accumulates steps and ticks them in one batch once
    :data:`CHECK_STRIDE` are pending; :meth:`flush` ticks the remainder
    at loop end.  Batching does not change the accounting: the deadline's
    stride countdown is denominated in steps, not calls.  A ``site``
    passed to :meth:`step` renames the meter, so a batch is charged to
    the site of the step that completed it.
    """

    __slots__ = ("_deadline", "site", "_pending")

    def __init__(self, deadline: Deadline, site: str) -> None:
        self._deadline = deadline
        self.site = site
        self._pending = 0

    def step(self, n: int = 1, site: str | None = None) -> None:
        if site is not None:
            self.site = site
        self._pending += n
        if self._pending >= CHECK_STRIDE:
            self._deadline.tick(self._pending, site=self.site)
            self._pending = 0

    def flush(self) -> None:
        """Tick the steps not yet ticked."""
        if self._pending:
            self._deadline.tick(self._pending, site=self.site)
            self._pending = 0


class _NullMeter:
    """The meter of the disabled deadline: every operation is a no-op."""

    __slots__ = ()

    def step(self, n: int = 1, site: str | None = None) -> None:
        pass

    def flush(self) -> None:
        pass


NULL_METER = _NullMeter()


class NullDeadline:
    """The disabled deadline: every operation is a cheap no-op."""

    __slots__ = ()
    enabled = False
    steps = 0

    def tick(self, n: int = 1, site: str = "") -> None:
        pass

    def meter(self, site: str = "") -> _NullMeter:
        return NULL_METER

    def check(self, site: str = "") -> None:
        pass

    def expired(self) -> bool:
        return False

    def remaining(self) -> float | None:
        return None

    def start_phase(self, name: str) -> None:
        pass

    def end_phase(self) -> None:
        pass

    def disarm(self) -> None:
        pass


NULL_DEADLINE = NullDeadline()


class Deadline:
    """Runtime enforcement of one job's :class:`Budget`.

    Created when a job starts; installed as the ambient deadline with
    :func:`use_deadline`.  Checkpoints call :meth:`tick`, amortized hot
    loops step a :meth:`meter`; phase boundaries call
    :meth:`start_phase`/:meth:`end_phase` (done by the flow's ``_phase``
    machinery).
    """

    __slots__ = (
        "budget",
        "steps",
        "_job_deadline",
        "_phase_deadline",
        "_phase_name",
        "_countdown",
        "_armed",
    )

    enabled = True

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.steps = 0
        now = time.perf_counter()
        self._job_deadline = (
            None if budget.job_seconds is None else now + budget.job_seconds
        )
        self._phase_deadline: float | None = None
        self._phase_name = ""
        self._countdown = CHECK_STRIDE
        self._armed = True

    # -- phase boundaries -------------------------------------------------

    def start_phase(self, name: str) -> None:
        self._phase_name = name
        if self._armed and self.budget.phase_seconds is not None:
            self._phase_deadline = time.perf_counter() + self.budget.phase_seconds

    def end_phase(self) -> None:
        self._phase_name = ""
        self._phase_deadline = None

    # -- cooperative checks ----------------------------------------------

    def tick(self, n: int = 1, site: str = "") -> None:
        """Consume ``n`` steps; check the wall clock every few steps.

        Batching is allowed: calling ``tick(64)`` once consumes the same
        steps — and consults the wall clock on the same cadence — as 64
        ``tick()`` calls, because the stride countdown is denominated in
        steps, not calls.  :class:`Meter` relies on this.
        """
        if not self._armed:
            return
        self.steps += n
        max_steps = self.budget.max_steps
        if max_steps is not None and self.steps > max_steps:
            raise BudgetExceeded(
                f"step budget {max_steps} exceeded"
                + (f" at {site}" if site else ""),
                site=site,
                limit="steps",
            )
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = CHECK_STRIDE
            self.check(site)

    def meter(self, site: str = "") -> Meter:
        """A :class:`Meter` that batches one loop's steps into ticks."""
        return Meter(self, site)

    def check(self, site: str = "") -> None:
        """Raise :class:`BudgetExceeded` if any wall-clock limit passed."""
        if not self._armed:
            return
        now = time.perf_counter()
        if self._phase_deadline is not None and now > self._phase_deadline:
            raise BudgetExceeded(
                f"phase budget {self.budget.phase_seconds}s exceeded in "
                f"{self._phase_name or 'unknown phase'}"
                + (f" at {site}" if site else ""),
                site=site,
                limit="phase",
            )
        if self._job_deadline is not None and now > self._job_deadline:
            raise BudgetExceeded(
                f"job budget {self.budget.job_seconds}s exceeded"
                + (f" at {site}" if site else ""),
                site=site,
                limit="job",
            )

    def expired(self) -> bool:
        """Has a wall-clock or step limit already passed? (Never raises.)"""
        if not self._armed:
            return False
        try:
            self.check()
        except BudgetExceeded:
            return True
        max_steps = self.budget.max_steps
        return max_steps is not None and self.steps > max_steps

    def disarm(self) -> None:
        """Stop enforcing limits for the rest of the job.

        Called once the flow has committed to wrapping up with a partial
        result: retrieving the cached best combination and validating it
        are mandatory, bounded work that must not be interrupted again.
        """
        self._armed = False
        self._phase_deadline = None

    def remaining(self) -> float | None:
        """Seconds until the tightest wall-clock limit (None = unlimited)."""
        now = time.perf_counter()
        candidates = [
            d - now
            for d in (self._job_deadline, self._phase_deadline)
            if d is not None
        ]
        return min(candidates) if candidates else None


# ----------------------------------------------------------------------
# The ambient deadline
# ----------------------------------------------------------------------

_current: ContextVar["Deadline | NullDeadline"] = ContextVar(
    "repro_deadline", default=NULL_DEADLINE
)


def current_deadline() -> "Deadline | NullDeadline":
    """The ambient deadline (the no-op deadline unless one was installed)."""
    return _current.get()


@contextmanager
def use_deadline(deadline: "Deadline | NullDeadline") -> Iterator["Deadline | NullDeadline"]:
    """Temporarily install ``deadline`` as the ambient deadline.

    >>> from repro.core.budget import Budget, Deadline, use_deadline
    >>> with use_deadline(Deadline(Budget(max_steps=10_000))):
    ...     pass  # cooperative checks in here consume the budget
    """
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


def deadline_for(budget: "Budget | None") -> "Deadline | NullDeadline":
    """A :class:`Deadline` for ``budget``, or the no-op when unlimited."""
    if budget is None or budget.unlimited:
        return NULL_DEADLINE
    return Deadline(budget)
