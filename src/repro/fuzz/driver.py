"""The differential driver: N implementations, one exact oracle.

Every registered synthesis method (:mod:`repro.baselines.registry`) plus
the integrated flow under several :class:`~repro.core.SynthesisOptions`
strategies computes the *same function* by construction — so running
them all over one generated system and comparing each result against the
specification through the exact canonical-form oracle
(:func:`repro.verify.check_decompositions`) is a free Csmith-style
differential test.  On top of functional equivalence the driver
cross-checks the cost model's monotonicity claim: an area-optimizing
flow must never produce *more* estimated area than the direct
sum-of-products it starts from.

Findings come in four kinds:

* ``differential`` — a method's decomposition computes a different
  function than the specification (witness attached);
* ``crash`` — a method raised something other than the typed
  :class:`repro.errors.Unsupported` skip;
* ``cost`` — the area-objective flow lost to the direct implementation
  it is supposed to dominate;
* ``witness-error`` — the oracle itself failed to produce a witness for
  a claimed inequivalence (a bug in the oracle, the worst kind).

The driver is deterministic end to end: same seed, same case stream,
same findings, same summary digest.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.baselines import available_methods, get_method
from repro.config import RunConfig
from repro.core import SynthesisOptions, synthesize
from repro.cost import estimate_decomposition
from repro.errors import Unsupported
from repro.expr import Decomposition, expr_from_polynomial
from repro.expr.ast import Add, Const
from repro.obs import current_tracer, get_registry
from repro.system import PolySystem
from repro.testing.faults import fault_flagged
from repro.verify import EquivalenceReport, check_decompositions

from .generator import FuzzCase, generate_case

#: Relative slack for the area-monotonicity check — the estimate is a
#: float sum, so demand a real regression, not rounding noise.
_COST_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Strategy:
    """One named SynthesisOptions configuration of the integrated flow."""

    label: str
    options: SynthesisOptions


#: The strategy matrix ``proposed`` runs under.  ``area`` is the shipped
#: default; ``ops`` flips the objective; the ablations force the flow
#: down its alternate code paths.
DEFAULT_STRATEGIES: tuple[Strategy, ...] = (
    Strategy("area", SynthesisOptions()),
    Strategy("ops", SynthesisOptions(objective="ops")),
    Strategy("no-division", SynthesisOptions(enable_division=False, objective="ops")),
    Strategy("no-canonical", SynthesisOptions(enable_canonical=False, objective="ops")),
)


@dataclass(frozen=True)
class FuzzConfig:
    """Everything one fuzz sweep is allowed to do (budget-aware)."""

    seed: int = 0
    iterations: int = 100
    time_budget: float | None = None   # wall seconds for the whole sweep
    methods: tuple[str, ...] | None = None  # None = every registered method
    strategies: tuple[Strategy, ...] = DEFAULT_STRATEGIES
    shapes: tuple[str, ...] | None = None
    check_cost: bool = True
    shrink: bool = False
    corpus_dir: str | None = None
    max_shrink_evaluations: int = 300
    run_config: RunConfig | None = None  # budget/options carrier for the flow


@dataclass(frozen=True)
class Finding:
    """One verified problem with one method on one case."""

    kind: str        # "differential" | "crash" | "cost" | "witness-error"
    case_id: str
    shape: str
    seed: int
    index: int
    method: str
    detail: str
    counterexample: dict[str, int] | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "case_id": self.case_id,
            "shape": self.shape,
            "seed": self.seed,
            "index": self.index,
            "method": self.method,
            "detail": self.detail,
            "counterexample": self.counterexample,
        }

    def __str__(self) -> str:
        witness = f", witness {self.counterexample}" if self.counterexample else ""
        return (
            f"[{self.kind}] {self.method} on case {self.case_id} "
            f"({self.shape}, seed {self.seed}#{self.index}): {self.detail}{witness}"
        )


@dataclass
class CaseResult:
    """Everything the driver learned about one case."""

    case: FuzzCase
    findings: list[Finding] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # Unsupported methods
    methods_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class FuzzReport:
    """One sweep's outcome; :meth:`summary` is deterministic per seed."""

    seed: int
    cases: int = 0
    methods_run: int = 0
    skips: int = 0
    findings: list[Finding] = field(default_factory=list)
    case_ids: list[str] = field(default_factory=list)
    truncated: bool = False        # stopped early on the time budget
    shrunk: dict[str, str] = field(default_factory=dict)  # case_id -> path
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def digest(self) -> str:
        """Hash of the case-id stream — the determinism fingerprint."""
        return hashlib.sha256(":".join(self.case_ids).encode()).hexdigest()[:16]

    def summary(self) -> str:
        """Deterministic text summary (no wall-clock numbers)."""
        lines = [
            f"fuzz: seed {self.seed}, {self.cases} case(s), "
            f"{self.methods_run} method run(s), {self.skips} skip(s), "
            f"{len(self.findings)} finding(s), digest {self.digest}"
        ]
        if self.truncated:
            lines.append(
                "fuzz: time budget hit — sweep truncated before the "
                "requested iteration count"
            )
        for finding in self.findings:
            lines.append(f"  {finding}")
        for case_id, path in sorted(self.shrunk.items()):
            lines.append(f"  reproducer {case_id} -> {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Running the methods
# ----------------------------------------------------------------------

def specification(system: PolySystem) -> Decomposition:
    """The system itself as a trivial decomposition (the oracle's anchor)."""
    spec = Decomposition(method="spec")
    spec.outputs = [expr_from_polynomial(p) for p in system.polys]
    return spec


def _miscompiled(decomposition: Decomposition) -> Decomposition:
    """Deliberately corrupt a decomposition (off-by-one on output 0)."""
    corrupted = Decomposition(method=decomposition.method + "+miscompile")
    corrupted.blocks = dict(decomposition.blocks)
    corrupted.outputs = list(decomposition.outputs)
    corrupted.outputs[0] = Add((corrupted.outputs[0], Const(1)))
    return corrupted


def method_labels(config: FuzzConfig) -> tuple[str, ...]:
    """The differential lineup: baselines plus per-strategy flow runs."""
    methods = config.methods if config.methods is not None else available_methods()
    labels: list[str] = []
    for method in methods:
        if method == "proposed":
            labels.extend(f"proposed[{s.label}]" for s in config.strategies)
        else:
            labels.append(method)
    return tuple(labels)


def run_method(label: str, system: PolySystem,
               config: FuzzConfig) -> Decomposition:
    """Execute one lineup entry; honours ``miscompile`` fault injection."""
    if label.startswith("proposed[") and label.endswith("]"):
        strategy_label = label[len("proposed["):-1]
        strategy = next(
            s for s in config.strategies if s.label == strategy_label
        )
        budget = config.run_config.budget if config.run_config else None
        result = synthesize(
            list(system.polys), system.signature, strategy.options, budget=budget
        )
        decomposition = result.decomposition
    else:
        decomposition = get_method(label)(system, None)
    if fault_flagged(f"fuzz:{label}"):
        decomposition = _miscompiled(decomposition)
    return decomposition


# ----------------------------------------------------------------------
# Checking one case
# ----------------------------------------------------------------------

def check_case(case: FuzzCase, config: FuzzConfig) -> CaseResult:
    """Run the whole lineup on one case and verify every result."""
    system = case.system
    result = CaseResult(case=case)
    spec = specification(system)
    direct_area: float | None = None
    seed = case.seed

    for label in method_labels(config):
        try:
            decomposition = run_method(label, system, config)
        except Unsupported as exc:
            result.skipped.append(f"{label}: {exc.reason}")
            continue
        except Exception as exc:  # noqa: BLE001 - a crash IS the finding
            result.findings.append(Finding(
                kind="crash", case_id=case.case_id, shape=case.shape,
                seed=seed, index=case.index, method=label,
                detail=f"{type(exc).__name__}: {exc}",
            ))
            continue
        result.methods_run += 1

        try:
            report: EquivalenceReport = check_decompositions(
                decomposition, spec, system.signature, seed=seed
            )
        except Exception as exc:  # noqa: BLE001 - oracle failure is a finding
            result.findings.append(Finding(
                kind="witness-error", case_id=case.case_id, shape=case.shape,
                seed=seed, index=case.index, method=label,
                detail=f"oracle failed: {type(exc).__name__}: {exc}",
            ))
            continue
        if not report:
            result.findings.append(Finding(
                kind="differential", case_id=case.case_id, shape=case.shape,
                seed=seed, index=case.index, method=label,
                detail=f"decomposition differs from spec at "
                       f"output {report.failing_output}",
                counterexample=(
                    dict(report.counterexample) if report.counterexample else None
                ),
            ))
            continue

        if config.check_cost:
            area = estimate_decomposition(decomposition, system.signature).area
            if label == "direct":
                direct_area = area
            elif label == "proposed[area]" and direct_area is not None:
                if area > direct_area * (1.0 + _COST_TOLERANCE):
                    result.findings.append(Finding(
                        kind="cost", case_id=case.case_id, shape=case.shape,
                        seed=seed, index=case.index, method=label,
                        detail=f"area-objective flow produced MORE area than "
                               f"direct ({area:.1f} > {direct_area:.1f})",
                    ))
    return result


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------

def run_fuzz(
    config: FuzzConfig,
    on_case: Callable[[CaseResult], None] | None = None,
) -> FuzzReport:
    """Run a whole deterministic sweep, shrinking and archiving failures.

    Respects ``config.time_budget`` (wall seconds): the sweep stops
    *between* cases when the budget is exhausted and marks the report
    ``truncated`` — never silently, the summary says what was dropped.
    """
    registry = get_registry()
    tracer = current_tracer()
    report = FuzzReport(seed=config.seed)
    start = time.monotonic()
    with tracer.span("fuzz", seed=config.seed, iterations=config.iterations):
        for index in range(config.iterations):
            if (
                config.time_budget is not None
                and time.monotonic() - start >= config.time_budget
            ):
                report.truncated = True
                break
            case = generate_case(config.seed, index, config.shapes)
            result = check_case(case, config)
            report.cases += 1
            report.case_ids.append(case.case_id)
            report.methods_run += result.methods_run
            report.skips += len(result.skipped)
            registry.counter("repro_fuzz_cases", shape=case.shape).inc()
            if result.findings:
                registry.counter("repro_fuzz_failures", shape=case.shape).inc(
                    len(result.findings)
                )
                report.findings.extend(result.findings)
                self_path = _archive_failure(case, result, config)
                if self_path is not None:
                    report.shrunk[case.case_id] = self_path
            if on_case is not None:
                on_case(result)
    report.elapsed = time.monotonic() - start
    return report


def _archive_failure(case: FuzzCase, result: CaseResult,
                     config: FuzzConfig) -> str | None:
    """Shrink a failing case (if asked) and write a corpus reproducer."""
    if config.corpus_dir is None:
        return None
    from .corpus import write_corpus_entry
    from .shrink import shrink_system

    shrunk = None
    if config.shrink:
        failing = {(f.method, f.kind) for f in result.findings}

        def still_fails(candidate: PolySystem) -> bool:
            probe = FuzzCase(
                system=candidate, shape=case.shape,
                seed=case.seed, index=case.index,
            )
            quick = replace(config, shrink=False, corpus_dir=None)
            found = {
                (f.method, f.kind) for f in check_case(probe, quick).findings
            }
            return bool(found & failing)

        shrunk = shrink_system(
            case.system, still_fails,
            max_evaluations=config.max_shrink_evaluations,
        ).system

    path = write_corpus_entry(config.corpus_dir, case, result.findings, shrunk)
    return str(path)
