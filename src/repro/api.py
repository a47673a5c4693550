"""One-call convenience API — the canonical facade of the package.

>>> from repro import synthesize_system, compare_methods
>>> from repro.suite import table_14_1_system
>>> result = synthesize_system(table_14_1_system())
>>> print(result.op_count)
8 MULT, 1 ADD

This module *is* the supported API: everything a caller needs — the
one-shot helpers below, :class:`~repro.config.RunConfig`,
:class:`~repro.engine.BatchEngine` / :class:`~repro.engine.BatchReport`,
:class:`~repro.obs.Tracer`, the parsers, and the system/signature types
— is importable from here, and the top-level :mod:`repro` package simply
re-exports this surface.  Deeper modules remain importable but are
implementation surface, not the supported API; ``__all__`` here is the
compatibility contract.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.baselines import available_methods, get_method, register_method
from repro.config import RetryPolicy, RunConfig, as_run_config
from repro.core import (
    Budget,
    Degradation,
    Provenance,
    SynthesisOptions,
    SynthesisResult,
    Timings,
    clear_synthesis_caches,
    explain_text,
    synthesis_cache_sizes,
    synthesize,
)
from repro.dag import (
    ExpressionDAG,
    intern,
    lower_to_blocks,
    shared_subexpressions,
)
from repro.cost import (
    DEFAULT_MODEL,
    HardwareReport,
    TechnologyModel,
    estimate_decomposition,
)
from repro.engine import BatchEngine, BatchJob, BatchReport, JobResult
from repro.expr import Decomposition, OpCount
from repro.obs import ProgressRenderer, Tracer
from repro.poly import Polynomial, parse_polynomial, parse_system
from repro.rings import BitVectorSignature
from repro.service import (
    JobStore,
    ServiceConfig,
    SynthesisService,
    TenantPolicy,
)
from repro.system import PolySystem

__all__ = [
    "BatchEngine",
    "BatchJob",
    "BatchReport",
    "BitVectorSignature",
    "Budget",
    "DEFAULT_METHODS",
    "Decomposition",
    "Degradation",
    "ExpressionDAG",
    "JobResult",
    "JobStore",
    "MethodOutcome",
    "OpCount",
    "PolySystem",
    "Polynomial",
    "ProgressRenderer",
    "Provenance",
    "RetryPolicy",
    "RunConfig",
    "ServiceConfig",
    "SynthesisOptions",
    "SynthesisResult",
    "SynthesisService",
    "TenantPolicy",
    "Timings",
    "Tracer",
    "TradeoffPoint",
    "available_methods",
    "clear_caches",
    "compare_methods",
    "explain_text",
    "explore_tradeoffs",
    "improvement",
    "intern",
    "lower_to_blocks",
    "method_outcome",
    "parse_polynomial",
    "parse_system",
    "register_method",
    "shared_subexpressions",
    "synthesize",
    "synthesize_system",
]


def clear_caches() -> dict[str, int]:
    """Clear every process-level synthesis cache; return pre-clear sizes.

    One call covers the best-expression memo, the CSE kernel cache, the
    factorization memo, the default expression-DAG interner, the
    packed-monomial context pool, and the rings-layer number-theory
    memos (the stores
    :func:`~repro.core.synthesis_cache_sizes` reports).  Exposed on the
    CLI as ``repro cache --clear``.
    """
    sizes = synthesis_cache_sizes()
    clear_synthesis_caches()
    return sizes


@dataclass(frozen=True)
class MethodOutcome:
    """One method's decomposition, operator count, and hardware estimate."""

    method: str
    decomposition: Decomposition
    op_count: OpCount
    hardware: HardwareReport


#: Methods compare_methods runs when the caller does not ask for a subset.
DEFAULT_METHODS: tuple[str, ...] = ("direct", "horner", "factor+cse", "proposed")


def synthesize_system(
    system: PolySystem,
    config: RunConfig | SynthesisOptions | None = None,
) -> SynthesisResult:
    """Run the paper's integrated flow (Algorithm 7) on a PolySystem.

    ``config`` is a :class:`~repro.config.RunConfig` — options plus an
    optional :class:`~repro.core.Budget`; a bare
    :class:`~repro.core.SynthesisOptions` is accepted positionally and
    wrapped.  The deprecated ``options=`` keyword completed its
    one-release cycle and was removed; passing it is a ``TypeError``.
    """
    cfg = as_run_config(config)
    return synthesize(
        list(system.polys), system.signature, cfg.options, budget=cfg.budget
    )


def method_outcome(
    method: str,
    decomposition: Decomposition,
    system: PolySystem,
    model: TechnologyModel = DEFAULT_MODEL,
) -> MethodOutcome:
    """Price one method's decomposition (ops + hardware estimate)."""
    return MethodOutcome(
        method=method,
        decomposition=decomposition,
        op_count=decomposition.op_count(),
        hardware=estimate_decomposition(decomposition, system.signature, model),
    )


def compare_methods(
    system: PolySystem,
    options: RunConfig | SynthesisOptions | None = None,
    model: TechnologyModel = DEFAULT_MODEL,
    methods: tuple[str, ...] = DEFAULT_METHODS,
) -> dict[str, MethodOutcome]:
    """Synthesize a system with every method and price the results.

    Methods are resolved through :mod:`repro.baselines.registry`, so
    anything registered with
    :func:`~repro.baselines.registry.register_method` can be named here.
    Unknown names emit a :class:`DeprecationWarning` and are skipped (the
    historical behaviour was to skip silently).  ``options`` also accepts
    a :class:`~repro.config.RunConfig`; each method then runs under its
    synthesis options.

    This drives the Table 14.1 and Table 14.3 reproductions: operator
    counts for the former, area/delay for the latter.
    """
    synth_options = as_run_config(options).options
    outcomes: dict[str, MethodOutcome] = {}
    for method in methods:
        try:
            fn = get_method(method)
        except KeyError:
            warnings.warn(
                f"compare_methods: unknown method {method!r} skipped; "
                f"registered methods: {', '.join(available_methods())}",
                DeprecationWarning,
                stacklevel=2,
            )
            continue
        outcomes[method] = method_outcome(
            method, fn(system, synth_options), system, model
        )
    return outcomes


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the area-delay exploration."""

    label: str
    area: float
    delay: float
    op_count: OpCount


def explore_tradeoffs(
    system: PolySystem,
    model: TechnologyModel = DEFAULT_MODEL,
) -> list[TradeoffPoint]:
    """Sweep the flow's area/delay knobs (the paper's central trade-off).

    Points produced:

    * ``baseline`` — factorization+CSE, chained lowering,
    * ``proposed/area`` — the integrated flow under the area objective,
    * ``proposed/ops`` — the integrated flow under the paper's op-count
      objective,
    * ``proposed/area+balanced`` — area objective with tree-height-reduced
      (delay-oriented) lowering of the winning decomposition.

    The points expose the knob the paper's Table 14.3 turns implicitly:
    buying area with delay and vice versa.
    """
    from repro.cost import estimate_graph
    from repro.dfg import build_dfg

    points: list[TradeoffPoint] = []

    def add(label: str, decomposition: Decomposition, balanced: bool = False) -> None:
        graph = build_dfg(decomposition, system.signature, balanced=balanced)
        report = estimate_graph(graph, model)
        points.append(
            TradeoffPoint(label, report.area, report.delay, decomposition.op_count())
        )

    baseline = get_method("factor+cse")(system, None)
    add("baseline", baseline)

    area_result = synthesize(list(system.polys), system.signature)
    add("proposed/area", area_result.decomposition)
    add("proposed/area+balanced", area_result.decomposition, balanced=True)

    ops_result = synthesize(
        list(system.polys), system.signature, SynthesisOptions(objective="ops")
    )
    add("proposed/ops", ops_result.decomposition)
    return points


def improvement(before: float, after: float) -> float:
    """Percentage improvement, the paper's Table 14.3 convention.

    Positive = the proposed method is better (smaller); negative = worse.
    """
    if before == 0:
        return 0.0
    return (before - after) / before * 100.0
