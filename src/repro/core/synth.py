"""Poly_Synth — the integrated synthesis flow (paper Algorithm 7).

The phases, mirroring the paper:

1. **Initial representations** — original, fully factored (square-free and
   deeper), and canonical falling-factorial variants per polynomial
   (Fig. 14.1a).
2. **CCE** (Algorithm 6) on every representation; extracted groups become
   building blocks.
3. **Cube_Ex** — linear kernels of every representation and block
   definition join the divisor pool.
4. **Block refinement** — non-linear block definitions are factored
   (``x^2+2xy+y^2 -> d1^2``) and divided through other blocks.
5. **Algebraic division** — every polynomial is divided by every linear
   block; quotient chains become candidate representations (Fig. 14.1b).
6. **Combination search** — pick one representation per polynomial
   (exhaustively when the product of list sizes is small, by coordinate
   descent otherwise), scoring each combination on a shared expression
   DAG of the chosen polynomials *plus all live block definitions*; a
   shortlist of finalists then runs the final CSE and is priced under
   the objective (Fig. 14.1c).

Each phase is one function below, and :func:`_synthesize_flow` calls
them in this order.

The winner is returned as a validated
:class:`~repro.expr.decomposition.Decomposition`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterator

from repro.cse import eliminate_common_subexpressions
from repro.dag import ExpressionDAG
from repro.obs import current_tracer, get_registry, observe_timings
from repro.expr import (
    Decomposition,
    OpCount,
    expr_from_polynomial,
    expr_op_count,
    sop_op_count,
)
from repro.expr.ast import Add, BlockRef, Expr, Mul, Pow, Var
from repro.factor import horner_greedy
from repro.poly import Polynomial
from repro.rings import BitVectorSignature, functions_equal
from repro.testing.faults import fault_point

from .algdiv import division_candidates, refine_block_definitions
from .blocks import BlockRegistry
from .budget import (
    NULL_DEADLINE,
    Budget,
    BudgetExceeded,
    Degradation,
    deadline_for,
    use_deadline,
)
from .cube_extract import cube_extraction, expose_homogeneous_factors
from .metrics import Timings
from .provenance import ChosenRepresentation, Provenance
from .representations import (
    Representation,
    cce_representation,
    dedupe_representations,
    initial_representations,
)


@dataclass(frozen=True)
class SynthesisOptions:
    """Phase toggles and search knobs (the ablation surface of DESIGN.md)."""

    enable_canonical: bool = True
    enable_factoring: bool = True
    enable_cse_exposure: bool = True
    enable_cce: bool = True
    enable_cube_extraction: bool = True
    enable_division: bool = True
    enable_final_cse: bool = True
    exhaustive_limit: int = 600
    descent_budget: int = 150  # max combinations scored during descent
    objective: str = "area"  # "area" (hardware estimate) or "ops" (weighted count)


@dataclass
class SynthesisResult:
    """Everything Algorithm 7 produced, including the Fig. 14.1 lists."""

    decomposition: Decomposition
    op_count: OpCount
    initial_op_count: OpCount
    representation_lists: list[list[Representation]]
    chosen: tuple[int, ...]
    registry: BlockRegistry
    timings: "Timings | None" = None
    degradations: list[Degradation] = field(default_factory=list)
    provenance: "Provenance | None" = None

    @property
    def degraded(self) -> bool:
        """Did any phase run out of budget (and get skipped or replaced)?"""
        return bool(self.degradations)

    def summary(self) -> str:
        lines = [
            f"initial cost: {self.initial_op_count}",
            f"final cost:   {self.op_count}",
        ]
        if self.degradations:
            lines.append("degradations:")
            lines.extend(f"  {d}" for d in self.degradations)
        lines += ["", self.decomposition.summary()]
        return "\n".join(lines)


def _retag_vars(expr: Expr, block_names: set[str]) -> Expr:
    """Replace Var nodes naming blocks with BlockRef nodes."""
    if isinstance(expr, Var):
        return BlockRef(expr.name) if expr.name in block_names else expr
    if isinstance(expr, Add):
        return Add(tuple(_retag_vars(op, block_names) for op in expr.operands))
    if isinstance(expr, Mul):
        return Mul(tuple(_retag_vars(op, block_names) for op in expr.operands))
    if isinstance(expr, Pow):
        return Pow(_retag_vars(expr.base, block_names), expr.exponent)
    return expr


#: Content-keyed memo for :func:`best_expression`.  The combination
#: search assembles each scored combination from largely identical rows
#: (block definitions repeat verbatim, output rows repeat across descent
#: trials), so the same row never pays for Horner refactoring twice.
#: Keyed by the *trimmed* (variable order, term set) identity: the
#: expression depends on the relative order of used variables (operand
#: ordering) but not on padding or term-dict order — sum-of-products
#: rendering sorts terms, and Horner splits are content-driven.
#: Expressions are immutable, making sharing safe.  Bounded by
#: wholesale clearing.
_BEST_EXPR_CACHE: dict[tuple, Expr] = {}
_BEST_EXPR_CACHE_MAX = 16384


def clear_synthesis_caches() -> None:
    """Drop all content-keyed memos of the synthesis flow.

    Tests use this to compare cold runs against memoized runs; results
    must be identical either way (the caches are keyed by mathematical
    content and hold immutable values).  Covers the factorization memo,
    the packed-monomial context intern pool, the polynomial layer's
    variable-union memo and the rings-layer ``lru_cache`` memos too, so
    a "cold" benchmark run really starts cold.
    """
    from repro.cse.kernels import clear_kernel_cache
    from repro.dag import default_dag
    from repro.factor.factorize import clear_factor_cache
    from repro.poly.packed import clear_packed_context_cache
    from repro.poly.polynomial import clear_var_union_cache
    from repro.rings.falling import clear_falling_caches
    from repro.rings.modular import clear_modular_caches

    _BEST_EXPR_CACHE.clear()
    clear_kernel_cache()
    clear_factor_cache()
    default_dag().clear()
    clear_packed_context_cache()
    clear_var_union_cache()
    clear_falling_caches()
    clear_modular_caches()


def synthesis_cache_sizes() -> dict[str, int]:
    """Current entry counts of the flow's content-keyed memo caches.

    The caches :func:`clear_synthesis_caches` drops, less the polynomial
    layer's variable-union memo, whose few dozen entries stay out of the
    benchmark's exactly gated ``caches.entries`` work counter; traced runs
    publish them as ``repro_search_<name>_size`` gauges, and
    :func:`repro.api.clear_caches` returns them as its sizes dict.
    """
    from repro.cse.kernels import kernel_cache_size
    from repro.dag import default_dag
    from repro.factor.factorize import factor_cache_size
    from repro.poly.packed import packed_context_cache_size
    from repro.rings.falling import falling_cache_size
    from repro.rings.modular import modular_cache_size

    return {
        "best_expr_cache": len(_BEST_EXPR_CACHE),
        "kernel_cache": kernel_cache_size(),
        "factor_cache": factor_cache_size(),
        "dag_interner": default_dag().size(),
        "packed_contexts": packed_context_cache_size(),
        "rings_falling": falling_cache_size(),
        "rings_modular": modular_cache_size(),
    }


def best_expression(poly: Polynomial) -> Expr:
    """The cheaper of the direct SOP and the greedy Horner form.

    The direct form is priced from the terms (:func:`sop_op_count`) and
    only built when it wins.
    """
    trimmed = poly.trim()
    key = (trimmed.vars, frozenset(trimmed.terms.items()))
    hit = _BEST_EXPR_CACHE.get(key)
    if hit is not None:
        return hit
    horner = horner_greedy(poly)
    if expr_op_count(horner).weighted() < sop_op_count(poly).weighted():
        best = horner
    else:
        best = expr_from_polynomial(poly)
    if len(_BEST_EXPR_CACHE) >= _BEST_EXPR_CACHE_MAX:
        _BEST_EXPR_CACHE.clear()
    _BEST_EXPR_CACHE[key] = best
    return best


def refactored_expression(poly: Polynomial, block_names: set[str]) -> Expr:
    """Best expression of a polynomial with block variables as BlockRefs."""
    return _retag_vars(best_expression(poly), block_names)


def _live_closure(polys: list[Polynomial], defs: dict[str, Polynomial]) -> list[str]:
    """Block names reachable from the polynomials, in definition order."""
    live: set[str] = set()
    frontier: list[str] = []
    for poly in polys:
        frontier.extend(v for v in poly.used_vars() if v in defs)
    while frontier:
        name = frontier.pop()
        if name in live:
            continue
        live.add(name)
        frontier.extend(v for v in defs[name].used_vars() if v in defs)
    return [name for name in defs if name in live]


def assemble_decomposition(
    chosen: list[Representation],
    registry: BlockRegistry,
    options: SynthesisOptions,
    method: str = "poly_synth",
) -> Decomposition:
    """Final CSE + expression refactoring for one combination.

    Pure function: neither the registry nor the representations are
    mutated, so the combination search can call it freely.
    """
    polys = Polynomial.unify_all([rep.poly for rep in chosen])
    defs = dict(registry.defs)
    live = _live_closure(polys, defs)
    rows = polys + [defs[name] for name in live]

    if options.enable_final_cse and rows:
        result = eliminate_common_subexpressions(rows, prefix="_k")
        rows = result.polys
        extra_blocks = result.blocks
    else:
        extra_blocks = {}

    n_outputs = len(polys)
    out_rows = rows[:n_outputs]
    def_rows = rows[n_outputs:]

    block_defs: dict[str, Polynomial] = {}
    for name, new_def in zip(live, def_rows):
        block_defs[name] = new_def
    for name, new_def in extra_blocks.items():
        block_defs[name] = new_def

    block_names = set(block_defs)
    decomposition = Decomposition(method=method)
    for name, def_poly in block_defs.items():
        decomposition.blocks[name] = _retag_vars(best_expression(def_poly), block_names)
    for row in out_rows:
        decomposition.outputs.append(_retag_vars(best_expression(row), block_names))
    decomposition.inline_trivial_blocks()
    return decomposition


def _score(
    chosen: list[Representation],
    registry: BlockRegistry,
    options: SynthesisOptions,
    signature: BitVectorSignature | None,
) -> tuple[float, Decomposition]:
    """Score one combination: estimated hardware area, or weighted ops.

    The area objective matches what the paper ultimately reports
    (Table 14.3); the op-count objective is the paper's fast in-flow
    estimate and remains available for ablations.
    """
    decomposition = assemble_decomposition(chosen, registry, options)
    return _score_assembled(decomposition, options, signature), decomposition


def _dag_score(
    chosen: list[Representation],
    live: list[str],
    registry: BlockRegistry,
    dag: ExpressionDAG,
) -> float:
    """Score one combination on the shared expression DAG.

    The rows are the same ones :func:`assemble_decomposition` would CSE
    — the chosen representations plus their live block closure ``live``
    (block names in definition order) — but instead of a greedy
    extraction run, the cost is a union of interned node sets: every
    distinct product node is paid exactly once (the operator count a DAG
    lowering realizes), with per-node costs memoized inside the DAG.
    Re-scoring a neighbouring combination therefore only pays for rows
    the DAG has not seen yet.
    """
    defs = registry.defs
    roots = [dag.intern(rep.poly) for rep in chosen]
    roots.extend(dag.intern(defs[name]) for name in live)
    return float(dag.combination_cost(roots))


def _score_assembled(
    decomposition: Decomposition,
    options: SynthesisOptions,
    signature: BitVectorSignature | None,
) -> float:
    """Objective value of an already-assembled decomposition."""
    ops = decomposition.op_count().weighted()
    if options.objective == "area" and signature is not None:
        from repro.cost import estimate_decomposition

        area = estimate_decomposition(decomposition, signature).area
        # Tie-break equal-area combinations with the operator surrogate.
        return area + ops * 1e-6
    return float(ops)


def _standalone_price(
    poly: Polynomial, defs: dict[str, Polynomial]
) -> tuple[int, set[str]]:
    """Weighted SOP cost of a representation *including* its block
    closure, and the closure it walked.

    A representation like ``12*_b7 + 9*_b8 + 2*_b10`` looks free until the
    blocks it references are paid for; pruning must see the whole bill
    (shared blocks are double-counted across candidates, which is fine
    for a relative ranking).
    """
    total = 0
    seen: set[str] = set()
    frontier = [poly]
    while frontier:
        current = frontier.pop()
        total += sop_op_count(current).weighted()
        for var in current.used_vars():
            if var in defs and var not in seen:
                seen.add(var)
                frontier.append(defs[var])
    return total, seen


def direct_cost(system: list[Polynomial]) -> OpCount:
    """Cost of the naive expanded implementation (the paper's C_initial base)."""
    total = OpCount()
    for poly in system:
        total = total + sop_op_count(poly)
    return total


@contextmanager
def _phase(
    timings: Timings,
    tracer,
    name: str,
    deadline=NULL_DEADLINE,
    degradations: list[Degradation] | None = None,
    skippable: bool = False,
) -> Iterator:
    """Time one phase into the Timings and the recorder's phase scope.

    The yielded clock is the :class:`~repro.core.metrics.Timings` phase
    accumulator; its counters are mirrored onto the phase's span when
    the phase closes, so the span tree and the flat timings always agree.

    The phase is also a budget boundary: the ambient deadline's per-phase
    clock restarts here, and — for ``skippable`` phases, whose work only
    *enriches* the candidate representation lists — a
    :class:`BudgetExceeded` raised by a cooperative check inside the body
    is absorbed: the overrun is recorded in ``degradations`` and the flow
    continues with whatever the phase produced so far.  Non-skippable
    phases let the exception propagate to :func:`synthesize`'s fallback
    ladder.

    A phase that degrades (skipped here, or a partial search) appends its
    :class:`Degradation` and counts ``degraded=1`` in its record.  The
    recorder's phase scope (:meth:`~repro.obs.Tracer.phase`) is told the
    degradation's action; when it closes, the span's ``degraded``
    attribute, the ``degradation`` event and ``phase_end``'s ``degraded``
    flag are all read from that one record.
    """
    with tracer.phase(name) as scope, timings.phase(name) as clock:
        deadline.start_phase(name)
        try:
            fault_point(f"phase:{name}")
            yield clock
        except BudgetExceeded as exc:
            if not skippable or degradations is None:
                raise
            degradations.append(Degradation(name, "skipped", str(exc)))
            clock.count(degraded=1)
        finally:
            deadline.end_phase()
            scope.count(**clock.counters)
            if clock.counters.get("degraded"):
                scope.degrade(next(
                    d.action for d in reversed(degradations) if d.phase == name
                ))


def synthesize(
    system: list[Polynomial],
    signature: BitVectorSignature | None = None,
    options: SynthesisOptions | None = None,
    budget: Budget | None = None,
) -> SynthesisResult:
    """Run the full integrated flow on a polynomial system.

    ``signature`` enables the canonical-form representations (without it
    only the integer-exact transformations run).  Per-phase wall times
    and counters are always collected into a fresh
    :class:`~repro.core.metrics.Timings`, exposed as ``result.timings``;
    why the winner was chosen is recorded in ``result.provenance``, whose
    search telemetry reads the ``search`` phase's counters.

    ``budget`` bounds the run (see :mod:`repro.core.budget` and
    ``docs/ROBUSTNESS.md``): when a phase exceeds its share, the flow
    *degrades gracefully* instead of raising — enrichment phases are
    skipped, the combination search settles for the best candidate scored
    so far, and in the worst case the whole flow falls back down the
    ladder ``factor+cse`` → ``horner``.  Every overrun is recorded in
    ``result.degradations``; the returned decomposition is always valid.

    When the ambient :func:`repro.obs.current_tracer` keeps spans the run
    additionally records a hierarchical span tree — ``poly_synth`` at the
    root, one child per phase, algorithm sub-steps (``cce/extract``,
    ``algdiv/divide``, ``cse/extract``, ...) below — and the timings feed
    the global metrics registry.  The flow never reads any of this back:
    traced and untraced runs produce identical results.

    The combination search scores every combination on a fresh
    :class:`~repro.dag.ExpressionDAG` (so its statistics never depend on
    what else the process interned) and lowers only a shortlist of
    finalists through the exact CSE extractor.

    The returned decomposition is validated: integer-exact outputs must
    expand to the original polynomials, canonical-form outputs must be
    functionally equal over the signature.
    """
    options = options or SynthesisOptions()
    timings = Timings()
    tracer = current_tracer()
    deadline = deadline_for(budget)
    degradations: list[Degradation] = []
    with tracer.span("poly_synth", objective=options.objective) as root:
        with use_deadline(deadline):
            if deadline.expired():
                # The deadline passed before any work started: skip the
                # flow entirely and take the cheapest valid fallback.
                degradations.append(
                    Degradation("job", "expired-at-start", "deadline already expired")
                )
                result = _degraded_result(
                    system, options, timings, tracer,
                    degradations, ladder=("horner",),
                )
            else:
                try:
                    result = _synthesize_flow(
                        system, signature, options, timings, tracer,
                        deadline, degradations,
                    )
                except BudgetExceeded as exc:
                    degradations.append(Degradation("job", "fallback", str(exc)))
                    tracer.emit("degradation", phase="job", action="fallback")
                    result = _degraded_result(
                        system, options, timings, tracer, degradations,
                    )
        root.count(degradations=len(result.degradations))
        if result.degradations:
            root.set(degraded=True)
    if tracer.tracing:
        # The search telemetry reaches the registry once, through the
        # search phase's counters; the cache gauges are process state.
        observe_timings(timings)
        registry = get_registry()
        for name, size in synthesis_cache_sizes().items():
            registry.gauge(f"repro_search_{name}_size").set(size)
    return result


def _degraded_result(
    system: list[Polynomial],
    options: SynthesisOptions,
    timings: Timings,
    tracer,
    degradations: list[Degradation],
    ladder: tuple[str, ...] = ("factor+cse", "horner"),
) -> SynthesisResult:
    """Walk the degradation ladder and return a valid, cheap decomposition.

    ``factor+cse`` (the paper's baseline — a strict subset of the
    proposed flow's search space) runs under a fresh grace deadline so a
    pathological system cannot hang the fallback either; ``horner`` (and
    the implicit ``direct`` expression inside :func:`best_expression`)
    runs unbounded — it is linear in the input and cannot blow up.
    """
    system = Polynomial.unify_all(list(system))
    if not system:
        raise ValueError("cannot synthesize an empty system")
    decomposition: Decomposition | None = None
    with _phase(timings, tracer, "degraded-fallback") as clock:
        for method in ladder:
            try:
                if method == "factor+cse":
                    from repro.baselines.factor_cse import factor_cse_decomposition

                    # A bounded second chance: generous relative to one
                    # phase, tiny relative to a hung job.
                    grace = Budget(job_seconds=_FALLBACK_GRACE_SECONDS)
                    with use_deadline(deadline_for(grace)):
                        decomposition = factor_cse_decomposition(system)
                else:
                    from repro.baselines.horner import horner_baseline

                    with use_deadline(NULL_DEADLINE):
                        decomposition = horner_baseline(system)
            except Exception as exc:  # noqa: BLE001 - walk down the ladder
                degradations.append(
                    Degradation("degraded-fallback", f"failed:{method}", str(exc))
                )
                continue
            degradations.append(
                Degradation(
                    "degraded-fallback",
                    f"fallback:{method}",
                    "budget exceeded; degraded to a baseline decomposition",
                )
            )
            clock.count(ladder_steps=ladder.index(method) + 1)
            break
    if decomposition is None:
        raise RuntimeError(
            "degradation ladder exhausted without a valid decomposition"
        )
    initial = direct_cost(system)
    lists = [[Representation(poly, "original")] for poly in system]
    provenance = Provenance(
        objective=options.objective,
        search_mode="degraded",
        search_space=1,
        search_bound=0,
        chosen=[
            ChosenRepresentation(
                polynomial=str(poly), tag="original", index=0, candidates=1
            )
            for poly in system
        ],
        blocks={
            name: str(expr) for name, expr in decomposition.blocks.items()
        },
        degradations=[str(d) for d in degradations],
    )
    return SynthesisResult(
        decomposition=decomposition,
        op_count=decomposition.op_count(),
        initial_op_count=initial,
        representation_lists=lists,
        chosen=tuple(0 for _ in system),
        registry=BlockRegistry(system[0].vars),
        timings=timings,
        degradations=degradations,
        provenance=provenance,
    )


#: Wall-clock grace the ``factor+cse`` fallback gets after the main flow
#: ran out of budget (seconds).  The baseline is orders of magnitude
#: cheaper than the full flow; if even this expires we drop to Horner.
_FALLBACK_GRACE_SECONDS = 10.0


def _synthesize_flow(
    system: list[Polynomial],
    signature: BitVectorSignature | None,
    options: SynthesisOptions,
    timings: Timings,
    tracer,
    deadline,
    degradations: list[Degradation],
) -> SynthesisResult:
    """The phases of Algorithm 7 (see :func:`synthesize` for the contract)."""
    system = Polynomial.unify_all(list(system))
    if not system:
        raise ValueError("cannot synthesize an empty system")
    registry = BlockRegistry(system[0].vars)

    def phase(name: str, skippable: bool = False):
        return _phase(timings, tracer, name, deadline, degradations, skippable)

    lists = _initial_phase(phase, system, signature, registry, options, degradations)
    if options.enable_cse_exposure:
        _cse_exposure_phase(phase, system, lists, registry)
    if options.enable_cce:
        _cce_phase(phase, lists, registry)
    _cube_extract_phase(phase, system, lists, registry, options)
    _refine_phase(phase, registry, options)
    if options.enable_division:
        _division_phase(phase, system, lists, registry)
    lists, prices = _prune_phase(phase, lists, registry)
    best_indices, decomposition, provenance = _search_phase(
        phase, system, signature, lists, prices, registry, options, deadline,
        degradations,
    )
    with phase("validate"):
        # Validation is a correctness gate, never skipped: it runs with
        # the per-phase clock restarted, so a job-budget overrun earlier
        # in the flow does not leave the winning decomposition unchecked.
        chosen = [lists[i][j] for i, j in enumerate(best_indices)]
        _validate(decomposition, system, chosen, signature)

    return SynthesisResult(
        decomposition=decomposition,
        op_count=decomposition.op_count(),
        initial_op_count=direct_cost(system),
        representation_lists=lists,
        chosen=best_indices,
        registry=registry,
        timings=timings,
        degradations=degradations,
        provenance=provenance,
    )


def _initial_phase(
    phase,
    system: list[Polynomial],
    signature: BitVectorSignature | None,
    registry: BlockRegistry,
    options: SynthesisOptions,
    degradations: list[Degradation],
) -> list[list[Representation]]:
    """Phase 1: initial representation lists (Fig. 14.1a).

    Original, square-free/factored, and canonical falling-factorial
    rewrites.  Canonicalization is the flow's combinatorial worst case
    (the falling-factorial rewrite of Section 14.3.1 is exponential in
    wide signatures); over budget it degrades per-polynomial to the
    identity representation — the original polynomial — and the flow
    carries on.
    """
    lists: list[list[Representation]] = []
    with phase("initial") as clock:
        degraded_polys = 0
        for poly in system:
            try:
                reps = initial_representations(
                    poly,
                    registry,
                    signature=signature if options.enable_canonical else None,
                    enable_canonical=options.enable_canonical,
                    enable_factoring=options.enable_factoring,
                )
            except BudgetExceeded as exc:
                reps = [Representation(poly, "original")]
                degraded_polys += 1
                if degraded_polys == 1:
                    degradations.append(
                        Degradation("initial", "identity", str(exc))
                    )
            lists.append(reps)
        clock.count(
            representations=sum(len(reps) for reps in lists),
            blocks=len(registry.defs),
            degraded_polys=degraded_polys,
        )
    return lists


def _cse_exposure_phase(
    phase,
    system: list[Polynomial],
    lists: list[list[Representation]],
    registry: BlockRegistry,
) -> None:
    """Phase 1b: CSE exposure.

    Shared multi-term sub-expressions of the *system as written* become
    registry blocks, so the later factoring / division phases can dig
    into them (e.g. a quadratic form shared by every shifted filter
    copy, which then factors into linear blocks).
    """
    with phase("cse-exposure", skippable=True) as clock:
        before_blocks = len(registry.defs)
        exposure = eliminate_common_subexpressions(system, prefix="_pre")
        mapping: dict[str, Polynomial] = {}
        for pre_name, pre_def in exposure.blocks.items():
            substituted = pre_def.subs(
                {old: repl for old, repl in mapping.items()
                 if old in pre_def.used_vars()}
            )
            try:
                reg_name, sign = registry.register(substituted)
            except ValueError:
                continue  # trivial block (constant after substitution)
            mapping[pre_name] = Polynomial.variable(reg_name).scale(sign)
        if mapping:
            for poly, reps in zip(exposure.polys, lists):
                rewritten = poly.subs(
                    {old: repl for old, repl in mapping.items()
                     if old in poly.used_vars()}
                )
                if rewritten.trim() != reps[0].poly.trim():
                    reps.append(Representation(rewritten, "cse"))
        clock.count(blocks=len(registry.defs) - before_blocks)


def _cce_phase(
    phase, lists: list[list[Representation]], registry: BlockRegistry
) -> None:
    """Phase 2: CCE (Algorithm 6) on every representation."""
    with phase("cce", skippable=True) as clock:
        cce_hits = 0
        for reps in lists:
            for rep in list(reps):
                extracted = cce_representation(rep, registry)
                if extracted is not None:
                    reps.append(extracted)
                    cce_hits += 1
        clock.count(representations=cce_hits)


def _cube_extract_phase(
    phase,
    system: list[Polynomial],
    lists: list[list[Representation]],
    registry: BlockRegistry,
    options: SynthesisOptions,
) -> None:
    """Phase 3: Cube_Ex exposes linear kernels as divisor blocks.

    The top homogeneous forms also contribute their linear factors
    (shift-invariant structure CCE's filter cannot split).
    """
    with phase("cube-extract", skippable=True) as clock:
        before_blocks = len(registry.defs)
        if options.enable_cube_extraction:
            all_reps = [rep for reps in lists for rep in reps]
            cube_extraction(
                [rep.poly for rep in all_reps],
                registry,
                [rep.modular for rep in all_reps],
            )
        if options.enable_factoring:
            expose_homogeneous_factors(list(system), registry)
        clock.count(blocks=len(registry.defs) - before_blocks)


def _refine_phase(
    phase, registry: BlockRegistry, options: SynthesisOptions
) -> None:
    """Phase 4: refine block definitions (factor + divide through blocks)."""
    with phase("refine", skippable=True) as clock:
        _factor_block_definitions(registry, options)
        clock.count(refined=refine_block_definitions(registry))


def _division_phase(
    phase,
    system: list[Polynomial],
    lists: list[list[Representation]],
    registry: BlockRegistry,
) -> None:
    """Phase 5: algebraic division candidates (Fig. 14.1b)."""
    with phase("division", skippable=True) as clock:
        division_hits = 0
        for poly, reps in zip(system, lists):
            for candidate in division_candidates(poly, registry):
                reps.append(Representation(candidate, "division"))
                division_hits += 1
            cce_reps = [r for r in reps if r.tag.startswith("cce")]
            for rep in cce_reps:
                for candidate in division_candidates(rep.poly, registry, 2):
                    reps.append(
                        Representation(
                            candidate, f"division({rep.tag})", rep.modular
                        )
                    )
                    division_hits += 1
        clock.count(representations=division_hits)


def _prune_phase(
    phase,
    lists: list[list[Representation]],
    registry: BlockRegistry,
) -> tuple[list[list[Representation]], list[list[tuple[int, set[str]]]]]:
    """Dedupe each list and keep the cheapest few (always keep original).

    After the dedupe no two members of one list have equal polynomials,
    so distinct index tuples always select distinct rows in the search.
    Returns the kept lists and, parallel to them, each kept
    representation's :func:`_standalone_price`, which the search reuses.
    """
    with phase("prune") as clock:
        before_reps = sum(len(reps) for reps in lists)
        pruned: list[list[Representation]] = []
        pruned_prices: list[list[tuple[int, set[str]]]] = []
        for reps in lists:
            reps = dedupe_representations(reps)
            prices = [_standalone_price(rep.poly, registry.defs) for rep in reps]
            ranked = sorted(range(len(reps)), key=lambda k: prices[k][0])
            keep = ranked[:_MAX_REPRESENTATIONS]
            if 0 not in keep:
                keep.append(0)
            pruned.append([reps[k] for k in keep])
            pruned_prices.append([prices[k] for k in keep])
        after_reps = sum(len(reps) for reps in pruned)
        clock.count(representations=after_reps, dropped=before_reps - after_reps)
    return pruned, pruned_prices


def _search_phase(
    phase,
    system: list[Polynomial],
    signature: BitVectorSignature | None,
    lists: list[list[Representation]],
    prices: list[list[tuple[int, set[str]]]],
    registry: BlockRegistry,
    options: SynthesisOptions,
    deadline,
    degradations: list[Degradation],
) -> tuple[tuple[int, ...], Decomposition, Provenance]:
    """Phase 6: combination search (Fig. 14.1c).

    Every combination is scored on one fresh expression DAG (cheap set
    unions over interned nodes); only a shortlist of finalists is then
    assembled through the exact CSE extractor and priced under the
    objective.  ``prices`` holds each representation's standalone weight
    and block closure, as the prune phase computed them.  Returns the
    winner's indices, its decomposition and the run's provenance record.
    """
    dag = ExpressionDAG()
    cache: dict[tuple[int, ...], float] = {}
    scored = 0
    memo_hits = 0
    pruned = 0
    search_bound = 0
    # Hot-loop discipline: hoist the flag so a recorder that keeps no
    # events costs one truth test per lookup and allocates no Event.
    tracer = current_tracer()
    emitting = tracer.emitting

    def score_indices(indices: tuple[int, ...]) -> float:
        nonlocal scored, memo_hits
        cost = cache.get(indices)
        if cost is not None:
            memo_hits += 1
            if emitting:
                tracer.emit("combo_memo_hit")
            return cost
        chosen = [lists[i][j] for i, j in enumerate(indices)]
        live: set[int] = set()
        for i, j in enumerate(indices):
            live |= closures[i][j]
        cost = _dag_score(chosen, [names[k] for k in sorted(live)], registry, dag)
        cache[indices] = cost
        scored += 1
        if emitting:
            tracer.emit("combo_scored", scored=scored, bound=search_bound, cost=cost)
        return cost

    def note_prune(surrogate: int, bound: float) -> None:
        nonlocal pruned
        pruned += 1
        if emitting:
            tracer.emit("combo_pruned", surrogate=surrogate, bound=bound)

    with phase("search") as clock:
        sizes = [len(reps) for reps in lists]
        search_space = prod(sizes)

        # Surrogate weights for the branch-and-bound prune (see
        # _PRUNE_FACTOR): the standalone weighted cost of each
        # representation, block closure included.  A combination's live
        # blocks are the union of its rows' closures, held as positions
        # in the registry so that sorting them restores definition order.
        weights = [[weight for weight, _ in row] for row in prices]
        names = list(registry.defs)
        position = {name: k for k, name in enumerate(names)}
        closures = [
            [frozenset(position[name] for name in closure) for _, closure in row]
            for row in prices
        ]
        seeds = _search_seeds(lists, weights)

        exhaustive = search_space <= options.exhaustive_limit
        search_mode = "exhaustive" if exhaustive else "descent"
        search_bound = (
            search_space if exhaustive else len(seeds) + options.descent_budget
        )

        degraded_search = False
        try:
            if exhaustive:
                best_indices = _exhaustive_search(
                    sizes, weights, score_indices, note_prune
                )
            else:
                best_indices = _seeded_descent(
                    seeds, sizes, weights, options, score_indices, note_prune
                )
        except BudgetExceeded as exc:
            # Out of budget mid-search: settle for the best combination
            # scored so far (the memo holds every scored candidate).
            # If nothing at all was scored, escalate to the fallback
            # ladder — even a single scoring pass was too expensive.
            if not cache:
                raise
            best_indices = min(cache, key=cache.__getitem__)
            degraded_search = True
            degradations.append(Degradation("search", "partial", str(exc)))
            clock.count(degraded=1)
            # Committed to the partial winner: retrieval and validation
            # below must finish, so enforcement stops here.
            deadline.disarm()

        # Over budget, the surrogate winner alone is assembled — the
        # deadline is already disarmed, so one assembly is safe.
        finalists = [best_indices] if degraded_search else _shortlist(seeds, cache)
        best_indices, winner_cost, decomposition = _assemble_finalists(
            finalists, lists, registry, options, signature, cache
        )
        sharing = dag.stats()

        direct = _direct_if_cheaper(system, winner_cost, options, signature)
        if direct is not None:
            decomposition = direct
            clock.count(direct_fallback=1)

        clock.count(
            combinations=scored,
            memo_hits=memo_hits,
            pruned=pruned,
            dag_nodes=sharing.nodes,
            dag_intern_hits=sharing.intern_hits,
            dag_shared_nodes=sharing.shared_nodes,
            dag_finalists=len(finalists),
            ops_initial=direct_cost(system).weighted(),
            ops_final=decomposition.op_count().weighted(),
        )

    provenance = Provenance(
        objective=options.objective,
        search_mode=search_mode,
        search_space=search_space,
        search_bound=search_bound,
        search=clock.counters,
        chosen=[
            ChosenRepresentation(
                polynomial=str(poly),
                tag=lists[i][j].tag,
                index=j,
                candidates=len(lists[i]),
            )
            for i, (poly, j) in enumerate(zip(system, best_indices))
        ],
        blocks={name: str(expr) for name, expr in decomposition.blocks.items()},
        degradations=[str(d) for d in degradations],
    )
    return best_indices, decomposition, provenance


#: Branch-and-bound prune margin for the combination search: skip scoring
#: a combination whose standalone-weight surrogate exceeds this multiple
#: of the best scored combination's surrogate.  The surrogate is an upper
#: envelope: final CSE can only *remove* shared work, so a combination
#: whose surrogate is several times the best one's is dominated — the
#: shared-term pool it offers is a subset of what cheaper members already
#: provide — and scoring it is wasted budget.  The factor is deliberately
#: generous — the prune should only drop combinations that are dominated
#: beyond any plausible sharing gain.  The prune is deterministic and
#: independent of the memo, so memoized and cold searches visit
#: identical combinations.
_PRUNE_FACTOR = 3.0

#: Number of top surrogate-ranked combinations (beyond the family seeds)
#: that the search assembles and prices through the exact CSE extractor.
#: The DAG surrogate is only a ranking: the exact winner is not always
#: its top pick (it ranks 3rd on SG 4X3, and Table 14.2 is won at rank 3
#: by a family seed that ties a rank-0 combination).  Four ranks plus the
#: family seeds keep the finalist pass small without re-paying the
#: per-combination CSE cost the surrogate exists to avoid.
_DAG_FINALISTS = 4

#: Representations each polynomial keeps after the prune phase (the
#: original is kept on top), ranked by :func:`_standalone_price`.
_MAX_REPRESENTATIONS = 10

#: Full coordinate-descent sweeps over the representation lists when the
#: search space is too large for exhaustive scoring.
_DESCENT_SWEEPS = 3


def _shortlist(
    seeds: list[tuple[int, ...]], surrogates: dict[tuple[int, ...], float]
) -> list[tuple[int, ...]]:
    """The finalists the search lowers through the exact extractor.

    The DAG surrogate ranked every scored combination by shared operator
    count; only a shortlist is assembled and priced under the objective.
    The shortlist is the scored family seeds (each algebraic family's
    cheapest member — they carry the relative-quality guarantees the
    test suite pins against the factor+cse baseline) plus the top
    surrogate ranks, deduplicated in that order.
    """
    ranked = sorted(surrogates, key=lambda idx: (surrogates[idx], idx))
    return list(dict.fromkeys(
        [s for s in seeds if s in surrogates] + ranked[:_DAG_FINALISTS]
    ))


def _direct_if_cheaper(
    system: list[Polynomial],
    winner_cost: float,
    options: SynthesisOptions,
    signature: BitVectorSignature | None,
) -> Decomposition | None:
    """The flat direct SOP when it beats the search's winner, else None.

    Never-worse-than-direct guard.  Every assembled combination is
    rendered through ``best_expression``, which Horner-factors rows
    whenever the *op count* improves — but on non-uniform widths the
    width-aware area model can disagree (factoring can push a constant
    multiply onto a wide operand).  The all-original seed is therefore
    not the direct SOP, and the search can return a decomposition
    costlier than the naive baseline.  Scoring the flat direct form
    under the same objective restores the guarantee that the flow is a
    superset of ``direct``.
    """
    direct = Decomposition(method="poly_synth")
    for poly in system:
        direct.outputs.append(expr_from_polynomial(poly))
    if _score_assembled(direct, options, signature) < winner_cost:
        return direct
    return None


def _exhaustive_search(
    sizes: list[int],
    weights: list[list[int]],
    score_indices,
    note_prune,
) -> tuple[int, ...]:
    """Score every combination the branch-and-bound prune lets through."""
    best_indices = None
    best_cost = None
    best_surrogate = None
    for indices in product(*(range(s) for s in sizes)):
        surrogate = sum(row[j] for row, j in zip(weights, indices))
        if best_surrogate is not None and surrogate > _PRUNE_FACTOR * best_surrogate:
            note_prune(surrogate, _PRUNE_FACTOR * best_surrogate)
            continue
        cost = score_indices(indices)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_indices = indices
            best_surrogate = surrogate
        elif surrogate < best_surrogate:
            # Track the cheapest surrogate among scored combinations so
            # the bound only tightens.
            best_surrogate = surrogate
    assert best_indices is not None
    return best_indices


def _assemble_finalists(
    finalists: list[tuple[int, ...]],
    lists: list[list[Representation]],
    registry: BlockRegistry,
    options: SynthesisOptions,
    signature: BitVectorSignature | None,
    surrogates: dict[tuple[int, ...], float],
) -> tuple[tuple[int, ...], float, Decomposition]:
    """Assemble and exactly score each finalist; the first cheapest wins."""
    tracer = current_tracer()
    winner: tuple[tuple[int, ...], float, Decomposition] | None = None
    for indices in finalists:
        chosen = [lists[i][j] for i, j in enumerate(indices)]
        cost, decomposition = _score(chosen, registry, options, signature)
        if tracer.emitting:
            tracer.emit(
                "dag_finalist",
                cost=cost,
                surrogate=surrogates[indices],
                chosen=[rep.tag for rep in chosen],
            )
        if winner is None or cost < winner[1]:
            winner = (indices, cost, decomposition)
    assert winner is not None
    return winner


def _search_seeds(
    lists: list[list[Representation]],
    weights: list[list[int]],
) -> list[tuple[int, ...]]:
    """Starting points for the descent search.

    Symmetric systems (shifted filter copies) want every polynomial to use
    the *same family* of representation — mixing families breaks the
    cross-polynomial matches the final CSE relies on.  Seeds:

    * all-original (this makes the proposed flow a strict superset of the
      factorization+CSE baseline: it can always fall back to it),
    * one uniform seed per tag family (cce, factored, canonical, division),
      falling back to original where a polynomial lacks the family,
    * the per-polynomial standalone-cheapest combination.
    """
    families = ("original", "cse", "cce", "factored", "canonical", "division")
    seeds: list[tuple[int, ...]] = []
    for family in families:
        indices = []
        for i, reps in enumerate(lists):
            members = [
                (j, weights[i][j])
                for j, rep in enumerate(reps)
                if rep.tag.startswith(family) or (family != "original" and family in rep.tag)
            ]
            if members:
                indices.append(min(members, key=lambda item: item[1])[0])
            else:
                indices.append(0)  # original is always first
        seeds.append(tuple(indices))
    cheapest = tuple(
        min(range(len(reps)), key=lambda j: weights[i][j])
        for i, reps in enumerate(lists)
    )
    seeds.append(cheapest)
    return list(dict.fromkeys(seeds))


def _seeded_descent(
    seeds: list[tuple[int, ...]],
    sizes: list[int],
    weights: list[list[int]],
    options: SynthesisOptions,
    score_indices,
    note_prune,
) -> tuple[int, ...]:
    """Score the family seeds, then coordinate-descend from the best one.

    Single-coordinate moves whose surrogate weight regresses the current
    combination beyond the branch-and-bound margin are pruned without
    scoring (see :data:`_PRUNE_FACTOR`) — the saved budget goes to moves
    that can plausibly win.  ``note_prune(surrogate, bound)`` reports
    each pruned move to the caller's telemetry.
    """
    best_indices: tuple[int, ...] | None = None
    best_cost: float | None = None
    for seed in seeds:
        cost = score_indices(seed)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_indices = seed
    assert best_indices is not None and best_cost is not None
    # Coordinate descent, budgeted for large systems.
    budget = options.descent_budget
    scored = 0
    best_surrogate = sum(
        row[j] for row, j in zip(weights, best_indices)
    )
    bound = _PRUNE_FACTOR * best_surrogate
    for _ in range(_DESCENT_SWEEPS):
        improved = False
        for i in range(len(sizes)):
            for j in range(sizes[i]):
                if j == best_indices[i]:
                    continue
                trial_surrogate = (
                    best_surrogate - weights[i][best_indices[i]] + weights[i][j]
                )
                if trial_surrogate > bound:
                    note_prune(trial_surrogate, bound)
                    continue
                trial = best_indices[:i] + (j,) + best_indices[i + 1:]
                cost = score_indices(trial)
                scored += 1
                if cost < best_cost:
                    best_cost = cost
                    best_indices = trial
                    best_surrogate = trial_surrogate
                    bound = _PRUNE_FACTOR * best_surrogate
                    improved = True
                if scored >= budget:
                    return best_indices
        if not improved:
            break
    return best_indices


def _factor_block_definitions(
    registry: BlockRegistry, options: SynthesisOptions
) -> None:
    """Factor non-linear block definitions through (new) blocks.

    The CCE block ``x^2 + 2xy + y^2`` factors to ``(x+y)^2``: the linear
    factor is registered (feeding the divisor pool) and the definition is
    rewritten as ``_bk^2``.
    """
    if not options.enable_factoring:
        return
    from repro.factor import factor_polynomial

    for name in list(registry.defs):
        ground = registry.ground[name]
        if ground.is_linear:
            continue
        factorization = factor_polynomial(ground)
        factors = factorization.factors
        if len(factors) == 1 and factors[0][1] == 1:
            continue
        rebuilt = Polynomial.constant(factorization.content)
        for base, multiplicity in factors:
            if base.is_constant or (base.is_linear and len(base) == 1):
                rebuilt = rebuilt * base ** multiplicity
                continue
            if registry.expand(base).trim() == ground.trim():
                rebuilt = rebuilt * base ** multiplicity
                continue
            factor_name, sign = registry.register(base)
            block_var = Polynomial.variable(factor_name)
            rebuilt = rebuilt * (block_var.scale(sign)) ** multiplicity
        if any(registry.is_block(v) for v in rebuilt.used_vars()):
            registry.rewrite_definition(name, rebuilt)


def _validate(
    decomposition: Decomposition,
    system: list[Polynomial],
    chosen: list[Representation],
    signature: BitVectorSignature | None,
) -> None:
    """Check the decomposition against the original system.

    Integer-exact representations must expand to identical polynomials;
    canonical-form representations must be functionally equal over the
    bit-vector signature.
    """
    expanded = decomposition.to_polynomials()
    if len(expanded) != len(system):
        raise RuntimeError("decomposition lost outputs")
    for index, (ours, original, rep) in enumerate(zip(expanded, system, chosen)):
        if rep.modular:
            if signature is None:
                raise RuntimeError("modular representation without a signature")
            if not functions_equal(ours, original, signature):
                raise RuntimeError(
                    f"output {index} ({rep.tag}) is not functionally equal "
                    f"to the original over the signature"
                )
        elif ours != original:
            raise RuntimeError(
                f"output {index} ({rep.tag}) expands to {ours}, expected {original}"
            )
