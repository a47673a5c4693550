"""Per-result provenance: *why* the flow produced the result it did.

Verification-oriented work treats auditable evidence of a result's
origin as a first-class output; a :class:`Provenance` gives every
:class:`~repro.core.synth.SynthesisResult` the same property.  It
records the decisions of the Algorithm-7 run — which representation was
chosen per polynomial (and from how large a search space), how the
combination search spent its budget (scored / memoized / pruned), which
blocks and kernels the winner uses, and every degradation taken — as
plain data the ``repro explain`` subcommand renders for humans
(``--format json`` for machines).

The search telemetry (combinations scored, memo hits, pruned, the
``dag_*`` sharing counts and the direct fallback) is not stored here: a
:class:`Provenance` reads it from the counters of the run's ``search``
phase record in ``result.timings``, the record the flow writes once and
:func:`repro.obs.observe_timings` publishes as
``repro_phase_<counter>_total{phase="search"}``.  So ``repro explain``
and the metrics registry report the same integers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class ChosenRepresentation:
    """One polynomial's winning representation in the final combination."""

    polynomial: str   # the original polynomial, as text
    tag: str          # representation family tag ("original", "cce", ...)
    index: int        # position inside the polynomial's representation list
    candidates: int   # size of that list (the polynomial's search axis)

    def as_dict(self) -> dict[str, Any]:
        return {
            "polynomial": self.polynomial,
            "tag": self.tag,
            "index": self.index,
            "candidates": self.candidates,
        }


#: Provenance telemetry attribute -> the ``search`` phase counter it reads.
SEARCH_COUNTERS: dict[str, str] = {
    "combinations_scored": "combinations",  # combinations freshly scored
    "memo_hits": "memo_hits",                # lookups served by the memo
    "pruned": "pruned",                      # skipped by branch-and-bound
    # Sharing statistics of the search's expression DAG (all zero when
    # the run degraded before the search).
    "dag_nodes": "dag_nodes",                # interned nodes in the run's DAG
    "dag_intern_hits": "dag_intern_hits",    # requests answered by existing nodes
    "dag_shared_nodes": "dag_shared_nodes",  # product nodes shared across >= 2 sums
    "dag_finalists": "dag_finalists",        # combinations lowered through exact CSE
}


def _search_counter(attr: str) -> property:
    counter = SEARCH_COUNTERS[attr]
    return property(lambda self: self.search.get(counter, 0))


@dataclass(eq=False)
class Provenance:
    """The decision record of one synthesis run.

    ``search`` is the counter dict of the run's ``search`` phase record
    (empty when the run degraded before the search); the telemetry
    attributes below are read from it.  Two records are equal when
    their :meth:`as_dict` payloads are.
    """

    objective: str = "area"
    search_mode: str = "exhaustive"  # "exhaustive" | "descent" | "degraded"
    search_space: int = 0        # product of representation-list sizes
    search_bound: int = 0        # combinations the search could have scored
    search: Mapping[str, int] = field(default_factory=dict)
    chosen: list[ChosenRepresentation] = field(default_factory=list)
    blocks: dict[str, str] = field(default_factory=dict)  # name -> definition
    degradations: list[str] = field(default_factory=list)

    combinations_scored = _search_counter("combinations_scored")
    memo_hits = _search_counter("memo_hits")
    pruned = _search_counter("pruned")
    dag_nodes = _search_counter("dag_nodes")
    dag_intern_hits = _search_counter("dag_intern_hits")
    dag_shared_nodes = _search_counter("dag_shared_nodes")
    dag_finalists = _search_counter("dag_finalists")

    @property
    def direct_fallback(self) -> bool:
        """Did the flat direct SOP beat every assembled combination?"""
        return bool(self.search.get("direct_fallback", 0))

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of combination lookups served without a fresh scoring."""
        total = self.combinations_scored + self.memo_hits
        return self.memo_hits / total if total else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Provenance):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": "provenance",
            "objective": self.objective,
            "search_mode": self.search_mode,
            "search_space": self.search_space,
            "search_bound": self.search_bound,
            "combinations_scored": self.combinations_scored,
            "memo_hits": self.memo_hits,
            "pruned": self.pruned,
            "direct_fallback": self.direct_fallback,
            "dag_nodes": self.dag_nodes,
            "dag_intern_hits": self.dag_intern_hits,
            "dag_shared_nodes": self.dag_shared_nodes,
            "dag_finalists": self.dag_finalists,
            "chosen": [c.as_dict() for c in self.chosen],
            "blocks": dict(self.blocks),
            "degradations": list(self.degradations),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Provenance":
        if data.get("kind") != "provenance":
            raise ValueError(f"not a provenance payload: {data.get('kind')!r}")
        search = {
            counter: int(data.get(attr, 0))
            for attr, counter in SEARCH_COUNTERS.items()
        }
        if data.get("direct_fallback", False):
            search["direct_fallback"] = 1
        return cls(
            objective=str(data.get("objective", "area")),
            search_mode=str(data.get("search_mode", "exhaustive")),
            search_space=int(data.get("search_space", 0)),
            search_bound=int(data.get("search_bound", 0)),
            search=search,
            chosen=[
                ChosenRepresentation(
                    polynomial=str(c["polynomial"]),
                    tag=str(c["tag"]),
                    index=int(c["index"]),
                    candidates=int(c["candidates"]),
                )
                for c in data.get("chosen", [])
            ],
            blocks={str(k): str(v) for k, v in data.get("blocks", {}).items()},
            degradations=[str(d) for d in data.get("degradations", [])],
        )


def explain_text(result, name: str = "") -> str:
    """Human-readable decision report of a :class:`SynthesisResult`.

    Renders the provenance record: the search's shape and telemetry,
    the chosen representation per polynomial, the blocks/kernels of the
    winning decomposition, and any degradations taken.  A closing section
    lists every phase of ``result.timings`` with its seconds and
    counters, so one report says both why the winner won and where the
    time went.
    """
    prov = result.provenance
    if prov is None:
        return "no provenance recorded (result predates provenance support)"
    lines: list[str] = []
    if name:
        lines.append(f"system: {name}")
    lines += [
        f"objective: {prov.objective}",
        (
            f"search: {prov.search_mode}, space {prov.search_space} "
            f"combination(s), bound {prov.search_bound}"
        ),
        (
            f"telemetry: {prov.combinations_scored} scored, "
            f"{prov.memo_hits} memo hit(s) "
            f"({prov.memo_hit_rate * 100.0:.0f}% hit rate), "
            f"{prov.pruned} pruned"
        ),
        (
            f"cost: {result.initial_op_count} initial "
            f"-> {result.op_count} final"
        ),
    ]
    if prov.search_mode != "degraded":
        lines.append(
            f"dag sharing: {prov.dag_nodes} node(s) interned, "
            f"{prov.dag_intern_hits} intern hit(s), "
            f"{prov.dag_shared_nodes} shared across polynomials, "
            f"{prov.dag_finalists} finalist(s) assembled"
        )
    if prov.direct_fallback:
        lines.append(
            "note: the flat direct SOP beat every assembled combination "
            "and was kept"
        )
    lines.append("chosen representations:")
    for position, choice in enumerate(prov.chosen):
        lines.append(
            f"  p{position}: {choice.tag} "
            f"(candidate {choice.index + 1} of {choice.candidates}) "
            f"for {choice.polynomial}"
        )
    if prov.blocks:
        lines.append("blocks / kernels of the winner:")
        for block, definition in prov.blocks.items():
            lines.append(f"  {block} = {definition}")
    else:
        lines.append("blocks / kernels of the winner: none")
    if prov.degradations:
        lines.append("degradations:")
        lines.extend(f"  {d}" for d in prov.degradations)
    timings = result.timings
    if timings:
        lines.append(f"phases ({timings.total_seconds() * 1000.0:.2f} ms total):")
        lines.extend(f"  {phase}" for phase in timings.phases)
    return "\n".join(lines)
