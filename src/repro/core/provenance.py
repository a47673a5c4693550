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

The counts here are the *same integers* the run publishes to the
metrics registry (``repro_search_combos_scored`` /
``repro_search_memo_hits`` / ``repro_search_pruned`` and the
``repro_search_dag_*`` family); tests hold the two views to exact
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


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


@dataclass
class Provenance:
    """The decision record of one synthesis run."""

    objective: str = "area"
    search_mode: str = "exhaustive"  # "exhaustive" | "descent" | "degraded"
    search_space: int = 0        # product of representation-list sizes
    search_bound: int = 0        # combinations the search could have scored
    combinations_scored: int = 0
    memo_hits: int = 0
    pruned: int = 0
    direct_fallback: bool = False  # the flat SOP beat every combination
    # Sharing statistics of the search's expression DAG (all zero when
    # the run degraded before the search).
    dag_nodes: int = 0           # interned nodes in the run's DAG
    dag_intern_hits: int = 0     # intern requests answered by existing nodes
    dag_shared_nodes: int = 0    # product nodes shared across >= 2 sums
    dag_finalists: int = 0       # combinations lowered through exact CSE
    chosen: list[ChosenRepresentation] = field(default_factory=list)
    blocks: dict[str, str] = field(default_factory=dict)  # name -> definition
    degradations: list[str] = field(default_factory=list)

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of combination lookups served without a fresh scoring."""
        total = self.combinations_scored + self.memo_hits
        return self.memo_hits / total if total else 0.0

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
        return cls(
            objective=str(data.get("objective", "area")),
            search_mode=str(data.get("search_mode", "exhaustive")),
            search_space=int(data.get("search_space", 0)),
            search_bound=int(data.get("search_bound", 0)),
            combinations_scored=int(data.get("combinations_scored", 0)),
            memo_hits=int(data.get("memo_hits", 0)),
            pruned=int(data.get("pruned", 0)),
            direct_fallback=bool(data.get("direct_fallback", False)),
            dag_nodes=int(data.get("dag_nodes", 0)),
            dag_intern_hits=int(data.get("dag_intern_hits", 0)),
            dag_shared_nodes=int(data.get("dag_shared_nodes", 0)),
            dag_finalists=int(data.get("dag_finalists", 0)),
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
    winning decomposition, and any degradations taken.
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
    return "\n".join(lines)
