"""Global expression DAG — hash-consed polynomial structure.

The combination search of Algorithm 7 scores many candidate
representations that are assembled from largely identical rows: block
definitions repeat verbatim, and neighbouring combinations differ in a
single polynomial's representation.  Re-running greedy rectangle CSE
from scratch on every combination re-discovers the same sharing over
and over — the classic argument for hash-consing (tree-hash CSE over
whole expression forests, as in SymPy-lineage ``cse`` and Chen & Yan's
matrix-vector CSE).

:class:`ExpressionDAG` is the interning node store: every variable,
monomial (power product), and polynomial (sum of coefficient-weighted
monomials) is stored **once**, keyed by a canonical structural hash.
Structurally equal subtrees always intern to the same node id — a
property the test suite pins down with a hypothesis invariant.  On top
of the store the DAG keeps

* reference counts — how many distinct sum nodes use each product node
  (:meth:`shared_subexpressions` surfaces the shared ones), and
* memoized per-node operator costs — so scoring a candidate combination
  is a union of already-priced node sets (*new nodes only*): each
  shared product is paid exactly once, which is precisely the operator
  count a DAG lowering of the combination realizes.

Node ids are process-local (interning order depends on what was
interned first) and therefore **never** used for any ordering decision
that reaches a result; canonical name-based payloads are.  Engine cache
keys exclude DAG state entirely (see ``docs/ENGINE.md``).

The module depends only on :mod:`repro.poly` — the core flow imports
*us*, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.expr.cost import ADD_WEIGHT, CMUL_WEIGHT, MUL_WEIGHT
from repro.poly import Polynomial

#: Node kinds of the store, in interning-dependency order.
KINDS = ("var", "mono", "sum")


@dataclass(frozen=True)
class DagNode:
    """One interned node (read-only view; identity is the ``id``)."""

    id: int
    kind: str                      # "var" | "mono" | "sum"
    name: str | None = None        # var: the variable name
    pairs: tuple = ()              # mono: ((var name, exponent), ...) sorted
    terms: tuple = ()              # sum: ((mono node id, coeff), ...) sorted
    literals: int = 0              # mono: total literal count (sum of exps)


@dataclass(frozen=True)
class DagStats:
    """Interning counters of one :class:`ExpressionDAG`.

    A synthesis run counts these integers into its ``search`` phase
    record as ``dag_*`` counters, which its
    :class:`~repro.core.provenance.Provenance` reads and the metrics
    registry publishes as ``repro_phase_dag_*_total{phase="search"}``.
    """

    nodes: int            # interned nodes of any kind (store size)
    polys: int            # top-level polynomial interning requests
    intern_hits: int      # requests answered by an existing node
    shared_nodes: int     # product nodes used by >= 2 distinct sums

    def as_dict(self) -> dict[str, int]:
        return {
            "nodes": self.nodes,
            "polys": self.polys,
            "intern_hits": self.intern_hits,
            "shared_nodes": self.shared_nodes,
        }


@dataclass(frozen=True)
class SharedSubexpression:
    """One refcounted shared product node of the DAG."""

    node: int                       # the mono node id
    refs: int                       # distinct sum nodes using it
    literals: int                   # its literal count
    pairs: tuple                    # ((var name, exponent), ...) sorted


class ExpressionDAG:
    """Interning store for polynomial expression structure.

    ``intern`` accepts a :class:`~repro.poly.Polynomial` and returns the
    id of its sum node, creating variable and monomial nodes on the way.
    Interning is canonical: padding, variable order, and term-dict order
    do not matter — two structurally equal polynomials always map to the
    same node id within one DAG instance.
    """

    def __init__(self) -> None:
        self._nodes: list[DagNode] = []
        self._index: dict[tuple, int] = {}       # canonical key -> node id
        self._poly_memo: dict[tuple, int] = {}   # raw (vars, terms) -> sum id
        self._mono_refs: dict[int, int] = {}     # mono id -> distinct sum parents
        self._sum_products: dict[int, frozenset[int]] = {}
        self._sum_cmuls: dict[int, int] = {}
        self._sum_adds: dict[int, int] = {}
        self._polys = 0
        self._hits = 0

    # -- interning ------------------------------------------------------

    def _node(self, key: tuple, **payload) -> int:
        nid = self._index.get(key)
        if nid is not None:
            self._hits += 1
            return nid
        nid = len(self._nodes)
        self._nodes.append(DagNode(id=nid, kind=key[0], **payload))
        self._index[key] = nid
        return nid

    def intern_var(self, name: str) -> int:
        """Intern one variable; returns its node id."""
        return self._node(("var", name), name=name)

    def intern_mono(self, pairs: Iterable[tuple[str, int]]) -> int:
        """Intern a power product given as (variable name, exponent) pairs.

        Zero exponents are dropped and pairs are sorted by name, so any
        spelling of the same monomial interns to the same node.  The
        empty product (the constant monomial ``1``) is a valid node.
        """
        canonical = tuple(sorted((n, e) for n, e in pairs if e))
        nid = self._index.get(("mono", canonical))
        if nid is not None:
            self._hits += 1
            return nid
        for name, _ in canonical:
            self.intern_var(name)
        return self._node(
            ("mono", canonical),
            pairs=canonical,
            literals=sum(e for _, e in canonical),
        )

    def intern(self, poly: Polynomial) -> int:
        """Intern a polynomial; returns the id of its sum node.

        Memoized two ways: a fast path on the exact ``(vars, terms)``
        identity (the combination search re-interns identical rows
        constantly), and the canonical structural key underneath it.
        """
        self._polys += 1
        raw_key = (poly.vars, frozenset(poly.terms.items()))
        hit = self._poly_memo.get(raw_key)
        if hit is not None:
            self._hits += 1
            return hit
        variables = poly.vars
        items = []
        for exps, coeff in poly.terms.items():
            mid = self.intern_mono(
                (variables[i], e) for i, e in enumerate(exps) if e
            )
            items.append((mid, coeff))
        sid = self._intern_sum(items)
        self._poly_memo[raw_key] = sid
        return sid

    def _intern_sum(self, items: Sequence[tuple[int, int]]) -> int:
        key = ("sum", frozenset(items))
        nid = self._index.get(key)
        if nid is not None:
            self._hits += 1
            return nid
        terms = tuple(sorted(items))
        nid = self._node(key, terms=terms)
        products = []
        cmuls = 0
        for mid, coeff in terms:
            node = self._nodes[mid]
            if node.literals >= 2:
                products.append(mid)
            if node.literals >= 1 and abs(coeff) != 1:
                cmuls += 1
            count = self._mono_refs.get(mid, 0)
            self._mono_refs[mid] = count + 1
        self._sum_products[nid] = frozenset(products)
        self._sum_cmuls[nid] = cmuls
        self._sum_adds[nid] = max(len(terms) - 1, 0)
        return nid

    # -- inspection -----------------------------------------------------

    def node(self, nid: int) -> DagNode:
        """The read-only record of one node id."""
        return self._nodes[nid]

    def size(self) -> int:
        """Number of interned nodes (all kinds)."""
        return len(self._nodes)

    def stats(self) -> DagStats:
        shared = sum(
            1
            for mid, refs in self._mono_refs.items()
            if refs >= 2 and self._nodes[mid].literals >= 2
        )
        return DagStats(
            nodes=len(self._nodes),
            polys=self._polys,
            intern_hits=self._hits,
            shared_nodes=shared,
        )

    def clear(self) -> None:
        """Drop every node and counter (the interner is process state)."""
        self._nodes.clear()
        self._index.clear()
        self._poly_memo.clear()
        self._mono_refs.clear()
        self._sum_products.clear()
        self._sum_cmuls.clear()
        self._sum_adds.clear()
        self._polys = 0
        self._hits = 0

    # -- sharing / scoring ---------------------------------------------

    def shared_subexpressions(
        self,
        roots: Iterable[int] | None = None,
        min_refs: int = 2,
        min_literals: int = 2,
    ) -> tuple[SharedSubexpression, ...]:
        """Refcounted shared product nodes, most valuable first.

        Without ``roots``, reference counts are global (every interned
        sum counts).  With ``roots`` (sum node ids), only references
        from those sums count — the per-combination view the search
        scores.  Order is canonical (literal count descending, then the
        name-based payload), never node-id order: node ids depend on
        interning history, and anything derived from this list must be
        byte-identical across warm and cold processes.
        """
        if roots is None:
            counts = dict(self._mono_refs)
        else:
            counts = {}
            for sid in set(roots):
                for mid, _ in self._nodes[sid].terms:
                    counts[mid] = counts.get(mid, 0) + 1
        found = []
        for mid, refs in counts.items():
            node = self._nodes[mid]
            if refs >= min_refs and node.literals >= min_literals:
                found.append(
                    SharedSubexpression(
                        node=mid, refs=refs,
                        literals=node.literals, pairs=node.pairs,
                    )
                )
        found.sort(key=lambda s: (-s.literals, s.pairs))
        return tuple(found)

    def combination_cost(self, roots: Iterable[int]) -> int:
        """Weighted operator count of a set of rows, sharing included.

        Each distinct product node reachable from the rows is paid once
        (``literals - 1`` multiplies) — the cost a DAG lowering of the
        row set realizes.  Coefficient multiplies and joining adds are
        per-row, from the memoized per-sum deltas.  Duplicate rows (same
        sum node) are paid once, mirroring what CSE would collapse.
        Weights are the :mod:`repro.expr.cost` price list.
        """
        seen: set[int] = set()
        products: set[int] = set()
        cost = 0
        for sid in roots:
            if sid in seen:
                continue
            seen.add(sid)
            cost += (
                self._sum_cmuls[sid] * CMUL_WEIGHT
                + self._sum_adds[sid] * ADD_WEIGHT
            )
            products |= self._sum_products[sid]
        nodes = self._nodes
        mul_price = MUL_WEIGHT
        for mid in products:
            cost += (nodes[mid].literals - 1) * mul_price
        return cost


#: The process-level default store behind the module-level convenience
#: functions and :func:`repro.api.clear_caches`.  The synthesis flow
#: deliberately uses a *fresh* DAG per run instead, so provenance
#: statistics never depend on what else the process interned.
_DEFAULT_DAG = ExpressionDAG()


def default_dag() -> ExpressionDAG:
    """The shared process-level DAG instance."""
    return _DEFAULT_DAG


def intern(poly: Polynomial, dag: ExpressionDAG | None = None) -> int:
    """Intern a polynomial into ``dag`` (default: the process DAG)."""
    return (dag or _DEFAULT_DAG).intern(poly)


def shared_subexpressions(
    polys: Iterable[Polynomial] | None = None,
    dag: ExpressionDAG | None = None,
    min_refs: int = 2,
    min_literals: int = 2,
) -> tuple[SharedSubexpression, ...]:
    """Shared products across ``polys`` (or the whole default DAG)."""
    target = dag or _DEFAULT_DAG
    roots = None
    if polys is not None:
        roots = [target.intern(p) for p in polys]
    return target.shared_subexpressions(
        roots, min_refs=min_refs, min_literals=min_literals
    )
