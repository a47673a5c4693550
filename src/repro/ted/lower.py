"""TED-driven decomposition (Gomez-Prado et al. [9]).

A TED's structural sharing is hardware sharing waiting to happen: every
internal node referenced by more than one parent is a sub-function worth
implementing once.  This lowering walks the diagram, emits a Horner-style
expression per node (``c0 + var*(c1 + var*(...))``), and promotes every
multiply-referenced node to a named block of the resulting
:class:`~repro.expr.decomposition.Decomposition`.
"""

from __future__ import annotations

from repro.expr import Decomposition, Expr, make_add, make_mul
from repro.expr.ast import BlockRef, Const, Var

from .diagram import TedManager, TedNode


def _reference_counts(roots: list[TedNode]) -> dict[int, int]:
    counts: dict[int, int] = {}
    visited: set[int] = set()
    for root in roots:
        counts[id(root)] = counts.get(id(root), 0) + 1
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        for child in node.children:
            counts[id(child)] = counts.get(id(child), 0) + 1
            stack.append(child)
    return counts


def _node_expr(
    node: TedNode, counts: dict[int, int], names: dict[int, str],
    decomposition: Decomposition,
) -> Expr:
    """Horner form of one node's own structure (children as refs)."""
    if node.is_leaf:
        return Const(node.value)
    assert node.var is not None
    # c0 + v*(c1 + v*(c2 + ...)) built from the top power down.
    acc: Expr | None = None
    for power in range(len(node.children) - 1, -1, -1):
        child = _resolve(node.children[power], counts, names, decomposition)
        if acc is None:
            acc = child
        else:
            acc = make_add(make_mul(Var(node.var), acc), child)
    assert acc is not None
    return acc


def _resolve(
    node: TedNode, counts: dict[int, int], names: dict[int, str],
    decomposition: Decomposition,
) -> Expr:
    """A node's expression, or a reference to its block when it is shared."""
    if node.is_leaf:
        return Const(node.value)
    key = id(node)
    if counts.get(key, 0) >= 2:
        if key not in names:
            # Blocks are numbered in the order they are first reached.
            name = names[key] = f"_t{len(names) + 1}"
            decomposition.blocks[name] = _node_expr(node, counts, names, decomposition)
        return BlockRef(names[key])
    return _node_expr(node, counts, names, decomposition)


def ted_to_expression(
    manager: TedManager, roots: list[TedNode], method: str = "ted"
) -> Decomposition:
    """Lower TED roots to a decomposition with shared-node blocks."""
    counts = _reference_counts(roots)
    names: dict[int, str] = {}
    decomposition = Decomposition(method=method)
    for root in roots:
        decomposition.outputs.append(_resolve(root, counts, names, decomposition))
    return decomposition
