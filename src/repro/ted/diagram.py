"""TED construction and canonicity.

Representation: a node is either the constant leaf ``Const(c)`` or an
internal node ``(var, children)`` where ``children[k]`` is the
sub-diagram of the coefficient of ``var^k`` (trailing zero children are
trimmed, and a node with only a ``k = 0`` child collapses to that child).
Nodes are hash-consed by a :class:`TedManager`, making the diagram
canonical for a fixed variable order:

    p == q  (as polynomials)   iff   build(p) is build(q)

which the tests verify against polynomial equality.  Sharing statistics
(`ted_node_count`) measure the structural compression the diagram
achieves over the expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.poly import Polynomial


@dataclass(frozen=True)
class TedNode:
    """One hash-consed TED node.

    ``var`` is ``None`` for constant leaves (then ``value`` holds the
    integer); otherwise ``children[k]`` is the diagram of the coefficient
    of ``var^k``.
    """

    var: str | None
    value: int
    children: tuple["TedNode", ...]

    @property
    def is_leaf(self) -> bool:
        return self.var is None

    def __str__(self) -> str:
        if self.is_leaf:
            return str(self.value)
        inner = ", ".join(
            f"{self.var}^{k}: {child}" for k, child in enumerate(self.children)
        )
        return f"<{inner}>"


class TedManager:
    """Hash-consing factory for TED nodes under a fixed variable order."""

    def __init__(self, order: tuple[str, ...]):
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate variables in TED order {order}")
        self.order = tuple(order)
        self._unique: dict[tuple, TedNode] = {}

    # ------------------------------------------------------------------

    def leaf(self, value: int) -> TedNode:
        key = ("leaf", value)
        node = self._unique.get(key)
        if node is None:
            node = TedNode(None, value, ())
            self._unique[key] = node
        return node

    def node(self, var: str, children: tuple[TedNode, ...]) -> TedNode:
        zero = self.leaf(0)
        trimmed = list(children)
        while trimmed and trimmed[-1] is zero:
            trimmed.pop()
        if not trimmed:
            return zero
        if len(trimmed) == 1:
            return trimmed[0]  # only the var^0 coefficient: var is absent
        key = (var, tuple(id(c) for c in trimmed))
        node = self._unique.get(key)
        if node is None:
            node = TedNode(var, 0, tuple(trimmed))
            self._unique[key] = node
        return node

    # ------------------------------------------------------------------

    def build(self, poly: Polynomial) -> TedNode:
        """Construct the canonical TED of a polynomial."""
        missing = set(poly.used_vars()) - set(self.order)
        if missing:
            raise KeyError(f"variables {sorted(missing)} not in TED order {self.order}")
        aligned = poly.trim()
        return self._build(aligned, 0)

    def _build(self, poly: Polynomial, depth: int) -> TedNode:
        if depth == len(self.order):
            return self.leaf(poly.constant_term if not poly.is_zero else 0)
        var = self.order[depth]
        if var not in poly.vars or poly.is_zero or poly.degree(var) < 1:
            return self._build_skip(poly, depth)
        coefficients = poly.as_univariate(var)
        top = max(coefficients)
        children = []
        for power in range(top + 1):
            child_poly = coefficients.get(power)
            if child_poly is None:
                children.append(self.leaf(0))
            else:
                children.append(self._build(child_poly, depth + 1))
        return self.node(var, tuple(children))

    def _build_skip(self, poly: Polynomial, depth: int) -> TedNode:
        return self._build(poly, depth + 1)

    # ------------------------------------------------------------------

    def to_polynomial(self, node: TedNode) -> Polynomial:
        """Expand a TED back into a polynomial (inverse of build)."""
        if node.is_leaf:
            return Polynomial.constant(node.value)
        assert node.var is not None
        x = Polynomial.variable(node.var)
        total = Polynomial.zero((node.var,))
        for power, child in enumerate(node.children):
            total = total + self.to_polynomial(child) * x ** power
        return total

    def equal(self, left: Polynomial, right: Polynomial) -> bool:
        """Canonicity-based equality: same node object iff same polynomial."""
        return self.build(left) is self.build(right)

    def size(self) -> int:
        """Number of distinct nodes interned so far."""
        return len(self._unique)


def _mark_reachable(node: TedNode, seen: set[int]) -> None:
    if id(node) in seen:
        return
    seen.add(id(node))
    for child in node.children:
        _mark_reachable(child, seen)


def ted_node_count(node: TedNode) -> int:
    """Distinct nodes reachable from a TED root (sharing counted once)."""
    seen: set[int] = set()
    _mark_reachable(node, seen)
    return len(seen)
