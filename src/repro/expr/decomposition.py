"""System-level decompositions: shared blocks + one expression per output.

A :class:`Decomposition` is the final product of every synthesis method in
this repository — the paper's Table 14.2 "final decomposition" row is one:

    d1 = x + y;  d2 = x - y;  d3 = x(x-1)y(y-1)
    P1 = 13*d1^2 + 7*d2 + 11;  P2 = 15*d2^2 + 11*d1 + 9;  ...

Blocks may reference earlier blocks (the definition order is topological);
each block's operators are paid once no matter how many outputs use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.poly import Polynomial

from .ast import (
    Add, BlockRef, Const, Expr, Mul, Pow, Var, expr_block_refs, expr_to_polynomial,
)
from .cost import OpCount, ZERO_COUNT, expr_op_count


@dataclass
class Decomposition:
    """Named building blocks plus one expression per output polynomial."""

    blocks: dict[str, Expr] = field(default_factory=dict)
    outputs: list[Expr] = field(default_factory=list)
    method: str = ""

    def define_block(self, name: str, expr: Expr) -> None:
        """Add a building block; names must be fresh and definitions acyclic."""
        if name in self.blocks:
            raise ValueError(f"block {name!r} already defined")
        self.blocks[name] = expr
        # Fail fast on cycles / forward references.
        expr_to_polynomial(expr, self.blocks)

    def live_blocks(self) -> list[str]:
        """Blocks reachable from the outputs, in definition order."""
        live: set[str] = set()
        frontier: list[str] = []
        for out in self.outputs:
            frontier.extend(expr_block_refs(out))
        while frontier:
            name = frontier.pop()
            if name in live:
                continue
            if name not in self.blocks:
                raise KeyError(f"undefined block {name!r}")
            live.add(name)
            frontier.extend(expr_block_refs(self.blocks[name]))
        return [name for name in self.blocks if name in live]

    def op_count(self) -> OpCount:
        """Total MULT/ADD count: each live block once, plus every output."""
        count = ZERO_COUNT
        for name in self.live_blocks():
            count = count + expr_op_count(self.blocks[name])
        for out in self.outputs:
            count = count + expr_op_count(out)
        return count

    def to_polynomials(self) -> list[Polynomial]:
        """Expand every output back to a flat polynomial."""
        return [expr_to_polynomial(out, self.blocks) for out in self.outputs]

    def validate(self, system: Sequence[Polynomial]) -> None:
        """Assert the decomposition computes exactly the given system.

        Raises ``ValueError`` on the first mismatch; this is the safety net
        every optimization result passes through in tests and in the
        synthesis driver.
        """
        expanded = self.to_polynomials()
        if len(expanded) != len(system):
            raise ValueError(
                f"decomposition has {len(expanded)} outputs, system has {len(system)}"
            )
        for index, (ours, reference) in enumerate(zip(expanded, system)):
            if ours != reference:
                raise ValueError(
                    f"output {index} expands to {ours}, expected {reference}"
                    + (f" (method {self.method})" if self.method else "")
                )

    def validate_mod(self, system: Sequence[Polynomial], modulus: int,
                     samples: Iterable[Mapping[str, int]]) -> None:
        """Check functional equality mod ``modulus`` at sample points.

        Canonical-form based decompositions are only equal *as functions
        over Z_2^m*, not as integer polynomials; those are validated
        pointwise (exhaustively for small widths in tests).
        """
        from .ast import evaluate_expr

        for point in samples:
            for index, (out, reference) in enumerate(zip(self.outputs, system)):
                got = evaluate_expr(out, point, self.blocks, modulus)
                want = reference.evaluate_mod(point, modulus)
                if got != want:
                    raise ValueError(
                        f"output {index} disagrees at {dict(point)}: "
                        f"{got} != {want} (mod {modulus})"
                    )

    def inline_trivial_blocks(self) -> int:
        """Inline alias blocks (definitions that are a bare leaf).

        A block defined as a single variable, block reference, or constant
        costs no operators; inlining it only tidies the decomposition.
        Returns the number of blocks inlined.  Cost and semantics are
        unchanged (tests enforce this).
        """
        aliases = {
            name: expr
            for name, expr in self.blocks.items()
            if isinstance(expr, (Var, BlockRef, Const))
        }
        if not aliases:
            return 0
        self.outputs = [_inline_aliases(expr, aliases) for expr in self.outputs]
        self.blocks = {
            name: _inline_aliases(expr, aliases)
            for name, expr in self.blocks.items()
            if name not in aliases
        }
        return len(aliases)

    def summary(self) -> str:
        """Human-readable listing, in the style of the paper's tables."""
        lines = []
        for name in self.live_blocks():
            lines.append(f"{name} = {self.blocks[name]}")
        for index, out in enumerate(self.outputs, start=1):
            lines.append(f"P{index} = {out}")
        ops = self.op_count()
        lines.append(f"cost: {ops}")
        return "\n".join(lines)


def _inline_aliases(node: Expr, aliases: Mapping[str, Expr]) -> Expr:
    """``node`` with every reference to an alias block replaced by its leaf."""
    if isinstance(node, BlockRef) and node.name in aliases:
        return _inline_aliases(aliases[node.name], aliases)
    if isinstance(node, Add):
        return Add(tuple(_inline_aliases(op, aliases) for op in node.operands))
    if isinstance(node, Mul):
        return Mul(tuple(_inline_aliases(op, aliases) for op in node.operands))
    if isinstance(node, Pow):
        return Pow(_inline_aliases(node.base, aliases), node.exponent)
    return node
