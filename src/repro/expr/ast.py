"""Immutable expression nodes for factored polynomial forms.

The node kinds:

``Const(value)``
    Integer constant.
``Var(name)``
    Input bit-vector variable.
``Add(operands)`` / ``Mul(operands)``
    N-ary sum / product (operands are a tuple, at least two entries after
    normalization by the smart constructors).
``Pow(base, exponent)``
    Integer power with ``exponent >= 2`` (costed as a chain of
    ``exponent - 1`` multiplications, the counting the paper uses).
``BlockRef(name)``
    Reference to a shared building block defined in a
    :class:`~repro.expr.decomposition.Decomposition`; the block's own cost
    is paid once, each reference is free.

Use the smart constructors :func:`make_add`, :func:`make_mul`,
:func:`make_pow` rather than the raw dataclasses: they flatten nests, fold
constants, and drop identities, keeping cost counting honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from repro.poly import Polynomial


class Expr:
    """Base class for expression nodes (all subclasses are frozen)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """An integer constant."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """An input variable (bit-vector operand)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BlockRef(Expr):
    """A reference to a shared building block by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    """N-ary addition."""

    operands: tuple[Expr, ...]

    def __str__(self) -> str:
        parts = [str(op) for op in self.operands]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return f"({out})"


@dataclass(frozen=True)
class Mul(Expr):
    """N-ary multiplication."""

    operands: tuple[Expr, ...]

    def __str__(self) -> str:
        operands = list(self.operands)
        prefix = ""
        if operands and isinstance(operands[0], Const) and operands[0].value == -1:
            prefix = "-"
            operands = operands[1:]
        body = "*".join(str(op) for op in operands)
        return f"{prefix}{body}" if body else f"{prefix}1"


@dataclass(frozen=True)
class Pow(Expr):
    """Integer power, exponent at least two."""

    base: Expr
    exponent: int

    def __str__(self) -> str:
        return f"{self.base}^{self.exponent}"


ExprLike = Union[Expr, int, str]


def _coerce(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot build an expression from {value!r}")


def make_add(*operands: ExprLike) -> Expr:
    """Sum with flattening and constant folding; empty sum is 0."""
    flat: list[Expr] = []
    const_total = 0
    for raw in operands:
        op = _coerce(raw)
        if isinstance(op, Add):
            for inner in op.operands:
                if isinstance(inner, Const):
                    const_total += inner.value
                else:
                    flat.append(inner)
        elif isinstance(op, Const):
            const_total += op.value
        else:
            flat.append(op)
    if const_total:
        flat.append(Const(const_total))
    if not flat:
        return Const(0)
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def make_mul(*operands: ExprLike) -> Expr:
    """Product with flattening and constant folding; empty product is 1.

    A zero factor collapses the whole product; unit factors are dropped
    (``-1`` merges into the constant)."""
    flat: list[Expr] = []
    const_total = 1
    for raw in operands:
        op = _coerce(raw)
        if isinstance(op, Mul):
            for inner in op.operands:
                if isinstance(inner, Const):
                    const_total *= inner.value
                else:
                    flat.append(inner)
        elif isinstance(op, Const):
            const_total *= op.value
        else:
            flat.append(op)
    if const_total == 0:
        return Const(0)
    if const_total != 1:
        flat.insert(0, Const(const_total))
    if not flat:
        return Const(1)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def make_pow(base: ExprLike, exponent: int) -> Expr:
    """Power with folding: ``x^0 = 1``, ``x^1 = x``, nested powers merge."""
    node = _coerce(base)
    if exponent < 0:
        raise ValueError(f"negative exponent {exponent} in expression")
    if exponent == 0:
        return Const(1)
    if exponent == 1:
        return node
    if isinstance(node, Const):
        return Const(node.value ** exponent)
    if isinstance(node, Pow):
        return Pow(node.base, node.exponent * exponent)
    return Pow(node, exponent)


def expr_from_polynomial(poly: Polynomial) -> Expr:
    """The direct (expanded sum-of-products) expression of a polynomial.

    This is the paper's "direct implementation": one product per term, one
    big sum — the starting point every optimization is measured against.
    """
    terms = []
    for exps, coeff in poly.sorted_terms("grlex"):
        factors: list[ExprLike] = []
        if coeff != 1 or not any(exps):
            factors.append(coeff)
        for var, e in zip(poly.vars, exps):
            if e:
                factors.append(make_pow(Var(var), e))
        terms.append(make_mul(*factors))
    return make_add(*terms)


def _expand(
    node: Expr, blocks: Mapping[str, Expr], active: tuple[str, ...]
) -> Polynomial:
    """``node`` as a polynomial; ``active`` is the chain of blocks being expanded."""
    if isinstance(node, Const):
        return Polynomial.constant(node.value)
    if isinstance(node, Var):
        return Polynomial.variable(node.name)
    if isinstance(node, BlockRef):
        _check_block(node.name, blocks, active)
        return _expand(blocks[node.name], blocks, active + (node.name,))
    if isinstance(node, Add):
        total = Polynomial.zero()
        for op in node.operands:
            total = total + _expand(op, blocks, active)
        return total
    if isinstance(node, Mul):
        total = Polynomial.constant(1)
        for op in node.operands:
            total = total * _expand(op, blocks, active)
        return total
    if isinstance(node, Pow):
        return _expand(node.base, blocks, active) ** node.exponent
    raise TypeError(f"unknown expression node {node!r}")


def _check_block(name: str, blocks: Mapping[str, Expr], active: tuple[str, ...]) -> None:
    """Refuse to follow a reference that closes a cycle or names no block."""
    if name in active:
        raise ValueError(f"cyclic block reference through {name!r}")
    if name not in blocks:
        raise KeyError(f"undefined block {name!r}")


def expr_to_polynomial(
    expr: Expr, blocks: Mapping[str, Expr] | None = None
) -> Polynomial:
    """Expand an expression (resolving block references) to a polynomial.

    This is the semantic ground truth used by validation: a decomposition
    is correct iff expansion returns the original polynomial.
    """
    return _expand(expr, blocks or {}, ())


def _evaluate(
    node: Expr,
    env: Mapping[str, int],
    blocks: Mapping[str, Expr],
    modulus: int | None,
    cache: dict[str, int],
    active: tuple[str, ...],
) -> int:
    if isinstance(node, Const):
        return node.value if modulus is None else node.value % modulus
    if isinstance(node, Var):
        value = env[node.name]
        return value if modulus is None else value % modulus
    if isinstance(node, BlockRef):
        name = node.name
        if name not in cache:
            _check_block(name, blocks, active)
            cache[name] = _evaluate(
                blocks[name], env, blocks, modulus, cache, active + (name,)
            )
        return cache[name]
    if isinstance(node, Add):
        total = 0
        for op in node.operands:
            total += _evaluate(op, env, blocks, modulus, cache, active)
        return total if modulus is None else total % modulus
    if isinstance(node, Mul):
        total = 1
        for op in node.operands:
            total *= _evaluate(op, env, blocks, modulus, cache, active)
        return total if modulus is None else total % modulus
    if isinstance(node, Pow):
        base = _evaluate(node.base, env, blocks, modulus, cache, active)
        if modulus is None:
            return base ** node.exponent
        return pow(base, node.exponent, modulus)
    raise TypeError(f"unknown expression node {node!r}")


def evaluate_expr(
    expr: Expr,
    env: Mapping[str, int],
    blocks: Mapping[str, Expr] | None = None,
    modulus: int | None = None,
) -> int:
    """Evaluate an expression at integer inputs (optionally mod ``modulus``).

    A cyclic block reference raises ``ValueError``, as in
    :func:`expr_to_polynomial`.
    """
    return _evaluate(expr, env, blocks or {}, modulus, {}, ())


def _collect_block_refs(node: Expr, refs: set[str]) -> None:
    if isinstance(node, BlockRef):
        refs.add(node.name)
    elif isinstance(node, Add) or isinstance(node, Mul):
        for op in node.operands:
            _collect_block_refs(op, refs)
    elif isinstance(node, Pow):
        _collect_block_refs(node.base, refs)


def expr_block_refs(expr: Expr) -> set[str]:
    """Names of all blocks referenced (non-transitively) by an expression."""
    refs: set[str] = set()
    _collect_block_refs(expr, refs)
    return refs
