"""Independent output oracle for the end-to-end benchmark.

A decomposition is correct when every output, evaluated as a datapath,
equals the input polynomial evaluated term by term, modulo
``2^output_width``, at every input the check visits.  Canonical-form
outputs (``8*_k1 - 2`` for ``-8x^2y + 14`` at width 4) are only equal
as functions over the bit-vector signature, so this compares values,
never expanded polynomials.

The oracle shares no evaluation code with ``repro``: it walks the
expression tree itself (``Const``/``Var``/``BlockRef``/``Add``/``Mul``/
``Pow``, or their serialized ``{"op": ...}`` dicts from the service) and
counts operators by the paper's rules on its own.  Arithmetic runs on
NumPy ``uint64`` vectors: wrapping mod ``2^64`` is exact mod ``2^m`` for
every ``m <= 64``.
"""

from __future__ import annotations

import random

import numpy as np

#: Input domains of at most this many bits are checked exhaustively.
EXHAUSTIVE_BITS = 12
#: Seeded random points per system above that size.
RANDOM_POINTS = 64

_WRAP = 1 << 64
_OPS = {
    "Const": "const", "Var": "var", "BlockRef": "block",
    "Add": "add", "Mul": "mul", "Pow": "pow",
}


class OracleMismatch(AssertionError):
    """A decomposition disagrees with its input system."""


def as_tree(node) -> dict:
    """An expression node (``repro.expr.ast`` object or dict) as a dict."""
    if isinstance(node, dict):
        return node
    op = _OPS.get(type(node).__name__)
    if op is None:
        raise OracleMismatch(f"unknown expression node {node!r}")
    if op == "const":
        return {"op": op, "value": node.value}
    if op in ("var", "block"):
        return {"op": op, "name": node.name}
    if op == "pow":
        return {"op": op, "base": as_tree(node.base), "exponent": node.exponent}
    return {"op": op, "operands": [as_tree(o) for o in node.operands]}


def decomposition_tree(decomposition) -> tuple[dict[str, dict], list[dict]]:
    """``(blocks, outputs)`` of a Decomposition object or its JSON dict."""
    if isinstance(decomposition, dict):
        blocks, outputs = decomposition["blocks"], decomposition["outputs"]
    else:
        blocks, outputs = decomposition.blocks, decomposition.outputs
    return (
        {name: as_tree(expr) for name, expr in blocks.items()},
        [as_tree(expr) for expr in outputs],
    )


def _points(system) -> dict[str, np.ndarray]:
    """Every input when the domain is small, else seeded random points."""
    widths = list(system.signature.input_widths)
    bits = sum(width for _, width in widths)
    if bits <= EXHAUSTIVE_BITS:
        grids = np.meshgrid(
            *[np.arange(1 << width, dtype=np.uint64) for _, width in widths],
            indexing="ij",
        )
        return {name: grid.ravel() for (name, _), grid in zip(widths, grids)}
    rng = random.Random(f"oracle:{widths}:{[sorted(p.terms.items()) for p in system.polys]}")
    points: dict[str, np.ndarray] = {}
    for name, width in widths:
        top = (1 << width) - 1
        # The first two points are all-zeros and all-ones, where modular
        # wrap-around is most likely to be mishandled.
        values = [0, top] + [rng.randrange(1 << width) for _ in range(RANDOM_POINTS - 2)]
        points[name] = np.array(values, dtype=np.uint64)
    return points


def _const(value: int, n: int) -> np.ndarray:
    return np.full(n, value % _WRAP, dtype=np.uint64)


def _power(base: np.ndarray, exponent: int) -> np.ndarray:
    result = np.ones_like(base)
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base
        exponent >>= 1
    return result


def _evaluate(node: dict, env: dict[str, np.ndarray], blocks: dict[str, dict],
              memo: dict[str, np.ndarray], active: tuple[str, ...], n: int) -> np.ndarray:
    op = node["op"]
    if op == "const":
        return _const(int(node["value"]), n)
    if op == "var":
        return env[node["name"]]
    if op == "block":
        name = node["name"]
        if name not in memo:
            if name in active:
                raise OracleMismatch(f"cyclic block reference through {name!r}")
            if name not in blocks:
                raise OracleMismatch(f"undefined block {name!r}")
            memo[name] = _evaluate(blocks[name], env, blocks, memo, active + (name,), n)
        return memo[name]
    if op == "pow":
        return _power(_evaluate(node["base"], env, blocks, memo, active, n), int(node["exponent"]))
    values = [_evaluate(o, env, blocks, memo, active, n) for o in node["operands"]]
    total = values[0]
    for value in values[1:]:
        total = total + value if op == "add" else total * value
    return total


def _direct(poly, env: dict[str, np.ndarray], n: int) -> np.ndarray:
    """The input polynomial, evaluated term by term."""
    total = _const(0, n)
    for exps, coeff in poly.terms.items():
        term = _const(coeff, n)
        for var, exp in zip(poly.vars, exps):
            if exp:
                term = term * _power(env[var], exp)
        total = total + term
    return total


def check(system, decomposition) -> None:
    """Raise :class:`OracleMismatch` unless the decomposition computes the system."""
    width = system.signature.output_width
    if not 0 < width <= 64:
        raise OracleMismatch(f"output width {width} outside 1..64")
    blocks, outputs = decomposition_tree(decomposition)
    if len(outputs) != len(system.polys):
        raise OracleMismatch(f"{len(outputs)} outputs for {len(system.polys)} polynomials")
    env = _points(system)
    n = len(next(iter(env.values()))) if env else 1
    mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(_WRAP - 1)
    memo: dict[str, np.ndarray] = {}
    with np.errstate(over="ignore"):
        for index, (out, poly) in enumerate(zip(outputs, system.polys)):
            got = _evaluate(out, env, blocks, memo, (), n) & mask
            want = _direct(poly, env, n) & mask
            bad = np.flatnonzero(got != want)
            if bad.size:
                at = {name: int(values[bad[0]]) for name, values in env.items()}
                raise OracleMismatch(
                    f"output {index} of {system.name!r} disagrees at {at}: "
                    f"{int(got[bad[0]])} != {int(want[bad[0]])} (mod 2^{width})"
                )


def _node_ops(node: dict) -> tuple[int, int]:
    """(MULT, ADD) of one tree by the paper's counting rules.

    An n-ary sum costs n-1 adders; a product costs one multiplier per
    operand beyond the first, where a constant factor of +-1 is free;
    ``b^k`` costs k-1 multipliers; a block reference is free at its use.
    """
    op = node["op"]
    if op in ("const", "var", "block"):
        return 0, 0
    if op == "pow":
        mul, add = _node_ops(node["base"])
        return mul + int(node["exponent"]) - 1, add
    mul = add = 0
    effective = 0
    for operand in node["operands"]:
        if operand["op"] == "const" and int(operand["value"]) in (1, -1) and op == "mul":
            continue
        effective += 1
        m, a = _node_ops(operand)
        mul, add = mul + m, add + a
    if op == "add":
        return mul, add + len(node["operands"]) - 1
    return mul + max(effective - 1, 0), add


def _refs(node: dict) -> list[str]:
    if node["op"] == "block":
        return [node["name"]]
    if node["op"] == "pow":
        return _refs(node["base"])
    return [name for o in node.get("operands", ()) for name in _refs(o)]


def count_ops(decomposition) -> tuple[int, int]:
    """(MULT, ADD) of every output plus each block reachable from them, once."""
    blocks, outputs = decomposition_tree(decomposition)
    live: set[str] = set()
    frontier = [name for out in outputs for name in _refs(out)]
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier.extend(_refs(blocks[name]))
    mul = add = 0
    for tree in outputs + [blocks[name] for name in live]:
        m, a = _node_ops(tree)
        mul, add = mul + m, add + a
    return mul, add
