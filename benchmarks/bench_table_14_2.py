"""Regenerate Table 14.2 — Algorithm 7's worked example.

Paper numbers: initial cost 51 MULT / 21 ADD, final decomposition
14 MULT / 12 ADD via the blocks d1 = x+y, d2 = x-y, d3 = x(x-1)y(y-1).
"""

from repro.core import synthesize
from repro.poly import parse_polynomial as P
from repro.suite import table_14_2_system

from bench_common import record_table


def _run():
    system = table_14_2_system()
    return synthesize(list(system.polys), system.signature)


def test_table_14_2(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [
        f"initial cost : {result.initial_op_count}   (paper: 51 MULT, 21 ADD)",
        f"final cost   : {result.op_count}   (paper: 14 MULT, 12 ADD)",
        "",
    ]
    lines.extend(result.decomposition.summary().splitlines())
    record_table("Table 14.2 — Algorithm 7 worked example", lines)

    assert (result.initial_op_count.mul, result.initial_op_count.add) == (51, 21)
    assert result.op_count.mul <= 14
    assert result.op_count.add <= 14

    # The paper's building blocks must all be discovered.
    grounds = set(result.registry.ground.values())
    assert P("x + y") in grounds, "d1 = x + y not found"
    assert P("x - y") in grounds, "d2 = x - y not found"
    # d3 = x(x-1)y(y-1) appears either as a registry block or as a final
    # CSE block of the decomposition; check the decomposition expansion.
    from repro.expr.ast import expr_to_polynomial

    d3 = P("x^2*y^2 - x^2*y - x*y^2 + x*y")
    block_grounds = {
        expr_to_polynomial(expr, result.decomposition.blocks).trim()
        for expr in result.decomposition.blocks.values()
    }
    assert d3 in block_grounds or d3 in grounds, "d3 = x(x-1)y(y-1) not found"
