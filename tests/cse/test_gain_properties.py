"""Monotonicity properties of the CSE extraction loop."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cse import eliminate_common_subexpressions
from repro.expr import sop_op_count
from repro.poly import Polynomial
from tests.conftest import polynomials


def system_weight(polys, blocks):
    return sum(sop_op_count(p).weighted() for p in polys) + sum(
        sop_op_count(b).weighted() for b in blocks.values()
    )


class TestMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(polynomials(max_terms=5, max_exp=3, max_coeff=9), min_size=2, max_size=4)
    )
    def test_extraction_never_increases_weight(self, polys):
        """Each greedy round demands positive gain, so the final rewritten
        system (including block bodies) weighs no more than the input."""
        system = Polynomial.unify_all(polys)
        before = system_weight(system, {})
        result = eliminate_common_subexpressions(system)
        after = system_weight(result.polys, result.blocks)
        assert after <= before

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(polynomials(max_terms=5, max_exp=3, max_coeff=9), min_size=1, max_size=3)
    )
    def test_blocks_always_referenced(self, polys):
        """No extraction leaves an orphan block behind."""
        system = Polynomial.unify_all(polys)
        result = eliminate_common_subexpressions(system)
        for name in result.blocks:
            used_in_output = any(name in p.used_vars() for p in result.polys)
            used_in_block = any(
                name in b.used_vars() for other, b in result.blocks.items() if other != name
            )
            assert used_in_output or used_in_block, f"orphan block {name}"

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(polynomials(max_terms=4, max_exp=3, max_coeff=9), min_size=2, max_size=3)
    )
    def test_determinism(self, polys):
        system = Polynomial.unify_all(polys)
        first = eliminate_common_subexpressions(system)
        second = eliminate_common_subexpressions(system)
        assert first.polys == second.polys
        assert first.blocks == second.blocks
