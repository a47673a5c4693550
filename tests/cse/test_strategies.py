"""Tests for the CSE candidate-class ablation switches."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cse import eliminate_common_subexpressions, expand_blocks
from repro.expr import sop_op_count
from repro.poly import Polynomial, parse_system
from tests.conftest import polynomials


def weight(result):
    return sum(sop_op_count(p).weighted() for p in result.polys) + sum(
        sop_op_count(b).weighted() for b in result.blocks.values()
    )


class TestSwitches:
    def test_kernels_off_blocks_kernel_sharing(self):
        system = parse_system(["x*a + x*b + q", "y*a + y*b + r"])
        off = eliminate_common_subexpressions(system, enable_kernels=False)
        # the kernel a+b cannot be found; only cube candidates remain
        for block in off.blocks.values():
            assert len(block) == 1  # cubes only

    def test_cubes_off_blocks_cube_sharing(self):
        system = parse_system(["x*y*z + a", "x*y*w + b"])
        off = eliminate_common_subexpressions(system, enable_cubes=False)
        for block in off.blocks.values():
            assert len(block) >= 2  # kernels only

    def test_all_off_is_identity(self):
        system = parse_system(["x*a + x*b", "y*a + y*b"])
        off = eliminate_common_subexpressions(
            system,
            enable_kernels=False,
            enable_cubes=False,
            enable_rectangles=False,
        )
        assert off.polys == system and not off.blocks

    def test_rectangles_widen_three_way_sharing(self):
        # three rows sharing a 3-term body; the pairwise candidates also
        # find it, but the rectangle class must not *hurt* — full >= off
        system = parse_system(
            [
                "x^2 - 4*x*y + 3*y^2 + 12*x",
                "x^2 - 4*x*y + 3*y^2 + 5*y",
                "x^2 - 4*x*y + 3*y^2 + 9",
            ]
        )
        full = eliminate_common_subexpressions(system)
        no_rect = eliminate_common_subexpressions(system, enable_rectangles=False)
        assert weight(full) <= weight(no_rect)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(polynomials(max_terms=4, max_exp=3, max_coeff=9), min_size=2, max_size=3)
    )
    def test_restricted_runs_still_sound(self, polys):
        system = Polynomial.unify_all(polys)
        for kwargs in (
            {"enable_kernels": False},
            {"enable_cubes": False},
            {"enable_rectangles": False},
        ):
            result = eliminate_common_subexpressions(system, **kwargs)
            for original, rewritten in zip(system, result.polys):
                assert expand_blocks(rewritten, result.blocks) == original

    # Greedy extraction is not monotone in the candidate classes for
    # arbitrary random systems (a cube picked early can block a better
    # kernel), so the dominance check runs on curated structured systems
    # where sharing is real; random inputs are covered by the soundness
    # test above.
    def test_full_never_worse_than_restricted(self):
        for rows in (
            ["x*a + x*b + q", "y*a + y*b + r"],
            ["x*y*z + a", "x*y*w + b"],
            ["x^2 - 4*x*y + 3*y^2 + 12*x", "x^2 - 4*x*y + 3*y^2 + 5*y"],
            ["a*x^2 + a*x + a", "b*x^2 + b*x + b", "c*x^2 + c*x"],
        ):
            system = parse_system(rows)
            full = weight(eliminate_common_subexpressions(system))
            for kwargs in ({"enable_kernels": False}, {"enable_cubes": False}):
                restricted = weight(
                    eliminate_common_subexpressions(system, **kwargs)
                )
                assert full <= restricted, (rows, kwargs)