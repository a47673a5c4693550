"""Tests for system-level decompositions (blocks + outputs)."""

import pytest

from repro.expr import Decomposition, OpCount, make_add, make_mul, make_pow
from repro.expr.ast import BlockRef
from repro.poly import parse_polynomial as P, parse_system


def motivating_decomposition() -> Decomposition:
    """The paper's Table 14.1 proposed decomposition."""
    d = Decomposition(method="paper")
    d.define_block("d1", make_add("x", make_mul(3, "y")))
    d.outputs = [
        make_pow(BlockRef("d1"), 2),
        make_mul(4, make_pow("y", 2), BlockRef("d1")),
        make_mul(2, "x", "z", BlockRef("d1")),
    ]
    return d


class TestDefineBlock:
    def test_duplicate_rejected(self):
        d = Decomposition()
        d.define_block("a", make_add("x", 1))
        with pytest.raises(ValueError):
            d.define_block("a", make_add("x", 2))

    def test_forward_reference_rejected(self):
        d = Decomposition()
        with pytest.raises(KeyError):
            d.define_block("a", BlockRef("later"))


class TestLiveBlocks:
    def test_unreferenced_blocks_dead(self):
        d = motivating_decomposition()
        d.define_block("unused", make_add("x", "y"))
        assert "unused" not in d.live_blocks()
        assert d.live_blocks() == ["d1"]

    def test_transitive_liveness(self):
        d = Decomposition()
        d.define_block("a", make_add("x", 1))
        d.define_block("b", make_mul(BlockRef("a"), "y"))
        d.outputs = [BlockRef("b")]
        assert d.live_blocks() == ["a", "b"]


class TestOpCount:
    def test_paper_count(self):
        # Table 14.1 proposed: 8 MULT, 1 ADD.
        count = motivating_decomposition().op_count()
        assert (count.mul, count.add) == (8, 1)

    def test_dead_blocks_not_counted(self):
        d = motivating_decomposition()
        base = d.op_count()
        d.define_block("dead", make_mul("x", "y", "z"))
        assert d.op_count() == base

    def test_shared_block_counted_once(self):
        d = Decomposition()
        d.define_block("s", make_mul("x", "y"))
        d.outputs = [BlockRef("s"), BlockRef("s"), BlockRef("s")]
        assert d.op_count() == OpCount(1, 0)


class TestValidate:
    def test_valid(self):
        system = parse_system(
            ["x^2 + 6*x*y + 9*y^2", "4*x*y^2 + 12*y^3", "2*x^2*z + 6*x*y*z"]
        )
        motivating_decomposition().validate(system)  # should not raise

    def test_wrong_polynomial_detected(self):
        d = motivating_decomposition()
        with pytest.raises(ValueError, match="expands to"):
            d.validate(parse_system(["x", "y", "z"]))

    def test_wrong_arity_detected(self):
        d = motivating_decomposition()
        with pytest.raises(ValueError, match="outputs"):
            d.validate(parse_system(["x"]))

    def test_validate_mod(self):
        d = Decomposition()
        d.outputs = [make_pow("x", 2)]
        # x^2 and x^2 + 2^16 * x are the same function mod 2^16... at x even;
        # use the true vanishing polynomial 2^15 * x(x-1) instead.
        target = P("x^2") + P("x^2 - x").scale(1 << 15)
        samples = [{"x": v} for v in range(16)]
        d.validate_mod([target], 1 << 16, samples)

    def test_validate_mod_catches_mismatch(self):
        d = Decomposition()
        d.outputs = [make_pow("x", 2)]
        samples = [{"x": v} for v in range(4)]
        with pytest.raises(ValueError, match="disagrees"):
            d.validate_mod([P("x^2 + 1")], 1 << 16, samples)


    def test_validate_mod_rejects_cyclic_blocks(self):
        d = Decomposition()
        d.blocks["a"] = make_add(BlockRef("b"), "x")
        d.blocks["b"] = make_add(BlockRef("a"), "x")
        d.outputs = [BlockRef("a")]
        with pytest.raises(ValueError, match="cyclic"):
            d.validate_mod([P("x")], 1 << 16, [{"x": 1}])


class TestSummary:
    def test_mentions_blocks_and_cost(self):
        text = motivating_decomposition().summary()
        assert "d1" in text and "cost:" in text and "8 MULT" in text
