"""Unit and property tests for expression nodes and smart constructors."""

import pytest
from hypothesis import given

from repro.expr import (
    Add,
    BlockRef,
    Const,
    Mul,
    Pow,
    Var,
    evaluate_expr,
    expr_from_polynomial,
    expr_to_polynomial,
    make_add,
    make_mul,
    make_pow,
)
from repro.expr.ast import expr_block_refs
from repro.poly import parse_polynomial as P
from tests.conftest import polynomials


class TestSmartConstructors:
    def test_add_folds_constants(self):
        assert make_add(1, 2, Var("x")) == Add((Var("x"), Const(3)))

    def test_add_flattens(self):
        nested = make_add(make_add("x", "y"), "z")
        assert isinstance(nested, Add) and len(nested.operands) == 3

    def test_add_empty_is_zero(self):
        assert make_add() == Const(0)

    def test_add_singleton_unwraps(self):
        assert make_add(Var("x")) == Var("x")

    def test_mul_folds_constants(self):
        assert make_mul(2, 3, Var("x")) == Mul((Const(6), Var("x")))

    def test_mul_zero_collapses(self):
        assert make_mul(0, Var("x")) == Const(0)

    def test_mul_unit_dropped(self):
        assert make_mul(1, Var("x")) == Var("x")

    def test_pow_folding(self):
        assert make_pow("x", 0) == Const(1)
        assert make_pow("x", 1) == Var("x")
        assert make_pow(Const(3), 2) == Const(9)
        assert make_pow(make_pow("x", 2), 3) == Pow(Var("x"), 6)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            make_pow("x", -1)

    def test_coercion(self):
        assert make_add("x", 1) == Add((Var("x"), Const(1)))
        with pytest.raises(TypeError):
            make_add(1.5)


class TestExprPolynomialBridge:
    def test_expr_from_polynomial_direct(self):
        expr = expr_from_polynomial(P("x^2 + 6*x*y + 9*y^2"))
        assert expr_to_polynomial(expr) == P("x^2 + 6*x*y + 9*y^2")

    def test_block_resolution(self):
        blocks = {"d": make_add("x", make_mul(3, "y"))}
        expr = make_pow(BlockRef("d"), 2)
        assert expr_to_polynomial(expr, blocks) == P("(x + 3*y)^2")

    def test_chained_blocks(self):
        blocks = {
            "a": make_add("x", 1),
            "b": make_mul(BlockRef("a"), "y"),
        }
        assert expr_to_polynomial(BlockRef("b"), blocks) == P("x*y + y")

    def test_undefined_block(self):
        with pytest.raises(KeyError):
            expr_to_polynomial(BlockRef("nope"), {})

    def test_cyclic_blocks_detected(self):
        blocks = {"a": BlockRef("b"), "b": BlockRef("a")}
        with pytest.raises(ValueError, match="cyclic"):
            expr_to_polynomial(BlockRef("a"), blocks)

    @given(polynomials())
    def test_roundtrip_random(self, poly):
        assert expr_to_polynomial(expr_from_polynomial(poly)) == poly


class TestEvaluate:
    def test_simple(self):
        expr = make_add(make_mul(2, "x"), 5)
        assert evaluate_expr(expr, {"x": 10}) == 25

    def test_modular(self):
        expr = make_pow("x", 2)
        assert evaluate_expr(expr, {"x": 256}, modulus=2**16) == 0

    def test_blocks_cached_and_shared(self):
        blocks = {"d": make_add("x", "y")}
        expr = make_mul(BlockRef("d"), BlockRef("d"))
        assert evaluate_expr(expr, {"x": 2, "y": 3}, blocks) == 25

    def test_cyclic_blocks_detected(self):
        # a = b + x, b = a + x: the same ValueError as expansion, not a
        # RecursionError.
        blocks = {
            "a": make_add(BlockRef("b"), "x"),
            "b": make_add(BlockRef("a"), "x"),
        }
        with pytest.raises(ValueError, match="cyclic block reference through 'a'"):
            evaluate_expr(BlockRef("a"), {"x": 1}, blocks, modulus=1 << 8)
        with pytest.raises(ValueError, match="cyclic block reference through 'a'"):
            expr_to_polynomial(BlockRef("a"), blocks)

    def test_undefined_block(self):
        with pytest.raises(KeyError):
            evaluate_expr(BlockRef("nope"), {"x": 1}, {})

    @given(polynomials())
    def test_matches_polynomial_evaluation(self, poly):
        expr = expr_from_polynomial(poly)
        env = {"x": 3, "y": -1, "z": 2}
        assert evaluate_expr(expr, env) == poly.evaluate(env)


class TestBlockRefs:
    def test_collects_refs(self):
        expr = make_add(BlockRef("a"), make_mul(BlockRef("b"), "x"))
        assert expr_block_refs(expr) == {"a", "b"}

    def test_pow_base_searched(self):
        assert expr_block_refs(make_pow(BlockRef("a"), 3)) == {"a"}

    def test_no_refs(self):
        assert expr_block_refs(make_add("x", 1)) == set()
