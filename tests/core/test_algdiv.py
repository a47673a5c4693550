"""Tests for algebraic division by linear blocks (Section 14.4.3)."""

from repro.core import (
    BlockRegistry,
    divide_by_block,
    division_candidates,
    refine_block_definitions,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cse import expand_blocks
from repro.poly import Polynomial, divide_out_all, parse_polynomial as P
from repro.poly.division import _divmod_generic
from repro.poly.orderings import grevlex_key


class TestDivideByBlock:
    def test_perfect_square(self):
        result = divide_by_block(P("x^2 + 6*x*y + 9*y^2"), P("x + 3*y"), "d")
        assert result is not None
        # d * d with no remainder
        assert expand_blocks(result, {"d": P("x + 3*y")}) == P("x^2 + 6*x*y + 9*y^2")
        assert result == Polynomial.variable("d") ** 2

    def test_with_remainder(self):
        poly = P("13*x^2 + 26*x*y + 13*y^2 + 7*x - 7*y + 11")
        result = divide_by_block(poly, P("x + y"), "d")
        assert result is not None
        assert expand_blocks(result, {"d": P("x + y")}) == poly

    def test_no_quotient_returns_none(self):
        assert divide_by_block(P("z + 1"), P("x + y"), "d") is None

    def test_cofactor(self):
        result = divide_by_block(P("4*x*y^2 + 12*y^3"), P("x + 3*y"), "d")
        assert result == Polynomial.variable("d") * P("4*y^2")


class TestDivisionCandidates:
    def test_motivating_example(self):
        registry = BlockRegistry(("x", "y", "z"))
        name, _ = registry.register(P("x + 3*y"))
        candidates = division_candidates(P("x^2 + 6*x*y + 9*y^2"), registry)
        assert any(c == Polynomial.variable(name) ** 2 for c in candidates)

    def test_irrelevant_divisors_skipped(self):
        registry = BlockRegistry(("x", "y", "z", "w"))
        registry.register(P("w + z"))
        candidates = division_candidates(P("x^2 + y"), registry)
        assert candidates == []

    def test_cap_respected(self):
        registry = BlockRegistry(("x", "y"))
        for k in range(1, 9):
            registry.register(P(f"x + {k}*y"))
        candidates = division_candidates(P("x^2 + 6*x*y + 9*y^2"), registry, 3)
        assert len(candidates) <= 3


class TestRefineBlockDefinitions:
    def test_square_block_rewritten(self):
        registry = BlockRegistry(("x", "y"))
        linear, _ = registry.register(P("x + y"))
        square, _ = registry.register(P("x^2 + 2*x*y + y^2"))
        rewritten = refine_block_definitions(registry)
        assert rewritten == 1
        assert registry.defs[square] == Polynomial.variable(linear) ** 2

    def test_product_block_rewritten(self):
        registry = BlockRegistry(("x", "y"))
        linear, _ = registry.register(P("x + 3*y"))
        product, _ = registry.register(P("x*y^2 + 3*y^3"))
        refine_block_definitions(registry)
        # definition should now reference the linear block
        assert linear in registry.defs[product].used_vars()

    def test_ground_truth_preserved(self):
        registry = BlockRegistry(("x", "y"))
        registry.register(P("x + y"))
        registry.register(P("x^3 + 3*x^2*y + 3*x*y^2 + y^3"))
        refine_block_definitions(registry)
        for name in registry.defs:
            assert registry.expand(Polynomial.variable(name)) == registry.ground[name]


def _exact(poly: Polynomial) -> tuple:
    """Variable order and term order included: the byte-identity view."""
    return poly.vars, tuple(poly.terms.items())


_VARS = ("x", "y", "z")

#: Linear blocks, non-primitive ones included (content 2 or 3).
_linear = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2)
).filter(lambda c: any(c[:3])).map(
    lambda c: c[0] * P("x") + c[1] * P("y") + c[2] * P("z") + c[3]
)

_monomial = st.tuples(
    st.integers(-4, 4).filter(bool), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, 1),
).map(lambda t: t[0] * P("x") ** t[1] * P("y") ** t[2] * P("z") ** t[3])

_cofactor = st.lists(_monomial, min_size=1, max_size=3).map(sum)


@st.composite
def _registries(draw):
    """Linear blocks plus grounds that are products of them."""
    registry = BlockRegistry(_VARS)
    blocks = draw(st.lists(_linear, min_size=1, max_size=4))
    blocks.append(P("2*x + 2*y"))
    for block in blocks:
        registry.register(block)
    for _ in range(draw(st.integers(1, 4))):
        ground = draw(_cofactor)
        for _ in range(draw(st.integers(1, 3))):
            ground = ground * draw(st.sampled_from(blocks))
        if draw(st.booleans()):
            ground = ground + draw(_monomial)
        if ground.total_degree() >= 2:
            registry.register(ground)
    return registry


def _reference_refine(registry: BlockRegistry) -> int:
    """refine_block_definitions without any screen: divide every pair."""
    rewritten = 0
    for name in list(registry.defs):
        ground = registry.ground[name]
        if ground.is_linear:
            continue
        best = None
        for divisor_name, divisor in registry.linear_blocks():
            if divisor_name == name:
                continue
            reduced, multiplicity = divide_out_all(ground, divisor)
            if multiplicity == 0:
                continue
            new_vars = tuple(dict.fromkeys(reduced.vars + (divisor_name,)))
            block_var = Polynomial.variable(divisor_name, new_vars)
            candidate = reduced.with_vars(new_vars) * block_var ** multiplicity
            if best is None or len(candidate) < len(best):
                best = candidate
        if best is not None and len(best) < len(registry.defs[name]):
            registry.rewrite_definition(name, best)
            rewritten += 1
    return rewritten


class TestRefineScreenDifferential:
    @settings(max_examples=80, deadline=None)
    @given(_registries())
    def test_matches_unscreened_reference(self, registry):
        reference = registry.copy()
        expected = _reference_refine(reference)
        assert refine_block_definitions(registry) == expected
        assert list(registry.defs) == list(reference.defs)
        for name, definition in registry.defs.items():
            assert _exact(definition) == _exact(reference.defs[name])

    def test_non_primitive_divisor(self):
        registry = BlockRegistry(("x", "y"))
        linear, _ = registry.register(P("2*x + 2*y"))
        square, _ = registry.register(P("4*x^2 + 8*x*y + 4*y^2"))
        assert refine_block_definitions(registry) == 1
        assert registry.defs[square] == Polynomial.variable(linear) ** 2


#: Dividends over the input variables plus a block variable no divisor
#: uses, as the CCE representations carry.
_block_monomial = st.tuples(_monomial, st.integers(0, 2)).map(
    lambda t: t[0] * P("_b9") ** t[1]
)


@st.composite
def _division_inputs(draw):
    registry = BlockRegistry(_VARS)
    for block in draw(st.lists(_linear, min_size=1, max_size=6)):
        registry.register(block)
    poly = sum(draw(st.lists(_block_monomial, min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 2))):
        poly = poly * draw(_linear)
    return poly, registry


def _tuple_divide_by_block(poly, divisor, block_name, max_depth=8):
    """divide_by_block on the exponent-tuple division loop."""
    if divisor.vars != poly.vars:
        if set(divisor.used_vars()) <= set(poly.vars):
            divisor = divisor.with_vars(poly.vars)
        else:
            poly, divisor = Polynomial.unify(poly, divisor)
    quotient, remainder = _divmod_generic(
        *Polynomial.unify(poly, divisor), grevlex_key
    )
    if quotient.is_zero:
        return None
    inner = quotient
    if max_depth > 1 and quotient.total_degree() >= divisor.total_degree():
        deeper = _tuple_divide_by_block(quotient, divisor, block_name, max_depth - 1)
        if deeper is not None:
            inner = deeper
    return Polynomial.variable(block_name) * inner + remainder


def _tuple_division_candidates(poly, registry, max_candidates):
    """division_candidates on the exponent-tuple division loop."""
    poly_vars = set(poly.used_vars())
    candidates = []
    for name, divisor in registry.linear_blocks():
        if name in poly_vars or not poly_vars.issuperset(divisor.used_vars()):
            continue
        rewritten = _tuple_divide_by_block(poly, divisor, name)
        if rewritten is not None:
            candidates.append((len(rewritten), rewritten))
    candidates.sort(key=lambda item: item[0])
    return [rewritten for _, rewritten in candidates[:max_candidates]]


class TestDivisionCandidatesPackedParity:
    @settings(max_examples=80, deadline=None)
    @given(_division_inputs(), st.sampled_from([2, 6]))
    def test_packed_matches_tuple(self, inputs, max_candidates):
        poly, registry = inputs
        for name, divisor in registry.linear_blocks():
            got = divide_by_block(poly, divisor, name)
            want = _tuple_divide_by_block(poly, divisor, name)
            assert (got is None) == (want is None)
            if got is not None:
                assert _exact(got) == _exact(want)
        packed = division_candidates(poly, registry, max_candidates)
        reference = _tuple_division_candidates(poly, registry, max_candidates)
        assert [_exact(c) for c in packed] == [_exact(c) for c in reference]
