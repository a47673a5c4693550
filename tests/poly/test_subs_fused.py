"""The fused ``Polynomial.subs`` against the term-by-term oracle.

Equality is not enough: substitution results feed kernel extraction,
CSE and the rendered decompositions in term order, so the fused pass
must give the oracle's variable tuple and its *ordered* terms.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import synthesize
from repro.core.blocks import BlockRegistry
from repro.cse import expand_blocks
from repro.poly import Polynomial
from repro.suite import available_systems, get_system

from tests.poly.subs_oracle import subs_oracle

#: Variable names the strategies draw from; ``_b1`` stands in for a block.
NAMES = ("a", "x", "y", "z", "_b1")


def ordered(poly):
    return poly.vars, list(poly.terms.items())


@st.composite
def frames(draw, min_size=0):
    """A variable tuple in any order (unsorted frames included)."""
    return tuple(draw(st.permutations(NAMES)))[
        : draw(st.integers(min_value=min_size, max_value=len(NAMES)))
    ]


@st.composite
def polys(draw, max_terms=5, max_exp=3, cancel=False):
    """A polynomial over a random (possibly unsorted, padded) frame."""
    frame = draw(frames())
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in frame
        )
        # Small coefficients of both signs make cancellations likely.
        coeff = draw(st.integers(min_value=-3, max_value=3) if cancel
                     else st.integers(min_value=-50, max_value=50))
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(frame, terms)


values = st.one_of(
    st.integers(min_value=-4, max_value=4),  # zero included
    polys(max_terms=3, max_exp=2, cancel=True),
)

mappings = st.dictionaries(st.sampled_from(NAMES), values, max_size=len(NAMES))


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(polys(), mappings)
    def test_random_substitutions(self, poly, mapping):
        assert ordered(poly.subs(mapping)) == ordered(subs_oracle(poly, mapping))

    @settings(max_examples=200, deadline=None)
    @given(polys(cancel=True), mappings)
    def test_cancelling_substitutions(self, poly, mapping):
        assert ordered(poly.subs(mapping)) == ordered(subs_oracle(poly, mapping))

    @pytest.mark.parametrize(
        "poly, mapping",
        [
            # int values, a zero replacement, and a polynomial value
            (Polynomial.parse("x^2*y + 3*x - y"), {"x": 2, "y": 0}),
            (Polynomial.parse("x^2*y + 3*x - y"), {"x": Polynomial.zero(("z", "a"))}),
            # a replacement over unsorted and unused variables
            (Polynomial.parse("x*y^2 + x + 1"),
             {"y": Polynomial(("z", "a", "x"), {(1, 0, 1): 2, (0, 0, 0): -1})}),
            # mapped variables the polynomial does not use
            (Polynomial.parse("x + y"), {"z": Polynomial.parse("x - 1"), "a": 3}),
            # simultaneous swap
            (Polynomial.parse("x^2 + 2*x*y - y^3"),
             {"x": Polynomial.variable("y"), "y": Polynomial.variable("x")}),
            # every term cancels
            (Polynomial.parse("x - y"), {"x": Polynomial.variable("y")}),
            # a key that cancels and comes back goes to the end
            (Polynomial(("x", "w", "y", "z"), {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                                               (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}),
             {"x": Polynomial.variable("a"), "y": Polynomial.parse("-a"),
              "z": Polynomial.variable("a")}),
            (Polynomial.parse("x^2 - y^2"), {"x": Polynomial.parse("-y")}),
            # ... and inside a term's product
            (Polynomial(("u", "v"), {(1, 1): 1}),
             {"u": Polynomial(("a", "b"), {(1, 0): 1, (1, 1): -1, (0, 1): -1, (2, 0): 1}),
              "v": Polynomial(("a", "b"), {(1, 1): -1, (2, 1): 1, (2, 0): 2})}),
            # constant and empty inputs
            (Polynomial.constant(7, ("x", "y")), {"x": 3}),
            (Polynomial.zero(("x",)), {"x": Polynomial.parse("y + 1")}),
            (Polynomial.parse("x + 1"), {}),
        ],
    )
    def test_edge_cases(self, poly, mapping):
        assert ordered(poly.subs(mapping)) == ordered(subs_oracle(poly, mapping))


def _oracle_expand(poly, blocks):
    """``expand_blocks`` with every substitution done by the oracle."""
    current = poly
    for _ in range(len(blocks) + 1):
        used = set(current.used_vars())
        present = [name for name in blocks if name in used]
        if not present:
            return current.trim()
        current = subs_oracle(current, {name: blocks[name] for name in present})
    raise RuntimeError("cyclic block definitions")


class TestRegistryExpansion:
    def test_every_expand_call_on_registered_systems(self, monkeypatch):
        """Each ``registry.expand`` of the registered systems matches."""
        calls = 0

        def checked(self, poly):
            nonlocal calls
            calls += 1
            fused = expand_blocks(poly, self.defs)
            assert ordered(fused) == ordered(_oracle_expand(poly, self.defs))
            return fused

        monkeypatch.setattr(BlockRegistry, "expand", checked)
        for name in available_systems():
            system = get_system(name)
            synthesize(list(system.polys), system.signature)
        assert calls > 0
