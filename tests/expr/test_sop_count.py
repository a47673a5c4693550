"""Differential tests: the closed-form SOP count against the built tree.

``sop_op_count(p)`` must equal ``expr_op_count(expr_from_polynomial(p))``
for every polynomial: random ones with the awkward shapes (unused
variables, constants, zero, unit and non-unit coefficients, pure powers,
a constant term that cancels) and every polynomial the synthesis flow
prices on the registered benchmark systems.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.core.synth as synth
from repro.core import SynthesisOptions, synthesize
from repro.expr import OpCount, expr_from_polynomial, expr_op_count, sop_op_count
from repro.poly import Polynomial, parse_polynomial as P
from repro.suite import available_systems, get_system

VARS = ("a", "b", "c", "d")


def tree_count(poly: Polynomial) -> OpCount:
    return expr_op_count(expr_from_polynomial(poly))


@st.composite
def padded_polynomials(draw):
    """Sparse polynomials over up to four variables, some never used."""
    nvars = draw(st.integers(min_value=0, max_value=len(VARS)))
    used = draw(st.integers(min_value=0, max_value=nvars))
    coeff = st.one_of(
        st.sampled_from([1, -1]), st.integers(min_value=-9, max_value=9)
    )
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=4)) if k < used else 0
            for k in range(nvars)
        )
        terms[exps] = draw(coeff)
    return Polynomial(VARS[:nvars], terms)


class TestClosedForm:
    @settings(max_examples=300)
    @given(padded_polynomials())
    def test_matches_tree(self, poly):
        assert sop_op_count(poly) == tree_count(poly)

    @settings(max_examples=100)
    @given(padded_polynomials(), st.integers(min_value=-9, max_value=9))
    def test_cancelled_constant(self, poly, constant):
        # Adding and removing a constant leaves no constant term behind.
        shifted = poly + Polynomial.constant(constant)
        cancelled = shifted - Polynomial.constant(shifted.terms.get(
            (0,) * len(shifted.vars), 0))
        assert sop_op_count(shifted) == tree_count(shifted)
        assert sop_op_count(cancelled) == tree_count(cancelled)

    @pytest.mark.parametrize("text, mul, add, const_mul", [
        ("0", 0, 0, 0),
        ("7", 0, 0, 0),
        ("x", 0, 0, 0),
        ("-x", 0, 0, 0),
        ("x^3", 2, 0, 0),
        ("-x^3", 2, 0, 0),
        ("5*x^3", 3, 0, 1),
        ("x*y*z", 2, 0, 0),
        ("3*x^2*y + 2", 3, 1, 1),
        ("x^2 - 2*x*y + y^2 - 1", 4, 3, 1),
    ])
    def test_paper_arithmetic(self, text, mul, add, const_mul):
        poly = P(text)
        assert sop_op_count(poly) == OpCount(mul, add, const_mul) == tree_count(poly)

    def test_unused_variables_cost_nothing(self):
        padded = Polynomial(("u", "x", "v"), {(0, 2, 0): 3, (0, 0, 0): 1})
        assert sop_op_count(padded) == sop_op_count(P("3*x^2 + 1")) == tree_count(padded)


@pytest.mark.parametrize("name", available_systems())
def test_every_polynomial_the_flow_prices(name, monkeypatch):
    """Representations (pruned ones too) and block definitions of a real run."""
    priced: list[Polynomial] = []

    def recording(poly):
        priced.append(poly)
        return sop_op_count(poly)

    monkeypatch.setattr(synth, "sop_op_count", recording)
    system = get_system(name)
    result = synthesize(
        list(system.polys), system.signature, SynthesisOptions(descent_budget=40)
    )
    priced.extend(rep.poly for reps in result.representation_lists for rep in reps)
    priced.extend(result.registry.defs.values())
    assert len(priced) > len(system.polys)
    for poly in priced:
        assert sop_op_count(poly) == tree_count(poly), (name, str(poly))
