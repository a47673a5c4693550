"""Tests for big-prime Zassenhaus factorization over Z."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.factor import (
    factor_polynomial,
    factor_squarefree_univariate,
    is_irreducible_univariate,
    mignotte_bound,
)
from repro.poly import Polynomial, parse_polynomial as P, poly_prod
from tests.conftest import to_sympy


class TestMignotteBound:
    def test_monotone_in_height(self):
        assert mignotte_bound([1, 0, 10]) > mignotte_bound([1, 0, 1])

    def test_covers_known_factor(self):
        # (x+9)(x+11) = x^2 + 20x + 99: factors' coefficients <= bound.
        assert mignotte_bound([99, 20, 1]) >= 11


class TestFactorSquarefree:
    def test_two_linears(self):
        factors = factor_squarefree_univariate(P("x^2 + 3*x + 2"), "x")
        assert sorted(map(str, factors)) == ["x + 1", "x + 2"]

    def test_irreducible_quadratic(self):
        factors = factor_squarefree_univariate(P("x^2 + 1"), "x")
        assert factors == [P("x^2 + 1")]

    def test_paper_example_14_3_inner(self):
        # (x^2-1)(x^2-4) splits completely
        factors = factor_squarefree_univariate(P("(x^2 - 1)*(x^2 - 4)"), "x")
        assert sorted(map(str, factors)) == ["x + 1", "x + 2", "x - 1", "x - 2"]

    def test_leading_coefficient(self):
        factors = factor_squarefree_univariate(P("6*x^2 + 5*x + 1"), "x")
        assert sorted(map(str, factors)) == ["2*x + 1", "3*x + 1"]

    def test_degree_one_returned_whole(self):
        assert factor_squarefree_univariate(P("3*x + 2"), "x") == [P("3*x + 2")]

    def test_cyclotomic_stays_irreducible(self):
        # x^4 + x^3 + x^2 + x + 1 (5th cyclotomic) is irreducible.
        assert is_irreducible_univariate(P("x^4 + x^3 + x^2 + x + 1"), "x")

    def test_swinnerton_dyer_style(self):
        # (x^2 - 2)(x^2 - 3): irreducible quadratics whose modular images
        # split — classic recombination stress test.
        factors = factor_squarefree_univariate(P("(x^2 - 2)*(x^2 - 3)"), "x")
        assert sorted(map(str, factors)) == ["x^2 - 2", "x^2 - 3"]

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=-9, max_value=9),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_product_of_random_linears(self, pairs):
        # distinct primitive linear factors a*x + b, gcd-free, product recovered
        from math import gcd

        factors_in = []
        seen = set()
        for a, b in pairs:
            g = gcd(a, abs(b)) if b else a
            a, b = a // g, b // g
            if (a, b) in seen or (a, -b) in seen:
                continue
            seen.add((a, b))
            factors_in.append(Polynomial.from_dense([b, a], "x"))
        product = poly_prod(factors_in)
        from repro.factor.squarefree import is_square_free

        if not is_square_free(product):
            return
        out = factor_squarefree_univariate(product, "x")
        assert poly_prod(out) == product
        assert len(out) == len(factors_in)


class TestFullFactorDriver:
    def test_paper_example_full(self):
        result = factor_polynomial(P("x^6 - 9*x^4 + 24*x^2 - 16"))
        factors = {str(base): mult for base, mult in result.factors}
        assert factors == {
            "x + 1": 1,
            "x - 1": 1,
            "x + 2": 2,
            "x - 2": 2,
        }
        assert result.expand() == P("x^6 - 9*x^4 + 24*x^2 - 16")

    def test_content_extracted(self):
        result = factor_polynomial(P("6*x^2 - 6"))
        assert result.content == 6
        assert result.expand() == P("6*x^2 - 6")

    def test_zero(self):
        result = factor_polynomial(Polynomial.zero(("x",)))
        assert result.content == 0

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=6)
    )
    def test_matches_sympy_on_random_univariate(self, coeffs):
        import sympy

        poly = Polynomial.from_dense(coeffs, "x")
        if poly.is_zero or poly.degree("x") < 1:
            return
        ours = factor_polynomial(poly)
        assert ours.expand() == poly
        x = sympy.Symbol("x")
        theirs = sympy.factor_list(to_sympy(poly))
        # same number of irreducible factors counted with multiplicity
        our_count = sum(m * max(b.degree("x"), 0) for b, m in ours.factors)
        their_count = sum(
            m * sympy.Poly(f, x).degree() for f, m in theirs[1]
        )
        assert our_count == their_count


class TestNotSquareFree:
    def test_square_raises_instead_of_hanging(self):
        # No prime keeps (x+1)^2 square-free, so the search for one must
        # give up rather than run forever.
        with pytest.raises(ValueError):
            factor_squarefree_univariate(P("x^2 + 2*x + 1"), "x")
