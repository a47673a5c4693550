"""Tests for the Hensel-lifting Zassenhaus path (differential vs big-prime)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.factor import factor_squarefree_univariate
from repro.factor.squarefree import is_square_free
from repro.factor.zp import zp_mul, zp_sub, zp_trim
from repro.poly import Polynomial, parse_polynomial as P, poly_prod
from tests.factor.hensel import _bezout, _hensel_step, _monicize, zassenhaus_factor


class TestHenselStep:
    def test_single_quadratic_lift(self):
        # f = (x+1)(x+4) = x^2+5x+4; mod 3: (x+1)(x+1)? no: x+4 = x+1 mod 3 —
        # need coprime images: use f = (x+1)(x+5) = x^2+6x+5 mod 3: (x+1)(x+2).
        p = 3
        f = [5, 6, 1]
        g = [1, 1]
        h = [2, 1]
        s, t = _bezout(g, h, p)
        g2, h2, s2, t2 = _hensel_step(f, g, h, s, t, p)
        m2 = p * p
        # lifted identity f = g2 h2 (mod 9)
        product = zp_trim(zp_mul(g2, h2, m2), m2)
        assert zp_trim(zp_sub(f, product, m2), m2) == []
        # Bezout lifted too
        sg = zp_mul(s2, g2, m2)
        th = zp_mul(t2, h2, m2)
        total = zp_trim([a + b for a, b in zip(sg + [0] * 8, th + [0] * 8)], m2)
        assert total == [1]

    def test_bezout_requires_coprime(self):
        import pytest

        with pytest.raises(ValueError):
            _bezout([1, 1], [2, 2], 3)


class TestMonicize:
    def test_monic_output(self):
        monic, lead = _monicize([1, 5, 6])  # 6x^2+5x+1
        assert monic[-1] == 1 and lead == 6
        # F(y) = y^2 + 5y + 6 for f = 6x^2+5x+1 (roots scaled by lc)
        assert monic == [6, 5, 1]


class TestZassenhaus:
    def test_known_factorizations(self):
        cases = {
            "x^2 + 3*x + 2": ["x + 1", "x + 2"],
            "(x^2 - 1)*(x^2 - 4)": ["x + 1", "x + 2", "x - 1", "x - 2"],
            "6*x^2 + 5*x + 1": ["2*x + 1", "3*x + 1"],
            "(x^2 - 2)*(x^2 - 3)": ["x^2 - 2", "x^2 - 3"],
            "x^4 + x^3 + x^2 + x + 1": ["x^4 + x^3 + x^2 + x + 1"],
        }
        for text, expected in cases.items():
            factors = zassenhaus_factor(P(text), "x")
            assert sorted(map(str, factors)) == sorted(expected), text

    def test_degree_one_passthrough(self):
        assert zassenhaus_factor(P("7*x + 3"), "x") == [P("7*x + 3")]

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=-6, max_value=6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_differential_vs_big_prime(self, pairs):
        """Both Zassenhaus variants must produce the same factor multiset."""
        from math import gcd

        factors_in = []
        seen = set()
        for a, b in pairs:
            g = gcd(a, abs(b)) if b else a
            a, b = a // g, b // g
            if (a, b) in seen:
                continue
            seen.add((a, b))
            factors_in.append(Polynomial.from_dense([b, a], "x"))
        product = poly_prod(factors_in).primitive_part()
        if product.degree("x") < 2 or not is_square_free(product):
            return
        hensel = sorted(map(str, zassenhaus_factor(product, "x")))
        big_prime = sorted(map(str, factor_squarefree_univariate(product, "x")))
        assert hensel == big_prime

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=3, max_size=6))
    def test_product_reconstructed(self, coeffs):
        poly = Polynomial.from_dense(coeffs, "x").primitive_part()
        if poly.degree("x") < 2 or not is_square_free(poly):
            return
        factors = zassenhaus_factor(poly, "x")
        product = poly_prod(factors)
        assert product == poly or product == -poly
