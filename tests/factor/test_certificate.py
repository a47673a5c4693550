"""Tests for the specialization certificates of ``repro.factor.certificate``.

The certificates only shortcut work: with them switched off, factoring
must return the same bases, multiplicities, term order and variables.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings

from repro.factor import (
    factor_polynomial,
    factor_squarefree_kronecker,
    square_free_factorization,
)
from repro.factor.certificate import (
    certificate_points,
    certify_irreducible,
    certify_square_free,
)
from repro.poly import parse_polynomial as P
from tests.conftest import polynomials, small_polynomials


@contextmanager
def certificates_off():
    with mock.patch("repro.factor.kronecker.certify_irreducible", lambda poly: False), \
            mock.patch("repro.factor.squarefree.certify_square_free", lambda poly, var: False):
        yield


def _exact(factors):
    """Bases with their variables and terms in order, plus multiplicities."""
    return [(b.vars, tuple(b.terms.items()), m) for b, m in factors]


def factor_inputs(nvars: int = 2):
    """Polynomials small enough that products of two stay cheap to factor."""
    return polynomials(nvars=nvars, max_terms=4, max_exp=2, max_coeff=12)


def _products(a, b):
    """Inputs that stay whole, split, and have squares."""
    return [a, a * b, a * b ** 2]


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(factor_inputs(), factor_inputs())
    def test_factor_polynomial(self, a, b):
        for poly in _products(a, b):
            if poly.is_zero:
                continue
            fast = factor_polynomial(poly)
            with certificates_off():
                full = factor_polynomial(poly)
            assert fast.content == full.content
            assert _exact(fast.factors) == _exact(full.factors)

    @settings(max_examples=60, deadline=None)
    @given(factor_inputs(nvars=3), factor_inputs(nvars=3))
    def test_square_free_factorization(self, a, b):
        for poly in _products(a, b):
            if poly.is_zero:
                continue
            fast = square_free_factorization(poly)
            with certificates_off():
                full = square_free_factorization(poly)
            assert fast.content == full.content
            assert _exact(fast.factors) == _exact(full.factors)

    @settings(max_examples=60, deadline=None)
    @given(factor_inputs(), factor_inputs())
    def test_factor_squarefree_kronecker(self, a, b):
        for poly in _products(a, b):
            if poly.is_zero:
                continue
            # The documented input: primitive square-free bases.
            for base, _ in square_free_factorization(poly).factors:
                fast = factor_squarefree_kronecker(base)
                with certificates_off():
                    full = factor_squarefree_kronecker(base)
                assert _exact((f, 1) for f in fast) == _exact((f, 1) for f in full)


class TestSoundness:
    @settings(max_examples=80, deadline=None)
    @given(small_polynomials(), small_polynomials())
    def test_never_accepts_a_product_or_a_square(self, g, h):
        g, h = g.primitive_part(), h.primitive_part()
        if g.is_constant or h.is_constant:
            return
        product = g * h
        assert not certify_irreducible(product)
        square = g ** 2 * h
        assert not certify_irreducible(square)
        for var in square.used_vars():
            assert not certify_square_free(square, var)

    def test_accepts_irreducible_cubic(self):
        poly = P("x^2 - 4*x*y + 3*y^2 + 12*x + 12*y + 17")
        assert certify_irreducible(poly)
        assert certify_square_free(poly, "x")

    def test_accepts_linear_in_main_variable(self):
        assert certify_irreducible(P("x*y^2 + x*y + 3"))


class TestDeclines:
    """Each decline is followed by the full path, which agrees."""

    def test_no_integer_constant_coefficient(self):
        poly = P("x*y + x + y")
        assert not certify_irreducible(poly)
        assert not certify_square_free(poly, "x")
        assert not certify_square_free(poly, "y")
        assert factor_squarefree_kronecker(poly) == [poly]

    def test_leading_coefficient_vanishes_at_the_points(self):
        first, second = (point["y"] for point in certificate_points(("x", "y")))
        assert first != second
        # lc_x = (y - first)(y - second) vanishes at both fixed points;
        # x is the only candidate main variable (y has no constant coefficient).
        poly = P(f"(y - {first})*(y - {second})*x^2 + 1")
        assert not certify_square_free(poly, "x")
        assert not certify_irreducible(poly)
        assert factor_squarefree_kronecker(poly) == [poly]
        assert _exact(square_free_factorization(poly).factors) == _exact([(poly, 1)])

    def test_irreducible_whose_specialization_splits(self):
        a = certificate_points(("x", "y"))[0]["y"]
        # x^2 - y^3 + a^3 - a^2 is irreducible (y^3 - c is no square), but
        # at y = a it is x^2 - a^2 = (x - a)(x + a).
        poly = P(f"x^2 - y^3 + {a ** 3 - a ** 2}")
        assert not certify_irreducible(poly)
        assert factor_squarefree_kronecker(poly) == [poly]

    def test_integer_content(self):
        poly = P("2*x^2 + 2*y + 2")
        assert not certify_irreducible(poly)
        assert not certify_square_free(poly, "x")

    def test_points_depend_only_on_names(self):
        points = certificate_points(("y", "x"))
        assert points == certificate_points(("x", "y"))
        assert all(set(point) == {"x", "y"} for point in points)
        assert all(value >= 2 for point in points for value in point.values())
