"""The per-process factorization memo returns what a cold call would."""

from unittest import mock

import pytest

import repro
from repro.core import synthesis_cache_sizes
from repro.core.budget import Budget, BudgetExceeded, Deadline, use_deadline
from repro.factor import factor_polynomial
from repro.factor.factorize import _FACTOR_CACHE, clear_factor_cache, factor_cache_size
from repro.poly import Polynomial, parse_polynomial as P


def ordered(factorization):
    return factorization.content, [
        (base.vars, list(base.terms.items()), mult)
        for base, mult in factorization.factors
    ]


@pytest.fixture(autouse=True)
def cold():
    clear_factor_cache()
    yield
    clear_factor_cache()


def test_hit_returns_the_cold_term_order():
    poly = P("6*x^3*y - 6*x*y^3 + 12*x^2*y^2 - 12*y^4")
    cold = factor_polynomial(poly)
    assert factor_cache_size() == 1
    # An equal polynomial built separately, same variables and term order.
    again = Polynomial(poly.vars, dict(poly.terms))
    hit = factor_polynomial(again)
    assert hit is cold
    clear_factor_cache()
    assert ordered(factor_polynomial(again)) == ordered(hit)


def test_term_order_and_frame_are_part_of_the_key():
    poly = P("x^2 + 2*x*y + y^2")
    reordered = Polynomial(poly.vars, dict(reversed(list(poly.terms.items()))))
    padded = poly.with_vars(("w",) + poly.vars)
    for variant in (reordered, padded):
        factor_polynomial(poly)  # an equal input is already memoized
        warm = factor_polynomial(variant)
        clear_factor_cache()
        assert ordered(factor_polynomial(variant)) == ordered(warm)
    factor_polynomial(poly)
    factor_polynomial(reordered)
    factor_polynomial(padded)
    assert factor_cache_size() == 3


def test_budget_overrun_stores_nothing():
    # x*y + x + y is irreducible, and twelve stand-in image factors give
    # the Kronecker subset search thousands of subsets to tick through.
    poly = P("x*y + x + y")
    image_factors = [Polynomial.from_dense([k, 1], "_t") for k in range(1, 13)]
    with mock.patch(
        "repro.factor.kronecker._factor_univariate_full", lambda image, var: image_factors
    ):
        with use_deadline(Deadline(Budget(max_steps=10))):
            with pytest.raises(BudgetExceeded):
                factor_polynomial(poly)
    assert factor_cache_size() == 0
    assert factor_polynomial(poly).factors == ((poly, 1),)
    assert factor_cache_size() == 1


def test_cleared_and_reported_with_the_synthesis_caches():
    factor_polynomial(P("x^2 - y^2"))
    assert synthesis_cache_sizes()["factor_cache"] == 1
    sizes = repro.clear_caches()
    assert sizes["factor_cache"] == 1
    assert not _FACTOR_CACHE
    assert synthesis_cache_sizes()["factor_cache"] == 0
