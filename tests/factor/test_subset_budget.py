"""The subset searches of factoring tick the ambient budget."""

from unittest import mock

import pytest

from repro.core.budget import Budget, BudgetExceeded, Deadline, use_deadline
from repro.factor import factor_squarefree_kronecker
from repro.factor.univariate import _recombine
from repro.poly import Polynomial, parse_polynomial as P


def test_recombination_ticks_the_budget():
    # x^8 + 3 is irreducible (Eisenstein at 3), so no product of the
    # eight stand-in modular factors x + k divides it and the search
    # walks all 162 subsets of sizes 1 to 4.
    coeffs = [3, 0, 0, 0, 0, 0, 0, 0, 1]
    modular = [[k, 1] for k in range(1, 9)]
    p = (1 << 61) - 1
    assert _recombine(coeffs, modular, p) == [coeffs]
    with use_deadline(Deadline(Budget(max_steps=10))):
        with pytest.raises(BudgetExceeded) as excinfo:
            _recombine(coeffs, modular, p)
    assert excinfo.value.site == "factor/recombine"


def test_kronecker_subset_search_ticks_the_budget():
    # x*y + x + y has no integer-constant coefficient, so no certificate
    # short-cuts it, and twelve stand-in image factors t + k give
    # thousands of subsets, none of which divides it.
    poly = P("x*y + x + y")
    image_factors = [Polynomial.from_dense([k, 1], "_t") for k in range(1, 13)]
    with mock.patch(
        "repro.factor.kronecker._factor_univariate_full", lambda image, var: image_factors
    ):
        assert factor_squarefree_kronecker(poly) == [poly]
        with use_deadline(Deadline(Budget(max_steps=10))):
            with pytest.raises(BudgetExceeded) as excinfo:
                factor_squarefree_kronecker(poly)
    assert excinfo.value.site == "factor/kronecker"
