"""Factorization substrate (paper Section 14.3.2).

Square-free factorization (Yun), full factorization over Z (big-prime
Zassenhaus for univariate bases, Kronecker substitution for multivariate
ones), the specialization certificates that skip both for square-free
and irreducible inputs, and the Horner-form baseline decompositions.
"""

from .factorize import Factorization, factor_polynomial
from .horner import (
    horner_decomposition,
    horner_greedy,
    horner_univariate,
)
from .kronecker import factor_squarefree_kronecker
from .squarefree import (
    SquareFreeFactorization,
    is_square_free,
    square_free_factorization,
    square_free_part,
)
from .univariate import (
    factor_squarefree_univariate,
    is_irreducible_univariate,
    mignotte_bound,
)

__all__ = [
    "Factorization",
    "SquareFreeFactorization",
    "factor_polynomial",
    "factor_squarefree_kronecker",
    "factor_squarefree_univariate",
    "horner_decomposition",
    "horner_greedy",
    "horner_univariate",
    "is_irreducible_univariate",
    "is_square_free",
    "mignotte_bound",
    "square_free_factorization",
    "square_free_part",
]
