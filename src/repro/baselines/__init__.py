"""Comparison methods: direct, Horner and factorization+CSE [13]."""

from .direct import direct_decomposition
from .factor_cse import factor_cse_decomposition
from .horner import horner_baseline
from .registry import (
    MethodFn,
    available_methods,
    get_method,
    is_registered,
    register_method,
    unregister_method,
)

__all__ = [
    "MethodFn",
    "available_methods",
    "direct_decomposition",
    "factor_cse_decomposition",
    "get_method",
    "horner_baseline",
    "is_registered",
    "register_method",
    "unregister_method",
]
