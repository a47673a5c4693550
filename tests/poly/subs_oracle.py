"""Reference substitution: the term-by-term ``Polynomial.subs``.

Builds every factor as its own :class:`Polynomial` and folds the terms
together with the public ``*``, ``**`` and ``+`` operators, so its
variable tuple and term order are exactly what those operators give.
The fused :meth:`Polynomial.subs` must reproduce both — ordered terms
feed kernel extraction, CSE and the rendered decompositions — and is
checked against this oracle by ``tests/poly/test_subs_fused.py`` and
``scripts/check_subs_parity.py``.
"""

from __future__ import annotations

from typing import Mapping

from repro.poly import Polynomial


def subs_oracle(poly: Polynomial, mapping: Mapping[str, Polynomial | int]) -> Polynomial:
    """Substitute polynomials (or integers) for variables, term by term."""
    if not mapping:
        return poly
    replacements: dict[str, Polynomial] = {}
    for name, value in mapping.items():
        if isinstance(value, int):
            replacements[name] = Polynomial.constant(value)
        else:
            replacements[name] = value
    result = Polynomial.zero()
    for exps, coeff in poly.terms.items():
        term: Polynomial | int = coeff
        for var, e in zip(poly.vars, exps):
            if not e:
                continue
            if var in replacements:
                factor = replacements[var] ** e
            else:
                factor = Polynomial((var,), {(e,): 1})
            term = factor * term
        if isinstance(term, int):
            term = Polynomial.constant(term)
        result = result + term
    return result
