"""Every polynomial the library builds through ``Polynomial._raw`` is valid.

``_raw`` skips ``__init__``'s checks: its callers promise a tuple of
distinct variable names, exponent tuples of the frame's arity with
non-negative entries, and non-zero integer coefficients.  This test holds
them to it.  It swaps in a ``_raw`` that runs those checks, synthesizes
every registered benchmark system and a stream of fuzz systems, and
requires that nothing is refused and that every result equals the one of
the unchecked run.
"""

from __future__ import annotations

import repro
from repro.fuzz import generate_cases
from repro.poly import Polynomial
from repro.suite import available_systems, get_system


def _violation(variables, terms) -> str | None:
    if type(variables) is not tuple:
        return f"variables {variables!r} are not a tuple"
    if len(set(variables)) != len(variables):
        return f"duplicate variable names in {variables}"
    width = len(variables)
    for exps, coeff in terms.items():
        if type(exps) is not tuple or len(exps) != width:
            return f"exponent tuple {exps!r} does not match {width} variables {variables}"
        if any(e < 0 for e in exps):
            return f"negative exponent in {exps}"
        if not isinstance(coeff, int):
            return f"coefficient {coeff!r} is not an integer"
        if not coeff:
            return f"zero coefficient at {exps}"
    return None


def _fingerprints() -> list[str]:
    """Every result's decomposition, cost and representation lists, as text."""
    repro.clear_caches()
    systems = [get_system(name) for name in available_systems()]
    systems += [case.system for case in generate_cases(0, 40)]
    out = []
    for system in systems:
        result = repro.synthesize_system(system)
        reps = [
            [(rep.tag, rep.poly.vars, str(rep.poly)) for rep in column]
            for column in result.representation_lists
        ]
        out.append(f"{result.summary()}\n{result.chosen}\n{reps}")
    return out


def test_internal_construction_keeps_the_raw_contract(monkeypatch):
    unchecked = _fingerprints()
    raw = Polynomial._raw
    refused: list[str] = []

    def checked_raw(cls, variables, terms):
        problem = _violation(variables, terms)
        if problem is not None:
            refused.append(problem)
            raise ValueError(problem)
        return raw(variables, terms)

    monkeypatch.setattr(Polynomial, "_raw", classmethod(checked_raw))
    checked = _fingerprints()
    assert refused == []
    assert checked == unchecked
