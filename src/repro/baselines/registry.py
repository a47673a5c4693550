"""Method registry — the single catalogue of synthesis methods.

Every way this repository can turn a :class:`~repro.system.PolySystem`
into a :class:`~repro.expr.decomposition.Decomposition` is registered
here under a stable name.  :func:`repro.api.compare_methods`, the batch
engine, and the CLI all enumerate methods from this one registry, so a
third-party method registered with :func:`register_method` immediately
shows up everywhere:

>>> from repro.baselines.registry import register_method
>>> @register_method("my-method")
... def my_method(system, options=None):
...     ...  # return a Decomposition

A method is a callable ``fn(system, options=None) -> Decomposition``;
``options`` is a :class:`~repro.core.synth.SynthesisOptions` (or
``None`` for defaults), and baseline methods are free to ignore it.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.expr import Decomposition
    from repro.system import PolySystem

#: A synthesis method: PolySystem (+ optional options) -> Decomposition.
MethodFn = Callable[..., "Decomposition"]

_METHODS: dict[str, MethodFn] = {}


def register_method(
    name: str, fn: MethodFn | None = None, *, replace: bool = False
):
    """Register a synthesis method under ``name``.

    Usable directly (``register_method("x", fn)``) or as a decorator
    (``@register_method("x")``).  Re-registering an existing name raises
    unless ``replace=True`` — accidental shadowing of a built-in method
    should be loud.
    """
    def _register(fn: MethodFn) -> MethodFn:
        if not replace and name in _METHODS:
            raise ValueError(f"method {name!r} is already registered")
        _METHODS[name] = fn
        return fn

    if fn is None:
        return _register
    return _register(fn)


def unregister_method(name: str) -> None:
    """Remove a method (mainly for tests); unknown names are ignored."""
    _METHODS.pop(name, None)


def available_methods() -> tuple[str, ...]:
    """All registered method names, in registration order."""
    return tuple(_METHODS)


def get_method(name: str) -> MethodFn:
    """Look up a method; raises ``KeyError`` listing known names."""
    try:
        return _METHODS[name]
    except KeyError:
        known = ", ".join(sorted(_METHODS))
        raise KeyError(f"unknown method {name!r}; known: {known}") from None


def is_registered(name: str) -> bool:
    return name in _METHODS


# ----------------------------------------------------------------------
# Built-in methods.  Registration order drives default display order.
# ----------------------------------------------------------------------

@register_method("direct")
def _direct(system: "PolySystem", options=None) -> "Decomposition":
    """Expanded sum-of-products, no sharing (the paper's C_initial)."""
    from .direct import direct_decomposition

    return direct_decomposition(list(system.polys))


@register_method("horner")
def _horner(system: "PolySystem", options=None) -> "Decomposition":
    """Greedy multivariate Horner forms, per polynomial."""
    from .horner import horner_baseline

    return horner_baseline(list(system.polys))


@register_method("factor+cse")
def _factor_cse(
    system: "PolySystem", options=None
) -> "Decomposition":
    """Square-free factorization followed by multi-polynomial CSE [13]."""
    from .factor_cse import factor_cse_decomposition

    return factor_cse_decomposition(list(system.polys))


@register_method("ted")
def _ted(system: "PolySystem", options=None) -> "Decomposition":
    """Taylor expansion diagram lowering (the TED-based related work)."""
    from repro.ted import TedManager, ted_to_expression

    manager = TedManager(system.variables)
    roots = [manager.build(p) for p in system.polys]
    return ted_to_expression(manager, roots)


@register_method("proposed")
def _proposed(
    system: "PolySystem", options=None
) -> "Decomposition":
    """The paper's integrated flow (Algorithm 7)."""
    from repro.core import synthesize

    return synthesize(list(system.polys), system.signature, options).decomposition
