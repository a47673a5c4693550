"""Sparse multivariate polynomials with integer coefficients.

This is the algebraic substrate the paper manipulates through Maple: every
datapath computation is a system of elements of ``Z[x_1, ..., x_d]``
(Section 14.1), later interpreted as functions over finite rings ``Z_2^m``
(Section 14.3.1, implemented in :mod:`repro.rings`).

A :class:`Polynomial` is immutable.  It stores

* ``vars`` — an ordered tuple of variable names, and
* ``terms`` — a mapping from exponent tuples (aligned with ``vars``) to
  non-zero integer coefficients.

All arithmetic is exact integer arithmetic; no floating point enters the
core library anywhere.  Binary operations between polynomials over
different variable tuples first unify them over the sorted union of their
variables, so ``parse("x+y") * parse("y+z")`` works as expected.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import gcd
from operator import add, itemgetter
from typing import Callable, Dict, Iterable, Mapping, Tuple, Union

from .monomial import (
    Exponents,
    mono_gcd_many,
    mono_is_one,
    mono_mul,
    mono_one,
)
from .orderings import OrderKey, grevlex_key, order_key

Coeff = int
Terms = Dict[Exponents, Coeff]
Scalar = int
PolyLike = Union["Polynomial", int]

#: How exponent tuples move onto a superset frame: append ``pad``, then
#: (unless None) pick the new columns with ``getter``.
Rekey = Tuple[Exponents, "itemgetter | None"]

#: Memoized joins of two variable tuples: their sorted union and how to
#: re-key each side's exponent tuples onto it (None: already on it).
#: Binary operations between polynomials over different variable sets
#: re-derive the same join constantly (every division in a candidate
#: loop, for instance); the distinct (vars, vars) pairs in one flow
#: number in the dozens, so a long stream of systems clears it now and
#: then rather than keep every join it ever made.
_VAR_UNIONS: dict[tuple[tuple, tuple], tuple[tuple, Rekey | None, Rekey | None]] = {}


def _rekey(old: tuple, new: tuple) -> Rekey | None:
    """How to map exponent tuples over ``old`` onto ``new``, a superset frame."""
    if old == new:
        return None
    width = len(old)
    if new[:width] == old:
        return mono_one(len(new) - width), None
    # Two or more columns here (a one-column superset is a prefix case),
    # so the getter returns a tuple; index ``width`` reads the zero pad.
    return (0,), itemgetter(*[old.index(v) if v in old else width for v in new])


def _frame_join(a: tuple, b: tuple) -> tuple[tuple, Rekey | None, Rekey | None]:
    """The sorted union of two variable tuples and each side's re-key."""
    key = (a, b)
    join = _VAR_UNIONS.get(key)
    if join is None:
        if len(_VAR_UNIONS) > 1024:
            _VAR_UNIONS.clear()
        union = tuple(sorted(set(a) | set(b)))
        join = _VAR_UNIONS[key] = (union, _rekey(a, union), _rekey(b, union))
    return join


def _rekeyed_keys(terms: Terms, rekey: Rekey) -> Iterable[Exponents]:
    """The keys of ``terms`` on the new frame, in order."""
    pad, getter = rekey
    keys = map(add, terms, repeat(pad))
    return keys if getter is None else map(getter, keys)


def _rekeyed(terms: Terms, rekey: Rekey | None) -> Terms:
    """``terms`` with every key re-keyed, in the same order."""
    if rekey is None:
        return terms
    return dict(zip(_rekeyed_keys(terms, rekey), terms.values()))


def _frame(variables: Iterable[str]) -> tuple:
    """A caller's variable tuple, refused when a name repeats."""
    vars_tuple = tuple(variables)
    if len(vars_tuple) > 1 and len(set(vars_tuple)) != len(vars_tuple):
        raise ValueError(f"duplicate variable names in {vars_tuple}")
    return vars_tuple


def clear_var_union_cache() -> None:
    """Drop the memoized variable-tuple joins (cold runs start here)."""
    _VAR_UNIONS.clear()


class Polynomial:
    """An immutable sparse multivariate polynomial over the integers."""

    __slots__ = ("_vars", "_terms", "_hash", "_used", "_tdeg", "_pk")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Coeff]):
        """Build a polynomial from a term mapping.

        Zero coefficients are dropped; exponent tuples must match the number
        of variables.  Prefer the classmethod constructors (:meth:`zero`,
        :meth:`constant`, :meth:`variable`, :meth:`parse`) in client code.
        """
        vars_tuple = tuple(variables)
        if len(set(vars_tuple)) != len(vars_tuple):
            raise ValueError(f"duplicate variable names in {vars_tuple}")
        nvars = len(vars_tuple)
        clean: Terms = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent tuple {exps} does not match {nvars} variables {vars_tuple}"
                )
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[tuple(exps)] = coeff
        self._vars = vars_tuple
        self._terms = clean
        self._hash: int | None = None
        self._used: Tuple[str, ...] | None = None
        self._tdeg: int | None = None
        self._pk: dict | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _raw(cls, variables: tuple, terms: Terms) -> "Polynomial":
        """Trusted constructor: the one path internal code builds through.

        The caller guarantees: ``variables`` is a tuple without duplicates,
        every key is an exponent tuple of the right arity with non-negative
        entries, and every coefficient is a non-zero ``int``.  Arithmetic,
        the classmethod constructors below and the library's own term
        builders come here; ``__init__``, :meth:`from_terms` and the parser
        validate what callers hand in (see docs/PERFORMANCE.md).
        """
        self = object.__new__(cls)
        self._vars = variables
        self._terms = terms
        self._hash = None
        self._used = None
        self._tdeg = None
        self._pk = None
        return self

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "Polynomial":
        """The zero polynomial (optionally over given variables)."""
        return cls._raw(_frame(variables), {})

    @classmethod
    def constant(cls, value: int, variables: Iterable[str] = ()) -> "Polynomial":
        """A constant polynomial."""
        if not isinstance(value, int):
            raise TypeError(f"coefficient {value!r} is not an integer")
        vars_tuple = _frame(variables)
        if value == 0:
            return cls._raw(vars_tuple, {})
        return cls._raw(vars_tuple, {mono_one(len(vars_tuple)): value})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "Polynomial":
        """The polynomial ``name`` over ``variables`` (default: just itself)."""
        vars_tuple = _frame(variables) if variables is not None else (name,)
        if name not in vars_tuple:
            raise ValueError(f"variable {name!r} not among {vars_tuple}")
        exps = tuple(1 if v == name else 0 for v in vars_tuple)
        return cls._raw(vars_tuple, {exps: 1})

    @classmethod
    def from_terms(
        cls, variables: Iterable[str], items: Iterable[Tuple[Exponents, Coeff]]
    ) -> "Polynomial":
        """Build from an iterable of ``(exponents, coeff)`` pairs, summing duplicates."""
        acc: Terms = {}
        for exps, coeff in items:
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + coeff
        return cls(variables, acc)

    @staticmethod
    def parse(text: str, variables: Iterable[str] | None = None) -> "Polynomial":
        """Parse a polynomial from text; see :mod:`repro.poly.parser`."""
        from .parser import parse_polynomial

        return parse_polynomial(text, variables)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def vars(self) -> Tuple[str, ...]:
        """The ordered variable names this polynomial is expressed over."""
        return self._vars

    @property
    def terms(self) -> Mapping[Exponents, Coeff]:
        """Read-only view of the term mapping (do not mutate)."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self._terms

    @property
    def is_constant(self) -> bool:
        """True when no variable appears (including the zero polynomial)."""
        return all(mono_is_one(e) for e in self._terms)

    @property
    def is_one(self) -> bool:
        """True for the constant polynomial 1."""
        return self.is_constant and self.constant_term == 1

    @property
    def is_monomial(self) -> bool:
        """True when the polynomial has exactly one term."""
        return len(self._terms) == 1

    @property
    def is_linear(self) -> bool:
        """True when total degree is at most 1 (the paper's *linear block*)."""
        return self.total_degree() <= 1

    @property
    def constant_term(self) -> int:
        """Coefficient of the unit monomial (0 when absent)."""
        if not self._vars:
            return self._terms.get((), 0)
        return self._terms.get(mono_one(len(self._vars)), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        """Maximum total degree over all terms; -1 for the zero polynomial."""
        if self._tdeg is None:
            if not self._terms:
                self._tdeg = -1
            else:
                self._tdeg = max(map(sum, self._terms))
        return self._tdeg

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        idx = self._var_index(var)
        return max(e[idx] for e in self._terms)

    def used_vars(self) -> Tuple[str, ...]:
        """Variables with a non-zero exponent somewhere, in declaration order."""
        if self._used is None:
            # zip(*terms) walks the exponent matrix column by column.
            self._used = tuple(compress(self._vars, map(any, zip(*self._terms))))
        return self._used

    def max_coeff_magnitude(self) -> int:
        """Largest absolute coefficient (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(abs(c) for c in self._terms.values())

    def _var_index(self, var: str) -> int:
        try:
            return self._vars.index(var)
        except ValueError:
            raise KeyError(f"variable {var!r} not in {self._vars}") from None

    # ------------------------------------------------------------------
    # Term access under an order
    # ------------------------------------------------------------------

    def sorted_terms(
        self, order: str | OrderKey = "grevlex", reverse: bool = True
    ) -> list[Tuple[Exponents, Coeff]]:
        """Terms sorted by a term order (descending by default)."""
        key = order_key(order) if isinstance(order, str) else order
        return sorted(self._terms.items(), key=lambda it: key(it[0]), reverse=reverse)

    def leading_term(self, order: str | OrderKey = "grevlex") -> Tuple[Exponents, Coeff]:
        """The leading ``(exponents, coeff)`` under the given order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = order_key(order) if isinstance(order, str) else order
        exps = max(self._terms, key=key)
        return exps, self._terms[exps]

    def leading_coeff(self, order: str | OrderKey = "grevlex") -> int:
        """Coefficient of the leading term."""
        return self.leading_term(order)[1]

    def leading_monomial(self, order: str | OrderKey = "grevlex") -> Exponents:
        """Exponent tuple of the leading term."""
        return self.leading_term(order)[0]

    # ------------------------------------------------------------------
    # Variable-set management
    # ------------------------------------------------------------------

    def with_vars(self, variables: Iterable[str]) -> "Polynomial":
        """Re-express this polynomial over a superset of its used variables."""
        new_vars = tuple(variables)
        if new_vars == self._vars:
            return self
        index_of = {v: i for i, v in enumerate(new_vars)}
        positions = []
        for i, v in enumerate(self._vars):
            new_i = index_of.get(v)
            if new_i is not None:
                positions.append((i, new_i))
            else:
                # Dropping a variable is only legal when it is unused.
                if any(e[i] for e in self._terms):
                    raise ValueError(f"cannot drop used variable {v!r}")
        nnew = len(new_vars)
        new_terms: Terms = {}
        for exps, coeff in self._terms.items():
            out = [0] * nnew
            for old_i, new_i in positions:
                out[new_i] = exps[old_i]
            key = tuple(out)
            new_terms[key] = new_terms.get(key, 0) + coeff
        return Polynomial._raw(new_vars, new_terms)

    def trim(self) -> "Polynomial":
        """Drop variables that do not appear (preserving their relative order)."""
        used = self.used_vars()
        if used == self._vars:
            return self
        # Fast path: project each exponent tuple onto the used columns
        # (no renaming can collide, so no coefficient merging is needed).
        used_set = set(used)
        keep = [i for i, v in enumerate(self._vars) if v in used_set]
        new_terms = {
            tuple(map(exps.__getitem__, keep)): coeff
            for exps, coeff in self._terms.items()
        }
        trimmed = Polynomial._raw(used, new_terms)
        trimmed._used = used
        return trimmed

    @staticmethod
    def unify(a: "Polynomial", b: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        """Re-express two polynomials over a common variable tuple.

        If the tuples already match, both are returned unchanged; otherwise
        the sorted union of the variable names is used, which keeps the
        result deterministic regardless of operand order.
        """
        if a._vars == b._vars:
            return a, b
        union, rekey_a, rekey_b = _frame_join(a._vars, b._vars)
        if rekey_a is not None:
            a = Polynomial._raw(union, _rekeyed(a._terms, rekey_a))
        if rekey_b is not None:
            b = Polynomial._raw(union, _rekeyed(b._terms, rekey_b))
        return a, b

    @staticmethod
    def unify_all(polys: Iterable["Polynomial"]) -> list["Polynomial"]:
        """Re-express a collection of polynomials over one variable tuple."""
        polys = list(polys)
        if not polys:
            return []
        names: set[str] = set()
        for p in polys:
            names.update(p._vars)
        union = tuple(sorted(names))
        return [p if p._vars == union else p.with_vars(union) for p in polys]

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other: PolyLike) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            terms = {mono_one(len(self._vars)): other} if other else {}
            return Polynomial._raw(self._vars, terms)
        return None

    def __add__(self, other: PolyLike) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # Operands over different frames are re-keyed onto the sorted
        # union as they are read (what unify() would give, without
        # building the two re-expressed polynomials).
        if self._vars == rhs._vars:
            frame, rekey_a, rekey_b = self._vars, None, None
        else:
            frame, rekey_a, rekey_b = _frame_join(self._vars, rhs._vars)
        out = dict(self._terms) if rekey_a is None else _rekeyed(self._terms, rekey_a)
        terms = rhs._terms
        items = (
            terms.items() if rekey_b is None
            else zip(_rekeyed_keys(terms, rekey_b), terms.values())
        )
        for exps, coeff in items:
            total = out.get(exps, 0) + coeff
            if total:
                out[exps] = total
            else:
                out.pop(exps, None)
        return Polynomial._raw(frame, out)

    def __radd__(self, other: PolyLike) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: PolyLike) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other: PolyLike) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __mul__(self, other: PolyLike) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._vars == rhs._vars:
            frame, a, b = self._vars, self._terms, rhs._terms
        else:
            frame, rekey_a, rekey_b = _frame_join(self._vars, rhs._vars)
            a, b = _rekeyed(self._terms, rekey_a), _rekeyed(rhs._terms, rekey_b)
        if not a or not b:
            return Polynomial._raw(frame, {})
        # Iterate over the smaller operand for fewer dict rebuilds.
        if len(a) < len(b):
            a, b = b, a
        out: Terms = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                key = mono_mul(ea, eb)
                total = out.get(key, 0) + ca * cb
                if total:
                    out[key] = total
                else:
                    del out[key]
        return Polynomial._raw(frame, out)

    def __rmul__(self, other: PolyLike) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative polynomial power {exponent}")
        # The first factor starts the product: 1 * base would copy base
        # in its own term order.
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            return Polynomial._raw(self._vars, {mono_one(len(self._vars)): 1})
        return result

    def scale(self, factor: int) -> "Polynomial":
        """Multiply every coefficient by an integer (fast path for ``int * p``)."""
        if factor == 0:
            return Polynomial._raw(self._vars, {})
        if factor == 1:
            return self
        return Polynomial._raw(
            self._vars, {e: c * factor for e, c in self._terms.items()}
        )

    def mul_monomial(self, exps: Exponents, coeff: int = 1) -> "Polynomial":
        """Multiply by a single cube ``coeff * x^exps`` without dict merging."""
        if coeff == 0:
            return Polynomial._raw(self._vars, {})
        return Polynomial._raw(
            self._vars, {mono_mul(e, exps): c * coeff for e, c in self._terms.items()}
        )

    # ------------------------------------------------------------------
    # Equality / hashing / ordering helpers
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_constant and self.constant_term == other
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self._vars == other._vars:
            return self._terms == other._terms
        a, b = Polynomial.unify(self.trim(), other.trim())
        return a._terms == b._terms

    def __hash__(self) -> int:
        if self._hash is None:
            trimmed = self.trim()
            self._hash = hash((trimmed._vars, frozenset(trimmed._terms.items())))
        return self._hash

    def __getstate__(self):
        # Pickle only the mathematical content: the per-instance memo
        # slot (_pk packed forms) is a process-local cache and would
        # bloat every engine job/result payload.
        return self._vars, self._terms

    def __setstate__(self, state) -> None:
        self._vars, self._terms = state
        self._hash = None
        self._used = None
        self._tdeg = None
        self._pk = None

    # ------------------------------------------------------------------
    # Calculus / evaluation / substitution
    # ------------------------------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        idx = self._var_index(var)
        out: Terms = {}
        for exps, coeff in self._terms.items():
            e = exps[idx]
            if e:
                out[exps[:idx] + (e - 1,) + exps[idx + 1:]] = coeff * e
        return Polynomial._raw(self._vars, out)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate at an integer point; every used variable must be bound."""
        missing = [v for v in self.used_vars() if v not in assignment]
        if missing:
            raise KeyError(f"unbound variables in evaluation: {missing}")
        values = [assignment.get(v, 0) for v in self._vars]
        total = 0
        for exps, coeff in self._terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val ** e
            total += term
        return total

    def evaluate_mod(self, assignment: Mapping[str, int], modulus: int) -> int:
        """Evaluate modulo ``modulus`` (the bit-vector semantics of the paper)."""
        missing = [v for v in self.used_vars() if v not in assignment]
        if missing:
            raise KeyError(f"unbound variables in evaluation: {missing}")
        values = [assignment.get(v, 0) % modulus for v in self._vars]
        total = 0
        for exps, coeff in self._terms.items():
            term = coeff % modulus
            for val, e in zip(values, exps):
                if e:
                    term = (term * pow(val, e, modulus)) % modulus
            total = (total + term) % modulus
        return total

    def subs(self, mapping: Mapping[str, PolyLike]) -> "Polynomial":
        """Substitute polynomials (or integers) for variables.

        Variables absent from ``mapping`` are left untouched.  Substitution
        is simultaneous, e.g. ``subs({x: y, y: x})`` swaps the variables.

        One pass gives exactly — variable tuple and term order included —
        what multiplying each term's factors (``replacement ** e`` or
        ``var ** e``, in variable order) with ``*`` and summing the terms
        with ``+`` gives: the frame is the sorted union of the factors'
        variables, products follow ``__mul__``'s loop order and the sum
        ``__add__``'s add/pop rule (see docs/PERFORMANCE.md).
        """
        if not mapping:
            return self
        used = self.used_vars()
        replacements: dict[str, Polynomial] = {}
        names: set[str] = set()
        for var in used:
            if var in mapping:
                value = mapping[var]
                if isinstance(value, int):
                    value = Polynomial.constant(value)
                replacements[var] = value
                names.update(value._vars)
            else:
                names.add(var)
        frame = tuple(sorted(names))
        index = {v: k for k, v in enumerate(frame)}
        width = len(frame)
        # Own columns: substituted ones (with their re-keyed replacement)
        # and kept ones (with their frame position).
        substituted = [
            (i, replacements[v].with_vars(frame))
            for i, v in enumerate(self._vars) if v in replacements
        ]
        kept = [
            (i, index[v])
            for i, v in enumerate(self._vars) if v in index and v not in replacements
        ]
        powers: dict[tuple[int, int], Terms] = {}
        out: Terms = {}
        for exps, coeff in self._terms.items():
            product: Terms | None = None
            for i, repl in substituted:
                e = exps[i]
                if not e:
                    continue
                factor = powers.get((i, e))
                if factor is None:
                    factor = powers[(i, e)] = _power_terms(repl, e)
                if product is None:
                    product = {k: c * coeff for k, c in factor.items()}
                    continue
                if not product or not factor:
                    product = {}
                    break
                if len(factor) < len(product):
                    outer, inner = factor, product
                else:
                    outer, inner = product, factor
                product = {}
                for eb, cb in outer.items():
                    for ea, ca in inner.items():
                        key = tuple([x + y for x, y in zip(ea, eb)])
                        total = product.get(key, 0) + ca * cb
                        if total:
                            product[key] = total
                        else:
                            del product[key]
            shift = [0] * width
            for i, k in kept:
                shift[k] = exps[i]
            if product is None:
                product = {tuple(shift): coeff}
            elif any(shift):
                product = {
                    tuple([x + y for x, y in zip(k, shift)]): c
                    for k, c in product.items()
                }
            for key, c in product.items():
                total = out.get(key, 0) + c
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return Polynomial._raw(frame, out)

    # ------------------------------------------------------------------
    # Content / primitive part
    # ------------------------------------------------------------------

    def content(self) -> int:
        """GCD of all coefficients, with the sign of the leading term.

        Zero polynomial has content 0.  The sign convention makes
        ``primitive_part()`` have a positive leading coefficient, so the
        factorization ``p == content * primitive_part`` is exact.
        """
        if not self._terms:
            return 0
        g = 0
        for coeff in self._terms.values():
            g = gcd(g, coeff)
            if g == 1:
                break
        if self.leading_coeff(grevlex_key) < 0:
            g = -g
        return g

    def primitive_part(self) -> "Polynomial":
        """``self / content()``; zero stays zero."""
        c = self.content()
        if c in (0, 1):
            return self
        return Polynomial._raw(self._vars, {e: k // c for e, k in self._terms.items()})

    def map_coeffs(self, func: Callable[[int], int]) -> "Polynomial":
        """Apply an integer function to every coefficient (zeros dropped)."""
        return Polynomial._raw(
            self._vars, {e: v for e, c in self._terms.items() if (v := func(c))}
        )

    def monomial_content(self) -> Exponents:
        """Largest monomial dividing every term (the common cube)."""
        if not self._terms:
            return mono_one(len(self._vars))
        return mono_gcd_many(self._terms.keys())

    # ------------------------------------------------------------------
    # Univariate views
    # ------------------------------------------------------------------

    def is_univariate_in(self, var: str) -> bool:
        """True when ``var`` is the only variable that appears."""
        used = self.used_vars()
        return used == () or used == (var,)

    def to_dense(self, var: str) -> list[int]:
        """Dense coefficient list ``[c0, c1, ...]`` for a univariate polynomial.

        Raises ``ValueError`` when other variables appear.
        """
        if not self.is_univariate_in(var) and self.used_vars():
            raise ValueError(f"polynomial is not univariate in {var!r}: uses {self.used_vars()}")
        if not self._terms:
            return []
        if var in self._vars:
            idx = self._var_index(var)
        else:
            idx = None
        deg = 0 if idx is None else max(e[idx] for e in self._terms)
        dense = [0] * (deg + 1)
        for exps, coeff in self._terms.items():
            power = 0 if idx is None else exps[idx]
            dense[power] += coeff
        while dense and dense[-1] == 0:
            dense.pop()
        return dense

    @classmethod
    def from_dense(cls, coeffs: Iterable[int], var: str) -> "Polynomial":
        """Build a univariate polynomial from a dense ``[c0, c1, ...]`` list."""
        terms: Terms = {}
        for power, coeff in enumerate(coeffs):
            if coeff:
                terms[(power,)] = coeff
        return cls._raw((var,), terms)

    def as_univariate(self, var: str) -> Dict[int, "Polynomial"]:
        """View as a univariate polynomial in ``var`` with polynomial coefficients.

        Returns ``{power: coefficient_polynomial}`` where each coefficient
        polynomial is over the remaining variables.  This is the recursive
        view used by multivariate GCD and square-free factorization.
        """
        idx = self._var_index(var)
        other_vars = self._vars[:idx] + self._vars[idx + 1:]
        buckets: Dict[int, Terms] = {}
        for exps, coeff in self._terms.items():
            power = exps[idx]
            # Each (power, rest) pair is one term: no two terms meet here.
            buckets.setdefault(power, {})[exps[:idx] + exps[idx + 1:]] = coeff
        return {p: Polynomial._raw(other_vars, t) for p, t in buckets.items()}

    @classmethod
    def from_univariate(
        cls, coeffs: Mapping[int, "Polynomial"], var: str
    ) -> "Polynomial":
        """Inverse of :meth:`as_univariate`."""
        result = cls.zero((var,))
        xvar = cls.variable(var)
        for power, poly in coeffs.items():
            result = result + poly * xvar ** power
        return result

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        from .printer import format_polynomial

        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.__str__()!r})"


def _power_terms(poly: Polynomial, e: int) -> Terms:
    """The terms of ``poly ** e`` (``e >= 1``), in ``__pow__``'s order.

    A first power and the power of a single term skip ``__pow__``'s
    multiplications: both have one possible order.
    """
    terms = poly._terms
    if e == 1:
        return terms
    if len(terms) == 1:
        ((exps, coeff),) = terms.items()
        return {tuple([x * e for x in exps]): coeff ** e}
    return (poly ** e)._terms


def poly_sum(polys: Iterable[Polynomial]) -> Polynomial:
    """Sum of a collection of polynomials (zero for an empty collection)."""
    total = Polynomial.zero()
    for p in polys:
        total = total + p
    return total


def poly_prod(polys: Iterable[Polynomial]) -> Polynomial:
    """Product of a collection of polynomials (one for an empty collection)."""
    total = Polynomial.constant(1)
    for p in polys:
        total = total * p
    return total
