"""Building-block registry (the glue of the integrated approach).

Every transformation in Algorithm 7 — CCE, cube extraction, square-free
factorization, algebraic division, final CSE — produces *building blocks*:
sub-polynomials that are implemented once and referenced as if they were
input variables.  The registry

* hands out fresh, collision-free variable names (``_b1``, ``_b2``, ...),
* **hash-conses by ground polynomial**: the linear block ``x - y`` exposed
  by CCE in one polynomial and the divisor ``x - y`` discovered by
  algebraic division in another get the *same* name, which is precisely
  what lets the final CSE merge them (paper Table 14.2, ``d2``),
* normalizes signs, so ``y - x`` resolves to ``-(x - y)``,
* tracks definitions over earlier blocks (``Y3(x) = Y2(x) * (x - 2)``)
  while keeping the fully-expanded ground polynomial for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cse import expand_blocks
from repro.poly import Polynomial


@dataclass
class BlockRegistry:
    """Names, definitions, and ground truths for shared building blocks."""

    input_vars: tuple[str, ...]
    prefix: str = "_b"
    defs: dict[str, Polynomial] = field(default_factory=dict)
    ground: dict[str, Polynomial] = field(default_factory=dict)
    _by_ground: dict[Polynomial, str] = field(default_factory=dict)
    _counter: int = 0

    def fresh_name(self) -> str:
        """A block name guaranteed not to collide with input variables."""
        self._counter += 1
        return f"{self.prefix}{self._counter}"

    def register(
        self, definition: Polynomial, ground: Polynomial | None = None
    ) -> tuple[str, int]:
        """Intern a block; returns ``(name, sign)``.

        ``definition`` may reference input variables and previously
        registered blocks.  If an equivalent block (same ground polynomial
        up to sign) exists, its name is returned with the sign relating
        ``definition`` to the stored orientation.  A caller that has
        already expanded ``definition`` passes its trimmed expansion as
        ``ground``, so it is not expanded again.
        """
        if ground is None:
            ground = self.expand(definition).trim()
        if ground.is_zero or ground.is_constant:
            raise ValueError(f"refusing to register trivial block {definition}")
        sign = 1
        if ground.leading_coeff("grevlex") < 0:
            ground = -ground
            definition = -definition
            sign = -1
        existing = self._by_ground.get(ground)
        if existing is not None:
            return existing, sign
        name = self.fresh_name()
        self.defs[name] = definition
        self.ground[name] = ground
        self._by_ground[ground] = name
        return name, sign

    def lookup(self, ground: Polynomial) -> tuple[str, int] | None:
        """Find an existing block for a ground polynomial (sign-aware)."""
        ground = ground.trim()
        positive = ground
        sign = 1
        if not positive.is_zero and positive.leading_coeff("grevlex") < 0:
            positive = -positive
            sign = -1
        name = self._by_ground.get(positive)
        if name is None:
            return None
        return name, sign

    def shift_block(self, var: str, offset: int) -> str:
        """The block ``var - offset`` (the literals of falling factorials)."""
        if offset == 0:
            raise ValueError("shift block with zero offset is the variable itself")
        definition = Polynomial.variable(var) - offset
        name, sign = self.register(definition)
        if sign != 1:
            raise RuntimeError("shift block unexpectedly sign-flipped")
        return name

    def expand(self, poly: Polynomial) -> Polynomial:
        """Substitute all block definitions to reach input variables only."""
        return expand_blocks(poly, self.defs)

    def rewrite_definition(self, name: str, new_definition: Polynomial) -> None:
        """Replace a block's definition with an equivalent (validated) one."""
        if name not in self.defs:
            raise KeyError(f"unknown block {name!r}")
        trial = dict(self.defs)
        trial[name] = new_definition
        expanded = expand_blocks(new_definition, trial).trim()
        if expanded != self.ground[name]:
            raise ValueError(
                f"new definition of {name!r} expands to {expanded}, "
                f"expected {self.ground[name]}"
            )
        self.defs[name] = new_definition

    def linear_blocks(self) -> list[tuple[str, Polynomial]]:
        """All blocks whose ground polynomial is linear (division candidates)."""
        return [
            (name, ground)
            for name, ground in self.ground.items()
            if ground.is_linear
        ]

    def is_block(self, var: str) -> bool:
        return var in self.defs

    def block_names(self) -> list[str]:
        return list(self.defs)

    def copy(self) -> "BlockRegistry":
        """Independent copy (used by the combination search to branch)."""
        clone = BlockRegistry(self.input_vars, self.prefix)
        clone.defs = dict(self.defs)
        clone.ground = dict(self.ground)
        clone._by_ground = dict(self._by_ground)
        clone._counter = self._counter
        return clone
