"""Technology model — the stand-in for the Synopsys library of the paper.

The paper synthesizes each block with Design Compiler and reports area in
library units and delay in nanoseconds.  Without that 2009 standard-cell
library the absolute numbers are unmatchable, so this model prices
arithmetic in *gate equivalents* (NAND2-equivalent area) and *gate
delays*, with a configurable scale to ns.  The defaults follow the usual
static-CMOS bookkeeping (a full adder is about 6 NAND2 and 2 gate delays
through carry), which preserves the quantity the experiment actually
tests: the ratio between implementations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyModel:
    """Area (NAND2-equivalents) and delay (gate units) of the primitives."""

    full_adder_area: float = 6.0
    half_adder_area: float = 3.0
    and_gate_area: float = 1.5
    inverter_area: float = 0.7
    register_area: float = 5.0  # one pipeline register (dfg.pipeline prices stage cuts with it)

    full_adder_delay: float = 2.0   # carry-to-carry
    and_gate_delay: float = 1.0
    gate_delay_ns: float = 0.045    # scale factor: one gate delay in ns (90nm-ish)
    area_unit_um2: float = 3.2      # one NAND2 in um^2 (90nm-ish)

    def to_ns(self, gate_delays: float) -> float:
        """Convert gate delays to nanoseconds."""
        return gate_delays * self.gate_delay_ns

    def to_um2(self, nand2_equivalents: float) -> float:
        """Convert NAND2-equivalents to um^2."""
        return nand2_equivalents * self.area_unit_um2


DEFAULT_MODEL = TechnologyModel()
