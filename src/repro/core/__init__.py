"""The paper's contribution: the integrated CCE + algebra + CSE flow.

Algorithm 6 (:mod:`repro.core.cce`), cube/kernel exposure
(:mod:`repro.core.cube_extract`), algebraic division
(:mod:`repro.core.algdiv`), the Fig. 14.1 representation lists
(:mod:`repro.core.representations`), and Algorithm 7
(:mod:`repro.core.synth`).
"""

from .algdiv import (
    divide_by_block,
    division_candidates,
    refine_block_definitions,
)
from .blocks import BlockRegistry
from .budget import (
    Budget,
    BudgetExceeded,
    Deadline,
    Degradation,
    current_deadline,
    deadline_for,
    use_deadline,
)
from .cce import CceResult, candidate_gcds, common_coefficient_extraction
from .cube_extract import (
    cube_extraction,
    expose_homogeneous_factors,
    exposed_linear_kernels,
    homogeneous_part,
)
from .metrics import PhaseTiming, Timings
from .provenance import ChosenRepresentation, Provenance, explain_text
from .representations import (
    Representation,
    canonical_representations,
    cce_representation,
    dedupe_representations,
    factored_representation,
    initial_representations,
    original_representation,
)
from .synth import (
    SynthesisOptions,
    SynthesisResult,
    assemble_decomposition,
    best_expression,
    clear_synthesis_caches,
    direct_cost,
    refactored_expression,
    synthesis_cache_sizes,
    synthesize,
)

__all__ = [
    "BlockRegistry",
    "Budget",
    "BudgetExceeded",
    "CceResult",
    "ChosenRepresentation",
    "Deadline",
    "Degradation",
    "PhaseTiming",
    "Provenance",
    "Representation",
    "SynthesisOptions",
    "SynthesisResult",
    "Timings",
    "assemble_decomposition",
    "best_expression",
    "candidate_gcds",
    "canonical_representations",
    "cce_representation",
    "clear_synthesis_caches",
    "common_coefficient_extraction",
    "cube_extraction",
    "current_deadline",
    "deadline_for",
    "dedupe_representations",
    "divide_by_block",
    "direct_cost",
    "explain_text",
    "division_candidates",
    "expose_homogeneous_factors",
    "exposed_linear_kernels",
    "homogeneous_part",
    "factored_representation",
    "initial_representations",
    "original_representation",
    "refactored_expression",
    "refine_block_definitions",
    "synthesis_cache_sizes",
    "synthesize",
    "use_deadline",
]
