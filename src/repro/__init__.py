"""repro — reproduction of Gopalakrishnan & Kalla, DATE 2009.

*Algebraic Techniques to Enhance Common Sub-expression Extraction for
Polynomial System Synthesis.*

Layers (bottom up):

* :mod:`repro.poly` — sparse multivariate integer polynomials (arithmetic,
  division, GCD);
* :mod:`repro.factor` — square-free and full factorization, Horner forms;
* :mod:`repro.rings` — polynomial functions over ``Z_2^m``, canonical
  falling-factorial forms;
* :mod:`repro.cse` — kernel/co-kernel extraction and multi-polynomial CSE;
* :mod:`repro.expr` — factored expressions, decompositions, operator counts;
* :mod:`repro.core` — the paper's integrated flow: CCE (Algorithm 6),
  cube extraction, algebraic division, Poly_Synth (Algorithm 7);
* :mod:`repro.dfg` / :mod:`repro.cost` — dataflow graphs and the hardware
  area/delay model;
* :mod:`repro.suite` / :mod:`repro.baselines` — benchmark systems and
  comparison methods;
* :mod:`repro.api` — the one supported entry point; this package merely
  re-exports its surface.
"""

from repro.api import (  # noqa: F401 — the facade's whole surface
    DEFAULT_METHODS,
    BatchEngine,
    BatchJob,
    BatchReport,
    BitVectorSignature,
    Budget,
    Decomposition,
    Degradation,
    ExpressionDAG,
    JobResult,
    MethodOutcome,
    OpCount,
    Polynomial,
    PolySystem,
    ProgressRenderer,
    Provenance,
    RetryPolicy,
    RunConfig,
    SynthesisOptions,
    SynthesisResult,
    Timings,
    Tracer,
    TradeoffPoint,
    available_methods,
    clear_caches,
    compare_methods,
    explain_text,
    explore_tradeoffs,
    improvement,
    intern,
    lower_to_blocks,
    method_outcome,
    parse_polynomial,
    parse_system,
    register_method,
    shared_subexpressions,
    synthesize,
    synthesize_system,
)
from repro.api import __all__ as _api_all

__version__ = "1.0.0"

__all__ = [*_api_all, "__version__"]
