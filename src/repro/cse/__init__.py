"""Kernel-based common sub-expression extraction (substitute for JuanCSE).

Kernels/co-kernels per [13] plus a greedy kernel-intersection and
common-cube extraction loop over whole polynomial systems.

This is the repository's *exact* extractor.  The combination search no
longer runs it per scored combination: candidate combinations are
ranked on the shared expression DAG (:mod:`repro.dag`, see
``docs/DAG.md``) and only the finalists are assembled through
:func:`eliminate_common_subexpressions`.  The DAG's
:func:`repro.dag.lower_to_blocks` produces the same
:class:`CseResult` shape, so both lowerings honour one contract:
substituting every block definition back (:func:`expand_blocks`)
reproduces the input exactly.
"""

from .extract import (
    CseResult,
    eliminate_common_subexpressions,
    expand_blocks,
)
from .kernels import KernelEntry, all_kernels, is_cube_free, iter_kernels

__all__ = [
    "CseResult",
    "KernelEntry",
    "all_kernels",
    "eliminate_common_subexpressions",
    "expand_blocks",
    "is_cube_free",
    "iter_kernels",
]
