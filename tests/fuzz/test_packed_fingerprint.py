"""Corpus replay: packed and tuple kernels yield identical results.

The packed-monomial fast path is a pure representation change — ISSUE 10
requires the synthesis output to be *byte-identical* with the fast path
on and off, not merely cost-equivalent.  Every archived fuzz case is
replayed through the full flow twice (``REPRO_PACKED`` forced on, then
off, with the process caches cleared in between so nothing computed in
one mode leaks into the other) and the results are fingerprinted over
the block definitions, the output expressions, and the operator counts.
The flow's DAG-priced search lowers its finalists through the exact
extractor the packed port rewrote, so one run covers both layers.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.api import clear_caches
from repro.core import synthesize
from repro.fuzz import entry_case, load_corpus_entry
from repro.poly.packed import set_packed_enabled

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
SHIPPED = sorted(CORPUS_DIR.glob("*.json"))


def _fingerprint(result) -> str:
    """Stable content hash of everything the flow emitted.

    ``str`` of an expression renders its full structure, and block
    *insertion order* is part of the digest — a reordered but equal
    decomposition is a parity break.
    """
    digest = hashlib.sha256()
    for name, expr in result.decomposition.blocks.items():
        digest.update(f"{name}={expr}\n".encode())
    for expr in result.decomposition.outputs:
        digest.update(f"out:{expr}\n".encode())
    digest.update(str(result.op_count).encode())
    digest.update(str(result.chosen).encode())
    return digest.hexdigest()


def _run(system) -> str:
    clear_caches()
    result = synthesize(list(system.polys), system.signature)
    return _fingerprint(result)


@pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_corpus_fingerprints_identical_packed_on_off(path):
    system = entry_case(load_corpus_entry(path)).system
    try:
        set_packed_enabled(True)
        packed = _run(system)
        set_packed_enabled(False)
        tuples = _run(system)
    finally:
        set_packed_enabled(None)
        clear_caches()
    assert packed == tuples
