"""Pinned result fingerprints: synthesis output must not drift.

Refactors and speedups of the flow are meant to leave every
decomposition byte-identical, not merely cost-equivalent.  Each case
below — the archived fuzz corpus plus the first 40 systems of fuzz
stream seed 0 — is synthesized from cold caches and fingerprinted over
the block definitions, the output expressions, the operator counts and
the chosen representation, and compared against the digests in
``pinned_fingerprints.json``.  A representation change in a kernel
layer (packed vs tuple monomials, say) must leave every digest as it is.

A change that is *meant* to alter results re-records the file with::

    PYTHONPATH=src python tests/fuzz/test_pinned_fingerprints.py \
        > tests/fuzz/pinned_fingerprints.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import clear_caches
from repro.core import synthesize
from repro.fuzz import entry_case, generate_case, load_corpus_entry

HERE = Path(__file__).resolve().parent
CORPUS_DIR = HERE.parent / "corpus"
PINNED = HERE / "pinned_fingerprints.json"
FUZZ_SEED = 0
FUZZ_CASES = 40


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


def _cases() -> dict:
    """Case name -> system, corpus entries first."""
    cases = {
        path.stem: entry_case(load_corpus_entry(path)).system
        for path in sorted(CORPUS_DIR.glob("*.json"))
    }
    for index in range(FUZZ_CASES):
        cases[f"fuzz-{FUZZ_SEED}-{index}"] = generate_case(FUZZ_SEED, index).system
    return cases


def _run(system) -> str:
    clear_caches()
    try:
        return _fingerprint(synthesize(list(system.polys), system.signature))
    finally:
        clear_caches()


CASES = _cases()
EXPECTED = json.loads(PINNED.read_text())


def test_pinned_set_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_fingerprint_matches_pinned(name):
    assert _run(CASES[name]) == EXPECTED[name]


if __name__ == "__main__":
    print(json.dumps(
        {name: _run(system) for name, system in CASES.items()},
        indent=2,
        sort_keys=True,
    ))
