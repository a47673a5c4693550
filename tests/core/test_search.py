"""Tests for the combination-search internals of Poly_Synth."""

import pytest

import repro
from repro.core import BlockRegistry, SynthesisOptions, synthesize
from repro.core.representations import Representation
from repro.core.synth import _search_seeds, _standalone_price
from repro.poly import Polynomial, parse_polynomial as P, parse_system
from repro.rings import BitVectorSignature
from repro.suite import get_system


class TestStandaloneWeight:
    def test_includes_block_closure(self):
        registry = BlockRegistry(("x", "y"))
        name, _ = registry.register(P("x^2 + 2*x*y + y^2"))
        cheap_looking = Polynomial.variable(name).scale(13)
        bare = P("13*x^2 + 26*x*y + 13*y^2")
        # The block-referencing form must be charged for the block body.
        assert _standalone_price(cheap_looking, registry.defs)[0] > 0
        assert (
            _standalone_price(cheap_looking, registry.defs)[0]
            >= _standalone_price(bare, registry.defs)[0] // 2
        )

    def test_shared_blocks_counted_once_per_rep(self):
        registry = BlockRegistry(("x", "y"))
        name, _ = registry.register(P("x + y"))
        twice = Polynomial.variable(name) ** 2 + Polynomial.variable(name)
        w = _standalone_price(twice, registry.defs)[0]
        assert w > 0


def _weights(lists, registry):
    return [
        [_standalone_price(rep.poly, registry.defs)[0] for rep in reps]
        for reps in lists
    ]


class TestSearchSeeds:
    def test_all_original_seed_present(self):
        registry = BlockRegistry(("x", "y"))
        lists = [
            [
                Representation(P("x + y"), "original"),
                Representation(P("x + y"), "cce(original)"),
            ],
            [
                Representation(P("x - y"), "original"),
            ],
        ]
        seeds = _search_seeds(lists, _weights(lists, registry))
        assert (0, 0) in seeds

    def test_family_seed_uniform(self):
        registry = BlockRegistry(("x", "y"))
        lists = [
            [
                Representation(P("x + y"), "original"),
                Representation(P("x + y"), "cce(original)"),
            ],
            [
                Representation(P("x - y"), "original"),
                Representation(P("x - y"), "cce(original)"),
            ],
        ]
        seeds = _search_seeds(lists, _weights(lists, registry))
        assert (1, 1) in seeds  # the uniform cce seed

    def test_seeds_deduplicated(self):
        registry = BlockRegistry(("x",))
        lists = [[Representation(P("x"), "original")]]
        seeds = _search_seeds(lists, _weights(lists, registry))
        assert len(seeds) == len(set(seeds))


class TestBudget:
    def test_descent_budget_limits_scoring(self):
        system = parse_system(
            [f"{k}*x^2 + {k}*x*y + {k + 1}*y^2 + {k}*x + {k}" for k in range(2, 8)]
        )
        sig = BitVectorSignature.uniform(("x", "y"), 16)
        tight = SynthesisOptions(exhaustive_limit=1, descent_budget=5)
        result = synthesize(system, sig, tight)
        # seeds (<= 6) + budgeted descent (<= 5) + initial seed scores
        assert result.provenance.combinations_scored <= 6 + 5 + 1

    def test_exhaustive_small_system(self):
        system = parse_system(["x^2 + 6*x*y + 9*y^2"])
        sig = BitVectorSignature.uniform(("x", "y"), 16)
        result = synthesize(system, sig, SynthesisOptions(exhaustive_limit=1000))
        # One polynomial: the whole list is enumerated, minus combinations
        # the branch-and-bound surrogate prune rules out without scoring.
        assert 0 < result.provenance.combinations_scored <= len(result.representation_lists[0])


#: The ``search`` phase record of three registered systems, cold, with
#: default options.  The DAG counters pin which rows the search interns
#: for each scored combination (the chosen rows plus their block
#: closure, in definition order), so a change to how a combination's
#: live blocks are gathered cannot silently change the DAG's traffic.
SEARCH_RECORDS = {
    "Table 14.2": dict(
        combinations=45, memo_hits=0, pruned=0, dag_nodes=180,
        dag_intern_hits=758, dag_shared_nodes=15, dag_finalists=8,
        ops_initial=663, ops_final=166,
    ),
    "SG 3X2": dict(
        combinations=95, memo_hits=0, pruned=0, dag_nodes=282,
        dag_intern_hits=1887, dag_shared_nodes=16, dag_finalists=8,
        ops_initial=657, ops_final=81,
    ),
    "Quad": dict(
        combinations=121, memo_hits=0, pruned=0, dag_nodes=92,
        dag_intern_hits=793, dag_shared_nodes=5, dag_finalists=8,
        ops_initial=150, ops_final=37,
    ),
}


@pytest.mark.parametrize("name", sorted(SEARCH_RECORDS))
def test_search_record_pinned(name):
    repro.clear_caches()
    result = repro.synthesize_system(get_system(name))
    assert result.provenance.search == SEARCH_RECORDS[name]
