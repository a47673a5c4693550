"""Provenance records, the explain report, and the search-telemetry metrics.

The load-bearing contract: the search integers in a result's
:class:`~repro.core.Provenance` are read from the run's ``search`` phase
record, and the metrics registry publishes that record as
``repro_phase_<counter>_total{phase="search"}`` — a consumer can
cross-check either view against the other exactly.
"""

import json

from repro.__main__ import main
from repro.core import (
    Budget,
    ChosenRepresentation,
    Provenance,
    SynthesisOptions,
    clear_synthesis_caches,
    explain_text,
    synthesis_cache_sizes,
    synthesize,
)
from repro.core.provenance import SEARCH_COUNTERS
from repro.fuzz import generate_case
from repro.obs import Tracer, get_registry, use_tracer
from repro.suite import get_system


def traced_synthesis(name_or_system, budget=None):
    system = (
        get_system(name_or_system)
        if isinstance(name_or_system, str)
        else name_or_system
    )
    clear_synthesis_caches()
    get_registry().reset()
    with use_tracer(Tracer()):
        result = synthesize(
            list(system.polys), system.signature, SynthesisOptions(), budget=budget
        )
    return system, result


def search_metric(counter):
    """The registry's published value of one search-phase counter."""
    return get_registry().counter(
        f"repro_phase_{counter}_total", phase="search"
    ).value


def search_metric_names():
    """Names of every metric the registry holds for the search phase."""
    return {
        metric.name
        for metric in get_registry().collect()
        if dict(metric.labels).get("phase") == "search"
    }


class TestProvenanceRecord:
    def test_every_result_carries_provenance(self):
        _, result = traced_synthesis("Table 14.1")
        prov = result.provenance
        assert prov is not None
        assert prov.search_mode in ("exhaustive", "descent")
        assert prov.combinations_scored > 0
        assert prov.search_space >= prov.search_bound > 0
        assert len(prov.chosen) == len(get_system("Table 14.1").polys)
        for choice in prov.chosen:
            assert choice.tag
            assert 0 <= choice.index < choice.candidates

    def test_round_trip(self):
        _, result = traced_synthesis("Table 14.1")
        doc = result.provenance.as_dict()
        assert doc["kind"] == "provenance"
        again = Provenance.from_dict(json.loads(json.dumps(doc)))
        assert again == result.provenance

    def test_memo_hit_rate(self):
        prov = Provenance(search={"combinations": 3, "memo_hits": 1})
        assert prov.memo_hit_rate == 0.25
        assert Provenance().memo_hit_rate == 0.0

    def test_as_dict_key_set(self):
        """The payload ``repro explain --format json`` prints is pinned."""
        _, result = traced_synthesis("Table 14.1")
        assert set(result.provenance.as_dict()) == {
            "kind",
            "objective",
            "search_mode",
            "search_space",
            "search_bound",
            "combinations_scored",
            "memo_hits",
            "pruned",
            "direct_fallback",
            "dag_nodes",
            "dag_intern_hits",
            "dag_shared_nodes",
            "dag_finalists",
            "chosen",
            "blocks",
            "degradations",
        }

    def test_telemetry_reads_the_search_phase_record(self):
        _, result = traced_synthesis("Table 14.1")
        (record,) = [p for p in result.timings.phases if p.phase == "search"]
        prov = result.provenance
        assert prov.search is record.counters
        for attr, counter in SEARCH_COUNTERS.items():
            assert getattr(prov, attr) == record.counters[counter]

    def test_blocks_capture_winner_definitions(self):
        _, result = traced_synthesis("Table 14.1")
        prov = result.provenance
        assert set(prov.blocks) == set(result.decomposition.blocks)
        for name, definition in prov.blocks.items():
            assert isinstance(definition, str) and definition


class TestMetricsAgreement:
    def test_counters_match_provenance_exactly(self):
        """A gcd-ladder fuzz system whose search memoizes; views must agree."""
        _, result = traced_synthesis(generate_case(0, 29).system)
        prov = result.provenance
        for attr, counter in SEARCH_COUNTERS.items():
            assert search_metric(counter) == getattr(prov, attr), attr
        assert prov.memo_hits > 0  # this system's search actually memoizes

    def test_dag_counters_match_provenance_exactly(self):
        """All seven search integers equal the published phase counters."""
        _, result = traced_synthesis("SG 3X2")
        prov = result.provenance
        for attr, counter in SEARCH_COUNTERS.items():
            assert search_metric(counter) == getattr(prov, attr), attr
        assert prov.combinations_scored > 0
        assert prov.dag_nodes > 0
        assert prov.dag_intern_hits > 0
        assert prov.dag_shared_nodes > 0
        assert prov.dag_finalists > 0

    def test_rectangle_mode_publishes_no_dag_counters(self):
        """A degraded run never reaches the dag search, so no dag counters.

        Its decomposition comes from the factor+cse baseline's rectangle
        covering alone.
        """
        _, result = traced_synthesis("Table 14.1", budget=Budget(job_seconds=0))
        prov = result.provenance
        assert prov.search_mode == "degraded"
        assert prov.dag_nodes == 0
        assert prov.dag_finalists == 0
        assert search_metric_names() == set()

    def test_cache_size_gauges_published(self):
        _, _ = traced_synthesis("Table 14.1")
        sizes = synthesis_cache_sizes()
        registry = get_registry()
        for name, size in sizes.items():
            assert registry.gauge(f"repro_search_{name}_size").value == size
        assert sizes["best_expr_cache"] > 0

    def test_untraced_run_publishes_nothing(self):
        system = get_system("Table 14.1")
        clear_synthesis_caches()
        get_registry().reset()
        synthesize(list(system.polys), system.signature, SynthesisOptions())
        assert get_registry().collect() == []


class TestExplainReport:
    def test_text_names_kernels_and_telemetry(self):
        system, result = traced_synthesis("SG 3X2")
        text = explain_text(result, name=system.name)
        prov = result.provenance
        assert f"system: {system.name}" in text
        assert f"{prov.combinations_scored} scored" in text
        assert f"{prov.memo_hits} memo hit(s)" in text
        assert "chosen representations:" in text
        for block in prov.blocks:
            assert block in text

    def test_text_reports_dag_sharing(self):
        system, result = traced_synthesis("SG 3X2")
        prov = result.provenance
        text = explain_text(result, name=system.name)
        assert (
            f"dag sharing: {prov.dag_nodes} node(s) interned" in text
        )
        assert f"{prov.dag_shared_nodes} shared across polynomials" in text
        assert f"{prov.dag_finalists} finalist(s) assembled" in text

    def test_text_lists_every_phase(self):
        system, result = traced_synthesis("SG 3X2")
        text = explain_text(result, name=system.name)
        section = text.split("\nphases (", 1)[1].splitlines()[1:]
        assert section == [f"  {p}" for p in result.timings.phases]
        assert f"combinations={result.provenance.combinations_scored}" in text

    def test_rectangle_text_omits_dag_line(self):
        """A degraded (rectangle-cover baseline) result has no dag line."""
        _, result = traced_synthesis("Table 14.1", budget=Budget(job_seconds=0))
        assert result.provenance.search_mode == "degraded"
        assert "dag sharing" not in explain_text(result)

    def test_missing_provenance_degrades_gracefully(self):
        class Stub:
            provenance = None

        assert "no provenance" in explain_text(Stub())

    def test_chosen_representation_as_dict(self):
        choice = ChosenRepresentation(
            polynomial="x^2", tag="factored", index=0, candidates=4
        )
        assert choice.as_dict()["tag"] == "factored"


class TestExplainCli:
    def test_text_format(self, capsys):
        rc = main(["explain", "--system", "Table 14.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "search:" in out
        assert "chosen representations:" in out

    def test_json_format(self, capsys):
        rc = main(["explain", "--system", "Table 14.1", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "provenance"
        assert doc["combinations_scored"] > 0
        assert doc["chosen"]

    def test_requires_a_system(self, capsys):
        assert main(["explain"]) == 2
