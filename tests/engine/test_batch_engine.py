"""Tests for the batch engine: caching, parallelism, metrics, fallback."""

import pytest

import repro.engine.engine as engine_module
from repro import BatchEngine, BatchJob, RunConfig
from repro.core import SynthesisOptions
from repro.serialize import dumps
from repro.suite import get_system

SMALL_SYSTEMS = ("Table 14.1", "Table 14.2", "Section 14.3.1")


def jobs_for(names=SMALL_SYSTEMS):
    return [BatchJob(system=get_system(name)) for name in names]


class TestCaching:
    def test_second_run_is_all_hits(self):
        engine = BatchEngine(RunConfig(workers=1))
        cold = engine.run(jobs_for(["Table 14.1"]))
        assert cold.cache_hits == 0 and cold.cache_misses == 1
        warm = engine.run(jobs_for(["Table 14.1"]))
        assert warm.cache_hits == 1 and warm.cache_misses == 0
        assert warm.hit_rate == 1.0
        assert warm.results[0].payload == cold.results[0].payload

    def test_warm_run_does_zero_synthesis_work(self, monkeypatch):
        engine = BatchEngine(RunConfig(workers=1))
        engine.run(jobs_for(["Table 14.1"]))

        def explode(*args, **kwargs):
            raise AssertionError("synthesize called on a warm cache")

        monkeypatch.setattr(engine_module, "synthesize", explode)
        warm = engine.run(jobs_for(["Table 14.1"]))
        assert warm.hit_rate == 1.0
        assert warm.results[0].ok

    def test_options_change_misses(self):
        engine = BatchEngine(RunConfig(workers=1))
        system = get_system("Table 14.1")
        engine.run([BatchJob(system=system)])
        report = engine.run(
            [BatchJob(system=system, options=SynthesisOptions(objective="ops"))]
        )
        assert report.cache_misses == 1

    def test_disk_cache_survives_engine_restart(self, tmp_path):
        first = BatchEngine(RunConfig(workers=1, cache_dir=tmp_path))
        cold = first.run(jobs_for(["Table 14.1"]))
        second = BatchEngine(RunConfig(workers=1, cache_dir=tmp_path))
        warm = second.run(jobs_for(["Table 14.1"]))
        assert warm.hit_rate == 1.0
        assert warm.results[0].payload == cold.results[0].payload
        assert second.cache.stats.disk_hits == 1

    def test_errors_are_not_cached(self):
        engine = BatchEngine(RunConfig(workers=1))
        bad = [BatchJob(system=get_system("Table 14.1"), method="nope")]
        first = engine.run(bad)
        assert not first.results[0].ok
        second = engine.run(bad)
        assert second.cache_misses == 1  # failure re-attempted, not served


class TestParallel:
    def test_parallel_equals_serial_byte_identical(self):
        serial = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        parallel = BatchEngine(RunConfig(workers=2)).run(jobs_for())
        assert len(serial.results) == len(parallel.results) == len(SMALL_SYSTEMS)
        for a, b in zip(serial.results, parallel.results):
            assert a.name == b.name  # deterministic input ordering
            assert a.canonical_result() == b.canonical_result()
            assert dumps(a.decomposition) == dumps(b.decomposition)

    def test_pool_failure_falls_back_in_process(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no forks today")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", broken_pool)
        report = BatchEngine(RunConfig(workers=4)).run(jobs_for(["Table 14.1", "Table 14.2"]))
        assert all(r.ok for r in report.results)
        assert report.pool.mode == "fallback"

    def test_workers_one_never_pools(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("pool used with workers=1")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", explode)
        report = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        assert all(r.ok for r in report.results)
        assert report.pool.mode == "serial"


class TestReport:
    def test_results_in_input_order_with_metrics(self):
        report = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        assert [r.name for r in report.results] == list(SMALL_SYSTEMS)
        for result in report.results:
            assert result.ok
            assert result.op_count is not None
            assert result.initial_op_count is not None
            assert result.seconds > 0
            phases = {p.phase for p in result.timings.phases}
            assert {"initial", "search", "validate"} <= phases
            assert result.timings.counter("combinations") > 0

    def test_phase_seconds_aggregates(self):
        report = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        phases = report.phase_seconds()
        assert phases["search"] > 0
        assert sum(phases.values()) == pytest.approx(
            sum(r.timings.total_seconds() for r in report.results)
        )

    def test_summary_table_mentions_cache_and_phases(self):
        engine = BatchEngine(RunConfig(workers=1))
        engine.run(jobs_for(["Table 14.1"]))
        report = engine.run(jobs_for(["Table 14.1"]))
        table = report.summary_table()
        assert "100% hit rate" in table
        assert "phase seconds" in table
        assert "Table 14.1" in table

    def test_summary_table_reports_search_stats(self):
        report = BatchEngine(RunConfig(workers=1)).run(jobs_for())
        table = report.summary_table()
        combos = sum(
            r.timings.counter("combinations") for r in report.results
        )
        memo = sum(r.timings.counter("memo_hits") for r in report.results)
        assert combos > 0
        assert f"search: {combos} combination(s) scored" in table
        assert f"{memo} memo hit(s)" in table
        assert "memo hit rate" in table
        assert "combos" in table  # the per-job column header

    def test_accepts_bare_systems(self):
        report = BatchEngine(RunConfig(workers=1)).run([get_system("Table 14.1")])
        assert report.results[0].name == "Table 14.1"
        assert report.results[0].method == "proposed"


class TestMethods:
    def test_registry_methods_run_through_engine(self):
        engine = BatchEngine(RunConfig(workers=1))
        report = engine.run(
            [BatchJob(system=get_system("Table 14.1"), method="horner")]
        )
        [result] = report.results
        assert result.ok and result.method == "horner"
        result.decomposition.validate(list(get_system("Table 14.1").polys))

    def test_run_suite_names(self):
        engine = BatchEngine(RunConfig(workers=1))
        report = engine.run_suite(["Table 14.1", "Table 14.2"])
        assert [r.name for r in report.results] == ["Table 14.1", "Table 14.2"]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            BatchEngine(RunConfig(workers=0))
