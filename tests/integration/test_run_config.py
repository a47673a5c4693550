"""RunConfig: serialization round-trips, coercions, removal of the old
legacy keywords, replace(), and cache byte-identity across budget
changes."""

import pytest

from repro.api import synthesize_system
from repro.config import RetryPolicy, RunConfig, as_run_config
from repro.core import Budget, SynthesisOptions
from repro.engine import BatchEngine, BatchJob
from repro.engine.cache import cache_key
from repro.suite import get_system


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(cfg.as_dict()) == cfg

    def test_full_round_trip(self):
        cfg = RunConfig(
            options=SynthesisOptions(objective="ops"),
            budget=Budget(job_seconds=30.0, phase_seconds=5.0, max_steps=10_000),
            retry=RetryPolicy(
                max_retries=1, backoff_seconds=0.1, job_timeout_seconds=60.0
            ),
            workers=4,
            cache_size=64,
            cache_dir="/tmp/some-cache",
        )
        assert RunConfig.from_dict(cfg.as_dict()) == cfg

    def test_as_dict_is_json_safe(self, tmp_path):
        import json

        cfg = RunConfig(cache_dir=tmp_path / "cache")
        json.dumps(cfg.as_dict())  # PosixPath must have been stringified

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"kind": "budget"})

    def test_retry_policy_round_trip(self):
        policy = RetryPolicy(max_retries=5, jitter=0.0, breaker_threshold=7)
        assert RetryPolicy.from_dict(policy.as_dict()) == policy


class TestCoercion:
    def test_none_means_defaults(self):
        assert as_run_config(None) == RunConfig()

    def test_run_config_passes_through(self):
        cfg = RunConfig(workers=3)
        assert as_run_config(cfg) is cfg

    def test_options_are_wrapped(self):
        options = SynthesisOptions(objective="ops")
        cfg = as_run_config(options)
        assert cfg.options is options
        assert cfg.budget is None

    def test_dict_is_decoded(self):
        cfg = as_run_config(RunConfig(workers=2).as_dict())
        assert cfg.workers == 2

    def test_everything_else_is_a_type_error(self):
        with pytest.raises(TypeError):
            as_run_config(42)


class TestBackoff:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0, jitter=0.25)
        assert policy.delay(1, "job") == policy.delay(1, "job")

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0, jitter=0.0)
        assert policy.delay(2, "x") == pytest.approx(2.0 * policy.delay(1, "x"))

    def test_jitter_is_bounded_and_decorrelated(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=1.0, jitter=0.5)
        delays = {policy.delay(1, f"job-{i}") for i in range(16)}
        assert len(delays) > 1  # different jobs, different jitter
        for delay in delays:
            assert 0.1 <= delay <= 0.1 * 1.5


class TestLegacyRemoval:
    """The pre-PR-4 shims finished their one-release window: passing the
    old scattered keywords is now a hard TypeError, not a warning."""

    def test_positional_worker_count_rejected(self):
        with pytest.raises(TypeError):
            BatchEngine(2)

    def test_legacy_keywords_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            BatchEngine(workers=2, cache_dir=tmp_path)

    def test_legacy_keywords_rejected_alongside_config(self):
        with pytest.raises(TypeError):
            BatchEngine(RunConfig(workers=1), workers=3)

    def test_removed_option_field_rejected(self):
        data = RunConfig().as_dict()
        data["options"] = {"mul_weight": 20}
        with pytest.raises(TypeError):
            RunConfig.from_dict(data)

    def test_synthesize_system_options_keyword_rejected(self):
        system = get_system("Quad")
        with pytest.raises(TypeError):
            synthesize_system(system, options=SynthesisOptions())


class TestReplace:
    def test_replace_overrides_one_field(self):
        cfg = RunConfig(workers=4).replace(cache_size=64)
        assert cfg.workers == 4
        assert cfg.cache_size == 64

    def test_replace_returns_new_frozen_copy(self):
        base = RunConfig()
        derived = base.replace(workers=2)
        assert base.workers == 1
        assert derived.workers == 2
        assert derived != base

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="no field"):
            RunConfig().replace(worker_count=2)


class TestCacheIdentity:
    """Budgets are policy, not content: they stay out of the cache key,
    and changing them must not invalidate (or corrupt) cached results."""

    def test_budget_does_not_change_the_cache_key(self):
        system = get_system("Quad")
        lean = BatchEngine(RunConfig())
        fat = BatchEngine(RunConfig(budget=Budget(job_seconds=3600.0)))
        key = cache_key(system, lean.config.options, "proposed")
        assert cache_key(system, fat.config.options, "proposed") == key

    def test_warm_disk_cache_across_budget_change(self, tmp_path):
        system = get_system("Quad")
        first = BatchEngine(RunConfig(cache_dir=tmp_path))
        report = first.run([BatchJob(system=system)])
        assert report.cache_misses == 1
        second = BatchEngine(
            RunConfig(cache_dir=tmp_path, budget=Budget(job_seconds=3600.0))
        )
        warm = second.run([BatchJob(system=system)])
        assert warm.cache_hits == 1
        assert (
            warm.results[0].canonical_result()
            == report.results[0].canonical_result()
        )

    def test_config_round_trips_through_pool_workers(self):
        jobs = [
            BatchJob(system=get_system("Quad")),
            BatchJob(system=get_system("MVCS")),
        ]
        config = RunConfig(budget=Budget(job_seconds=3600.0, max_steps=10**9))
        serial = BatchEngine(config).run(jobs)
        pooled = BatchEngine(RunConfig(
            workers=2, budget=Budget(job_seconds=3600.0, max_steps=10**9)
        )).run(jobs)
        assert pooled.pool.mode == "pool"
        for a, b in zip(serial.results, pooled.results):
            assert not a.degraded and not b.degraded
            assert a.canonical_result() == b.canonical_result()

    def test_engine_options_materialize_without_changing_keys(self):
        # A job without options gets the engine-wide options; the cache
        # key must equal the explicit-default-options key.
        system = get_system("Quad")
        engine = BatchEngine(RunConfig())
        report = engine.run([BatchJob(system=system)])
        assert report.results[0].cache_key == cache_key(
            system, SynthesisOptions(), "proposed"
        )
