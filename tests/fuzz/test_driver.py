"""The differential driver: clean sweeps, injected bugs, skip semantics."""

from types import SimpleNamespace

import pytest

import repro.fuzz.driver as driver_module
from repro.baselines import register_method, unregister_method
from repro.errors import Unsupported
from repro.fuzz import (
    DEFAULT_STRATEGIES,
    FuzzConfig,
    check_case,
    generate_case,
    method_labels,
    run_fuzz,
)

#: A fast lineup for tests that exercise driver mechanics, not methods.
FAST = ("direct", "horner")


def fast_config(**overrides) -> FuzzConfig:
    defaults = dict(
        seed=0, iterations=4, methods=FAST,
        shapes=("single-variable", "unstructured"), check_cost=False,
    )
    defaults.update(overrides)
    return FuzzConfig(**defaults)


class TestLineup:
    def test_proposed_expands_to_strategies(self):
        labels = method_labels(FuzzConfig(methods=("direct", "proposed")))
        assert labels[0] == "direct"
        assert set(labels[1:]) == {
            f"proposed[{s.label}]" for s in DEFAULT_STRATEGIES
        }

    def test_explicit_methods_respected(self):
        assert method_labels(fast_config()) == FAST


class TestCleanSweep:
    def test_shipped_code_has_no_findings(self):
        report = run_fuzz(fast_config())
        assert report.ok and report.cases == 4
        assert report.methods_run == 4 * len(FAST)
        assert not report.truncated

    def test_summary_is_deterministic(self):
        first = run_fuzz(fast_config())
        second = run_fuzz(fast_config())
        assert first.summary() == second.summary()
        assert first.digest == second.digest

    def test_time_budget_truncates_loudly(self):
        report = run_fuzz(fast_config(iterations=50, time_budget=0.0))
        assert report.truncated and report.cases == 0
        assert "time budget hit" in report.summary()

    def test_metrics_counters_advance(self):
        from repro.obs import get_registry

        registry = get_registry()

        def total(name):
            return sum(
                sample.value
                for sample in registry.collect()
                if sample.name == name
            )

        before = total("repro_fuzz_cases")
        run_fuzz(fast_config(iterations=2))
        assert total("repro_fuzz_cases") == before + 2


class TestInjectedMiscompile:
    def test_miscompile_is_caught_with_witness(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "miscompile@fuzz:horner")
        report = run_fuzz(fast_config())
        assert not report.ok
        assert {f.method for f in report.findings} == {"horner"}
        for finding in report.findings:
            assert finding.kind == "differential"
            assert finding.counterexample is not None

    def test_injected_findings_are_deterministic(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "miscompile@fuzz:direct")
        first = run_fuzz(fast_config()).summary()
        second = run_fuzz(fast_config()).summary()
        assert first == second

    def test_miscompile_shrinks_and_archives(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULTS", "miscompile@fuzz:horner")
        config = fast_config(
            iterations=1, shrink=True, corpus_dir=str(tmp_path),
            max_shrink_evaluations=60,
        )
        report = run_fuzz(config)
        assert not report.ok
        assert report.shrunk  # case_id -> reproducer path
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        from repro.fuzz import load_corpus_entry

        entry = load_corpus_entry(files[0])
        assert entry["expect"] == "fail"
        assert entry["shrunk"] is not None


class TestSkipAndCrash:
    @pytest.fixture
    def temp_method(self):
        registered: list[str] = []

        def _register(name, fn):
            register_method(name, fn)
            registered.append(name)

        yield _register
        for name in registered:
            unregister_method(name)

    def test_unsupported_is_a_skip_not_a_finding(self, temp_method):
        def refuses(system, options=None):
            raise Unsupported("refuses", "test-only input class")

        temp_method("refuses", refuses)
        config = fast_config(methods=("direct", "refuses"), iterations=2)
        report = run_fuzz(config)
        assert report.ok
        assert report.skips == 2
        assert report.methods_run == 2  # only direct actually ran

    def test_other_exceptions_are_crash_findings(self, temp_method):
        def explodes(system, options=None):
            raise RuntimeError("kaboom")

        temp_method("explodes", explodes)
        config = fast_config(methods=("explodes",), iterations=1)
        report = run_fuzz(config)
        assert [f.kind for f in report.findings] == ["crash"]
        assert "kaboom" in report.findings[0].detail


class TestCostOracle:
    def test_area_regression_is_a_finding(self, monkeypatch):
        real = driver_module.estimate_decomposition

        def skewed(decomposition, signature):
            report = real(decomposition, signature)
            if decomposition.method != "direct":
                return SimpleNamespace(area=report.area * 10)
            return report

        monkeypatch.setattr(driver_module, "estimate_decomposition", skewed)
        case = generate_case(0, 0, shapes=("unstructured",))
        config = FuzzConfig(
            methods=("direct", "proposed"),
            strategies=(DEFAULT_STRATEGIES[0],),  # area only
            check_cost=True,
        )
        result = check_case(case, config)
        kinds = {f.kind for f in result.findings}
        assert kinds == {"cost"}
        assert result.findings[0].method == "proposed[area]"

    def test_no_cost_check_without_direct_baseline(self):
        # Without "direct" in the lineup there is no reference area, so
        # the cost oracle must stay silent rather than crash.
        case = generate_case(0, 0, shapes=("single-variable",))
        config = FuzzConfig(
            methods=("proposed",), strategies=(DEFAULT_STRATEGIES[0],),
            check_cost=True,
        )
        result = check_case(case, config)
        assert result.ok
