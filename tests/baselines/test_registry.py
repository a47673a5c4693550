"""Tests for the method registry and its integration surface.

The round trip the issue asks for: ``register_method`` makes a method
visible in ``available_methods``, runnable through ``compare_methods``,
usable from the batch engine, and listed by the CLI.
"""

import pytest

from repro import BatchEngine, BatchJob, RunConfig, compare_methods
from repro.__main__ import main
from repro.baselines import (
    available_methods,
    direct_decomposition,
    get_method,
    is_registered,
    register_method,
    unregister_method,
)
from repro.suite import get_system


@pytest.fixture
def scratch_method():
    """Register a throwaway method, always unregistered afterwards."""
    name = "test-scratch"

    def fn(system, options=None):
        """A scratch method (direct decomposition in disguise)."""
        return direct_decomposition(list(system.polys))

    register_method(name, fn)
    yield name
    unregister_method(name)


class TestRegistry:
    def test_builtins_present(self):
        names = available_methods()
        for expected in ("direct", "horner", "factor+cse", "ted", "proposed"):
            assert expected in names

    def test_get_unknown_raises_with_known_list(self):
        with pytest.raises(KeyError, match="proposed"):
            get_method("definitely-not-a-method")

    def test_duplicate_registration_rejected(self, scratch_method):
        with pytest.raises(ValueError, match="already registered"):
            register_method(scratch_method, lambda s, o=None: None)

    def test_replace_allows_override(self, scratch_method):
        def replacement(system, options=None):
            return direct_decomposition(list(system.polys))

        register_method(scratch_method, replacement, replace=True)
        assert get_method(scratch_method) is replacement

    def test_decorator_form(self):
        @register_method("test-decorated")
        def decorated(system, options=None):
            return direct_decomposition(list(system.polys))

        try:
            assert is_registered("test-decorated")
        finally:
            unregister_method("test-decorated")

    def test_var_keyword_methods_are_not_wrapped(self):
        def flexible(system, options=None, **kwargs):
            return direct_decomposition(list(system.polys))

        register_method("test-kwargs", flexible)
        try:
            assert get_method("test-kwargs") is flexible
        finally:
            unregister_method("test-kwargs")


class TestCompareMethodsIntegration:
    def test_registered_method_runs_in_compare(self, scratch_method):
        system = get_system("Table 14.1")
        outcomes = compare_methods(system, methods=("direct", scratch_method))
        assert set(outcomes) == {"direct", scratch_method}
        assert outcomes[scratch_method].hardware.area > 0

    def test_unknown_method_warns_not_silent(self):
        system = get_system("Table 14.1")
        with pytest.warns(DeprecationWarning, match="unknown method 'bogus'"):
            outcomes = compare_methods(system, methods=("direct", "bogus"))
        assert set(outcomes) == {"direct"}

    def test_default_signature_unchanged(self):
        system = get_system("Table 14.1")
        outcomes = compare_methods(system)
        assert set(outcomes) == {"direct", "horner", "factor+cse", "proposed"}


class TestEngineIntegration:
    def test_registered_method_runs_in_engine(self, scratch_method):
        report = BatchEngine(RunConfig(workers=1)).run(
            [BatchJob(system=get_system("Table 14.1"), method=scratch_method)]
        )
        [result] = report.results
        assert result.ok and result.method == scratch_method


class TestCliIntegration:
    def test_methods_command_lists_registered(self, scratch_method, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "proposed" in out and scratch_method in out

    def test_compare_methods_flag(self, scratch_method, capsys):
        code = main(
            [
                "compare",
                "--system",
                "Table 14.1",
                "--methods",
                f"direct,{scratch_method}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert scratch_method in out and "proposed" not in out

    def test_compare_unknown_method_errors(self, capsys):
        code = main(
            ["compare", "--system", "Table 14.1", "--methods", "nope"]
        )
        assert code == 2
        assert "unknown method" in capsys.readouterr().err
