"""The regression corpus: shipped entries must hold their verdicts.

``tests/corpus/*.json`` is the archive of bugs the fuzzer has found;
each file carries an ``expect`` verdict ("pass" after a fix,
"unsupported" for typed skips, "fail" for live bugs).  Replaying them
here is the tier-1 contract that fixed bugs stay fixed.
"""

from pathlib import Path

import pytest

from repro.fuzz import (
    Finding,
    FuzzConfig,
    corpus_entry,
    entry_case,
    generate_case,
    iter_corpus,
    load_corpus_entry,
    replay_entry,
    verify_entry,
    write_corpus_entry,
)
from repro.fuzz.driver import DEFAULT_STRATEGIES

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
SHIPPED = sorted(CORPUS_DIR.glob("*.json"))


class TestShippedCorpus:
    def test_corpus_is_not_empty(self):
        assert SHIPPED, "tests/corpus must hold the locked regressions"

    @pytest.mark.parametrize(
        "path", SHIPPED, ids=[p.stem for p in SHIPPED]
    )
    def test_entry_holds_its_verdict(self, path):
        entry = load_corpus_entry(path)
        problems = verify_entry(entry)
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize(
        "path", SHIPPED, ids=[p.stem for p in SHIPPED]
    )
    def test_entry_area_flow_never_loses_to_direct(self, path):
        """Replay every locked regression through the shipped flow.

        The area-objective result must pass the exact oracle and must
        not cost more area than direct (the driver's cost oracle checks
        the ``proposed[area]`` lineup entry against ``direct``).
        """
        entry = load_corpus_entry(path)
        config = FuzzConfig(
            methods=("direct", "proposed"), strategies=(DEFAULT_STRATEGIES[0],)
        )
        result = replay_entry(entry, config)
        assert result.methods_run == 2  # direct + proposed[area]
        flow_findings = [
            f for f in result.findings if f.method == "proposed[area]"
        ]
        assert not flow_findings, "\n".join(str(f) for f in flow_findings)


class TestRoundTrip:
    def _entry(self, tmp_path, expect="fail", with_finding=True):
        case = generate_case(0, 0, shapes=("single-variable",))
        findings = []
        if with_finding:
            findings = [Finding(
                kind="differential", case_id=case.case_id, shape=case.shape,
                seed=0, index=0, method="horner", detail="synthetic",
            )]
        path = write_corpus_entry(tmp_path, case, findings, expect=expect)
        return case, path

    def test_write_load_roundtrip(self, tmp_path):
        case, path = self._entry(tmp_path)
        entry = load_corpus_entry(path)
        assert entry["id"] == case.case_id
        rebuilt = entry_case(entry)
        assert rebuilt.case_id == case.case_id

    def test_iter_corpus_sorted_and_missing_dir_empty(self, tmp_path):
        self._entry(tmp_path)
        assert [p.name for p in iter_corpus(tmp_path)] == sorted(
            p.name for p in tmp_path.glob("*.json")
        )
        assert list(iter_corpus(tmp_path / "nope")) == []

    def test_wrong_kind_rejected(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="not a fuzz-corpus"):
            load_corpus_entry(bogus)

    def test_expect_fail_on_passing_system_is_a_problem(self, tmp_path):
        # Shipped code passes this case, so an entry claiming "fail"
        # must be reported as stale.
        _, path = self._entry(tmp_path, expect="fail")
        problems = verify_entry(load_corpus_entry(path))
        assert problems and "expected the archived failure" in problems[0]

    def test_expect_pass_on_passing_system_holds(self, tmp_path):
        _, path = self._entry(tmp_path, expect="pass", with_finding=False)
        assert verify_entry(load_corpus_entry(path)) == []

    def test_replay_uses_fast_config(self, tmp_path):
        _, path = self._entry(tmp_path)
        entry = load_corpus_entry(path)
        result = replay_entry(
            entry, FuzzConfig(methods=("direct",), check_cost=False)
        )
        assert result.methods_run == 1

    def test_unknown_verdict_is_a_problem(self, tmp_path):
        case = generate_case(0, 0, shapes=("single-variable",))
        entry = corpus_entry(case, [], expect="maybe")
        assert any("unknown expect" in p for p in verify_entry(entry))
