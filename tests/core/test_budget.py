"""Tests for cooperative budgets, deadlines, and graceful degradation."""

import time

import pytest

import repro.core.synth as synth_module
from repro.core import synthesize
from repro.core.budget import (
    CHECK_STRIDE,
    NULL_DEADLINE,
    NULL_METER,
    Budget,
    BudgetExceeded,
    Deadline,
    Degradation,
    current_deadline,
    deadline_for,
    use_deadline,
)
from repro.core.synth import clear_synthesis_caches
from repro.obs import RingBufferSink, Tracer, use_tracer
from repro.suite import get_system, random_system
from repro.verify import check_systems


class TestBudget:
    def test_default_is_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_steps=10).unlimited
        assert not Budget(job_seconds=1.0).unlimited

    def test_round_trip(self):
        budget = Budget(job_seconds=1.5, phase_seconds=0.5, max_steps=1000)
        assert Budget.from_dict(budget.as_dict()) == budget
        assert Budget.from_dict(Budget().as_dict()) == Budget()

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            Budget.from_dict({"kind": "retry-policy"})


class TestDegradation:
    def test_round_trip_and_str(self):
        d = Degradation("cce", "skipped", "phase budget 0.5s exceeded")
        assert Degradation.from_dict(d.as_dict()) == d
        assert "cce" in str(d) and "skipped" in str(d)


class TestDeadline:
    def test_step_fuse_raises_deterministically(self):
        deadline = Deadline(Budget(max_steps=10))
        deadline.tick(10, site="loop")
        with pytest.raises(BudgetExceeded) as excinfo:
            deadline.tick(1, site="loop")
        assert excinfo.value.limit == "steps"
        assert excinfo.value.site == "loop"

    def test_wall_clock_checked_on_stride(self):
        deadline = Deadline(Budget(job_seconds=0.0))
        time.sleep(0.01)
        # Fewer than CHECK_STRIDE ticks never consult the clock.
        for _ in range(CHECK_STRIDE - 1):
            deadline.tick()
        with pytest.raises(BudgetExceeded) as excinfo:
            for _ in range(CHECK_STRIDE):
                deadline.tick()
        assert excinfo.value.limit == "job"

    def test_phase_budget(self):
        deadline = Deadline(Budget(phase_seconds=0.0))
        deadline.start_phase("cce")
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded) as excinfo:
            deadline.check(site="cce/group")
        assert excinfo.value.limit == "phase"
        assert "cce" in str(excinfo.value)
        # Ending the phase clears its deadline.
        deadline.end_phase()
        deadline.check()

    def test_expired_never_raises(self):
        deadline = Deadline(Budget(job_seconds=0.0))
        time.sleep(0.01)
        assert deadline.expired()

    def test_disarm_stops_enforcement(self):
        deadline = Deadline(Budget(max_steps=1, job_seconds=0.0))
        deadline.disarm()
        deadline.tick(100)
        deadline.check()
        assert not deadline.expired()

    def test_remaining(self):
        deadline = Deadline(Budget(job_seconds=100.0))
        remaining = deadline.remaining()
        assert remaining is not None and 0 < remaining <= 100.0
        assert Deadline(Budget(max_steps=5)).remaining() is None


class TestMeter:
    def test_one_step_calls_tick_once_per_stride(self):
        meter = Deadline(Budget(max_steps=100)).meter("loop")
        with pytest.raises(BudgetExceeded) as excinfo:
            for step in range(1, 1000):
                meter.step()
        assert step == 2 * CHECK_STRIDE == 128
        assert excinfo.value.limit == "steps"
        assert excinfo.value.site == "loop"

    def test_flush_ticks_the_remainder(self):
        deadline = Deadline(Budget(max_steps=100))
        meter = deadline.meter("loop")
        meter.step(5)
        assert deadline.steps == 0
        meter.flush()
        assert deadline.steps == 5
        meter.flush()
        assert deadline.steps == 5

    def test_renamed_site_reaches_the_error(self):
        meter = Deadline(Budget(max_steps=10)).meter("first")
        meter.step(CHECK_STRIDE - 1)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.step(1, site="second")
        assert excinfo.value.site == "second"

    def test_null_meter_does_nothing(self):
        assert NULL_DEADLINE.meter("loop") is NULL_METER
        NULL_METER.step(10 * CHECK_STRIDE, site="loop")
        NULL_METER.flush()
        assert NULL_DEADLINE.steps == 0


#: Per-site ``(steps, tick calls)`` of cold budgeted runs.  Every
#: amortized loop batches its steps into ticks of ``CHECK_STRIDE``, so a
#: change to any loop's batching (or to what it counts) moves a row here,
#: and ``max_steps`` budgets would trip at a different step.
_PINNED_STEPS = {
    "Table 14.1": {
        "algdiv/divide": (100, 10),
        "algdiv/refine": (80, 2),
        "canonical/expand": (13, 3),
        "cce/candidate_gcds": (24, 24),
        "cce/group": (25, 8),
        "cse/coeff_cube_pairs": (110, 4),
        "cse/cube_pairs": (283, 8),
        "cse/rectangles": (136, 22),
        "cse/rescore": (616, 9),
        "cse/round": (23, 23),
        "cube_extract/harvest": (44, 1),
        "factor/ddf": (6, 4),
        "factor/edf": (6, 2),
        "factor/kronecker": (8, 2),
        "factor/recombine": (2, 2),
        "factor/zp": (122, 10),
        "poly/gcd": (36, 36),
    },
    "Table 14.2": {
        "algdiv/divide": (806, 26),
        "algdiv/refine": (651, 11),
        "canonical/expand": (87, 6),
        "cce/candidate_gcds": (199, 102),
        "cce/group": (191, 38),
        "cse/coeff_cube_pairs": (150, 3),
        "cse/cube_pairs": (943, 16),
        "cse/kernel_pairs": (171, 3),
        "cse/rectangles": (559, 26),
        "cse/rescore": (2914, 30),
        "cse/round": (28, 28),
        "cse/rows": (128, 2),
        "cube_extract/harvest": (164, 3),
        "factor/ddf": (23, 18),
        "factor/edf": (22, 17),
        "factor/kronecker": (5, 1),
        "factor/recombine": (26, 14),
        "factor/zp": (620, 40),
        "poly/gcd": (42, 42),
    },
    "Quad": {
        "algdiv/divide": (260, 13),
        "algdiv/refine": (200, 4),
        "canonical/expand": (16, 2),
        "cce/candidate_gcds": (102, 53),
        "cce/group": (81, 17),
        "cse/coeff_cube_pairs": (169, 5),
        "cse/cube_pairs": (72, 2),
        "cse/kernel_pairs": (99, 2),
        "cse/rectangles": (172, 13),
        "cse/round": (13, 13),
        "cse/rows": (130, 2),
        "cube_extract/harvest": (82, 2),
        "factor/ddf": (23, 14),
        "factor/edf": (20, 9),
        "factor/kronecker": (17, 4),
        "factor/recombine": (16, 7),
        "factor/zp": (494, 35),
        "poly/gcd": (10, 10),
    },
}


class TestStepAccounting:
    @pytest.mark.parametrize("name", sorted(_PINNED_STEPS))
    def test_per_site_steps_and_ticks(self, name, monkeypatch):
        totals = {}
        tick = Deadline.tick

        def recording(self, n=1, site=""):
            steps, ticks = totals.get(site, (0, 0))
            totals[site] = (steps + n, ticks + 1)
            tick(self, n, site=site)

        monkeypatch.setattr(Deadline, "tick", recording)
        clear_synthesis_caches()
        system = get_system(name)
        synthesize(
            list(system.polys), system.signature, budget=Budget(max_steps=10**15)
        )
        assert totals == _PINNED_STEPS[name]


class TestAmbientDeadline:
    def test_defaults_to_null(self):
        assert current_deadline() is NULL_DEADLINE
        assert not NULL_DEADLINE.enabled
        NULL_DEADLINE.tick(10_000)
        NULL_DEADLINE.check()
        assert not NULL_DEADLINE.expired()

    def test_use_deadline_installs_and_restores(self):
        deadline = Deadline(Budget(max_steps=100))
        with use_deadline(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is NULL_DEADLINE

    def test_deadline_for(self):
        assert deadline_for(None) is NULL_DEADLINE
        assert deadline_for(Budget()) is NULL_DEADLINE
        assert isinstance(deadline_for(Budget(max_steps=1)), Deadline)


class TestGracefulDegradation:
    """Budgeted synthesize always returns a valid decomposition."""

    def _assert_valid(self, system, result):
        assert result.decomposition is not None
        assert result.op_count is not None
        report = check_systems(
            result.decomposition.to_polynomials(),
            list(system.polys),
            system.signature,
        )
        assert report

    def test_unbudgeted_run_has_no_degradations(self):
        system = get_system("Quad")
        result = synthesize(list(system.polys), system.signature)
        assert result.degradations == []
        assert not result.degraded

    def test_generous_budget_matches_unbudgeted(self):
        system = get_system("Quad")
        free = synthesize(list(system.polys), system.signature)
        budgeted = synthesize(
            list(system.polys), system.signature,
            budget=Budget(job_seconds=3600.0),
        )
        assert budgeted.degradations == []
        assert budgeted.op_count == free.op_count
        assert str(budgeted.decomposition.outputs) == str(free.decomposition.outputs)

    def test_step_fuse_degrades_but_stays_valid(self):
        system = get_system("Quad")
        result = synthesize(
            list(system.polys), system.signature, budget=Budget(max_steps=5)
        )
        assert result.degraded
        assert any("fallback" in d.action for d in result.degradations)
        self._assert_valid(system, result)

    def test_expired_budget_takes_cheap_path_immediately(self):
        system = get_system("Quad")
        start = time.perf_counter()
        result = synthesize(
            list(system.polys), system.signature,
            budget=Budget(job_seconds=0.0),
        )
        elapsed = time.perf_counter() - start
        assert result.degraded
        assert any(d.action == "expired-at-start" for d in result.degradations)
        self._assert_valid(system, result)
        # The whole flow is skipped: this must be far cheaper than synthesis.
        assert elapsed < 5.0

    def test_job_budget_stops_factoring(self):
        # Six variables, degree 3: building the factored representation
        # runs Kronecker factoring over GF(p) (distinct-degree splitting
        # of a high-degree image), which has to honour the job budget.
        # Seed 3's initial phase alone runs past 20 s, so it degrades
        # there on any host.
        system = random_system(
            3, num_polys=4, variables=("a", "b", "c", "d", "e", "f"),
            width=8, max_terms=12,
        )
        start = time.perf_counter()
        result = synthesize(
            list(system.polys), system.signature,
            budget=Budget(job_seconds=1.0),
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 4.0
        assert any(d.phase == "initial" for d in result.degradations)
        self._assert_valid(system, result)

    def test_degradations_appear_in_summary(self):
        system = get_system("Quad")
        result = synthesize(
            list(system.polys), system.signature,
            budget=Budget(job_seconds=0.0),
        )
        assert "degradations:" in result.summary()


class TestDegradedPhaseRecord:
    """A degraded phase's record drives its span and its events."""

    def _run_traced(self, name="Quad"):
        system = get_system(name)
        recorder = Tracer(sinks=[RingBufferSink()])
        with use_tracer(recorder):
            result = synthesize(list(system.polys), system.signature)
        return result, recorder

    def _assert_degraded(self, phase, action, result, recorder):
        assert Degradation.from_dict(
            {"phase": phase, "action": action, "reason": "test budget"}
        ) in result.degradations
        [record] = [p for p in result.timings.phases if p.phase == phase]
        assert record.counters["degraded"] == 1
        [root] = recorder.roots
        span = root.find(phase)
        assert span.counters["degraded"] == 1
        assert span.attrs["degraded"] is True
        events = recorder.events
        assert [
            e.data for e in events
            if e.kind == "degradation" and e.data["phase"] == phase
        ] == [{"phase": phase, "action": action}]
        [end] = [
            e for e in events if e.kind == "phase_end" and e.data["name"] == phase
        ]
        assert end.data["degraded"] is True

    def test_skipped_phase(self, monkeypatch):
        def over_budget(rep, registry):
            raise BudgetExceeded("test budget", site="cce")

        monkeypatch.setattr(synth_module, "cce_representation", over_budget)
        result, recorder = self._run_traced()
        self._assert_degraded("cce", "skipped", result, recorder)
        # Phases that ran in full stay clean.
        ends = [e for e in recorder.events if e.kind == "phase_end"]
        assert [e.data["name"] for e in ends if e.data["degraded"]] == ["cce"]

    def test_partial_search(self, monkeypatch):
        score = synth_module._dag_score
        calls = []

        def over_budget_after_one(*args):
            calls.append(args)
            if len(calls) > 1:
                raise BudgetExceeded("test budget", site="search")
            return score(*args)

        monkeypatch.setattr(synth_module, "_dag_score", over_budget_after_one)
        result, recorder = self._run_traced()
        self._assert_degraded("search", "partial", result, recorder)
