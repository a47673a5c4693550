"""Tests for the hierarchical span tracer (repro.obs.tracer)."""

import threading

import pytest

from repro.core import SynthesisOptions, synthesize
from repro.obs import (
    NULL_TRACER,
    Span,
    Tracer,
    TraceSnapshot,
    current_tracer,
    env_trace_settings,
    use_tracer,
)
from repro.serialize import dumps
from repro.suite import get_system


class TestNesting:
    def test_basic_tree(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c", tag="x") as c:
                c.count(items=3)
        [root] = tracer.roots
        assert root.name == "a"
        assert [child.name for child in root.children] == ["b", "c"]
        assert root.children[1].attrs == {"tag": "x"}
        assert root.children[1].counters == {"items": 3}

    def test_deterministic_order(self):
        def build() -> tuple:
            tracer = Tracer()
            with tracer.span("root"):
                for name in ("p1", "p2", "p3"):
                    with tracer.span(name):
                        with tracer.span(f"{name}/sub"):
                            pass
            return tracer.roots[0].signature()

        assert build() == build()

    def test_timestamps_monotone(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        [root] = tracer.roots
        [child] = root.children
        assert root.start <= child.start <= child.end <= root.end

    def test_depth_and_find(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert tracer.depth() == 3
        assert tracer.find("c") is not None
        assert tracer.find("nope") is None

    def test_exception_closes_span_and_tags_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("a"):
                raise ValueError("boom")
        [root] = tracer.roots
        assert root.end is not None
        assert root.attrs["error"] == "ValueError"


class TestThreadSafety:
    def test_threads_get_independent_stacks(self):
        tracer = Tracer()

        def work(name: str) -> None:
            with tracer.span(name):
                with tracer.span(f"{name}/inner"):
                    pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.roots) == 4
        for root in tracer.roots:
            assert len(root.children) == 1


class TestMaxSpans:
    def test_cap_drops_and_counts(self):
        tracer = Tracer(max_spans=3)
        with tracer.span("a"):
            for _ in range(5):
                with tracer.span("b"):
                    pass
        [root] = tracer.roots
        assert len(root.children) == 2  # 1 root + 2 children hit the cap
        assert tracer.dropped == 3
        assert tracer.snapshot().dropped == 3


class TestSerialization:
    def test_span_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", k="v") as a:
            a.count(n=2)
            with tracer.span("b"):
                pass
        [root] = tracer.roots
        restored = Span.from_dict(root.to_dict())
        assert restored.signature() == root.signature()
        assert restored.attrs == root.attrs
        assert restored.counters == root.counters

    def test_snapshot_round_trip_via_serialize(self):
        from repro.serialize import loads

        tracer = Tracer()
        with tracer.span("a"):
            pass
        snapshot = tracer.snapshot()
        restored = loads(dumps(snapshot))
        assert isinstance(restored, TraceSnapshot)
        assert restored.epoch_wall == snapshot.epoch_wall
        assert [s.signature() for s in restored.spans] == [
            s.signature() for s in snapshot.spans
        ]


class TestAdoption:
    def test_rebases_and_lanes(self):
        worker = Tracer()
        with worker.span("job"):
            with worker.span("inner"):
                pass
        parent = Tracer()
        parent.epoch_wall = worker.epoch_wall - 10.0  # worker started later
        with parent.span("batch"):
            parent.adopt(worker.snapshot().to_dict(), tid=7)
        [batch] = parent.roots
        [job] = batch.children
        assert job.name == "job"
        assert job.tid == 7 and job.children[0].tid == 7
        assert job.start >= 10.0  # shifted by the epoch delta
        assert parent.depth() == 3


class TestAmbient:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER or isinstance(current_tracer(), Tracer)

    def test_use_tracer_scopes(self):
        tracer = Tracer()
        before = current_tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.set(a=2)
            span.count(b=3)
        assert NULL_TRACER.roots == []

    def test_env_trace_settings(self, monkeypatch):
        # Regression: falsy values must disable, never be mistaken for a
        # trace path ("REPRO_TRACE=0" once wrote a Chrome trace named 0).
        for value, expected in [
            ("", (False, None)),
            ("0", (False, None)),
            ("off", (False, None)),
            ("false", (False, None)),
            ("FALSE", (False, None)),
            ("No", (False, None)),
            ("none", (False, None)),
            ("disabled", (False, None)),
            ("  Off  ", (False, None)),
            ("1", (True, None)),
            ("TRUE", (True, None)),
            (" yes ", (True, None)),
            ("trace.json", (True, "trace.json")),
            ("0.json", (True, "0.json")),
        ]:
            monkeypatch.setenv("REPRO_TRACE", value)
            assert env_trace_settings() == expected, value
        monkeypatch.delenv("REPRO_TRACE")
        assert env_trace_settings() == (False, None)


class TestResultIdentity:
    def test_traced_and_untraced_results_identical(self):
        system = get_system("Table 14.1")
        options = SynthesisOptions()
        untraced = synthesize(list(system.polys), system.signature, options)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = synthesize(list(system.polys), system.signature, options)
        assert dumps(traced.decomposition) == dumps(untraced.decomposition)
        assert traced.op_count == untraced.op_count
        assert traced.initial_op_count == untraced.initial_op_count
        # ... and the trace actually recorded the flow, >= 3 levels deep.
        assert tracer.depth() >= 3
        assert tracer.find("poly_synth") is not None
        assert tracer.find("cce/gcd_pass") is not None
