"""The recorder's point events: ordering, sinks, env grammar, zero cost."""

import json
import threading

import pytest

from repro.core import SynthesisOptions, clear_synthesis_caches, synthesize
from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    CallbackSink,
    Event,
    JsonlSink,
    RingBufferSink,
    Tracer,
    TraceSnapshot,
    allocation_counts,
    current_tracer,
    env_events_settings,
    use_tracer,
    validate_event_jsonl,
)
from repro.suite import get_system


def events_recorder(**caps) -> Tracer:
    """A recorder keeping events (in a ring buffer) and no spans."""
    return Tracer(sinks=[RingBufferSink()], max_spans=0, **caps)


class TestEventBasics:
    def test_round_trip(self):
        event = Event(seq=3, ts=0.25, kind="combo_scored", data={"cost": 7})
        doc = event.to_dict()
        assert doc == {
            "kind": "event",
            "event": "combo_scored",
            "seq": 3,
            "ts": 0.25,
            "data": {"cost": 7},
        }
        assert Event.from_dict(doc) == event

    def test_snapshot_round_trip(self):
        stream = events_recorder()
        stream.emit("phase_start", name="search")
        stream.emit("phase_end", name="search", degraded=False)
        snapshot = TraceSnapshot.from_dict(stream.snapshot().to_dict())
        assert [e.kind for e in snapshot.events] == ["phase_start", "phase_end"]
        assert snapshot.events[0].data == {"name": "search"}

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            Event.from_dict({"kind": "span"})
        with pytest.raises(ValueError):
            TraceSnapshot.from_dict({"kind": "event"})

    def test_sequence_strictly_increases(self):
        stream = events_recorder()
        for _ in range(100):
            stream.emit("heartbeat")
        seqs = [e.seq for e in stream.events]
        assert seqs == list(range(100))

    def test_max_events_counts_drops(self):
        stream = events_recorder(max_events=3)
        for _ in range(5):
            stream.emit("heartbeat")
        assert len(stream.events) == 3
        assert stream.dropped == 2
        assert stream.snapshot().dropped == 2

    def test_emit_accepts_kind_data_key(self):
        # "kind" is a natural data key (kernel vs cube); the positional-only
        # parameter must not collide with it.
        stream = events_recorder()
        stream.emit("kernel_chosen", kind="cube", gain=3)
        assert stream.events[0].data == {"kind": "cube", "gain": 3}

    def test_thread_safe_total_order(self):
        stream = events_recorder()

        def pump():
            for _ in range(200):
                stream.emit("heartbeat")

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = [e.seq for e in stream.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 800


class TestSinks:
    def test_jsonl_sink_streams_valid_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = Tracer(sinks=[JsonlSink(str(path))], max_spans=0)
        stream.emit("job_start", job="a")
        stream.emit("job_end", job="a", error=None)
        stream.close()
        content = path.read_text()
        assert validate_event_jsonl(content) == []
        lines = [json.loads(line) for line in content.splitlines()]
        assert [entry["event"] for entry in lines] == ["job_start", "job_end"]

    def test_callback_sink_swallows_exceptions(self):
        seen = []

        def bad(event):
            seen.append(event.kind)
            raise RuntimeError("consumer bug")

        stream = Tracer(sinks=[CallbackSink(bad)], max_spans=0)
        stream.emit("heartbeat")  # must not raise
        assert seen == ["heartbeat"]

    def test_multiple_sinks_fan_out(self):
        ring = RingBufferSink()
        seen = []
        stream = Tracer(sinks=[ring, CallbackSink(seen.append)], max_spans=0)
        stream.emit("cache_hit", job="x")
        assert [e.kind for e in ring.events] == ["cache_hit"]
        assert [e.kind for e in seen] == ["cache_hit"]


class TestAdopt:
    def test_adopt_resequences_and_labels(self):
        child = events_recorder()
        child.emit("job_start", job="inner")
        child.emit("phase_start", name="search")
        parent = events_recorder()
        parent.emit("cache_miss", job="outer")
        parent.adopt(child.snapshot().to_dict(), job="outer")
        kinds = [e.kind for e in parent.events]
        assert kinds == ["cache_miss", "job_start", "phase_start"]
        seqs = [e.seq for e in parent.events]
        assert seqs == [0, 1, 2]
        # job stamped onto adopted events, existing labels preserved
        assert parent.events[1].data["job"] == "inner"
        assert parent.events[2].data["job"] == "outer"

    def test_adopt_rebases_timestamps(self):
        child = events_recorder()
        child.emit("heartbeat")
        parent = events_recorder()
        snapshot = child.snapshot()
        snapshot.epoch_wall = parent.epoch_wall + 2.0
        parent.adopt(snapshot)
        assert parent.events[0].ts >= 2.0


class TestAmbient:
    def test_default_is_null(self):
        assert current_tracer().emitting in (False, True)  # never raises

    def test_use_events_scopes(self):
        stream = events_recorder()
        before = current_tracer()
        with use_tracer(stream):
            assert current_tracer() is stream
        assert current_tracer() is before

    def test_null_stream_is_inert(self):
        NULL_TRACER.emit("heartbeat", anything=1)
        NULL_TRACER.adopt({"kind": "trace", "epoch_wall": 0.0}, job="x")
        NULL_TRACER.close()
        assert NULL_TRACER.events == []
        assert NULL_TRACER.emitting is False

    def test_env_events_settings_falsy_matrix(self, monkeypatch):
        for value, expected in [
            ("", (False, None)),
            ("0", (False, None)),
            ("false", (False, None)),
            ("OFF", (False, None)),
            ("no", (False, None)),
            ("none", (False, None)),
            ("Disabled", (False, None)),
            ("1", (True, None)),
            ("on", (True, None)),
            ("events.jsonl", (True, "events.jsonl")),
        ]:
            monkeypatch.setenv("REPRO_EVENTS", value)
            assert env_events_settings() == expected, value
        monkeypatch.delenv("REPRO_EVENTS")
        assert env_events_settings() == (False, None)


class TestValidator:
    def test_valid_stream_passes(self):
        stream = events_recorder()
        stream.emit("phase_start", name="x")
        stream.emit("phase_end", name="x")
        lines = "\n".join(
            json.dumps(e.to_dict(), sort_keys=True) for e in stream.events
        )
        assert validate_event_jsonl(lines) == []

    def test_violations_reported(self):
        bad = "\n".join(
            [
                "not json",
                '{"kind": "event", "event": "no_such_kind", "seq": 0, "ts": 0}',
                '{"kind": "event", "event": "heartbeat", "seq": 5, "ts": 0}',
                '{"kind": "event", "event": "heartbeat", "seq": 5, "ts": -1}',
                '{"kind": "span"}',
            ]
        )
        errors = validate_event_jsonl(bad)
        assert any("not valid JSON" in e for e in errors)
        assert any("unknown event kind" in e for e in errors)
        assert any("does not increase" in e for e in errors)
        assert any("'ts' must be" in e for e in errors)
        assert any("'kind' must be" in e for e in errors)

    def test_taxonomy_is_closed(self):
        assert "combo_scored" in EVENT_KINDS
        assert "kernel_chosen" in EVENT_KINDS
        assert "heartbeat" in EVENT_KINDS


class TestZeroCost:
    def test_disabled_synthesis_allocates_no_events(self):
        """The NULL_TRACER hot path must allocate zero Event objects."""
        system = get_system("Table 14.1")
        options = SynthesisOptions()
        clear_synthesis_caches()
        synthesize(list(system.polys), system.signature, options)  # warm imports
        clear_synthesis_caches()
        before = allocation_counts()
        synthesize(list(system.polys), system.signature, options)
        assert allocation_counts()["events"] == before["events"]

    def test_enabled_synthesis_does_allocate(self):
        system = get_system("Table 14.1")
        clear_synthesis_caches()
        stream = events_recorder()
        before = allocation_counts()
        with use_tracer(stream):
            synthesize(list(system.polys), system.signature, SynthesisOptions())
        assert allocation_counts()["events"] > before["events"]
        kinds = {e.kind for e in stream.events}
        assert "phase_start" in kinds
        assert "combo_scored" in kinds

    @pytest.mark.parametrize(
        "make, kept",
        [
            (lambda: NULL_TRACER, set()),
            # The service's and --events-out's setup: events only, uncapped.
            (
                lambda: Tracer(
                    sinks=[RingBufferSink()], max_spans=0, max_events=None
                ),
                {"events"},
            ),
            (lambda: Tracer(), {"spans"}),  # --trace-out: spans only
            (lambda: Tracer(sinks=[RingBufferSink()]), {"spans", "events"}),
        ],
        ids=["disabled", "events-only", "spans-only", "both"],
    )
    def test_recorder_allocates_only_what_it_keeps(self, make, kept):
        system = get_system("Table 14.1")
        clear_synthesis_caches()
        recorder = make()
        before = allocation_counts()
        with use_tracer(recorder):
            synthesize(list(system.polys), system.signature, SynthesisOptions())
        after = allocation_counts()
        assert {kind for kind in after if after[kind] > before[kind]} == kept

    def test_events_do_not_change_results(self):
        from repro.serialize import decomposition_to_dict

        system = get_system("Table 14.1")
        options = SynthesisOptions()
        clear_synthesis_caches()
        plain = synthesize(list(system.polys), system.signature, options)
        clear_synthesis_caches()
        with use_tracer(events_recorder()):
            observed = synthesize(
                list(system.polys), system.signature, options
            )
        assert decomposition_to_dict(observed.decomposition) == \
            decomposition_to_dict(plain.decomposition)
        assert observed.op_count == plain.op_count
