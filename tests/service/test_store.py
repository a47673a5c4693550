"""Tests for the crash-safe WAL job store (repro.service.store)."""

import gc
import json
import warnings

import pytest

from repro.service import (
    InvalidTransition,
    JobState,
    JobStore,
    LeaseLost,
    UnknownJob,
    load_store,
)

SYSTEM = {"kind": "poly-system", "fake": True}


def submit(store, key="k1", tenant="default", **kwargs):
    record, created = store.submit(
        key=key,
        tenant=tenant,
        method="proposed",
        label=f"label-{key}",
        system=SYSTEM,
        **kwargs,
    )
    return record, created


class TestStateMachine:
    def test_submit_lease_start_complete(self, tmp_path):
        store = JobStore(tmp_path)
        record, created = submit(store)
        assert created and record.state == JobState.QUEUED
        [leased] = store.lease(10, 30.0)
        assert leased.job_id == record.job_id
        assert leased.state == JobState.LEASED
        assert leased.lease_id is not None
        store.start(record.job_id, leased.lease_id)
        assert store.get(record.job_id).state == JobState.RUNNING
        store.complete(
            record.job_id, leased.lease_id, JobState.DONE,
            result="{}", fingerprint="f" * 64,
        )
        done = store.get(record.job_id)
        assert done.state == JobState.DONE
        assert done.terminal
        assert done.attempts == 1
        assert done.lease_id is None

    def test_illegal_transitions_raise(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        [leased] = store.lease(1, 30.0)
        store.start(record.job_id, leased.lease_id)
        store.complete(record.job_id, leased.lease_id, JobState.DONE)
        with pytest.raises(InvalidTransition):
            store.cancel(record.job_id)

    def test_complete_rejects_non_terminal_target(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        [leased] = store.lease(1, 30.0)
        with pytest.raises(InvalidTransition):
            store.complete(record.job_id, leased.lease_id, JobState.QUEUED)

    def test_wrong_lease_is_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        store.lease(1, 30.0)
        with pytest.raises(LeaseLost):
            store.start(record.job_id, "lease-999999")

    def test_unknown_job(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(UnknownJob):
            store.get("j000042-deadbeef")

    def test_cancel_queued(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        cancelled = store.cancel(record.job_id)
        assert cancelled.state == JobState.CANCELLED
        assert store.lease(10, 30.0) == []


class TestIdempotency:
    def test_duplicate_key_deduplicates(self, tmp_path):
        store = JobStore(tmp_path)
        first, created1 = submit(store, key="same")
        second, created2 = submit(store, key="same")
        assert created1 and not created2
        assert second.job_id == first.job_id
        assert len(store) == 1

    def test_failed_job_allows_resubmit(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = submit(store, key="same")
        [leased] = store.lease(1, 30.0)
        store.start(first.job_id, leased.lease_id)
        store.complete(
            first.job_id, leased.lease_id, JobState.FAILED, error="boom"
        )
        second, created = submit(store, key="same")
        assert created and second.job_id != first.job_id

    @pytest.mark.parametrize("compact", [False, True], ids=["wal", "snapshot"])
    def test_reopen_dedupes_onto_the_newest_job(self, tmp_path, compact):
        """Replay leaves each key on its newest job, as live submit does:
        a key whose first job failed and whose retry is queued dedupes
        onto the retry after a restart, and job ids stay contiguous."""
        store = JobStore(tmp_path)
        first, _ = submit(store, key="same")
        [leased] = store.lease(1, 30.0)
        store.start(first.job_id, leased.lease_id)
        store.complete(
            first.job_id, leased.lease_id, JobState.FAILED, error="boom"
        )
        retry, created = submit(store, key="same")
        assert created
        if compact:
            store.close()
        reopened = JobStore(tmp_path)
        again, created = submit(reopened, key="same")
        assert not created and again.job_id == retry.job_id
        fresh, _ = submit(reopened, key="other")
        assert fresh.job_id.startswith("j000003-")


class TestLeasesAndReaper:
    def test_expired_lease_requeues_with_redelivery_count(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        store.lease(1, lease_seconds=10.0, now=100.0)
        requeued, dead = store.reap_expired(now=105.0)  # not yet expired
        assert requeued == [] and dead == []
        requeued, dead = store.reap_expired(now=111.0)
        assert [r.job_id for r in requeued] == [record.job_id]
        assert store.get(record.job_id).state == JobState.QUEUED
        assert store.get(record.job_id).redeliveries == 1

    def test_heartbeat_extends_the_lease(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        [leased] = store.lease(1, lease_seconds=10.0, now=100.0)
        store.heartbeat(record.job_id, leased.lease_id, 10.0, now=109.0)
        requeued, _ = store.reap_expired(now=111.0)  # would have expired
        assert requeued == []
        requeued, _ = store.reap_expired(now=120.0)
        assert len(requeued) == 1

    def test_dead_letter_after_redelivery_budget(self, tmp_path):
        store = JobStore(tmp_path, max_redeliveries=2)
        record, _ = submit(store)
        now = 100.0
        for expected in (1, 2):
            store.lease(1, 1.0, now=now)
            requeued, dead = store.reap_expired(now=now + 2.0)
            assert len(requeued) == 1 and dead == []
            assert store.get(record.job_id).redeliveries == expected
            now += 10.0
        store.lease(1, 1.0, now=now)
        requeued, dead = store.reap_expired(now=now + 2.0)
        assert requeued == [] and [d.job_id for d in dead] == [record.job_id]
        final = store.get(record.job_id)
        assert final.state == JobState.DEAD_LETTER
        assert "dead-lettered" in (final.error or "")

    def test_recover_orphans_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        [leased] = store.lease(1, 3600.0)  # a long, still-live lease
        store.start(record.job_id, leased.lease_id)
        requeued, dead = store.recover_orphans()
        assert [r.job_id for r in requeued] == [record.job_id]
        assert store.get(record.job_id).state == JobState.QUEUED


class TestDurability:
    def test_replay_after_unclean_shutdown(self, tmp_path):
        store = JobStore(tmp_path)
        a, _ = submit(store, key="a")
        b, _ = submit(store, key="b")
        [leased] = store.lease(1, 30.0)
        store.start(a.job_id, leased.lease_id)
        store.complete(
            a.job_id, leased.lease_id, JobState.DONE,
            result='{"r": 1}', fingerprint="a" * 64,
        )
        # No close(): simulate kill -9 by just reopening the directory.
        replayed = JobStore(tmp_path)
        assert len(replayed) == 2
        done = replayed.get(a.job_id)
        assert done.state == JobState.DONE
        assert done.result == '{"r": 1}'
        assert done.fingerprint == "a" * 64
        assert replayed.get(b.job_id).state == JobState.QUEUED

    def test_reopen_closes_the_wal_read_handles(self, tmp_path):
        store = JobStore(tmp_path)
        submit(store, key="a")
        store.close()
        submit(JobStore(tmp_path), key="b")  # left open: the crash case
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            reopened = JobStore(tmp_path)
            gc.collect()
        leaks = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
            and "wal-" in str(w.message) and "mode='r'" in str(w.message)
        ]
        assert leaks == []
        assert len(reopened) == 2
        reopened.close()

    def test_replay_preserves_job_counter(self, tmp_path):
        store = JobStore(tmp_path)
        a, _ = submit(store, key="a")
        replayed = JobStore(tmp_path)
        b, _ = submit(replayed, key="b")
        assert b.job_id != a.job_id

    def test_snapshot_from_an_older_release_with_reused_from_loads(
        self, tmp_path
    ):
        """Records written when jobs carried ``reused_from`` still load:
        unknown record fields are dropped, not fatal."""
        store = JobStore(tmp_path)
        record, _ = submit(store, key="a")
        store.close()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        snapshot["jobs"][0]["reused_from"] = "j000009-cafecafe"
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
        reopened = JobStore(tmp_path)
        assert reopened.get(record.job_id).key == "a"
        assert not hasattr(reopened.get(record.job_id), "reused_from")
        reopened.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        store = JobStore(tmp_path)
        submit(store, key="a")
        submit(store, key="b")
        [wal] = sorted(tmp_path.glob("wal-*.jsonl"))
        with open(wal, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "job-submit", "job": {"trunca')  # no \n
        replayed = JobStore(tmp_path)
        assert len(replayed) == 2
        assert replayed.torn_records >= 1
        # The truncated file must be cleanly line-framed again.
        raw = wal.read_bytes()
        assert raw.endswith(b"\n")

    def test_segment_rotation_and_snapshot(self, tmp_path):
        store = JobStore(tmp_path, segment_records=4)
        for index in range(10):
            record, _ = submit(store, key=f"k{index}")
        assert (tmp_path / "snapshot.json").exists()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["kind"] == "job-store-snapshot"
        # Only segments newer than the snapshot survive on disk.
        live = sorted(tmp_path.glob("wal-*.jsonl"))
        assert len(live) <= 2
        replayed = JobStore(tmp_path, segment_records=4)
        assert len(replayed) == 10
        assert {r.key for r in replayed.jobs()} == {f"k{i}" for i in range(10)}

    def test_close_compacts(self, tmp_path):
        store = JobStore(tmp_path)
        submit(store, key="a")
        store.close()
        assert (tmp_path / "snapshot.json").exists()
        replayed, summary = load_store(tmp_path)
        assert summary["jobs"] == 1
        assert summary["torn_records"] == 0

    def test_update_replay_is_idempotent(self, tmp_path):
        """Replaying the same segment twice must not change the table:
        WAL records carry absolute state, never increments."""
        store = JobStore(tmp_path)
        record, _ = submit(store)
        store.lease(1, 1.0, now=0.0)
        store.reap_expired(now=2.0)  # redeliveries -> 1, absolute in the WAL
        [wal] = sorted(tmp_path.glob("wal-*.jsonl"))
        lines = wal.read_text(encoding="utf-8")
        with open(wal, "a", encoding="utf-8") as handle:
            handle.write(lines)  # duplicate every record
        replayed = JobStore(tmp_path)
        assert replayed.get(record.job_id).redeliveries == 1

    def test_store_survives_kill_during_compaction_window(self, tmp_path):
        """A snapshot that landed while the covered segments still exist
        (crash between snapshot write and segment deletion) replays to
        the same table."""
        store = JobStore(tmp_path, segment_records=100)
        for index in range(5):
            submit(store, key=f"k{index}")
        store.compact()  # snapshot written, segments rotated
        # Resurrect a covered segment as if deletion had not happened.
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        covered = tmp_path / f"wal-{snapshot['segment']:06d}.jsonl"
        covered.write_text(
            json.dumps(
                {"kind": "job-submit", "job": store.get(store.jobs()[0].job_id).as_dict()}
            )
            + "\n",
            encoding="utf-8",
        )
        replayed = JobStore(tmp_path)
        assert len(replayed) == 5


class TestViews:
    def test_public_dict_hides_the_spec(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        view = record.public_dict()
        for hidden in ("system", "options", "config", "result"):
            assert hidden not in view
        assert view["job_id"] == record.job_id
        assert view["state"] == JobState.QUEUED

    def test_counts_and_depth(self, tmp_path):
        store = JobStore(tmp_path)
        submit(store, key="a", tenant="t1")
        submit(store, key="b", tenant="t2")
        record, _ = submit(store, key="c", tenant="t1")
        store.cancel(record.job_id)
        assert store.counts() == {JobState.QUEUED: 2, JobState.CANCELLED: 1}
        assert store.queued_depth() == 2
        assert store.queued_depth("t1") == 1

    def test_event_tail(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = submit(store)
        for seq in range(5):
            store.record_event(record.job_id, {"seq": seq, "event": "retry"})
        assert len(store.events_for(record.job_id)) == 5
        assert [e["seq"] for e in store.events_for(record.job_id, since_seq=2)] == [3, 4]
        store.record_event("j-unknown", {"seq": 0})  # silently ignored
        assert store.events_for("j-unknown") == []
