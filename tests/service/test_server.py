"""HTTP-level tests for the service front end (ServerThread)."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serialize import system_to_dict
from repro.service import (
    AdmissionController,
    ServerThread,
    ServiceConfig,
    ServiceServer,
    SynthesisService,
    TenantPolicy,
)

from .test_service import tiny_system, wait_terminal


def call(base, path, payload=None, method=None, timeout=10.0):
    """One JSON exchange; returns (status, body, headers)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}"), error.headers


@pytest.fixture
def server(tmp_path):
    service = SynthesisService(
        ServiceConfig(data_dir=str(tmp_path / "svc"), poll_seconds=0.02)
    )
    thread = ServerThread(service).start()
    yield thread
    thread.stop()


class TestEndpoints:
    def test_health_and_ready(self, server):
        assert call(server.address, "/healthz")[0] == 200
        status, body, _ = call(server.address, "/readyz")
        assert status == 200 and body["status"] == "ready"

    def test_submit_poll_result(self, server):
        status, body, _ = call(
            server.address, "/jobs",
            {"system": system_to_dict(tiny_system(11))},
        )
        assert status == 201 and body["created"]
        job_id = body["job"]["job_id"]
        record = wait_terminal(server.service, job_id)
        assert record.state == "done"
        status, body, _ = call(server.address, f"/jobs/{job_id}/result")
        assert status == 200
        assert body["state"] == "done"
        assert body["fingerprint"] == record.fingerprint
        assert body["result"] is not None

    def test_dedup_returns_200(self, server):
        payload = {"system": system_to_dict(tiny_system(12))}
        first = call(server.address, "/jobs", payload)
        second = call(server.address, "/jobs", payload)
        assert first[0] == 201
        assert second[0] == 200 and not second[1]["created"]
        assert second[1]["job"]["job_id"] == first[1]["job"]["job_id"]

    def test_job_view_and_events(self, server):
        status, body, _ = call(
            server.address, "/jobs",
            {"system": system_to_dict(tiny_system(13))},
        )
        job_id = body["job"]["job_id"]
        wait_terminal(server.service, job_id)
        status, body, _ = call(server.address, f"/jobs/{job_id}")
        assert status == 200
        assert body["job"]["state"] == "done"
        assert "system" not in body["job"]  # public view only
        kinds = [e.get("event") for e in body["events"]]
        assert "job_queued" in kinds and "job_end" in kinds
        # Incremental polling: ?since= filters already-seen events.
        last_seq = max(int(e.get("seq", 0)) for e in body["events"])
        _, tail, _ = call(server.address, f"/jobs/{job_id}?since={last_seq}")
        assert tail["events"] == []

    def test_result_of_running_job_conflicts(self, tmp_path):
        service = SynthesisService(
            ServiceConfig(data_dir=str(tmp_path / "svc2"), poll_seconds=0.02)
        )
        thread = ServerThread(service).start()
        try:
            # Submit, then immediately query before the worker finishes:
            # depending on timing the job is queued/leased/running — all
            # non-terminal states must 409.
            status, body, _ = call(
                thread.address, "/jobs",
                {"system": system_to_dict(tiny_system(14))},
            )
            job_id = body["job"]["job_id"]
            status, body, _ = call(thread.address, f"/jobs/{job_id}/result")
            if status == 409:
                assert "not terminal" in body["error"]
            else:  # the tiny job already finished: equally fine
                assert status == 200
        finally:
            thread.stop()

    def test_unknown_job_404(self, server):
        assert call(server.address, "/jobs/j999999-cafecafe")[0] == 404
        assert call(server.address, "/nope")[0] == 404

    def test_bad_json_400(self, server):
        request = urllib.request.Request(
            server.address + "/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_missing_system_400(self, server):
        assert call(server.address, "/jobs", {"method": "proposed"})[0] == 400

    def test_removed_option_field_400(self, server):
        status, body, _ = call(
            server.address, "/jobs",
            {"system": system_to_dict(tiny_system(16)),
             "options": {"descent_sweeps": 3}},
        )
        assert status == 400
        assert "descent_sweeps" in body["error"]

    def test_cancel_requires_non_started_job(self, server):
        status, body, _ = call(
            server.address, "/jobs",
            {"system": system_to_dict(tiny_system(15))},
        )
        job_id = body["job"]["job_id"]
        status, body, _ = call(
            server.address, f"/jobs/{job_id}/cancel", {}, method="POST"
        )
        # Either we won the race (cancelled) or the job already ran (409).
        assert status in (200, 409)
        if status == 200:
            assert body["job"]["state"] == "cancelled"

    def test_cancel_queued_job_200_and_finished_job_409(self, tmp_path):
        """Both cancel branches, without a race: the listener runs in
        front of a service whose worker starts only after the first
        cancel, so that job is certainly still queued.  (HTTP submits
        need a running worker, so the queued job is submitted in-process.)"""
        service = SynthesisService(
            ServiceConfig(data_dir=str(tmp_path / "svc5"), poll_seconds=0.02)
        )
        listener = ServiceServer(service)
        bound = threading.Event()
        http = threading.Thread(
            target=lambda: asyncio.run(
                listener.run(install_signals=False, announce=lambda _m: bound.set())
            ),
            daemon=True,
        )
        http.start()
        assert bound.wait(10.0)
        base = f"http://{listener.host}:{listener.port}"
        try:
            record, _ = service.submit(system_to_dict(tiny_system(18)))
            queued_id = record.job_id
            status, body, _ = call(base, f"/jobs/{queued_id}/cancel", {}, method="POST")
            assert status == 200
            assert body["job"]["state"] == "cancelled"

            service.start()
            _, body, _ = call(base, "/jobs", {"system": system_to_dict(tiny_system(19))})
            done_id = body["job"]["job_id"]
            assert wait_terminal(service, done_id).state == "done"
            status, body, _ = call(base, f"/jobs/{done_id}/cancel", {}, method="POST")
            assert status == 409
            assert "cannot cancel" in body["error"]
        finally:
            listener.request_shutdown()
            http.join(timeout=10.0)
            service.stop()


class TestBackpressure:
    def test_rate_limited_submit_gets_429_with_retry_after(self, tmp_path):
        admission = AdmissionController(
            default_policy=TenantPolicy(rate=1.0, burst=1),
            clock=lambda: 0.0,  # frozen: the bucket never refills
        )
        service = SynthesisService(
            ServiceConfig(data_dir=str(tmp_path / "svc3"), poll_seconds=0.02),
            admission=admission,
        )
        thread = ServerThread(service).start()
        try:
            first = call(
                thread.address, "/jobs",
                {"system": system_to_dict(tiny_system(16))},
            )
            assert first[0] == 201
            status, body, headers = call(
                thread.address, "/jobs",
                {"system": system_to_dict(tiny_system(17))},
            )
            assert status == 429
            assert "rate limit" in body["error"]
            assert float(body["retry_after"]) > 0
            assert float(headers["Retry-After"]) > 0
        finally:
            thread.stop()

    def test_draining_server_is_not_ready(self, tmp_path):
        service = SynthesisService(
            ServiceConfig(data_dir=str(tmp_path / "svc4"), poll_seconds=0.02)
        )
        thread = ServerThread(service).start()
        thread.stop()
        assert not service.ready
