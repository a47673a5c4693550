"""Start, probe and stop a ``repro serve`` process (standard library only).

Shared by ``run.py`` (set-up probes) and the service-mixed workload
process (the measured server).  The server's stdout goes to a log file
rather than a pipe, so a server that prints a long report at shutdown
never blocks on a full pipe, and its exit is collected with
:func:`os.wait4` to read its peak resident memory.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0


class Server:
    """One running server process and the port it listens on."""

    def __init__(self, proc: subprocess.Popen, port: int, log: Path, ready_s: float) -> None:
        self.proc = proc
        self.port = port
        self.log = log
        self.ready_s = ready_s

    def request(self, method: str, path: str, body: bytes | None = None,
                timeout: float = 30.0) -> tuple[int, dict]:
        """One HTTP exchange on a fresh connection (the server closes each)."""
        conn = http.client.HTTPConnection(HOST, self.port, timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data or b"{}")
        finally:
            conn.close()

    def stop(self, timeout: float = 60.0) -> dict:
        """SIGTERM (graceful drain), reap, and return the server's rusage numbers."""
        if self.proc.returncode is not None:
            return {"maxrss_kb": 0, "exit": self.proc.returncode}
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return {"maxrss_kb": usage.ru_maxrss, "exit": self.proc.returncode}


def start(command: list[str], env: dict[str, str], data_dir: Path, log: Path) -> Server:
    """Spawn a server and wait until ``/readyz`` answers 200.

    ``ready_s`` is the wall time from spawn to the first 200 — the
    service's set-up time.
    """
    data_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            command + ["--data-dir", str(data_dir), "--host", HOST, "--port", "0",
                       "--workers", "1"],
            stdout=out, stderr=subprocess.STDOUT, env=env,
        )
    try:
        port = _announced_port(proc, log, started + READY_TIMEOUT_S)
        server = Server(proc, port, log, 0.0)
        while True:
            try:
                status, _ = server.request("GET", "/readyz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                server.ready_s = time.perf_counter() - started
                return server
            if time.perf_counter() > started + READY_TIMEOUT_S:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def _announced_port(proc: subprocess.Popen, log: Path, deadline: float) -> int:
    marker = f"listening on http://{HOST}:"
    while time.perf_counter() < deadline:
        text = log.read_text(encoding="utf-8", errors="replace")
        if marker in text:
            return int(text.split(marker, 1)[1].split()[0].strip().rstrip("/"))
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early:\n{text[-2000:]}")
        time.sleep(0.005)
    raise RuntimeError("server did not announce its port")


def serve_command(root: Path, trace_prefix: Path | None = None) -> list[str]:
    """``repro serve``, or the traced launcher writing ``<prefix>.*`` files."""
    if trace_prefix is None:
        return [sys.executable, "-m", "repro", "serve"]
    return [sys.executable, str(root / "e2ebench" / "serve_traced.py"), str(trace_prefix), "serve"]
