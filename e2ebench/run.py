"""End-to-end benchmark of the polynomial-system synthesis flow.

    python3 e2ebench/run.py --workload paper-table --seed 1 --seconds 30 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``e2ebench/README.md``)
from the root of a checkout, using the program in ``src/``:

1. set-up time: nine fresh starts (a process that imports the program
   and builds the inputs; for the service, spawn until ``/readyz``
   answers 200), median;
2. the workload itself, in its own child process, reaped with
   ``os.wait4`` for its peak resident memory;
3. one ``metric workload value unit`` line per metric, then one JSON
   record as the last line of standard output.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (spans written under
``e2ebench/out/``).  The exit code is 0 only when every output passed
the independent oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import service_load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 9
#: Everything, set-up included, must finish inside this many seconds.
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(args, env) -> float:
    """Median host-normalized time of fresh starts until the workload is ready."""
    samples = []
    cal = hostspeed.calibrate()
    for number in range(SETUP_STARTS):
        if args.workload == "service-mixed":
            data_dir = OUT / f"setup-data-{os.getpid()}-{number}"
            log = OUT / f"setup-{os.getpid()}-{number}.log"
            server = service_load.start(service_load.serve_command(ROOT), env, data_dir, log)
            seconds = server.ready_s
            server.stop()
            shutil.rmtree(data_dir, ignore_errors=True)
            log.unlink()
        else:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "inputs.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)],
                stdout=subprocess.PIPE, env=env, text=True)
            line = proc.stdout.readline()
            seconds = time.perf_counter() - started
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up run of {args.workload} failed")
        after = hostspeed.calibrate()
        samples.append(seconds * hostspeed.factor(cal, after))
        cal = after
    return statistics.median(samples)


def run_workload(args, env, deadline: float) -> tuple[dict, int]:
    """Run the measured child; return its JSON report and peak RSS (KiB)."""
    result_path = OUT / f"result-{args.workload}-{os.getpid()}.json"
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(result_path), "--spans", str(spans_path)],
        stdout=sys.stderr, env=env, start_new_session=True)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise TimeoutError(f"{args.workload} did not finish within {RUN_LIMIT_S:.0f} s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} exited with {proc.returncode}")
    report = json.loads(result_path.read_text())
    result_path.unlink()
    if args.trace:
        print(f"spans: {spans_path}", file=sys.stderr)
    return report, usage.ru_maxrss


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from a checkout holding src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = child_env()
    setup_s = setup_seconds(args, env)
    report, child_rss_kb = run_workload(args, env, deadline)
    for error in report["errors"]:
        print(f"FAILED {error}", file=sys.stderr)

    measured = dict(report["per_layer"] if args.trace else report["end_to_end"])
    if not args.trace:
        rss_kb = report["server_rss_kb"] or child_rss_kb
        measured.update({"setup_s": setup_s, "peak_rss_mb": rss_kb / 1024.0})
    group = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in group:
        if entry["name"] not in measured:
            print(f"metric {entry['name']} was not measured", file=sys.stderr)
            return 2
        value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {args.workload} {value!r} {entry['unit']}")
    correct = report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
