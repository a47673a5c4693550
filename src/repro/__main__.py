"""Command-line interface: ``python -m repro <command> ...``.

Commands:

``synthesize``
    Run the integrated flow on polynomials given on the command line and
    print the decomposition, operator counts, and hardware estimate.
``compare``
    Compare all methods (direct / Horner / factorization+CSE / proposed)
    on a named benchmark system or on given polynomials.
``canon``
    Print the canonical falling-factorial form of a polynomial over a
    bit-vector signature.
``factor``
    Factor a polynomial over Z.
``verilog``
    Synthesize and emit a Verilog module.
``systems``
    List the built-in benchmark systems.
``methods``
    List the registered synthesis methods (the method registry).
``batch``
    Run many benchmark systems through the batch engine (parallel
    workers, content-hash cache) and print per-phase timings.
``trace``
    Run the integrated flow under the span tracer and write the
    hierarchical trace (Chrome trace-event JSON, optionally JSONL and
    Prometheus metrics) — see ``docs/OBSERVABILITY.md``.
``fuzz``
    Differential fuzzing: generate adversarial systems, run every
    registered method plus the flow's strategy matrix, verify each
    result against the exact canonical-form oracle, shrink failures to
    minimal reproducers — see ``docs/VERIFY.md``.
``serve``
    Run the durable synthesis service: a crash-safe WAL job store,
    lease-based recovery (``--resume`` after a crash), admission
    control, and a stdlib HTTP API in front of the batch engine — see
    ``docs/SERVICE.md``.
``submit``
    Submit one system to a running ``repro serve`` over HTTP
    (``--wait`` polls until the job is terminal).
``jobs``
    List the jobs of a running ``repro serve`` (``--state``/``--tenant``
    filters).

``synthesize`` and ``batch`` additionally accept ``--trace-out FILE``
(write a Chrome trace of the run) and ``--stats`` (print the metrics
registry in Prometheus text format).  Setting ``REPRO_TRACE`` to a file
name traces any command and writes the Chrome trace there on exit.

Every synthesis-running subcommand shares the resource-governance flags
(``--job-seconds``, ``--phase-seconds``, ``--max-steps``,
``--job-timeout``, ``--max-retries``) plus ``--config FILE`` — a JSON
:meth:`repro.config.RunConfig.as_dict` payload that seeds the whole
config, with explicit flags overriding individual fields.  The flags are
declared once on shared argparse parent parsers and assemble into one
:class:`repro.config.RunConfig` — see ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    BitVectorSignature,
    PolySystem,
    compare_methods,
    parse_system,
    synthesize_system,
)
from repro.config import RunConfig
from repro.core import Budget
from repro.cost import estimate_decomposition
from repro.factor import factor_polynomial
from repro.poly import parse_polynomial
from repro.rings import to_canonical
from repro.suite import available_systems, get_system


def _system_from_args(args: argparse.Namespace) -> PolySystem:
    if getattr(args, "system", None):
        return get_system(args.system)
    polys = parse_system(args.polynomials)
    variables = tuple(sorted({v for p in polys for v in p.used_vars()}))
    polys = [p.with_vars(variables) for p in polys]
    signature = BitVectorSignature.uniform(variables, args.width)
    return PolySystem("cli", tuple(polys), signature)


def run_config_from_args(args: argparse.Namespace) -> RunConfig:
    """Build the :class:`RunConfig` the shared CLI flags describe.

    ``--config FILE`` seeds the config from a JSON
    :meth:`RunConfig.as_dict` payload; every explicit flag then overrides
    the matching field on top of it.
    """
    import json
    from dataclasses import replace as dc_replace

    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        with open(path) as handle:
            cfg = RunConfig.from_dict(json.load(handle))

    job_seconds = getattr(args, "job_seconds", None)
    phase_seconds = getattr(args, "phase_seconds", None)
    max_steps = getattr(args, "max_steps", None)
    if job_seconds is not None or phase_seconds is not None or max_steps is not None:
        base = cfg.budget or Budget()
        cfg = cfg.replace(
            budget=Budget(
                job_seconds=job_seconds if job_seconds is not None else base.job_seconds,
                phase_seconds=(
                    phase_seconds if phase_seconds is not None else base.phase_seconds
                ),
                max_steps=max_steps if max_steps is not None else base.max_steps,
            )
        )

    retry_overrides: dict = {}
    if getattr(args, "max_retries", None) is not None:
        retry_overrides["max_retries"] = args.max_retries
    if getattr(args, "job_timeout", None) is not None:
        retry_overrides["job_timeout_seconds"] = args.job_timeout
    if retry_overrides:
        cfg = cfg.replace(retry=dc_replace(cfg.retry, **retry_overrides))

    if getattr(args, "workers", None) is not None:
        cfg = cfg.replace(workers=args.workers)
    if getattr(args, "cache_dir", None) is not None:
        cfg = cfg.replace(cache_dir=args.cache_dir)
    return cfg


def _obs_scope(args: argparse.Namespace, total_jobs: int | None = None):
    """(context manager, recorder) honouring the shared observability
    flags: ``--trace-out`` / ``--stats`` make the command's recorder keep
    spans, ``--events-out`` / ``--progress`` make it keep events, sent to
    a JSONL file sink and/or the live progress renderer.  Without any of
    them the ambient recorder stays, and the recorder is ``None``."""
    from contextlib import nullcontext

    from repro.obs import (
        DEFAULT_MAX_SPANS,
        CallbackSink,
        JsonlSink,
        ProgressRenderer,
        Tracer,
        use_tracer,
    )

    spans = bool(getattr(args, "trace_out", None) or getattr(args, "stats", False))
    sinks: list = []
    if getattr(args, "events_out", None):
        sinks.append(JsonlSink(args.events_out))
    if getattr(args, "progress", False):
        sinks.append(CallbackSink(ProgressRenderer(total_jobs=total_jobs)))
    if not spans and not sinks:
        return nullcontext(), None
    recorder = Tracer(
        sinks=sinks or None, max_spans=DEFAULT_MAX_SPANS if spans else 0
    )
    return use_tracer(recorder), recorder


def _emit_trace_artifacts(args: argparse.Namespace, recorder) -> None:
    from repro.obs import JsonlSink, get_registry, prometheus_text, write_chrome_trace

    if recorder is not None:
        if getattr(args, "trace_out", None):
            events = write_chrome_trace(args.trace_out, recorder.snapshot())
            print(f"trace: {events} event(s) -> {args.trace_out}")
        recorder.close()
        for sink in recorder.sinks:
            if isinstance(sink, JsonlSink):
                print(f"events: {sink.written} event(s) -> {sink.path}")
    if getattr(args, "stats", False):
        text = prometheus_text(get_registry())
        if text:
            print()
            print(text, end="")


def _cmd_synthesize(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    scope, recorder = _obs_scope(args, total_jobs=1)
    with scope:
        result = synthesize_system(system, run_config_from_args(args))
    print(result.summary())
    report = estimate_decomposition(result.decomposition, system.signature)
    print(f"hardware: {report}")
    _emit_trace_artifacts(args, recorder)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.api import DEFAULT_METHODS
    from repro.baselines import available_methods
    from repro.report import markdown_report, text_report

    system = _system_from_args(args)
    if args.methods:
        methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
        unknown = [m for m in methods if m not in available_methods()]
        if unknown:
            print(
                f"error: unknown method(s) {', '.join(unknown)}; "
                f"registered: {', '.join(available_methods())}",
                file=sys.stderr,
            )
            return 2
    else:
        methods = DEFAULT_METHODS
    outcomes = compare_methods(system, run_config_from_args(args), methods=methods)
    if args.markdown:
        print(markdown_report(system, outcomes))
    else:
        print(text_report(system, outcomes))
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    from repro.baselines import available_methods, get_method

    for name in available_methods():
        doc = (get_method(name).__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:12s} {summary}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.api import clear_caches
    from repro.core import synthesis_cache_sizes

    if args.clear:
        sizes = clear_caches()
        for name, size in sizes.items():
            print(f"{name:16s} {size} entr{'y' if size == 1 else 'ies'} cleared")
    else:
        for name, size in synthesis_cache_sizes().items():
            print(f"{name:16s} {size} entr{'y' if size == 1 else 'ies'}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.baselines import available_methods
    from repro.engine import BatchEngine, graceful_shutdown
    from repro.suite import TABLE_14_3_SYSTEMS

    if args.method not in available_methods():
        print(
            f"error: unknown method {args.method!r}; "
            f"registered: {', '.join(available_methods())}",
            file=sys.stderr,
        )
        return 2
    if args.systems:
        names = tuple(n.strip() for n in args.systems.split(",") if n.strip())
    else:
        names = TABLE_14_3_SYSTEMS
    engine = BatchEngine(run_config_from_args(args))
    report = None
    scope, recorder = _obs_scope(
        args, total_jobs=len(names) * max(1, args.repeat)
    )
    with scope, graceful_shutdown(engine):
        for _ in range(max(1, args.repeat)):
            report = engine.run_suite(names, method=args.method)
            if engine.stop_requested:
                break
    assert report is not None
    print(report.summary_table())
    _emit_trace_artifacts(args, recorder)
    if engine.stop_requested:
        # Interrupted: in-flight jobs were drained (their results are in
        # the partial report above), queued jobs were cancelled, and the
        # disk cache holds everything that completed.
        print(
            f"batch: interrupted — {len(report.cancelled)} job(s) cancelled "
            f"before execution, completed work is cached",
            file=sys.stderr,
        )
        return 130
    return 1 if report.errors else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        Tracer,
        chrome_trace,
        chrome_trace_depth,
        format_span_tree,
        get_registry,
        use_tracer,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )

    system = _system_from_args(args)
    tracer = Tracer()
    with use_tracer(tracer):
        result = synthesize_system(system, run_config_from_args(args))
    print(result.summary())
    print()
    snapshot = tracer.snapshot()
    print(format_span_tree(snapshot.spans))
    document = chrome_trace(snapshot)
    errors = validate_chrome_trace(document)
    if errors:
        for error in errors:
            print(f"invalid trace: {error}", file=sys.stderr)
        return 1
    events = write_chrome_trace(args.out, snapshot)
    print(
        f"trace: {events} event(s), depth {chrome_trace_depth(document)} "
        f"-> {args.out}"
    )
    if args.jsonl:
        lines = write_jsonl(args.jsonl, snapshot)
        print(f"jsonl: {lines} span(s) -> {args.jsonl}")
    if args.metrics:
        write_prometheus(args.metrics, get_registry())
        print(f"metrics: -> {args.metrics}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzConfig, run_fuzz

    shapes = (
        tuple(s.strip() for s in args.shapes.split(",") if s.strip())
        if args.shapes
        else None
    )
    methods = (
        tuple(m.strip() for m in args.methods.split(",") if m.strip())
        if args.methods
        else None
    )
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        methods=methods,
        shapes=shapes,
        check_cost=not args.no_cost_check,
        shrink=args.shrink,
        corpus_dir=args.corpus_dir,
        run_config=run_config_from_args(args),
    )
    scope, recorder = _obs_scope(args, total_jobs=args.iterations)
    with scope:
        report = run_fuzz(config)
    print(report.summary())
    # Wall-clock goes to stderr: the stdout summary stays deterministic.
    print(f"elapsed: {report.elapsed:.1f}s", file=sys.stderr)
    _emit_trace_artifacts(args, recorder)
    return 1 if report.findings else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.report import batch_text_report
    from repro.service import ServiceConfig, ServiceServer, SynthesisService

    service = SynthesisService(
        ServiceConfig(
            data_dir=args.data_dir,
            run_config=run_config_from_args(args),
            lease_seconds=args.lease_seconds,
            max_redeliveries=args.max_redeliveries,
            fsync=args.fsync,
            drain_seconds=args.drain_seconds,
            max_queue_depth=args.max_queue_depth,
            tenant_rate=args.rate,
            tenant_burst=args.burst,
            max_job_seconds=args.max_job_seconds_cap,
            events_out=args.events_out,
        )
    )
    service.start(resume=args.resume)
    if args.resume:
        recovery = service.recovery
        print(
            f"repro-serve: resume recovered {recovery.get('jobs', 0)} job(s) "
            f"from the WAL ({recovery.get('torn_records', 0)} torn record(s) "
            f"dropped), requeued {recovery.get('requeued', 0)} orphan(s), "
            f"dead-lettered {recovery.get('dead_lettered', 0)}",
            flush=True,
        )
    server = ServiceServer(service, args.host, args.port)
    try:
        asyncio.run(
            server.run(
                announce=lambda msg: print(f"repro-serve: {msg}", flush=True)
            )
        )
    finally:
        report = service.stop(drain=True)
        counts = service.store.counts()
        summary = ", ".join(
            f"{count} {state}" for state, count in sorted(counts.items())
        )
        print(f"repro-serve: drained; store holds {summary or 'no jobs'}")
        if report.results:
            print(batch_text_report(report))
    return 0


def _http_json(
    url: str,
    payload: dict | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict]:
    """One JSON-over-HTTP exchange against a running ``repro serve``."""
    import json
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        try:
            body = json.loads(error.read() or b"{}")
        except ValueError:
            body = {}
        return error.code, body


def _cmd_submit(args: argparse.Namespace) -> int:
    import time as time_mod

    from repro.serialize import system_to_dict
    from repro.service import TERMINAL_STATES

    system = _system_from_args(args)
    payload: dict = {
        "system": system_to_dict(system),
        "method": args.method,
        "tenant": args.tenant,
    }
    if args.label:
        payload["label"] = args.label
    config = run_config_from_args(args)
    if config != RunConfig():
        payload["config"] = config.as_dict()
    base = args.url.rstrip("/")
    status, data = _http_json(f"{base}/jobs", payload)
    if status == 429:
        print(
            f"rejected: {data.get('error', 'rate limited')} "
            f"(retry after {float(data.get('retry_after', 0.0)):.3f}s)",
            file=sys.stderr,
        )
        return 75  # EX_TEMPFAIL: the client should back off and retry
    if status not in (200, 201):
        print(f"error {status}: {data.get('error', data)}", file=sys.stderr)
        return 1
    job = data["job"]
    dedup = "" if data.get("created") else " (deduplicated onto existing job)"
    print(f"job {job['job_id']}: {job['state']}{dedup}")
    if not args.wait:
        return 0
    deadline = time_mod.time() + args.wait_timeout
    while time_mod.time() < deadline:
        status, data = _http_json(f"{base}/jobs/{job['job_id']}")
        if status != 200:
            print(f"error {status}: {data.get('error', data)}", file=sys.stderr)
            return 1
        job = data["job"]
        if job["state"] in TERMINAL_STATES:
            break
        time_mod.sleep(args.poll_seconds)
    else:
        print(
            f"job {job['job_id']} still {job['state']!r} after "
            f"{args.wait_timeout:.0f}s",
            file=sys.stderr,
        )
        return 1
    status, data = _http_json(f"{base}/jobs/{job['job_id']}/result")
    if status != 200:
        print(f"error {status}: {data.get('error', data)}", file=sys.stderr)
        return 1
    line = f"job {data['job_id']}: {data['state']}"
    if data.get("fingerprint"):
        line += f", fingerprint {data['fingerprint'][:16]}"
    if data.get("error"):
        line += f", error: {data['error']}"
    print(line)
    return 0 if data["state"] in ("done", "degraded") else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    query = []
    if args.state:
        query.append(f"state={args.state}")
    if args.tenant:
        query.append(f"tenant={args.tenant}")
    suffix = f"?{'&'.join(query)}" if query else ""
    status, data = _http_json(f"{base}/jobs{suffix}")
    if status != 200:
        print(f"error {status}: {data.get('error', data)}", file=sys.stderr)
        return 1
    jobs = data.get("jobs", [])
    print(
        f"{'job':24s} {'state':12s} {'tenant':10s} {'method':12s} "
        f"{'att':>3s} {'redel':>5s} fingerprint"
    )
    for job in jobs:
        fingerprint = (job.get("fingerprint") or "")[:16]
        print(
            f"{job['job_id']:24s} {job['state']:12s} {job['tenant']:10s} "
            f"{job['method']:12s} {job.get('attempts', 0):3d} "
            f"{job.get('redeliveries', 0):5d} {fingerprint}"
        )
    counts = data.get("counts", {})
    summary = ", ".join(
        f"{count} {state}" for state, count in sorted(counts.items())
    )
    print(f"total: {len(jobs)} job(s) ({summary or 'empty store'})")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.core import explain_text
    from repro.obs import RingBufferSink, Tracer, use_tracer

    system = _system_from_args(args)
    # Run under a fresh recorder of spans and events so the provenance
    # counters and the published metrics come from this run alone.
    with use_tracer(Tracer(sinks=[RingBufferSink()])):
        result = synthesize_system(system, run_config_from_args(args))
    if args.format == "json":
        prov = result.provenance
        print(
            json.dumps(
                prov.as_dict() if prov is not None else None,
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(explain_text(result, name=system.name))
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.polynomial)
    variables = poly.used_vars() or ("x",)
    signature = BitVectorSignature.uniform(variables, args.width)
    print(to_canonical(poly.with_vars(variables), signature))
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.polynomial)
    print(factor_polynomial(poly))
    return 0


def _cmd_verilog(args: argparse.Namespace) -> int:
    from repro.rtl import decomposition_to_verilog, testbench_for_system

    system = _system_from_args(args)
    result = synthesize_system(system, run_config_from_args(args))
    sys.stdout.write(
        decomposition_to_verilog(result.decomposition, system.signature, args.module)
    )
    if args.testbench:
        sys.stdout.write("\n")
        sys.stdout.write(
            testbench_for_system(
                list(system.polys), system.signature, args.module
            )
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify import check_polynomials

    left = parse_polynomial(args.left)
    right = parse_polynomial(args.right)
    variables = tuple(sorted(set(left.used_vars()) | set(right.used_vars()))) or ("x",)
    signature = BitVectorSignature.uniform(variables, args.width)
    report = check_polynomials(
        left.with_vars(variables), right.with_vars(variables), signature
    )
    print(report)
    return 0 if report else 1


def _cmd_systems(args: argparse.Namespace) -> int:
    for name in available_systems():
        print(f"{name:16s} {get_system(name)}")
    return 0


def _system_parent() -> argparse.ArgumentParser:
    """Shared input-selection arguments (``parents=`` building block)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("polynomials", nargs="*", help="polynomial expressions")
    parent.add_argument("--system", help="name of a built-in benchmark system")
    parent.add_argument("--width", type=int, default=16, help="bit-vector width")
    return parent


def _governance_parent() -> argparse.ArgumentParser:
    """Shared RunConfig flags, declared once for every synthesis command."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("resource governance (RunConfig)")
    group.add_argument(
        "--config",
        metavar="FILE",
        help="seed the RunConfig from a JSON file (a RunConfig.as_dict "
        "payload); the flags below override its fields individually",
    )
    group.add_argument(
        "--job-seconds",
        type=float,
        help="cooperative wall-clock budget per synthesis job (graceful "
        "degradation on overrun)",
    )
    group.add_argument(
        "--phase-seconds",
        type=float,
        help="cooperative wall-clock budget per synthesis phase",
    )
    group.add_argument(
        "--max-steps",
        type=int,
        help="deterministic step-count fuse across the flow's hot loops",
    )
    group.add_argument(
        "--job-timeout",
        type=float,
        help="hard per-job timeout for pooled batch jobs (worker killed, "
        "job rerun degraded)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        help="retry attempts for crashed or failing batch jobs (default: 2)",
    )
    return parent


def _observability_parent() -> argparse.ArgumentParser:
    """Shared tracing/metrics flags (``parents=`` building block)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace-out",
        help="write a Chrome trace-event JSON of the run to this file",
    )
    parent.add_argument(
        "--stats",
        action="store_true",
        help="print the metrics registry (Prometheus text format)",
    )
    parent.add_argument(
        "--events-out",
        help="stream the structured event log (JSONL) of the run to this file",
    )
    parent.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress/ETA status line from the event stream",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Polynomial datapath synthesis (Gopalakrishnan & Kalla, DATE'09)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    system = _system_parent()
    governance = _governance_parent()
    observability = _observability_parent()

    p = sub.add_parser(
        "synthesize",
        parents=[system, governance, observability],
        help="run the integrated flow",
    )
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "compare", parents=[system, governance], help="compare all methods"
    )
    p.add_argument("--markdown", action="store_true", help="emit a Markdown table")
    p.add_argument(
        "--methods",
        help="comma-separated method names from the registry "
        "(default: direct,horner,factor+cse,proposed)",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "explain",
        parents=[system, governance],
        help="run the flow and render its decision report (provenance)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human-readable report (default) or the raw provenance JSON",
    )
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("canon", help="canonical form over Z_2^m")
    p.add_argument("polynomial")
    p.add_argument("--width", type=int, default=16)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("factor", help="factor a polynomial over Z")
    p.add_argument("polynomial")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser(
        "verilog", parents=[system, governance], help="synthesize and emit Verilog"
    )
    p.add_argument("--module", default="datapath", help="Verilog module name")
    p.add_argument(
        "--testbench", action="store_true", help="also emit a self-checking testbench"
    )
    p.set_defaults(func=_cmd_verilog)

    p = sub.add_parser("check", help="equivalence of two polynomials over Z_2^m")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--width", type=int, default=16)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("systems", help="list built-in benchmark systems")
    p.set_defaults(func=_cmd_systems)

    p = sub.add_parser("methods", help="list registered synthesis methods")
    p.set_defaults(func=_cmd_methods)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the process-level synthesis caches "
        "(best-expression memo, kernel cache, DAG interner, packed "
        "contexts, rings memos)",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--stats", action="store_true", help="print cache sizes (the default)"
    )
    group.add_argument(
        "--clear", action="store_true", help="clear every cache; print what was dropped"
    )
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "batch",
        parents=[governance, observability],
        help="batch-synthesize systems via the engine",
    )
    p.add_argument(
        "--systems",
        help="comma-separated benchmark system names "
        "(default: the eight Table 14.3 rows)",
    )
    p.add_argument(
        "--method", default="proposed", help="registered method to run"
    )
    p.add_argument(
        "--workers",
        type=int,
        help="process pool size (default: 1 = in-process)",
    )
    p.add_argument(
        "--cache-dir", help="directory for the on-disk result cache (optional)"
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the batch N times (N>1 demonstrates warm-cache hit rates)",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "fuzz",
        parents=[governance, observability],
        help="differential fuzzing of every registered method",
    )
    p.add_argument("--seed", type=int, default=0, help="master sweep seed")
    p.add_argument(
        "--iterations", type=int, default=100, help="number of generated cases"
    )
    p.add_argument(
        "--time-budget",
        type=float,
        help="wall-clock budget (seconds) for the whole sweep; the sweep "
        "stops between cases and reports itself truncated",
    )
    p.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug failing systems down to minimal reproducers",
    )
    p.add_argument(
        "--corpus-dir",
        help="write reproducer JSON files for failing cases here",
    )
    p.add_argument(
        "--shapes", help="comma-separated generator shapes (default: all)"
    )
    p.add_argument(
        "--methods",
        help="comma-separated registry methods to fuzz (default: all)",
    )
    p.add_argument(
        "--no-cost-check",
        action="store_true",
        help="skip the area-monotonicity cross-check",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "serve",
        parents=[governance],
        help="run the durable synthesis service (WAL job store + HTTP API)",
    )
    p.add_argument(
        "--data-dir",
        required=True,
        help="directory for the WAL job store and the result cache",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: pick an ephemeral port and announce it)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay the WAL and requeue jobs orphaned by a crash",
    )
    p.add_argument(
        "--workers", type=int, help="engine process pool size (default: 1)"
    )
    p.add_argument(
        "--cache-dir",
        help="result cache directory (default: <data-dir>/cache)",
    )
    p.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="worker lease duration; expired leases are requeued",
    )
    p.add_argument(
        "--max-redeliveries",
        type=int,
        default=3,
        help="redeliveries before a job parks in the dead-letter state",
    )
    p.add_argument(
        "--drain-seconds",
        type=float,
        default=30.0,
        help="grace period for in-flight jobs on SIGTERM/SIGINT",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        help="global cap on non-terminal jobs (backpressure: HTTP 429)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="sustained submissions/second allowed per tenant",
    )
    p.add_argument(
        "--burst",
        type=int,
        default=100,
        help="instantaneous submission burst allowed per tenant",
    )
    p.add_argument(
        "--max-job-seconds-cap",
        type=float,
        help="clamp every tenant's job budget to at most this many seconds",
    )
    p.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every WAL append (survives power loss, not just crashes)",
    )
    p.add_argument(
        "--events-out",
        help="stream the service's structured event log (JSONL) to this file",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        parents=[system, governance],
        help="submit one system to a running `repro serve` over HTTP",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of the running service",
    )
    p.add_argument(
        "--method", default="proposed", help="registered method to run"
    )
    p.add_argument("--tenant", default="default", help="tenant identity")
    p.add_argument("--label", help="display label (default: the system name)")
    p.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job is terminal and print its result",
    )
    p.add_argument(
        "--wait-timeout",
        type=float,
        default=300.0,
        help="give up polling after this many seconds",
    )
    p.add_argument(
        "--poll-seconds",
        type=float,
        default=0.2,
        help="poll interval while waiting",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "jobs", help="list the jobs of a running `repro serve`"
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="base URL of the running service",
    )
    p.add_argument("--state", help="filter by job state")
    p.add_argument("--tenant", help="filter by tenant")
    p.set_defaults(func=_cmd_jobs)

    p = sub.add_parser(
        "trace",
        parents=[system, governance],
        help="run the flow under the span tracer and export the trace",
    )
    p.add_argument(
        "--out", default="trace.json", help="Chrome trace-event JSON output file"
    )
    p.add_argument("--jsonl", help="also write a flat JSONL span log here")
    p.add_argument(
        "--metrics", help="also write the metrics registry (Prometheus text) here"
    )
    p.set_defaults(func=_cmd_trace)
    return parser


def _flush_env_trace() -> None:
    """Honour ``REPRO_TRACE=<file>`` / ``REPRO_EVENTS=<file>``: dump the
    ambient recorder's spans and close its event sinks on exit."""
    from repro.obs import current_tracer, env_trace_path, write_chrome_trace

    path = env_trace_path()
    recorder = current_tracer()
    if path and recorder.roots:
        write_chrome_trace(path, recorder.snapshot())
    recorder.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) in (
        "synthesize", "compare", "verilog", "trace", "explain", "submit",
    ):
        if not args.polynomials and not args.system:
            print("error: provide polynomials or --system NAME", file=sys.stderr)
            return 2
    code = args.func(args)
    _flush_env_trace()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
