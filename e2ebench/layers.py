"""Span recording around the public functions of each ``repro`` layer.

Traced runs only.  :func:`install` replaces every target function with a
timing wrapper *wherever it is looked up*: a module-level function is
rebound in every loaded ``repro`` module whose globals hold it (so
``from repro.factor import factor_polynomial`` call sites, and lazy
imports that read the package attribute, see the wrapper), and a method
is rebound on its class.  The program itself is not modified.

Each call records a span ``(id, name, start, end, parent id, job)`` in
memory; the spans are written out once, when the run ends.  A function's
self time is its span duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

#: (metric prefix, defining module, attribute).  The prefix is the
#: layer name followed by the function's qualified name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.synthesize", "repro.core.synth", "synthesize"),
    ("core.initial_representations", "repro.core.representations", "initial_representations"),
    ("core.cce_representation", "repro.core.representations", "cce_representation"),
    ("core.cube_extraction", "repro.core.cube_extract", "cube_extraction"),
    ("core.refine_block_definitions", "repro.core.algdiv", "refine_block_definitions"),
    ("core.division_candidates", "repro.core.algdiv", "division_candidates"),
    ("core.assemble_decomposition", "repro.core.synth", "assemble_decomposition"),
    ("factor.factor_polynomial", "repro.factor.factorize", "factor_polynomial"),
    ("poly.divmod_poly", "repro.poly.division", "divmod_poly"),
    ("poly.divide_out_all", "repro.poly.division", "divide_out_all"),
    ("poly.poly_gcd", "repro.poly.gcd", "poly_gcd"),
    ("rings.to_canonical", "repro.rings.canonical", "to_canonical"),
    ("rings.functions_equal", "repro.rings.canonical", "functions_equal"),
    ("cse.eliminate_common_subexpressions", "repro.cse.extract",
     "eliminate_common_subexpressions"),
    ("dag.ExpressionDAG.intern", "repro.dag.graph", "ExpressionDAG.intern"),
    ("dag.ExpressionDAG.combination_cost", "repro.dag.graph", "ExpressionDAG.combination_cost"),
    ("cost.estimate_decomposition", "repro.cost.estimate", "estimate_decomposition"),
    ("engine.BatchEngine.run", "repro.engine.engine", "BatchEngine.run"),
    ("engine.ResultCache.get", "repro.engine.cache", "ResultCache.get"),
    ("engine.ResultCache.put", "repro.engine.cache", "ResultCache.put"),
    ("service.SynthesisService.submit", "repro.service.service", "SynthesisService.submit"),
    ("service.JobStore.lease", "repro.service.store", "JobStore.lease"),
    ("service.JobStore.complete", "repro.service.store", "JobStore.complete"),
)

#: Search counters read off every synthesis result's provenance.
SEARCH_COUNTERS = ("combinations_scored", "memo_hits", "pruned", "dag_finalists")

#: Spans kept for the span file; calls beyond this are still counted.
MAX_SPANS = 200_000


def _factor_split(result) -> dict[str, int]:
    factors = result.factors
    split = len(factors) > 1 or any(mult > 1 for _, mult in factors)
    return {"split": int(split)}


def _search_work(result) -> dict[str, int]:
    provenance = result.provenance
    if provenance is None:
        return {}
    return {key: getattr(provenance, key) for key in SEARCH_COUNTERS}


def _cache_hit(result) -> dict[str, int]:
    return {"hits": int(result is not None)}


#: Per-call counters derived from a target's return value.
RESULT_COUNTERS = {
    "core.synthesize": _search_work,
    "core.division_candidates": lambda result: {"candidates": len(result)},
    "factor.factor_polynomial": _factor_split,
    "cse.eliminate_common_subexpressions": lambda result: {"blocks": len(result.blocks)},
    "engine.ResultCache.get": _cache_hit,
}


class Recorder:
    """In-memory spans and per-function totals for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.root_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_job(self, job) -> None:
        """Tag this thread's following spans with a job id."""
        self._local.job = job

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, job_of=None):
        counters_of = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            previous_job = getattr(self._local, "job", None)
            if job_of is not None:
                self._local.job = job_of(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(name, frame, parent, start, end, getattr(self._local, "job", None))
                self._local.job = previous_job
            if counters_of is not None:
                self.count(name, counters_of(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, frame, parent, start, end, job) -> None:
        duration = end - start
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            if parent is None:
                self.root_s += duration
            else:
                parent[1] += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else None, job)
                )
            else:
                self.dropped += 1

    def count(self, name: str, deltas: dict[str, int]) -> None:
        with self._lock:
            for key, value in deltas.items():
                full = f"{name}.{key}"
                self.counters[full] = self.counters.get(full, 0) + value

    def summary(self) -> dict:
        """Totals as one JSON-able dict (what the benchmark aggregates)."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counters": dict(self.counters),
                "root_s": self.root_s,
                "spans": len(self.spans),
                "dropped": self.dropped,
            }

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, job in spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "job": job}
                ) + "\n")


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        return getattr(owner, cls_name), method
    return owner, attribute


def _batch_job_name(self, jobs, *args, **kwargs):
    """The job a one-job engine batch runs (the service leases one at a time)."""
    if isinstance(jobs, list) and len(jobs) == 1:
        return getattr(jobs[0], "name", None)
    return None


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every target for the rest of the process."""
    import repro.api  # noqa: F401 - loads every layer before patching
    import repro.baselines.factor_cse  # noqa: F401

    for name, module_name, attribute in TARGETS:
        owner, attr = _resolve(module_name, attribute)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(
            name, original, _batch_job_name if attribute == "BatchEngine.run" else None
        )
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
