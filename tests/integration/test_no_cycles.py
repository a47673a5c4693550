"""The synthesis flow leaves no reference cycles behind.

Every extractor run, kernel enumeration and expression walk must free its
working state by reference counting alone.  State left in cycles waits
for the cyclic collector, whose passes then cost a share of every job.
The test runs the flow with the collector off and asks it, at the end,
how much unreachable garbage piled up: there must be none.
"""

from __future__ import annotations

import gc
import importlib.util
import textwrap
from pathlib import Path

import repro
from repro import BatchEngine, RunConfig
from repro.fuzz import generate_cases
from repro.obs import RingBufferSink, Tracer, use_tracer
from repro.suite import get_system

SYSTEMS = ("Table 14.1", "Table 14.2", "MVCS")
REPO_ROOT = Path(__file__).resolve().parents[2]


def _synthesize_all() -> None:
    for name in SYSTEMS:
        repro.synthesize_system(get_system(name))
    for case in generate_cases(0, 24):
        repro.synthesize_system(case.system)


def test_synthesis_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        _synthesize_all()
        tracer = Tracer(sinks=[RingBufferSink()])
        with use_tracer(tracer):
            _synthesize_all()
        del tracer
        report = BatchEngine(RunConfig(workers=1)).run(
            [get_system(name) for name in SYSTEMS[:2]]
        )
        assert not report.errors
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def _load_guard():
    path = REPO_ROOT / "scripts" / "check_nested_recursion.py"
    spec = importlib.util.spec_from_file_location("check_nested_recursion", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_guard_flags_self_and_mutual_recursion():
    source = textwrap.dedent(
        """
        def outer(tree):
            def walk(node):
                for child in node:
                    walk(child)

            if tree:
                def even(n):
                    return n == 0 or odd(n - 1)

                def odd(n):
                    return n != 0 and even(n - 1)

            def helper(n):
                return n + 1

            return walk, helper
        """
    )
    found = _load_guard().nested_recursion(source, "sample.py")
    assert [line.split(": ", 1)[1] for line in found] == [
        "nested function outer.walk refers to itself",
        "nested function outer.even refers to sibling 'odd'",
        "nested function outer.odd refers to sibling 'even'",
    ]


def test_src_has_no_recursive_nested_functions():
    assert _load_guard().main([str(REPO_ROOT / "src" / "repro")]) == 0
