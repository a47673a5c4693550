"""Smoke tests of the end-to-end benchmark (a few minutes).

    python3 -m pytest e2ebench/test_smoke.py

Every workload runs briefly, traced and untraced, and must print every
metric ``BENCHMARK.json`` names, with its unit, and no failed job.  The
oracle must reject a decomposition whose block constant was corrupted,
and results must not depend on Python's hash seed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *lines, last = proc.stdout.splitlines()
    record = json.loads(last)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    printed = {line.split()[0]: line.split()[1:] for line in lines}
    for entry in SPEC["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        assert printed[name][0] == workload and printed[name][2] == entry["unit"]
        assert float(printed[name][1]) == record["metrics"][name]["value"]
        assert record["metrics"][name]["unit"] == entry["unit"]
        if not trace:
            assert record["metrics"][name]["value"] > 0, name


def _bump_first_constant(node):
    """The expression with its first constant increased by one (or None)."""
    from repro.expr.ast import Add, Const, Mul, Pow

    if isinstance(node, Const):
        return Const(node.value + 1)
    if isinstance(node, Pow):
        base = _bump_first_constant(node.base)
        return None if base is None else dataclasses.replace(node, base=base)
    if isinstance(node, (Add, Mul)):
        for i, operand in enumerate(node.operands):
            bumped = _bump_first_constant(operand)
            if bumped is not None:
                operands = node.operands[:i] + (bumped,) + node.operands[i + 1:]
                return dataclasses.replace(node, operands=operands)
    return None


def test_oracle_fails_a_corrupted_block_constant():
    import repro
    import workloads
    from repro.suite import get_system

    system = get_system("Table 14.2")
    result = repro.synthesize_system(system)
    outcome = workloads.Outcome(result.decomposition, result.op_count,
                                result.initial_op_count, result.degradations)
    clean = workloads.Run()
    workloads.verify(clean, "clean", system, outcome, workloads.Quality())
    assert not clean.failed_jobs, clean.errors

    blocks = dict(result.decomposition.blocks)
    name = next(n for n, expr in blocks.items() if _bump_first_constant(expr) is not None)
    blocks[name] = _bump_first_constant(blocks[name])
    corrupted = dataclasses.replace(result.decomposition, blocks=blocks)
    run = workloads.Run()
    workloads.verify(run, "corrupted", system, outcome._replace(decomposition=corrupted),
                     workloads.Quality())
    assert run.failed_jobs == {"corrupted"}
    assert "disagrees" in run.errors[0]


def test_results_do_not_depend_on_the_hash_seed():
    proc = subprocess.run(
        [sys.executable, str(HERE / "determinism.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
