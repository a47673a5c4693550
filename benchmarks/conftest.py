"""Pytest wiring for the paper-reproduction benchmarks.

Bench modules register regenerated paper tables through
:mod:`bench_common`; the ``pytest_terminal_summary`` hook below prints
them all after the run, so the rows are visible without ``-s``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from bench_common import recorded_tables  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = recorded_tables()
    if not tables:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "regenerated paper tables")
    for title, lines in tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title}")
        for line in lines:
            terminalreporter.write_line(line)
