"""Fail on nested functions that refer to themselves or to a sibling.

A nested function that calls itself (or a sibling nested function that
calls it back) holds its own closure cell: function -> cell -> function.
Every call of the enclosing function then leaves that cycle, with
whatever the closure captured, for the cyclic garbage collector.  Such
helpers belong at module level, with their state passed as arguments.

Usage::

    python3 scripts/check_nested_recursion.py [PATH ...]   # default: src/repro

Prints one ``path:line: ...`` line per offending function and exits 1
when there is any, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defs_in(body: list[ast.stmt]) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions defined directly in a scope's statements (not deeper scopes)."""
    for stmt in body:
        if isinstance(stmt, _FUNCTIONS):
            yield stmt
        elif not isinstance(stmt, ast.ClassDef):
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                inner = getattr(stmt, field, None)
                if isinstance(inner, list):
                    yield from _defs_in(inner)


def nested_recursion(source: str, filename: str = "<source>") -> list[str]:
    """One message per nested function referring to itself or a sibling."""
    found = []
    for outer in ast.walk(ast.parse(source, filename)):
        if not isinstance(outer, _FUNCTIONS):
            continue
        nested = list(_defs_in(outer.body))
        names = {func.name for func in nested}
        for func in nested:
            loads = {
                node.id
                for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for target in sorted(loads & names):
                what = "itself" if target == func.name else f"sibling {target!r}"
                found.append(
                    f"{filename}:{func.lineno}: nested function "
                    f"{outer.name}.{func.name} refers to {what}"
                )
    return found


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src/repro")]
    found = []
    for root in roots:
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            found += nested_recursion(path.read_text(encoding="utf-8"), str(path))
    for line in found:
        print(line)
    if found:
        print(f"{len(found)} nested function(s) refer to themselves or a sibling: "
              "move them to module level")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
