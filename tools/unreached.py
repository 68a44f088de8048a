"""Statement lines of ``src/senvr`` that no test of the suite runs.

A stdlib stand-in for a coverage tool.  The script installs a line tracer
for frames whose code lives under ``src/senvr`` before anything imports
senvr, runs the suite in this process with pytest, and then prints, per
module, the lines of the statements (read from ``ast``) that never ran:

    python3 tools/unreached.py

It exits with pytest's status.  Code that only the tests' subprocesses
run, such as the ``__main__`` guards, is listed too, and
``tests/test_trace_form.py``, which runs the benchmark, is deselected.
It is not part of tier-1: tracing slows the suite to about 80 s on 2 cores.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "senvr"
PREFIX = str(PACKAGE) + os.sep


def trace_lines(ran: dict[str, set[int]]):
    """A global trace function that records the lines run in senvr's frames."""

    def global_trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PREFIX):
            return None
        lines = ran[path]

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        lines.add(frame.f_lineno)
        return local_trace

    return global_trace


def statement_spans(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, lines any of which runs the statement) for each statement.

    A statement's own lines run from its first decorator to the line
    before its first nested statement.  ``global`` and ``nonlocal``
    compile to no code.
    """
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        nested = [
            child.lineno
            for field in ("body", "orelse", "handlers", "finalbody")
            for child in getattr(node, field, [])
        ]
        last = min(nested) - 1 if nested else node.end_lineno
        spans.append((first, range(first, max(first, last) + 1)))
    return spans


def docstring_lines(tree: ast.Module) -> set[int]:
    """First lines of function docstrings, which compile to no code."""
    return {
        node.body[0].lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node)
    }


def unreached(path: Path, ran: set[int]) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = docstring_lines(tree)
    return sorted(
        first
        for first, lines in statement_spans(tree)
        if first not in skipped and not ran.intersection(lines)
    )


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    if "senvr" in sys.modules:
        raise SystemExit("senvr was imported before the tracer was installed")
    ran: dict[str, set[int]] = defaultdict(set)
    tracer = trace_lines(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        os.chdir(ROOT)
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "tests", "--deselect", "tests/test_trace_form.py"]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("statements never run, by first line:")
    for path in sorted(PACKAGE.glob("*.py")):
        missing = unreached(path, ran[str(path)])
        if missing:
            print(f"{path.relative_to(ROOT)}: {ranges(missing)}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
