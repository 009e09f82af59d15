"""List the lines of src/catscan that the tier-1 suite never runs.

Run from the repository root, with the stdlib and pytest only:

    PYTHONPATH=src python tools/unreached_lines.py

A line tracer (sys.settrace, and threading.settrace for new threads) records
every line run in src/catscan while pytest runs the suite in this process.
A module's executable lines are the co_lines() of its compiled source and of
every nested code object, without the line-0 prologue entries and without
def, class, decorator, docstring and import lines. Each executable line the
tracer never saw is printed as path:line: source, and the exit code is
pytest's. Code run only in a subprocess (the CLI's __main__ entry) is not
seen. The traced suite takes several times its usual time.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "catscan"


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _skipped_lines(tree: ast.Module) -> set[int]:
    """def, class, decorator, docstring and import lines."""

    def span(node) -> range:
        return range(node.lineno, node.end_lineno + 1)

    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(span(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                skipped.update(span(decorator))
            skipped.update(range(node.lineno, node.body[0].lineno))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.update(span(node.body[0]))
    return skipped


def main() -> int:
    prefix = str(PACKAGE) + "/"
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        executable = _code_lines(compile(source, str(path), "exec")) - _skipped_lines(ast.parse(source))
        for line in sorted(executable):
            if (str(path), line) not in seen:
                print(f"{path.relative_to(REPO)}:{line}: {lines[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
