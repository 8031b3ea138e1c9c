"""Print the statements of ``src/imgforge`` that tier-1 never runs.

Runs pytest in this process under a ``sys.settrace`` line tracer that
follows only the package's own files, then lists every line that starts a
statement in the compiled code of a file and never ran, as
``path:line: text``, and a total.  Code that runs only in a child process is
listed too: ``python -m imgforge``'s, the five statements of ``__main__.py`` and
of ``cli.py``'s ``__main__`` guard, which are all it should list.  A gap is
reported, never failed on; the exit status is pytest's.

    PYTHONPATH=src python tests/coverage_report.py -q
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "imgforge"


def statement_lines(path: Path) -> set[int]:
    """The lines at which some statement of ``path``'s compiled code starts, leaving
    out the imports under ``if TYPE_CHECKING:``, which only a type checker runs."""
    text = path.read_text()
    lines: set[int] = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines -= set(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    followed: dict[str, set[int] | None] = {}  # a code object's file name: its set, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in followed:
            followed[name] = ran.get(os.path.realpath(name))
        lines = followed[name]
        if lines is None:
            return None  # not the package's: its lines are not traced
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = total = 0
    root = PACKAGE.parent.parent
    for name, path in files.items():
        expected = statement_lines(path)
        total += len(expected)
        text = path.read_text().splitlines()
        for number in sorted(expected - ran[name]):
            missing += 1
            print(f"{path.relative_to(root)}:{number}: {text[number - 1].strip()}")
    print(f"{missing} of {total} statements of src/imgforge never ran under tier-1")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
