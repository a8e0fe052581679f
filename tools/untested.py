#!/usr/bin/env python3
"""List the statements of the vrpca package that no test executes.

    python3 tools/untested.py                    # runs the suite under tests/
    python3 tools/untested.py tests/test_io.py -k binary   # pytest arguments

Runs pytest in this process, with the arguments given (default: tests),
tracing only the frames of src/vrpca with sys.settrace and
threading.settrace, so the library's pass threads are traced too. Then
prints each statement of src/vrpca/*.py that ran in none of them, as
``path:line: source``. A statement counts as run when any line of its
own ran: a simple statement's lines, a compound statement's header (a
decorated definition's decorators included), not its body. ``global``
and ``nonlocal`` statements, docstrings and ``try`` headers, which
execute no line of their own, are not listed. Code that runs only in a
subprocess is not traced, so a statement that only a test's subprocess
runs is listed too. Standard library only; the program is imported from
src/ of the checkout this file sits in. Exits with pytest's status.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vrpca"

#: statements that execute no line of their own
_SILENT = (ast.Global, ast.Nonlocal, ast.Try)


def _own_lines(node):
    """The lines whose execution shows that the statement ``node`` ran:
    from its first decorator or its own first line to the line before its
    first nested statement, or to its end when it nests none."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    nested = [child.lineno for child in ast.iter_child_nodes(node)
              if isinstance(child, ast.stmt)]
    last = min(nested) - 1 if nested else node.end_lineno
    return range(first, max(first, last) + 1)


def statements(path):
    """(line, own lines) of every statement of the Python file ``path``
    that executes a line of its own."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        docstring = (isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        if isinstance(node, ast.stmt) and not (
                docstring or isinstance(node, _SILENT)):
            yield node.lineno, _own_lines(node)


def run(args):
    """Run pytest with ``args``, tracing src/vrpca; (exit status, the set
    of (file name, line) that ran)."""
    prefix = str(PACKAGE) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main():
    status, ran = run(sys.argv[1:] or ["tests"])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for line, own in sorted(statements(path), key=lambda s: s[0]):
            if not any((str(path), n) in ran for n in own):
                missed.append(f"{path.relative_to(ROOT)}:{line}: "
                              f"{lines[line - 1].strip()}")
    print(f"\nstatements of src/vrpca that no test executed: {len(missed)} "
          "(code run only in a subprocess is not traced)")
    print("\n".join(missed))
    sys.exit(status)


if __name__ == "__main__":
    main()
