"""List the lines of ``src/ews`` that no tier-1 test executes.

    python3 tools/linecov.py [PYTEST_ARGS...]

Runs pytest on ``tests/`` in this process under a ``sys.settrace`` line
tracer (``coverage`` is not a dependency), then prints each executable
line of ``src/ews`` that never ran as ``path:line: source``.  Tests that
run the CLI in a subprocess do not count.  Exits with pytest's code.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "ews")


def executable_lines(path: str) -> set[int]:
    """Line numbers that carry bytecode in the module at `path`."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {os.path.join(SRC, f) for f in os.listdir(SRC) if f.endswith(".py")}
    hit = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [ROOT + "/tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - hit[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
