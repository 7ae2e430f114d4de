"""Run tier-1 in this process under a line trace and print every
function-body line of src/dqdsim that never ran.

    python tests/line_trace.py [pytest arguments]

The trace is the standard library's sys.settrace, set for this thread and,
through threading.settrace, for every thread started after it; it follows
frames of src/dqdsim only. A line counts when it holds bytecode of a
function, method, lambda or generator expression, and runs when a line
event or, for the line a frame starts on, a call event reaches it; module
and class bodies, run at import, are not listed. Lines
run only in a process pool's workers or in a subprocess are not seen:
tier-1 runs none that the main process does not run too.

Each unexecuted line is printed as path:line: source. The exit status is
pytest's when tier-1 fails, else 1 when a line is listed, else 0. The name
does not match test_*.py, so pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dqdsim"
sys.path.insert(0, str(ROOT / "src"))

CO_OPTIMIZED = 0x1  # set on function code, clear on module and class bodies


def body_lines(code) -> set:
    """The lines of every function code object nested in code."""
    lines = set()
    if code.co_flags & CO_OPTIMIZED:
        lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= body_lines(const)
    return lines


def main(argv=None) -> int:
    os.chdir(ROOT)  # tier-1 is the tests under pyproject.toml's testpaths
    package = str(PACKAGE) + os.sep
    ran = {}  # filename -> set of lines

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not (filename.startswith(package) and frame.f_code.co_flags & CO_OPTIMIZED):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            *(sys.argv[1:] if argv is None else argv)]
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code = compile(source, str(path), "exec")
        text = source.splitlines()
        for line in sorted(body_lines(code) - ran.get(str(path), set())):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    for line in missed:
        print(line)
    if status != 0:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
